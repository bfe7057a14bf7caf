"""Toy decoder-only transformer: config, weights, deterministic init, weight files.

The block structure is pre-norm (RMS norm -> attention -> residual,
RMS norm -> gated MLP -> residual) with rotary positions and no biases.
There is no tokenizer; callers feed integer token ids, and a byte-level
fallback maps bytes 0..255 to ids.

Weight initialization uses a documented splitmix64 stream so that any
implementation can replay it: draw n (1-based) has state
(seed + n * 0x9E3779B97F4A7C15) mod 2**64, mixed by

    z ^= z >> 30; z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27; z *= 0x94D049BB133111EB
    z ^= z >> 31

and is mapped to a float via (z >> 11) / 2**53 * 2 - 1, i.e. uniform in
[-1, 1), then scaled by 1/sqrt(model_dim) and cast to float32. Random
tensors are drawn in this order: token_embedding, then per layer
wq, wk, wv, wo, w_gate, w_up, w_down, then output_projection (row-major
within each tensor). Norm gains are not drawn; they start at 1.

`_tensor_manifest` is the one list of tensors: it sets the draw order and
the weight file's order. Every `Weights` holds one flat float32 `payload`
of all its tensors in manifest order, and each tensor is a view of it,
whatever made the weights; `_assemble` is the one place that builds
`Weights`, from a config and a payload. `init_random` draws into a fresh
payload, `make_redundant` copies one and overwrites head blocks in place,
`save_weights` writes it in one call and `weights_equal` compares two.
`Weights` and `LayerWeights` are frozen, so no tensor can be rebound away
from the payload. `load_weights` checks the file's header before it
allocates anything the header sizes, then reads the payload once into its
own private anonymous memory mapping, so a load's peak is about one
payload, and the mapping goes back to the system whole when the weights
are released.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import mmap
import os
import struct
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    BadMagicError, ConfigError, HeaderMismatchError, TruncatedWeightsError, WeightFileError
)
from .plan import ClusterPlan, HeadLayout, is_integer

MAGIC = b"CHAIWGT1"

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


@dataclass(frozen=True)
class ModelConfig:
    num_layers: int
    num_heads: int
    model_dim: int
    head_dim: int
    ffn_dim: int
    vocab_size: int
    max_seq_len: int

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not is_integer(value) or value < 1:
                raise ConfigError(f"{f.name} must be a positive integer, got {value!r}")
        if self.model_dim != self.num_heads * self.head_dim:
            raise ConfigError(
                f"model_dim {self.model_dim} != num_heads {self.num_heads} "
                f"* head_dim {self.head_dim}"
            )
        if self.head_dim % 2 != 0:
            raise ConfigError(f"head_dim must be even for rotary positions, got {self.head_dim}")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        return cls(**{f.name: data[f.name] for f in fields(cls)})

    def fingerprint(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()


@dataclass(frozen=True)
class LayerWeights:
    attn_norm_gain: np.ndarray  # (d,)
    wq: np.ndarray  # (d, d), column-partitioned into H head blocks of width d_h
    wk: np.ndarray  # (d, d)
    wv: np.ndarray  # (d, d)
    wo: np.ndarray  # (d, d)
    mlp_norm_gain: np.ndarray  # (d,)
    w_gate: np.ndarray  # (d, ffn)
    w_up: np.ndarray  # (d, ffn)
    w_down: np.ndarray  # (ffn, d)


@dataclass(frozen=True)
class Weights:
    config: ModelConfig
    payload: np.ndarray  # flat float32: every tensor below, in manifest order
    token_embedding: np.ndarray  # (vocab, d)
    layers: tuple[LayerWeights, ...]
    final_norm_gain: np.ndarray  # (d,)
    output_projection: np.ndarray  # (d, vocab)


def head_columns(w: np.ndarray, heads, head_dim: int) -> np.ndarray:
    """Column submatrix of `w` covering the given heads' blocks, in the order
    given. Returns `w` itself when the selection is all heads in order."""
    heads, d = list(heads), w.shape[0]
    if heads == list(range(w.shape[1] // head_dim)):
        return w
    return w.reshape(d, -1, head_dim)[:, heads].reshape(d, -1)


class _SplitMix64Stream:
    """Counter-based splitmix64 stream; see the module docstring for the formula."""

    def __init__(self, seed: int):
        self.seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self.drawn = 0

    def uniform(self, count: int) -> np.ndarray:
        # uint64 arithmetic wraps mod 2**64. Every step runs in place: fresh
        # temporaries would make a draw's cost hinge on the allocator's state.
        z = np.arange(self.drawn + 1, self.drawn + count + 1, dtype=np.uint64)
        self.drawn += count
        with np.errstate(over="ignore"):
            z *= np.uint64(_GOLDEN)
            z += self.seed
            z ^= z >> np.uint64(30)
            z *= np.uint64(_MIX1)
            z ^= z >> np.uint64(27)
            z *= np.uint64(_MIX2)
            z ^= z >> np.uint64(31)
        z >>= np.uint64(11)
        u = z.astype(np.float64)
        u /= float(1 << 53)
        u *= 2.0
        u -= 1.0
        return u


def init_random(config: ModelConfig, seed: int) -> Weights:
    """Deterministic random weights; identical (config, seed) is bit-identical."""
    stream = _SplitMix64Stream(seed)
    scale = 1.0 / np.sqrt(config.model_dim)
    manifest = _tensor_manifest(config)
    payload = np.empty(sum(rows * cols for _, rows, cols in manifest), np.float32)
    for (name, *_), piece in zip(manifest, _split(payload, manifest)):
        # assigning the float64 draw rounds it as astype(np.float32) does
        piece[:] = 1.0 if name.endswith("_gain") else stream.uniform(piece.size) * scale
    return _assemble(config, payload)


def make_redundant(weights: Weights, plan: ClusterPlan) -> Weights:
    """Copy of `weights` whose wq/wk head blocks are shared within each plan cluster.

    Heads in the same cluster then produce identical attention rows, which makes
    the clustered attention path exactly equivalent to the plain one. Test
    fixture; all other tensors are untouched.
    """
    config = weights.config
    HeadLayout(config, plan)  # rejects a plan shaped for another model
    redundant = _assemble(config, weights.payload.copy())
    for layer_weights, layer_plan in zip(redundant.layers, plan.layers):
        # head h takes its cluster representative's block
        source = [layer_plan.representatives[c] for c in layer_plan.assignment]
        for w in (layer_weights.wq, layer_weights.wk):
            w[:] = head_columns(w, source, config.head_dim)
    return redundant


def _tensor_manifest(config: ModelConfig) -> list[tuple[str, int, int]]:
    """(name, rows, cols) of every tensor, in draw order, file order and
    payload order. A layer's tensors are `layers.{i}.{field}` in
    LayerWeights field order; norm gains (names ending in `_gain`) are (d,)
    vectors, stored as 1-row matrices."""
    d, ffn, vocab = config.model_dim, config.ffn_dim, config.vocab_size
    shapes = {"w_gate": (d, ffn), "w_up": (d, ffn), "w_down": (ffn, d)}
    layer = [
        (f.name, *((1, d) if f.name.endswith("_gain") else shapes.get(f.name, (d, d))))
        for f in fields(LayerWeights)
    ]
    return [
        ("token_embedding", vocab, d),
        *((f"layers.{i}.{name}", rows, cols)
          for i in range(config.num_layers) for name, rows, cols in layer),
        ("final_norm_gain", 1, d),
        ("output_projection", d, vocab),
    ]


def _split(payload: np.ndarray, manifest) -> list[np.ndarray]:
    """Flat views of `payload`, one per manifest entry."""
    return np.split(payload, np.cumsum([rows * cols for _, rows, cols in manifest])[:-1])


def _assemble(config: ModelConfig, payload: np.ndarray) -> Weights:
    """`Weights` over `payload`, a flat float32 array of every tensor in
    manifest order; each tensor is a view of it, and a `_gain` a vector."""
    manifest = _tensor_manifest(config)
    arrays = {
        name: piece if name.endswith("_gain") else piece.reshape(rows, cols)
        for (name, rows, cols), piece in zip(manifest, _split(payload, manifest), strict=True)
    }
    layers = tuple(
        LayerWeights(**{f.name: arrays[f"layers.{i}.{f.name}"] for f in fields(LayerWeights)})
        for i in range(config.num_layers)
    )
    return Weights(
        config=config,
        payload=payload,
        token_embedding=arrays["token_embedding"],
        layers=layers,
        final_norm_gain=arrays["final_norm_gain"],
        output_projection=arrays["output_projection"],
    )


def save_weights(weights: Weights, path) -> None:
    """Write magic, length-prefixed JSON header, then little-endian float32 payload."""
    header = {
        "config": weights.config.to_dict(),
        "tensors": [list(entry) for entry in _tensor_manifest(weights.config)],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(weights.payload.astype("<f4", copy=False))


def load_weights(path) -> Weights:
    """Inverse of save_weights; round-trips bit-exactly. Every tensor is a
    view of one float32 array over an anonymous mapping of exactly the
    payload's bytes, read once.

    Raises BadMagicError, TruncatedWeightsError, or HeaderMismatchError for
    the corresponding file defects, each message beginning `weights PATH: `.
    """

    def defect(kind: type[WeightFileError], problem: str) -> WeightFileError:
        return kind(f"weights {path}: {problem}")

    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < len(MAGIC):
            raise defect(TruncatedWeightsError, f"file is {size} bytes, shorter than the magic")
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise defect(BadMagicError, f"expected magic {MAGIC!r}, found {magic!r}")
        offset = len(MAGIC)

        if size < offset + 4:
            raise defect(TruncatedWeightsError, "file ends inside the header length prefix")
        (header_len,) = struct.unpack("<I", fh.read(4))
        offset += 4
        if size < offset + header_len:
            raise defect(TruncatedWeightsError, "file ends inside the JSON header")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
            config = ModelConfig.from_dict(header["config"])
            declared = [tuple(entry) for entry in header["tensors"]]
        except (ValueError, KeyError, TypeError, ConfigError) as exc:
            raise defect(HeaderMismatchError, f"unreadable header: {exc}") from exc
        offset += header_len

        # Check the header's sizes against the config, and the payload's
        # against the file, before allocating anything whose size they set.
        entry_count = 3 + config.num_layers * len(fields(LayerWeights))
        if len(declared) != entry_count:
            raise defect(
                HeaderMismatchError,
                f"header declares {len(declared)} tensors, its config implies {entry_count}",
            )
        expected = _tensor_manifest(config)
        if declared != expected:
            got, want = next((g, w) for g, w in zip(declared, expected) if g != w)
            raise defect(
                HeaderMismatchError,
                "tensor manifest does not match the declared config "
                f"(first difference: declared {got}, expected {want})",
            )
        payload = 4 * sum(rows * cols for _, rows, cols in expected)
        if size - offset < payload:
            raise defect(
                TruncatedWeightsError,
                f"file ends inside the payload: need {payload} bytes at offset {offset}, "
                f"{size - offset} left",
            )
        if size - offset > payload:
            raise defect(
                HeaderMismatchError, f"{size - offset - payload} trailing bytes after the payload"
            )

        # a private anonymous mapping, apart from the heap, on huge pages
        # where the kernel has them, as numpy asks for its own large arrays
        buffer = mmap.mmap(-1, payload, flags=mmap.MAP_PRIVATE)
        with contextlib.suppress(AttributeError, OSError):  # no madvise, or no huge pages
            buffer.madvise(mmap.MADV_HUGEPAGE)
        read = fh.readinto(buffer)
        if read != payload:
            raise defect(
                TruncatedWeightsError,
                f"file ends inside the payload: read {read} of {payload} bytes at offset {offset}",
            )

    # copies only on a big-endian host
    return _assemble(config, np.frombuffer(buffer, "<f4").astype(np.float32, copy=False))


def weights_equal(a: Weights, b: Weights) -> bool:
    """Bitwise equality of two weight sets (used by round-trip tests): a NaN
    equals itself, and 0.0 differs from -0.0."""
    bits = (a.payload.view(np.uint32), b.payload.view(np.uint32))
    return a.config == b.config and np.array_equal(*bits)


def byte_prompt(text: bytes | str) -> list[int]:
    """Byte-level fallback: maps raw bytes to token ids 0..255."""
    if isinstance(text, str):
        text = text.encode("utf-8")
    return list(text)
