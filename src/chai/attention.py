"""Multi-head and clustered-head attention over a prunable KV cache.

There is one single-token attention path, `clustered_forward`. Under a frozen
plan it reads as grouped-query attention (GQA) over a per-request layout:
each cache slot holds one cluster representative's key plane, the slot's
query is the representative's, and every head blends values with its slot's
probability row. Plain multi-head decoding is the singleton plan (one head
per slot), which prunes nothing and selects no weight columns.
`mha_forward` is the multi-row causal path over an unpruned cache, used for
prefill. Pruning physically drops key storage for non-representative heads;
value rows are kept for every head, except under the value-reuse variant
which stores only the representatives' values.

Cache ownership: a KVCache belongs to exactly one in-flight request. Layer
weights are read-only and shareable.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .errors import (
    ContractError, InsufficientTraceError, ModeMismatchError, ShapeError, ValidationError
)
from .kernels import apply_rope_heads, matmul, softmax_rows
from .model import LayerWeights, ModelConfig, head_columns
from .plan import ClusterPlan


class LayerCache:
    """Preallocated per-layer key/value storage.

    `keys` holds one plane per stored key head (all heads before pruning,
    representatives after); `values` holds one plane per stored value head.
    Only the first `length` positions of each plane are live.
    """

    def __init__(self, key_heads: list[int], value_heads: list[int], capacity: int, head_dim: int):
        self.stored_key_heads = list(key_heads)
        self.stored_value_heads = list(value_heads)
        self.keys = np.zeros((len(key_heads), capacity, head_dim), dtype=np.float32)
        self.values = np.zeros((len(value_heads), capacity, head_dim), dtype=np.float32)
        self.length = 0

    def append(self, new_keys: np.ndarray, new_values: np.ndarray) -> None:
        """Append `tokens` new positions; arrays are (stored_heads, tokens, head_dim)."""
        tokens = new_keys.shape[1]
        if self.length + tokens > self.keys.shape[1]:
            raise ContractError(
                f"cache capacity {self.keys.shape[1]} exceeded at length {self.length}"
            )
        self.keys[:, self.length : self.length + tokens, :] = new_keys
        self.values[:, self.length : self.length + tokens, :] = new_values
        self.length += tokens

    def live_keys(self) -> np.ndarray:
        return self.keys[:, : self.length, :]

    def live_values(self) -> np.ndarray:
        return self.values[:, : self.length, :]


class KVCache:
    def __init__(self, config: ModelConfig):
        self.config = config
        all_heads = list(range(config.num_heads))
        self.layers = [
            LayerCache(all_heads, all_heads, config.max_seq_len, config.head_dim)
            for _ in range(config.num_layers)
        ]
        self.pruned = False

    @property
    def length(self) -> int:
        return self.layers[0].length

    def summary(self) -> dict:
        return {
            "length": self.length,
            "pruned": self.pruned,
            "layers": [
                {
                    "stored_key_heads": list(lc.stored_key_heads),
                    "stored_value_heads": list(lc.stored_value_heads),
                }
                for lc in self.layers
            ],
        }


def prune_cache(cache: KVCache, plan: ClusterPlan, prune_values: bool = False) -> KVCache:
    """Drop key rows of non-representative heads; values are kept unless
    `prune_values` (the value-reuse variant) is set. Returns a new cache;
    the sequence length is unchanged."""
    if cache.pruned:
        raise ContractError("cache is already pruned")
    config = cache.config
    if plan.num_layers != config.num_layers:
        raise ContractError(
            f"plan covers {plan.num_layers} layers, cache has {config.num_layers}"
        )
    pruned = KVCache.__new__(KVCache)
    pruned.config = config
    pruned.pruned = True
    pruned.layers = []
    for lc, layer_plan in zip(cache.layers, plan.layers):
        if layer_plan.num_heads != config.num_heads:
            raise ContractError(
                f"plan has {layer_plan.num_heads} heads, cache has {config.num_heads}"
            )
        reps = sorted(layer_plan.representatives)
        value_heads = reps if prune_values else list(range(config.num_heads))
        new_lc = LayerCache(reps, value_heads, config.max_seq_len, config.head_dim)
        # unpruned, so head h's planes sit in row h
        new_lc.keys[:, : lc.length, :] = lc.keys[reps, : lc.length, :]
        new_lc.values[:, : lc.length, :] = lc.values[value_heads, : lc.length, :]
        new_lc.length = lc.length
        pruned.layers.append(new_lc)
    return pruned


class AttentionTrace:
    """Per-layer, per-head attention probability rows keyed by decode step.

    Steps are 1-based and offset by `base_position`: a row recorded at
    absolute cache position p lands at step p + 1 - base_position, so a
    generation run traces its decoded positions as steps 1, 2, ... while a
    run over a fresh cache (calibration) yields rows of length 1, 2, ...
    Rows at step <= 0 (inside the untraced prompt) are discarded.
    """

    def __init__(self, num_layers: int, num_heads: int, base_position: int = 0):
        self.num_layers = num_layers
        self.num_heads = num_heads
        self.base_position = base_position
        self._rows: dict[tuple[int, int], dict[int, np.ndarray]] = {}

    def record(self, layer: int, head: int, position: int, row: np.ndarray) -> None:
        step = position + 1 - self.base_position
        if step < 1:
            return
        total = float(row.sum())
        if not math.isfinite(total) or abs(total - 1.0) > 1e-5:
            raise ContractError(f"attention row sums to {total}, not 1")
        self._rows.setdefault((layer, head), {})[step] = np.asarray(row, dtype=np.float32).copy()

    def row(self, layer: int, head: int, step: int) -> np.ndarray:
        try:
            return self._rows[(layer, head)][step]
        except KeyError:
            raise InsufficientTraceError(
                f"trace has no row for layer {layer}, head {head}, step {step}"
            ) from None

    def steps(self, layer: int, head: int = 0) -> list[int]:
        return sorted(self._rows.get((layer, head), {}))

    def max_step(self) -> int:
        return max((max(steps) for steps in self._rows.values() if steps), default=0)


TRACE_COLUMNS = ("layer", "head", "step", "position", "probability")


def export_trace_csv(trace: AttentionTrace, path) -> None:
    """Write rows as (layer, head, step, position, probability), RFC-4180."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for layer in range(trace.num_layers):
            for head in range(trace.num_heads):
                for step in trace.steps(layer, head):
                    row = trace.row(layer, head, step)
                    for position, prob in enumerate(row.tolist()):
                        writer.writerow([layer, head, step, position, repr(prob)])


def load_trace_csv(path) -> AttentionTrace:
    """Read a trace CSV written by `export_trace_csv`. A missing column or
    head, a non-numeric field, positions other than 0..n-1, rows of unequal
    length at one (layer, step), or a layer whose steps are not consecutive
    with rows one position longer each step raise ValidationError."""

    def malformed(problem: str) -> ValidationError:
        return ValidationError(f"trace {path}: {problem}")

    rows: dict[tuple[int, int, int], list[tuple[int, float]]] = {}
    max_layer = -1
    max_head = -1
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in TRACE_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise ValidationError(f"trace {path} has no {', '.join(missing)} column")
        for record in reader:
            try:
                layer, head, step, position = (int(record[c]) for c in TRACE_COLUMNS[:4])
                probability = float(record["probability"])
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"trace {path} line {reader.line_num}: {exc}") from None
            rows.setdefault((layer, head, step), []).append((position, probability))
            max_layer = max(max_layer, layer)
            max_head = max(max_head, head)
    trace = AttentionTrace(max_layer + 1, max_head + 1)
    following: dict[int, tuple[int, int]] = {}  # layer -> (next step, its row length)
    for layer, step in sorted({(layer, step) for layer, _, step in rows}):
        lengths = set()
        for head in range(trace.num_heads):
            if (layer, head, step) not in rows:
                raise malformed(f"layer {layer}, step {step} has no head {head}")
            entries = sorted(rows[(layer, head, step)])
            if [position for position, _ in entries] != list(range(len(entries))):
                raise malformed(
                    f"positions of layer {layer}, head {head}, step {step} "
                    f"are not 0..{len(entries) - 1}"
                )
            row = np.array([prob for _, prob in entries], dtype=np.float32)
            trace._rows.setdefault((layer, head), {})[step] = row
            lengths.add(len(row))
        if len(lengths) > 1:
            raise malformed(f"rows of layer {layer}, step {step} differ in length")
        length = lengths.pop()
        if following.get(layer, (step, length)) != (step, length):
            want_step, want_length = following[layer]
            raise malformed(
                f"layer {layer} has step {step} of {length} positions where step "
                f"{want_step} of {want_length} positions should follow"
            )
        following[layer] = (step + 1, length + 1)
    return trace


def _head_scale(head_dim: int) -> np.float32:
    # Scores scale by the per-head dimension, not the model dimension.
    return np.float32(1.0 / math.sqrt(head_dim))


def _project_heads(x: np.ndarray, columns: np.ndarray, head_dim: int) -> np.ndarray:
    """One batched projection onto selected head columns: (T, n_heads, head_dim)."""
    return matmul(x, columns).reshape(x.shape[0], -1, head_dim)


def _to_cache_layout(block: np.ndarray) -> np.ndarray:
    """(T, heads, d_h) -> contiguous (heads, T, d_h)."""
    return np.ascontiguousarray(block.transpose(1, 0, 2))


def _score_rows(queries: np.ndarray, keys: np.ndarray, scale: np.float32) -> np.ndarray:
    """Single-token scores: (n, d_h) queries against (n, len, d_h) keys -> (n, len)."""
    scores = np.matmul(queries[:, None, :], keys.transpose(0, 2, 1))[:, 0, :]
    scores *= scale
    return scores


def _blend_values(rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-head weighted value sums: (n, len) rows x (n, len, d_h) -> (n, d_h)."""
    return np.matmul(rows[:, None, :], values)[:, 0, :]


def mha_forward(
    x: np.ndarray,
    layer_weights: LayerWeights,
    cache: KVCache,
    layer: int,
    trace: AttentionTrace | None = None,
) -> np.ndarray:
    """Causal multi-head attention of several rows over an unpruned cache.

    Projects Q/K/V for all heads in batched matmuls, rotates Q and K at their
    absolute positions, appends K and V to the cache, and attends causally.
    Serves prefill and calibration prefixes; decode steps go through
    `clustered_forward`. Heads are looped, each holding one (T, start + T)
    score buffer that is scaled and softmax-normalized in place; each head's
    value blend is written straight into its columns of the merged output.
    """
    config = cache.config
    num_heads, head_dim = config.num_heads, config.head_dim
    lc = cache.layers[layer]
    if lc.stored_key_heads != list(range(num_heads)):
        raise ModeMismatchError(
            f"mha_forward needs all {num_heads} key heads cached, "
            f"found {lc.stored_key_heads}"
        )
    if x.ndim != 2 or x.shape[1] != config.model_dim:
        raise ShapeError(f"expected (T, {config.model_dim}) input, got {x.shape}")

    tokens = x.shape[0]
    start = lc.length
    scale = _head_scale(head_dim)

    queries = apply_rope_heads(_project_heads(x, layer_weights.wq, head_dim), start)
    new_keys = apply_rope_heads(_project_heads(x, layer_weights.wk, head_dim), start)
    new_values = _project_heads(x, layer_weights.wv, head_dim)
    lc.append(_to_cache_layout(new_keys), _to_cache_layout(new_values))

    live_keys = lc.live_keys()
    live_values = lc.live_values()
    merged = np.empty((tokens, num_heads * head_dim), dtype=np.float32)
    for head in range(num_heads):
        probs = matmul(queries[:, head, :], live_keys[head].T)
        probs *= scale
        softmax_rows(probs, causal_from=start, out=probs)
        merged[:, head * head_dim : (head + 1) * head_dim] = matmul(probs, live_values[head])
        if trace is not None:
            for i in range(tokens):
                trace.record(layer, head, start + i, probs[i, : start + i + 1])
    return matmul(merged, layer_weights.wo)


class PlanTensors:
    """Everything a decode step needs from a frozen plan, built once per plan.

    Per layer: the representatives' wq/wk columns in cluster order, the wv
    columns of the stored value heads, the cluster whose key each cache slot
    holds, the slot whose probability row each head uses, and the key and
    value head lists the cache must store. Slots hold representatives in
    ascending head order, as `prune_cache` leaves them. `prune_values`
    selects the value-reuse variant: one value head per slot. Under the
    singleton plan every column selection is the weight matrix itself.
    """

    def __init__(
        self, plan: ClusterPlan, weights_layers, head_dim: int, prune_values: bool = False
    ):
        self.prune_values = prune_values
        self.wq, self.wk, self.wv = [], [], []
        self.cluster_of_slot, self.slot_of_head = [], []
        self.key_heads, self.value_heads = [], []
        for layer_weights, layer_plan in zip(weights_layers, plan.layers):
            reps = list(layer_plan.representatives)
            key_heads = sorted(reps)
            value_heads = key_heads if prune_values else list(range(layer_plan.num_heads))
            cluster_of_slot = np.array(
                [layer_plan.assignment[h] for h in key_heads], dtype=np.intp
            )
            slot_of_cluster = np.empty(len(reps), dtype=np.intp)
            slot_of_cluster[cluster_of_slot] = np.arange(len(reps))
            self.wq.append(head_columns(layer_weights.wq, reps, head_dim))
            self.wk.append(head_columns(layer_weights.wk, reps, head_dim))
            self.wv.append(head_columns(layer_weights.wv, value_heads, head_dim))
            self.cluster_of_slot.append(cluster_of_slot)
            self.slot_of_head.append(slot_of_cluster[np.asarray(layer_plan.assignment)])
            self.key_heads.append(key_heads)
            self.value_heads.append(value_heads)


def clustered_forward(
    x_t: np.ndarray,
    layer_weights: LayerWeights,
    cache: KVCache,
    layer: int,
    plan_tensors: PlanTensors,
    trace: AttentionTrace | None = None,
) -> np.ndarray:
    """Single-token attention computing Q/K and score rows only for cluster
    representatives; every head's output uses its representative's
    probability row. With one value head per slot (value reuse) the slot's
    value output is replicated across the cluster instead of blending each
    head's own values. `trace` records each head's probability row."""
    config = cache.config
    num_heads, head_dim = config.num_heads, config.head_dim
    lc = cache.layers[layer]
    pt = plan_tensors
    expected = (pt.key_heads[layer], pt.value_heads[layer])
    if (lc.stored_key_heads, lc.stored_value_heads) != expected:
        raise ContractError(
            f"cache stores key heads {lc.stored_key_heads} and value heads "
            f"{lc.stored_value_heads}; the plan expects {expected[0]} and {expected[1]}"
        )
    if x_t.ndim != 2 or x_t.shape[0] != 1 or x_t.shape[1] != config.model_dim:
        raise ShapeError(f"clustered_forward decodes one token, got input {x_t.shape}")

    start = lc.length
    scale = _head_scale(head_dim)
    cluster_of_slot = pt.cluster_of_slot[layer]
    slot_of_head = pt.slot_of_head[layer]

    # projections land in cluster-id order (one row per cluster)
    queries = apply_rope_heads(_project_heads(x_t, pt.wq[layer], head_dim), start)
    new_keys = apply_rope_heads(_project_heads(x_t, pt.wk[layer], head_dim), start)
    new_values = _project_heads(x_t, pt.wv[layer], head_dim)

    # cache slots hold representatives in ascending-head order; reorder the
    # small per-token tensors rather than the cached key planes
    lc.append(_to_cache_layout(new_keys[:, cluster_of_slot, :]), _to_cache_layout(new_values))

    live_keys = lc.live_keys()
    live_values = lc.live_values()

    probs_by_slot = softmax_rows(_score_rows(queries[0][cluster_of_slot], live_keys, scale))
    if trace is not None:
        for head in range(num_heads):
            trace.record(layer, head, start, probs_by_slot[slot_of_head[head]])

    if pt.prune_values:
        head_outputs = _blend_values(probs_by_slot, live_values)[slot_of_head]
    else:
        head_outputs = _blend_values(probs_by_slot[slot_of_head], live_values)
    merged = head_outputs.reshape(1, num_heads * head_dim)
    return matmul(merged, layer_weights.wo)
