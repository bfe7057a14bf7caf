import json
import struct
import tracemalloc
from dataclasses import FrozenInstanceError, fields
from types import SimpleNamespace

import numpy as np
import pytest

from chai import model
from chai.errors import (
    BadMagicError,
    ConfigError,
    ContractError,
    HeaderMismatchError,
    TruncatedWeightsError,
)
from chai.model import (
    LayerWeights,
    ModelConfig,
    byte_prompt,
    init_random,
    load_weights,
    make_redundant,
    save_weights,
    weights_equal,
)
from chai.plan import ClusterPlan
from helpers import grouped_plan, rewrite_header_config, small_config, small_weights


def splitmix64_reference(seed, count):
    """Independent pure-int replay of the documented init generator."""
    mask = (1 << 64) - 1
    out = []
    for n in range(1, count + 1):
        z = (seed + n * 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z = z ^ (z >> 31)
        out.append((z >> 11) / float(1 << 53) * 2.0 - 1.0)
    return out


class TestConfig:
    def test_dim_consistency_enforced(self):
        with pytest.raises(ConfigError):
            small_config(model_dim=33)

    def test_odd_head_dim_rejected(self):
        with pytest.raises(ConfigError):
            small_config(head_dim=7, model_dim=28)

    def test_nonpositive_field_rejected(self):
        with pytest.raises(ConfigError):
            small_config(vocab_size=0)

    def test_boolean_field_rejected(self):
        # JSON's true loads as a bool, which is an int subclass
        with pytest.raises(ConfigError, match="max_seq_len must be a positive integer, got True"):
            small_config(max_seq_len=True)

    def test_fingerprint_tracks_config(self):
        assert small_config().fingerprint() == small_config().fingerprint()
        assert small_config().fingerprint() != small_config(vocab_size=33).fingerprint()


class TestInitRandom:
    def test_same_seed_bitwise_equal(self):
        assert weights_equal(small_weights(seed=3), small_weights(seed=3))

    def test_different_seeds_differ(self):
        a, b = small_weights(seed=0), small_weights(seed=1)
        assert not np.array_equal(a.token_embedding, b.token_embedding)

    def test_embedding_matches_reference_generator(self):
        config = small_config(num_heads=4, head_dim=16, model_dim=64, vocab_size=8)
        weights = init_random(config, seed=0)
        n = config.vocab_size * config.model_dim
        reference = np.array(splitmix64_reference(0, n)) / np.sqrt(64.0)
        want = reference.astype(np.float32).reshape(8, 64)
        np.testing.assert_array_equal(weights.token_embedding, want)
        assert abs(weights.token_embedding.mean() - want.mean()) == 0.0

    def test_values_finite_and_scaled(self):
        weights = small_weights()
        bound = 1.0 / np.sqrt(weights.config.model_dim)
        for layer in weights.layers:
            assert np.all(np.isfinite(layer.wq))
            assert np.max(np.abs(layer.wq)) <= bound

    def test_norm_gains_start_at_one(self):
        weights = small_weights()
        np.testing.assert_array_equal(weights.final_norm_gain, np.ones(32, dtype=np.float32))


class TestMakeRedundant:
    def test_singleton_plan_is_identity(self):
        weights = small_weights()
        plan = ClusterPlan.singleton(2, 4)
        assert weights_equal(make_redundant(weights, plan), weights)

    def test_single_cluster_duplicates_all_blocks(self):
        weights = small_weights()
        plan = grouped_plan(2, 4, [1, 1])
        redundant = make_redundant(weights, plan)
        wq = redundant.layers[0].wq
        for head in range(1, 4):
            block = wq[:, head * 8 : (head + 1) * 8]
            np.testing.assert_array_equal(block, wq[:, :8])

    def test_untouched_tensors_preserved(self):
        weights = small_weights()
        redundant = make_redundant(weights, grouped_plan(2, 4, [2, 2]))
        np.testing.assert_array_equal(redundant.layers[0].wv, weights.layers[0].wv)
        np.testing.assert_array_equal(redundant.layers[0].wo, weights.layers[0].wo)
        np.testing.assert_array_equal(redundant.token_embedding, weights.token_embedding)

    def test_layer_count_mismatch_rejected(self):
        with pytest.raises(ContractError):
            make_redundant(small_weights(), ClusterPlan.singleton(3, 4))

    def test_head_count_mismatch_rejected(self):
        with pytest.raises(ContractError):
            make_redundant(small_weights(), ClusterPlan.singleton(2, 8))


class TestHeadColumns:
    W = np.random.default_rng(3).standard_normal((64, 96)).astype(np.float32)  # 12 heads of 8

    @pytest.mark.parametrize("heads", [[0, 3, 7], [7, 0, 11, 3], [5], (2, 1)],
                             ids=["ordered", "permuted", "single", "tuple"])
    def test_byte_equal_to_the_column_gather_and_contiguous(self, heads):
        cols = np.concatenate([np.arange(h * 8, (h + 1) * 8) for h in heads])
        got = model.head_columns(self.W, heads, 8)
        want = self.W[:, cols]
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous

    def test_every_head_in_order_is_the_matrix_itself(self):
        assert model.head_columns(self.W, range(12), 8) is self.W


class TestWeightFile:
    def test_round_trip_bitwise(self, tmp_path):
        # ffn_dim=1 makes w_down a 1-row matrix, which must stay a matrix
        for ffn_dim in (48, 1):
            weights = small_weights(seed=11, ffn_dim=ffn_dim)
            path = tmp_path / "w.bin"
            save_weights(weights, path)
            assert weights_equal(load_weights(path), weights)

    def test_equality_is_bitwise(self, tmp_path):
        weights = small_weights(seed=11)
        weights.token_embedding[0, :2] = [np.nan, -0.0]
        path = tmp_path / "w.bin"
        save_weights(weights, path)
        assert weights_equal(load_weights(path), weights)
        signed = load_weights(path)
        signed.token_embedding[0, 1] = 0.0
        assert not weights_equal(signed, weights)

    def test_round_trip_over_random_small_configs(self, tmp_path):
        rng = np.random.default_rng(0)
        for i in range(8):
            heads = int(rng.integers(1, 5))
            head_dim = int(rng.integers(1, 5)) * 2
            config = ModelConfig(
                num_layers=int(rng.integers(1, 4)),
                num_heads=heads,
                head_dim=head_dim,
                model_dim=heads * head_dim,
                ffn_dim=int(rng.integers(4, 40)),
                vocab_size=int(rng.integers(2, 50)),
                max_seq_len=16,
            )
            weights = init_random(config, seed=i)
            path = tmp_path / f"w{i}.bin"
            save_weights(weights, path)
            assert weights_equal(load_weights(path), weights)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        save_weights(small_weights(), path)
        raw = bytearray(path.read_bytes())
        raw[:8] = b"NOTCHAI!"
        path.write_bytes(bytes(raw))
        with pytest.raises(BadMagicError):
            load_weights(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.bin"
        save_weights(small_weights(), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 17])
        with pytest.raises(TruncatedWeightsError):
            load_weights(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "tiny.bin"
        path.write_bytes(b"CHAIWGT1\xff\x00\x00\x00{}")
        with pytest.raises(TruncatedWeightsError):
            load_weights(path)

    def test_header_declaring_other_dims_than_payload(self, tmp_path):
        # Header config says model_dim=64 but the manifest/payload were
        # written for model_dim=32: a shape mismatch, not truncation.
        path = tmp_path / "lying.bin"
        save_weights(small_weights(), path)
        rewrite_header_config(path, model_dim=64, head_dim=16)
        with pytest.raises(HeaderMismatchError):
            load_weights(path)

    def test_header_with_more_layers_than_its_manifest(self, tmp_path):
        path = tmp_path / "deeper.bin"
        save_weights(small_weights(), path)
        rewrite_header_config(path, num_layers=3)
        with pytest.raises(HeaderMismatchError, match="declares 21 tensors, its config implies 30"):
            load_weights(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "extra.bin"
        save_weights(small_weights(), path)
        path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
        with pytest.raises(HeaderMismatchError):
            load_weights(path)

    def test_file_shrinking_before_the_payload_read(self, tmp_path, monkeypatch):
        # the size check passes on the size fstat reported; the read comes up short
        path = tmp_path / "shrinking.bin"
        save_weights(small_weights(), path)
        size = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-17])
        monkeypatch.setattr(model.os, "fstat", lambda fd: SimpleNamespace(st_size=size))
        with pytest.raises(TruncatedWeightsError, match="file ends inside the payload: read"):
            load_weights(path)


def all_tensors(weights):
    """Every tensor of `weights`, in manifest order."""
    return [
        weights.token_embedding,
        *(getattr(layer, f.name) for layer in weights.layers for f in fields(LayerWeights)),
        weights.final_norm_gain,
        weights.output_projection,
    ]


def root(array):
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


# 1.6 MB of weights, large enough that the payload dominates a load
PAYLOAD_CONFIG = small_config(num_heads=4, head_dim=32, model_dim=128, ffn_dim=256, vocab_size=256)


class TestLoadedTensors:
    @pytest.fixture
    def saved(self, tmp_path):
        path = tmp_path / "w.bin"
        save_weights(init_random(PAYLOAD_CONFIG, seed=5), path)
        return path

    def test_load_peak_is_about_one_payload(self, saved):
        tracemalloc.start()
        try:
            load_weights(saved)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * saved.stat().st_size, peak / saved.stat().st_size

    def test_payload_is_its_own_mapping(self, saved):
        # The payload is read into an anonymous mapping, not the heap:
        # tracemalloc sees almost none of a load.
        tracemalloc.start()
        try:
            load_weights(saved)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * saved.stat().st_size, peak / saved.stat().st_size

    def test_tensors_lie_in_one_buffer_of_exactly_the_payload(self, saved):
        tensors = all_tensors(load_weights(saved))
        (flat,) = {id(root(tensor)): root(tensor) for tensor in tensors}.values()
        payload = sum(tensor.nbytes for tensor in tensors)
        assert flat.nbytes == memoryview(flat.base).nbytes == payload


class TestOnePayload:
    """Drawn, copied and loaded weights are all views of one float32 payload."""

    @pytest.fixture(params=["drawn", "redundant", "loaded"])
    def weights(self, request, tmp_path):
        drawn = init_random(PAYLOAD_CONFIG, seed=5)
        if request.param == "drawn":
            return drawn
        if request.param == "redundant":
            return make_redundant(drawn, grouped_plan(2, 4, [2, 1]))
        save_weights(drawn, tmp_path / "w.bin")
        return load_weights(tmp_path / "w.bin")

    def test_payload_is_exactly_the_tensors(self, weights):
        manifest = model._tensor_manifest(weights.config)
        payload = weights.payload
        assert payload.dtype == np.float32 and payload.ndim == 1
        assert payload.nbytes == 4 * sum(rows * cols for _, rows, cols in manifest)

    def test_tensors_lie_in_the_payload_in_manifest_order(self, weights):
        payload = weights.payload
        offset = 0
        for (name, rows, cols), tensor in zip(
            model._tensor_manifest(weights.config), all_tensors(weights), strict=True
        ):
            assert tensor.shape == ((cols,) if name.endswith("_gain") else (rows, cols)), name
            assert root(tensor) is root(payload), name
            assert tensor.ctypes.data == payload.ctypes.data + 4 * offset, name
            offset += rows * cols
        assert offset == payload.size

    def test_saved_payload_is_the_payload_bytes(self, weights, tmp_path):
        path = tmp_path / "saved.bin"
        save_weights(weights, path)
        raw = path.read_bytes()
        (header_len,) = struct.unpack_from("<I", raw, 8)
        assert json.loads(raw[12 : 12 + header_len])["config"] == weights.config.to_dict()
        assert raw[12 + header_len :] == weights.payload.tobytes()

    def test_tensors_cannot_be_rebound(self, weights):
        replacement = np.zeros_like(weights.token_embedding)
        with pytest.raises(FrozenInstanceError):
            weights.token_embedding = replacement
        with pytest.raises(FrozenInstanceError):
            weights.payload = weights.payload.copy()
        with pytest.raises(FrozenInstanceError):
            weights.layers[0].wq = weights.layers[0].wq.copy()
        with pytest.raises(TypeError):
            weights.layers[0] = weights.layers[1]

    def test_tensors_are_aligned_writable_float32(self, weights):
        for tensor in all_tensors(weights):
            assert tensor.dtype == np.float32
            flags = tensor.flags
            assert flags.c_contiguous and flags.aligned and flags.writeable

    def test_writing_one_tensor_leaves_the_others(self, weights):
        tensors = all_tensors(weights)
        before = [tensor.copy() for tensor in tensors]
        for i, tensor in enumerate(tensors):
            tensor.fill(7.0)
            for j, other in enumerate(tensors):
                want = np.full_like(other, 7.0) if j <= i else before[j]
                np.testing.assert_array_equal(other, want, err_msg=f"after writing tensor {i}")

    def test_make_redundant_leaves_its_source(self, weights):
        before = weights.payload.copy()
        redundant = make_redundant(weights, grouped_plan(2, 4, [1, 1]))
        assert not np.shares_memory(redundant.payload, weights.payload)
        assert not weights_equal(redundant, weights)
        np.testing.assert_array_equal(weights.payload, before)


def test_byte_prompt_maps_bytes_to_ids():
    assert byte_prompt("ab") == [97, 98]
    assert byte_prompt(b"\x00\xff") == [0, 255]
