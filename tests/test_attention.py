import math
import re
import warnings

import numpy as np
import pytest

import chai.attention as attention_mod
from chai.attention import (
    AttentionTrace,
    KVCache,
    LayerCache,
    PlanTensors,
    clustered_forward,
    export_trace_csv,
    load_trace_csv,
    mha_forward,
    prune_cache,
)
from chai.errors import (
    ContractError, InsufficientTraceError, ModeMismatchError, ValidationError
)
from chai.model import ModelConfig, init_random, make_redundant
from chai.plan import ClusterPlan, HeadLayout, LayerPlan
from helpers import (
    grouped_plan, plan_tensors, reference_clustered_decode, reference_mha_forward,
    singleton_tensors, small_config, small_weights,
)


def decode_mha(weights, x_rows, trace=None):
    """Run mha_forward step by step over one layer; returns per-step outputs."""
    tensors = singleton_tensors(weights)
    cache = KVCache(weights.config, tensors.layout, len(x_rows))
    outs = [
        mha_forward(row[None, :], weights.layers[0], cache, 0, tensors, trace) for row in x_rows
    ]
    return outs, cache


class TestMhaForward:
    def test_first_token_attention_is_one(self):
        weights = small_weights()
        tensors = singleton_tensors(weights)
        cache = KVCache(weights.config, tensors.layout, 1)
        trace = AttentionTrace(2, 4, 1)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 32)).astype(np.float32)
        out = mha_forward(x, weights.layers[0], cache, 0, tensors, trace)
        assert out.shape == (1, 32)
        for head in range(4):
            np.testing.assert_array_equal(trace.row(0, head, 1), [1.0])

    def test_first_token_output_is_projected_values(self):
        weights = small_weights()
        tensors = singleton_tensors(weights)
        cache = KVCache(weights.config, tensors.layout, 1)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 32)).astype(np.float32)
        out = mha_forward(x, weights.layers[0], cache, 0, tensors)
        # With a single position every head's probability is 1, so the output
        # is just the concatenated value projections through wo.
        values = cache.layers[0].live_values()[:, 0, :].reshape(1, -1)
        np.testing.assert_allclose(out, values @ weights.layers[0].wo, atol=1e-6)

    def test_identical_projections_give_identical_trace_rows(self):
        weights = small_weights()
        lw = weights.layers[0]
        lw.wq[:, 8:16] = lw.wq[:, 0:8]
        lw.wk[:, 8:16] = lw.wk[:, 0:8]
        trace = AttentionTrace(2, 4, 4)
        rng = np.random.default_rng(2)
        rows = rng.standard_normal((4, 32)).astype(np.float32) * 0.3
        decode_mha(weights, rows, trace)
        for step in range(1, 5):
            np.testing.assert_allclose(
                trace.row(0, 0, step), trace.row(0, 1, step), atol=1e-6
            )

    def test_hand_evaluated_two_token_single_head(self):
        config = ModelConfig(
            num_layers=1, num_heads=1, model_dim=2, head_dim=2,
            ffn_dim=4, vocab_size=4, max_seq_len=8,
        )
        weights = init_random(config, seed=0)
        lw = weights.layers[0]
        lw.wq[:] = np.array([[0.5, -0.25], [0.125, 1.0]], dtype=np.float32)
        lw.wk[:] = np.array([[1.0, 0.5], [-0.5, 0.25]], dtype=np.float32)
        lw.wv[:] = np.array([[0.75, 0.0], [0.25, -1.0]], dtype=np.float32)
        lw.wo[:] = np.array([[1.0, 2.0], [-1.0, 0.5]], dtype=np.float32)
        x = np.array([[1.0, 0.5], [-0.25, 2.0]], dtype=np.float32)

        def rotate(vec, pos):
            c, s = math.cos(pos), math.sin(pos)
            return np.array([vec[0] * c - vec[1] * s, vec[0] * s + vec[1] * c])

        # Independent evaluation of causal single-head attention with rotary
        # positions and 1/sqrt(d_h) score scaling.
        q = [rotate(x[i] @ lw.wq, i) for i in range(2)]
        k = [rotate(x[i] @ lw.wk, i) for i in range(2)]
        v = [x[i] @ lw.wv for i in range(2)]
        scale = 1.0 / math.sqrt(2.0)
        row0 = [1.0]
        s10, s11 = (q[1] @ k[0]) * scale, (q[1] @ k[1]) * scale
        m = max(s10, s11)
        e = [math.exp(s10 - m), math.exp(s11 - m)]
        row1 = [e[0] / sum(e), e[1] / sum(e)]
        want0 = (row0[0] * v[0]) @ lw.wo
        want1 = (row1[0] * v[0] + row1[1] * v[1]) @ lw.wo

        tensors = singleton_tensors(weights)
        out = mha_forward(x, lw, KVCache(config, tensors.layout, 2), 0, tensors)
        np.testing.assert_allclose(out[0], want0, atol=1e-6)
        np.testing.assert_allclose(out[1], want1, atol=1e-6)

    def test_prefill_equals_stepwise_decode(self):
        weights = small_weights(seed=5)
        rng = np.random.default_rng(3)
        rows = rng.standard_normal((6, 32)).astype(np.float32) * 0.4
        step_outs, _ = decode_mha(weights, rows)
        tensors = singleton_tensors(weights)
        cache = KVCache(weights.config, tensors.layout, 6)
        prefill_out = mha_forward(rows, weights.layers[0], cache, 0, tensors)
        for i in range(6):
            np.testing.assert_allclose(prefill_out[i], step_outs[i][0], atol=1e-5)

    def test_causality_under_perturbation(self):
        weights = small_weights(seed=7)
        rng = np.random.default_rng(4)
        rows = rng.standard_normal((8, 32)).astype(np.float32)
        for p in (3, 5, 7):
            perturbed = rows.copy()
            perturbed[p] += 1.0
            tensors = singleton_tensors(weights)
            cache_a = KVCache(weights.config, tensors.layout, 8)
            cache_b = KVCache(weights.config, tensors.layout, 8)
            trace_a, trace_b = AttentionTrace(2, 4, 8), AttentionTrace(2, 4, 8)
            out_a = mha_forward(rows, weights.layers[0], cache_a, 0, tensors, trace_a)
            out_b = mha_forward(perturbed, weights.layers[0], cache_b, 0, tensors, trace_b)
            np.testing.assert_array_equal(out_a[:p], out_b[:p])
            for head in range(4):
                for step in range(1, p + 1):
                    np.testing.assert_array_equal(
                        trace_a.row(0, head, step), trace_b.row(0, head, step)
                    )

    def test_pruned_cache_rejected(self):
        weights = small_weights()
        tensors = singleton_tensors(weights)
        cache = KVCache(weights.config, tensors.layout, 2)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((1, 32)).astype(np.float32)
        mha_forward(x, weights.layers[0], cache, 0, tensors)
        prune_cache(cache, HeadLayout(weights.config, grouped_plan(2, 4, [2, 2])))
        with pytest.raises(ModeMismatchError):
            mha_forward(x, weights.layers[0], cache, 0, tensors)


class TestPrefillOracle:
    """The in-place prefill path against the reference per-head prefill: the
    output, every cache plane and every trace row must be byte-equal."""

    @pytest.mark.parametrize("prior", [0, 9])
    @pytest.mark.parametrize("tokens", [1, 2, 7, 64, 65, 130])
    def test_byte_equal_to_reference(self, tokens, prior):
        self._check(tokens, prior)

    @pytest.mark.parametrize("prior", [0, 9])
    def test_ragged_head_groups_byte_equal_to_reference(self, prior):
        # a prompt whose four heads fall into groups of 3 and 1
        tokens = math.isqrt(attention_mod.SCORE_BUFFER_BYTES // (4 * 3)) - prior
        assert attention_mod.SCORE_BUFFER_BYTES // (4 * tokens * (prior + tokens)) == 3
        self._check(tokens, prior)

    def _check(self, tokens, prior):
        weights = small_weights(seed=21, max_seq_len=prior + tokens)
        tensors = singleton_tensors(weights)
        rng = np.random.default_rng(tokens * 100 + prior)
        chunks = [
            rng.standard_normal((n, 32)).astype(np.float32) for n in (prior, tokens) if n
        ]

        def kernel(x, cache, trace):
            return mha_forward(x, weights.layers[1], cache, 1, tensors, trace)

        def reference(x, cache, trace):
            return reference_mha_forward(x, weights.layers[1], cache, 1, trace)

        runs = []
        for forward in (kernel, reference):
            cache = KVCache(weights.config, tensors.layout, prior + tokens)
            trace = AttentionTrace(2, 4, prior + tokens)
            outs = [forward(x, cache, trace) for x in chunks]
            runs.append((outs, cache.layers[1], trace))
        (got, got_cache, got_trace), (want, want_cache, want_trace) = runs

        for g, w in zip(got, want):
            assert g.dtype == w.dtype == np.float32 and g.shape == w.shape
            assert g.tobytes() == w.tobytes()
        assert got_cache.length == want_cache.length == prior + tokens
        assert got_cache.keys.tobytes() == want_cache.keys.tobytes()
        assert got_cache.values.tobytes() == want_cache.values.tobytes()
        assert got_trace.recorded == want_trace.recorded == [0, prior + tokens]
        assert got_trace.rows.tobytes() == want_trace.rows.tobytes()


class TestDecodeOracle:
    """The one decode kernel against the reference single-token MHA branch
    under the singleton plan, and against the per-head reference under
    frozen plans: the output, every cache plane and every trace row must be
    byte-equal."""

    # frozen layer plans of 4 heads: contiguous groups (cluster ids in slot
    # order), a pair whose ids run against slot order, and a full-size plan
    # with permuted ids, which reorders every slot and prunes nothing
    FROZEN = {
        "grouped": LayerPlan(assignment=(0, 0, 1, 2), representatives=(0, 2, 3)),
        "swapped": LayerPlan(assignment=(1, 0, 1, 0), representatives=(1, 0)),
        "full_permuted": LayerPlan(assignment=(2, 0, 3, 1), representatives=(1, 3, 0, 2)),
    }

    @pytest.mark.parametrize("reuse_values", [False, True], ids=["CHAI", "CHAI_QKV"])
    @pytest.mark.parametrize("name", list(FROZEN))
    @pytest.mark.parametrize("layer", [0, 1])
    @pytest.mark.parametrize("prior", [1, 9, 130])
    def test_frozen_decode_byte_equal_to_reference(self, prior, layer, name, reuse_values):
        weights = small_weights(seed=23, max_seq_len=160)
        lw = weights.layers[layer]
        other = LayerPlan(assignment=(0, 1, 2, 3), representatives=(0, 1, 2, 3))
        layers = [other, other]
        layers[layer] = self.FROZEN[name]
        tensors = plan_tensors(weights, ClusterPlan(layers=tuple(layers)), reuse_values)
        singleton = singleton_tensors(weights)
        rng = np.random.default_rng(prior * 10 + layer)
        prompt = rng.standard_normal((prior, 32)).astype(np.float32)
        rows = rng.standard_normal((3, 32)).astype(np.float32)

        def kernel(x, cache):
            return clustered_forward(x, lw, cache, layer, tensors)

        def reference(x, cache):
            return reference_clustered_decode(x, lw, cache, layer, tensors)

        runs = []
        for decode in (kernel, reference):
            cache = KVCache(weights.config, singleton.layout, prior + 3)
            reference_mha_forward(prompt, lw, cache, layer)
            prune_cache(cache, tensors.layout)
            outs = [decode(row[None, :], cache) for row in rows]
            runs.append((outs, cache.layers[layer]))
        (got, got_cache), (want, want_cache) = runs

        assert tensors.layout.cluster_of_slot[layer] is not None or name == "grouped"
        for g, w in zip(got, want):
            assert g.dtype == w.dtype == np.float32 and g.shape == w.shape == (1, 32)
            assert g.tobytes() == w.tobytes()
        assert got_cache.length == want_cache.length == prior + 3
        assert got_cache.keys.shape == want_cache.keys.shape
        assert got_cache.keys.tobytes() == want_cache.keys.tobytes()
        assert got_cache.values.tobytes() == want_cache.values.tobytes()

    @pytest.mark.parametrize("layer", [0, 1])
    @pytest.mark.parametrize("prior", [0, 1, 9, 64, 130])
    def test_singleton_decode_byte_equal_to_reference(self, prior, layer):
        weights = small_weights(seed=22, max_seq_len=160)
        lw = weights.layers[layer]
        tensors = singleton_tensors(weights)
        rng = np.random.default_rng(prior * 10 + layer)
        prompt = rng.standard_normal((prior, 32)).astype(np.float32)
        rows = rng.standard_normal((3, 32)).astype(np.float32)

        def kernel(x, cache, trace):
            return clustered_forward(x, lw, cache, layer, tensors, trace)

        def reference(x, cache, trace):
            return reference_mha_forward(x, lw, cache, layer, trace)

        runs = []
        for decode in (kernel, reference):
            cache = KVCache(weights.config, tensors.layout, prior + 3)
            if prior:
                reference_mha_forward(prompt, lw, cache, layer)
            trace = AttentionTrace(2, 4, 3, base_position=prior)
            outs = [decode(row[None, :], cache, trace) for row in rows]
            runs.append((outs, cache.layers[layer], trace))
        (got, got_cache, got_trace), (want, want_cache, want_trace) = runs

        for g, w in zip(got, want):
            assert g.dtype == w.dtype == np.float32 and g.shape == w.shape == (1, 32)
            assert g.tobytes() == w.tobytes()
        assert got_cache.length == want_cache.length == prior + 3
        assert got_cache.keys.tobytes() == want_cache.keys.tobytes()
        assert got_cache.values.tobytes() == want_cache.values.tobytes()
        assert got_trace.recorded[layer] == want_trace.recorded[layer] == 3
        assert not got_trace.recorded[1 - layer]
        assert got_trace.rows.tobytes() == want_trace.rows.tobytes()


class TestClusteredForward:
    def _run_both(self, weights, plan, steps=6, reuse_values=False, seed=0):
        """Decode the same random rows through the reference plain MHA and
        through the engine's decode path: the singleton plan for the first
        step, then the pruned plan."""
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((steps, 32)).astype(np.float32) * 0.4
        cache = KVCache(weights.config, HeadLayout.singleton(weights.config), steps)
        mha_outs = [
            reference_mha_forward(row[None, :], weights.layers[0], cache, 0) for row in rows
        ]

        singleton = singleton_tensors(weights)
        cache = KVCache(weights.config, singleton.layout, steps)
        clustered_outs = [
            clustered_forward(rows[0][None, :], weights.layers[0], cache, 0, singleton)
        ]
        tensors = plan_tensors(weights, plan, reuse_values=reuse_values)
        prune_cache(cache, tensors.layout)
        for row in rows[1:]:
            clustered_outs.append(
                clustered_forward(row[None, :], weights.layers[0], cache, 0, tensors)
            )
        return mha_outs, clustered_outs

    def test_singleton_plan_matches_mha_bitwise(self):
        weights = small_weights(seed=1)
        plan = ClusterPlan.singleton(2, 4)
        mha_outs, clustered_outs = self._run_both(weights, plan)
        for a, b in zip(mha_outs, clustered_outs):
            np.testing.assert_array_equal(a, b)

    def test_reuse_values_singleton_matches_non_reuse_bitwise(self):
        weights = small_weights(seed=2)
        plan = ClusterPlan.singleton(2, 4)
        _, plain = self._run_both(weights, plan, reuse_values=False, seed=9)
        _, reused = self._run_both(weights, plan, reuse_values=True, seed=9)
        for a, b in zip(plain, reused):
            np.testing.assert_array_equal(a, b)

    def test_redundant_weights_match_mha(self):
        plan = grouped_plan(2, 4, [2, 2])
        weights = make_redundant(small_weights(seed=3), plan)
        mha_outs, clustered_outs = self._run_both(weights, plan, steps=10)
        for a, b in zip(mha_outs, clustered_outs):
            assert np.max(np.abs(a - b)) < 1e-5

    def test_output_width_is_model_dim_for_any_plan(self):
        weights = small_weights(seed=4)
        for counts in ([1, 1], [2, 3], [4, 4]):
            plan = grouped_plan(2, 4, counts)
            _, outs = self._run_both(weights, plan)
            assert all(o.shape == (1, 32) for o in outs)

    def test_score_rows_computed_equals_cluster_count(self, monkeypatch):
        weights = small_weights(seed=5)
        plan = grouped_plan(2, 4, [2, 2])
        seen = []
        real = attention_mod.softmax_rows

        def spy(m, causal_from=None, out=None):
            seen.append(m.shape[0])
            return real(m, causal_from, out=out)

        monkeypatch.setattr(attention_mod, "softmax_rows", spy)
        self._run_both(weights, plan, steps=4)
        # Clustered steps softmax exactly k score rows, plain steps all 4.
        assert set(seen) == {4, 2}

    def test_plan_cache_mismatch_rejected(self):
        weights = small_weights(seed=6)
        tensors = singleton_tensors(weights)
        cache = KVCache(weights.config, tensors.layout, 2)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 32)).astype(np.float32)
        clustered_forward(x, weights.layers[0], cache, 0, tensors)
        plan = grouped_plan(2, 4, [2, 2])
        prune_cache(cache, HeadLayout(weights.config, plan))
        other_plan = ClusterPlan(
            layers=(
                LayerPlan(assignment=(0, 1, 1, 1), representatives=(0, 1)),
                LayerPlan(assignment=(0, 1, 1, 1), representatives=(0, 1)),
            )
        )
        config, head_dim = weights.config, weights.config.head_dim
        with pytest.raises(
            ModeMismatchError,
            match=re.escape("key heads [[0, 2], [0, 2]] and value heads [[0, 1, 2, 3], "
                            "[0, 1, 2, 3]]; the plan expects [[0, 1], [0, 1]] and [[0, 1, 2, 3]"),
        ):
            clustered_forward(
                x, weights.layers[0], cache, 0,
                PlanTensors(HeadLayout(config, other_plan), weights.layers, head_dim),
            )
        # same representatives, but the layout expects pruned values
        with pytest.raises(ModeMismatchError, match=re.escape("and [[0, 2], [0, 2]]")):
            clustered_forward(
                x, weights.layers[0], cache, 0,
                PlanTensors(HeadLayout(config, plan, reuse_values=True), weights.layers, head_dim),
            )


    @pytest.mark.parametrize("prune_values", [False, True])
    def test_several_rows_under_clustered_plan_rejected_before_caching(self, prune_values):
        """Several rows, or one traced row, under a clustered plan raise
        before anything is cached or traced."""
        weights = small_weights(seed=7)
        rng = np.random.default_rng(1)
        singleton = singleton_tensors(weights)
        cache = KVCache(weights.config, singleton.layout, 4)
        trace = AttentionTrace(2, 4, 2)
        clustered_forward(
            rng.standard_normal((1, 32)).astype(np.float32), weights.layers[0], cache, 0,
            singleton, trace,
        )
        plan = grouped_plan(2, 4, [2, 2])
        tensors = plan_tensors(weights, plan, reuse_values=prune_values)
        prune_cache(cache, tensors.layout)
        lc = cache.layers[0]
        before = lc.keys.copy(), lc.values.copy(), trace.rows.copy()
        for tokens, call_trace in ((3, None), (1, trace)):
            x = rng.standard_normal((tokens, 32)).astype(np.float32)
            with pytest.raises(ContractError, match="only the singleton plan"):
                clustered_forward(x, weights.layers[0], cache, 0, tensors, call_trace)
            assert lc.length == 1
            assert lc.keys.tobytes() == before[0].tobytes()
            assert lc.values.tobytes() == before[1].tobytes()
            assert trace.rows.tobytes() == before[2].tobytes()
            assert trace.recorded == [1, 0]

    @pytest.mark.parametrize("tokens", [1, 3])
    def test_rows_past_capacity_rejected_before_caching(self, tokens):
        """The cache's rotary table ends at its capacity, so rows that do
        not fit raise before they are projected."""
        weights = small_weights(seed=8)
        singleton = singleton_tensors(weights)
        cache = KVCache(weights.config, singleton.layout, 4)
        x = np.random.default_rng(2).standard_normal((5 - tokens, 32)).astype(np.float32)
        clustered_forward(x, weights.layers[0], cache, 0, singleton)
        lc = cache.layers[0]
        before = lc.keys.copy(), lc.values.copy(), lc.length
        x = np.ones((tokens, 32), dtype=np.float32)
        with pytest.raises(ContractError, match=f"capacity 4 exceeded at length {5 - tokens}"):
            clustered_forward(x, weights.layers[0], cache, 0, singleton)
        assert (lc.keys.tobytes(), lc.values.tobytes(), lc.length) == (
            before[0].tobytes(), before[1].tobytes(), before[2])


class TestPruneCache:
    def _filled_cache(self, weights, tokens=5, capacity=5, seed=0):
        tensors = singleton_tensors(weights)
        cache = KVCache(weights.config, tensors.layout, capacity)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((tokens, 32)).astype(np.float32)
        for layer in range(weights.config.num_layers):
            mha_forward(x, weights.layers[layer], cache, layer, tensors)
        return cache

    @staticmethod
    def _live_planes(cache):
        """Copies of each layer's live (keys, values), taken before pruning."""
        return [(lc.live_keys().copy(), lc.live_values().copy()) for lc in cache.layers]

    def test_singleton_plan_keeps_everything(self):
        weights = small_weights()
        cache = self._filled_cache(weights)
        before = self._live_planes(cache)
        arrays = [(lc.keys, lc.values) for lc in cache.layers]
        summary = cache.summary()
        assert prune_cache(cache, HeadLayout.singleton(weights.config)) is None
        assert cache.summary()["layers"] == summary["layers"]
        assert cache.summary()["pruned"] and not summary["pruned"]
        for lc, (keys, values), (old_keys, old_values) in zip(cache.layers, before, arrays):
            assert lc.keys is old_keys and lc.values is old_values  # nothing copied
            np.testing.assert_array_equal(lc.live_keys(), keys)
            np.testing.assert_array_equal(lc.live_values(), values)

    def test_single_cluster_keeps_one_key_head(self):
        weights = small_weights()
        cache = self._filled_cache(weights)
        prune_cache(cache, HeadLayout(weights.config, grouped_plan(2, 4, [1, 1])))
        for lc in cache.layers:
            assert lc.keys.shape[0] == 1
            assert lc.values.shape[0] == 4
            assert lc.length == 5

    def test_vector_counts_after_pruning(self):
        # 32 heads at length 100: per-layer key rows drop 3200 -> 1800 while
        # value rows stay 3200, for a plan with 18 clusters.
        config = ModelConfig(
            num_layers=1, num_heads=32, model_dim=64, head_dim=2,
            ffn_dim=8, vocab_size=8, max_seq_len=128,
        )
        weights = init_random(config, seed=0)
        tensors = singleton_tensors(weights)
        cache = KVCache(config, tensors.layout, 100)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((100, 64)).astype(np.float32)
        mha_forward(x, weights.layers[0], cache, 0, tensors)
        assert cache.layers[0].live_keys().shape[:2] == (32, 100)
        prune_cache(cache, HeadLayout(config, grouped_plan(1, 32, [18])))
        assert cache.layers[0].live_keys().shape[:2] == (18, 100)
        assert cache.layers[0].live_values().shape[:2] == (32, 100)

    def test_keeps_the_source_capacity(self):
        weights = small_weights()
        cache = self._filled_cache(weights, tokens=5, capacity=9)
        prune_cache(cache, HeadLayout(weights.config, grouped_plan(2, 4, [2, 1])))
        assert cache.capacity == 9
        for lc in cache.layers:
            assert lc.length == 5
            assert lc.keys.shape[1] == lc.values.shape[1] == 9
            assert not lc.keys[:, 5:].any()

    def test_double_pruning_rejected(self):
        weights = small_weights()
        cache = self._filled_cache(weights)
        layout = HeadLayout(weights.config, grouped_plan(2, 4, [2, 2]))
        prune_cache(cache, layout)
        with pytest.raises(ContractError, match="cache is already pruned"):
            prune_cache(cache, layout)
        assert cache.layout is layout

    def test_keys_narrowed_and_values_kept_uncopied(self):
        weights = small_weights()
        cache = self._filled_cache(weights)
        before = self._live_planes(cache)
        values = [lc.values for lc in cache.layers]
        layout = HeadLayout(weights.config, grouped_plan(2, 4, [2, 2]))
        prune_cache(cache, layout)
        assert cache.layout is layout
        for lc, (keys, _), old_values in zip(cache.layers, before, values):
            np.testing.assert_array_equal(lc.live_keys(), keys[[0, 2]])
            assert lc.values is old_values

    def test_prune_values_keeps_representatives_only(self):
        weights = small_weights()
        cache = self._filled_cache(weights)
        before = self._live_planes(cache)
        prune_cache(
            cache, HeadLayout(weights.config, grouped_plan(2, 4, [2, 2]), reuse_values=True)
        )
        for layer in cache.summary()["layers"]:
            assert layer["stored_value_heads"] == layer["stored_key_heads"] == [0, 2]
        for lc, (keys, values) in zip(cache.layers, before):
            np.testing.assert_array_equal(lc.live_keys(), keys[[0, 2]])
            np.testing.assert_array_equal(lc.live_values(), values[[0, 2]])

    @pytest.mark.parametrize(
        "layers, heads, message",
        [
            (1, 4, "plan covers 1 layers, the model has 2"),
            (2, 8, "plan has 8 heads, the model has 4"),
        ],
        ids=["other_layer_count", "other_head_count"],
    )
    def test_plan_for_other_model_rejected(self, layers, heads, message):
        # a plan reaches prune_cache, PlanTensors and the accounting only
        # through the head layout built from it
        with pytest.raises(ContractError, match=message):
            HeadLayout(small_config(), grouped_plan(layers, heads, [2] * layers))

    def test_tensors_for_other_layer_count_rejected(self):
        cache = self._filled_cache(small_weights())
        layout = cache.layout
        arrays = [(lc.keys, lc.values) for lc in cache.layers]
        one_layer = HeadLayout(small_config(num_layers=1), grouped_plan(1, 4, [2]))
        with pytest.raises(ValueError):
            prune_cache(cache, one_layer)
        # rejected before any layer is narrowed
        assert cache.layout is layout and not cache.pruned
        assert all(lc.keys is k and lc.values is v for lc, (k, v) in zip(cache.layers, arrays))


class TestLayerCache:
    def test_append_past_capacity_rejected_before_writing(self):
        lc = LayerCache(2, 2, capacity=4, head_dim=2)
        block = np.ones((2, 3, 2), dtype=np.float32)
        lc.append(block, block)
        with pytest.raises(ContractError, match="capacity 4 exceeded at length 3"):
            lc.append(block[:, :2], block[:, :2])
        assert lc.length == 3
        assert not lc.keys[:, 3:].any() and not lc.values[:, 3:].any()


class TestTrace:
    def test_rows_validated_on_record(self):
        trace = AttentionTrace(1, 1, 1)
        with pytest.raises(ContractError):
            trace.record(0, 0, slice(None), np.array([[[0.5]]], dtype=np.float32))

    @pytest.mark.parametrize(
        "row, message",
        [
            ([1.5, -0.5], "has probability -0.5 outside [0, 1]"),
            ([0.5, np.nan], "has probability nan outside [0, 1]"),
            ([0.5, 0.25], "sums to 0.75, not 1"),
        ],
        ids=["sums_to_one_outside_unit_range", "nan", "short_sum"],
    )
    def test_record_names_the_bad_row(self, row, message):
        # heads 1 and 2 at positions 3 and 4 after a 3-token prompt; the bad
        # row is head 2's step 2
        trace = AttentionTrace(2, 4, 2, base_position=3)
        block = np.zeros((2, 2, 5), dtype=np.float32)
        block[:, 0, :4] = 0.25
        block[:, 1, :] = 0.2
        block[1, 1] = [0.0, 0.0, 0.0, *row]
        with pytest.raises(ContractError, match=rf"layer 1, head 2, step 2 {re.escape(message)}"):
            trace.record(1, 3, slice(1, 3), block)
        assert trace.steps(1) == [] and not trace.rows.any()

    def test_screen_flags_only_rows_the_check_rejects(self):
        # sums 1 + 7e-6 and 1 + 2e-5, both in the screen's band or past it
        trace = AttentionTrace(1, 2, 1, base_position=1)
        block = np.array([[[0.5, 0.500007]], [[0.5, 0.5]]], dtype=np.float32)
        trace.record(0, 1, np.array([1, 0]), block)
        assert trace.row(0, 1, 1).tobytes() == block[0, 0].tobytes()
        assert trace.row(0, 0, 1).tobytes() == block[1, 0].tobytes()
        block[1, 0, 1] = 0.50002
        with pytest.raises(ContractError, match="head 0, step 1 sums to 1.00002"):
            AttentionTrace(1, 2, 1, base_position=1).record(0, 1, np.array([1, 0]), block)

    def test_missing_row_raises(self):
        trace = AttentionTrace(1, 1, 1)
        with pytest.raises(InsufficientTraceError):
            trace.row(0, 0, 1)

    def test_base_position_offsets_steps(self):
        trace = AttentionTrace(1, 1, 2, base_position=3)
        trace.record(0, 3, slice(None), np.array([[[0.25, 0.25, 0.5, 0.0]]], dtype=np.float32))
        assert trace.steps(0) == [1]
        assert trace.row(0, 0, 1).tolist() == [0.25, 0.25, 0.5, 0.0]
        assert trace.rows.shape == (1, 1, 2, 5)

    def test_csv_round_trip(self, tmp_path):
        weights = small_weights(seed=8)
        trace = AttentionTrace(2, 4, 4)
        rng = np.random.default_rng(6)
        rows = rng.standard_normal((4, 32)).astype(np.float32)
        tensors = singleton_tensors(weights)
        cache = KVCache(weights.config, tensors.layout, 4)
        for row in rows:
            for layer in range(2):
                mha_forward(row[None, :], weights.layers[layer], cache, layer, tensors, trace)
        path = tmp_path / "trace.csv"
        export_trace_csv(trace, path)
        loaded = load_trace_csv(path)
        assert loaded.recorded == trace.recorded == [4, 4]
        assert loaded.base_position == trace.base_position == 0
        assert loaded.rows.tobytes() == trace.rows.tobytes()

    def test_loader_rejects_probability_past_float32_without_a_warning(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("layer,head,step,position,probability\n0,0,1,0,1e39\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a cast warning would be a second stderr line
            with pytest.raises(ValidationError, match="step 1 has probability inf outside"):
                load_trace_csv(path)

    def test_loader_rejects_layers_of_different_prompt_lengths(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "layer,head,step,position,probability\n"
            "0,0,1,0,1.0\n1,0,1,0,0.5\n1,0,1,1,0.5\n"
        )
        with pytest.raises(ValidationError, match="layer 1 has step 1 of 2 positions where "
                           "step 1 of 1 positions should come next"):
            load_trace_csv(path)
