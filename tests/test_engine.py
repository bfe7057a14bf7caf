import json
import os
import subprocess
import sys
import textwrap
import warnings
import weakref

import numpy as np
import pytest

import chai.accounting as accounting_mod
import chai.attention as attention_mod
import chai.engine as engine_mod
from chai.accounting import attention_flops, kv_cache_bytes
from chai.attention import KVCache
from chai.engine import (
    MODES,
    CalibrationProfile,
    calibrate,
    compare_outputs,
    generate,
    parse_mode,
    prefill,
)
from chai.errors import ContractError, ValidationError
from chai.plan import ClusterPlan, HeadLayout
from helpers import (
    acceptance_corpus,
    acceptance_fixture,
    degenerate_profile,
    fixture_profile,
    random_prompt,
    redundant_fixture,
    singleton_tensors,
    small_config,
    small_weights,
)


class TestParseMode:
    def test_known_modes(self):
        assert parse_mode("mha") == "MHA"
        assert parse_mode("chai-qkv") == "CHAI_QKV"

    def test_unknown_mode_lists_valid(self):
        with pytest.raises(ValidationError, match="CHAI_STATIC"):
            parse_mode("turbo")


class TestForwardPass:
    def test_finite_logits_of_vocab_size(self):
        weights = small_weights(seed=1)
        tensors = singleton_tensors(weights)
        for length in (1, 3, 9):
            cache = KVCache(weights.config, tensors.layout, length)
            prompt = random_prompt(weights.config, length, seed=length)
            logits = prefill(weights, prompt, cache, tensors)
            assert logits.shape == (weights.config.vocab_size,)
            assert np.all(np.isfinite(logits))

    def test_non_finite_logits_raise_naming_the_position(self):
        weights = small_weights(seed=1)
        weights.output_projection[:, 3] = np.nan
        with pytest.raises(ContractError, match="non-finite logits at cache position 3"):
            generate(weights, random_prompt(weights.config, 4, seed=0), 2, "MHA")


    def test_swiglu_past_exp_overflow_is_silent_and_byte_equal(self, monkeypatch):
        # each layer's w_gate is scaled so its lowest gate entry is about -89,
        # just past -88.72, where float32 exp(-gate) overflows to inf and
        # silu(gate) is -0.0
        weights = small_weights(seed=2)
        tensors = singleton_tensors(weights)
        prompt = random_prompt(weights.config, 6, seed=2)
        calls = []  # (weight matrix, left operand, product) per engine matmul
        real_matmul = engine_mod.matmul

        def spy(a, b, *args, **kwargs):
            out = real_matmul(a, b, *args, **kwargs)
            calls.append((b, a.copy(), out.copy()))
            return out

        monkeypatch.setattr(engine_mod, "matmul", spy)

        def run():
            calls.clear()
            cache = KVCache(weights.config, tensors.layout, len(prompt))
            with warnings.catch_warnings(), np.errstate(all="warn"):
                warnings.simplefilter("error")
                return prefill(weights, prompt, cache, tensors)

        def products(w):
            return [(a, out) for b, a, out in calls if b is w]

        for lw in weights.layers:  # a layer's scale moves only later layers' gates
            run()
            (_, gate), = products(lw.w_gate)
            lw.w_gate[...] *= np.float32(89.0 / -gate.min())
        run()
        for lw in weights.layers:
            (_, gate), = products(lw.w_gate)
            (_, up), = products(lw.w_up)
            (gated, _), = products(lw.w_down)
            assert -89.5 < gate.min() < -88.8
            with np.errstate(over="ignore"):
                exp = np.exp(-gate)
            want = gate / (1.0 + exp) * up
            assert gated.tobytes() == want.tobytes()
            overflowed = np.isinf(exp)
            assert overflowed.any()
            assert np.all(gated[overflowed] == 0.0)
            assert np.all(np.signbit(gated[overflowed]) == (up[overflowed] > 0))


class TestGenerateMha:
    def test_token_count_and_determinism(self):
        weights = small_weights(seed=2)
        prompt = random_prompt(weights.config, 4, seed=0)
        a = generate(weights, prompt, 12, "MHA")
        b = generate(weights, prompt, 12, "MHA")
        assert len(a.tokens) == 12
        assert a.tokens == b.tokens
        assert all(0 <= t < weights.config.vocab_size for t in a.tokens)

    def test_prompt_validation(self):
        weights = small_weights()
        with pytest.raises(ValidationError):
            generate(weights, [], 4, "MHA")
        with pytest.raises(ValidationError):
            generate(weights, [99], 4, "MHA")
        with pytest.raises(ValidationError):
            generate(weights, [1] * 60, 10, "MHA")
        with pytest.raises(ValidationError):
            generate(weights, [1], 4, "MHA", identify_at=0)
        for token in (True, 1.5, "1", None):
            with pytest.raises(ValidationError, match="token ids must be integers"):
                generate(weights, [1, token], 4, "MHA")
        numpy_ids = generate(weights, np.array([1, 2], dtype=np.int32), 4, "MHA")
        assert numpy_ids.tokens == generate(weights, [1, 2], 4, "MHA").tokens

    @pytest.mark.parametrize("mode", MODES)
    def test_request_at_max_seq_len_fills_every_plane(self, mode, monkeypatch):
        weights, plan = redundant_fixture([2, 3], seed=11)  # max_seq_len 64
        prompt = random_prompt(weights.config, 50, seed=5)
        profile = None if mode == "MHA" else fixture_profile(weights, plan)
        caches = []
        real_cache = engine_mod.KVCache

        def spy_cache(*args, **kwargs):
            caches.append(real_cache(*args, **kwargs))
            return caches[-1]

        real_forward = engine_mod._forward_pass
        forwarded = []

        def spy_forward(weights, token_ids, cache, *args, **kwargs):
            forwarded.append(cache)
            return real_forward(weights, token_ids, cache, *args, **kwargs)

        monkeypatch.setattr(engine_mod, "KVCache", spy_cache)
        monkeypatch.setattr(engine_mod, "_forward_pass", spy_forward)
        with pytest.raises(ValidationError, match="exceeds max_seq_len 64"):
            generate(weights, prompt, 15, mode, profile=profile)
        assert caches == []  # rejected before any cache is built
        result = generate(weights, prompt, 14, mode, profile=profile)
        assert len(caches) == 1 and caches[0].capacity == 64
        final = forwarded[-1]
        assert final.capacity == 64 and final.pruned == (mode != "MHA")
        for lc in final.layers:
            assert lc.length == lc.keys.shape[1] == lc.values.shape[1] == 64
        assert result.kv_cache_summary["length"] == 64

    def test_trace_collection_covers_all_steps(self):
        weights = small_weights(seed=3)
        result = generate(weights, [1, 2, 3], 6, "MHA", collect_trace=True)
        assert result.trace.steps(0) == result.trace.steps(1) == [1, 2, 3, 4, 5, 6]
        assert result.trace.rows.shape == (2, 4, 6, 3 + 6)
        # step s attends over prompt + s positions
        assert len(result.trace.row(0, 0, 4)) == 3 + 4


class TestTraceRecording:
    """The trace is written once per layer and head group, never per head."""

    @staticmethod
    def count_records(monkeypatch) -> list:
        calls = []
        real = attention_mod.AttentionTrace.record

        def spy(trace, *args):
            calls.append(args)
            return real(trace, *args)

        monkeypatch.setattr(attention_mod.AttentionTrace, "record", spy)
        return calls

    def test_chai_request_records_once_per_layer_and_traced_step(self, monkeypatch):
        weights, plan = redundant_fixture([2, 2], seed=6)
        calls = self.count_records(monkeypatch)
        generate(weights, [1, 2, 3], 10, "CHAI", profile=fixture_profile(weights, plan),
                 identify_at=4)
        assert len(calls) == weights.config.num_layers * 4

    def test_one_group_calibration_records_once_per_layer_and_sample(self, monkeypatch):
        weights, _ = acceptance_fixture()
        calls = self.count_records(monkeypatch)
        calibrate(weights, acceptance_corpus(weights.config, samples=3), window=5)
        assert len(calls) == weights.config.num_layers * 3

    def test_ragged_head_groups_give_the_same_profile(self, monkeypatch, tmp_path):
        weights, _ = acceptance_fixture()
        corpus = acceptance_corpus(weights.config, samples=3)
        calibrate(weights, corpus, window=10).save(tmp_path / "one_group.json")
        # a 10-token window's (G, 10, 10) float32 scores take 400 bytes per
        # head, so at 1200 bytes the 16 heads run in groups of 3, 3, 3, 3, 3, 1
        monkeypatch.setattr(attention_mod, "SCORE_BUFFER_BYTES", 1200)
        calls = self.count_records(monkeypatch)
        calibrate(weights, corpus, window=10).save(tmp_path / "ragged.json")
        assert len(calls) == weights.config.num_layers * 3 * 6
        assert {args[2].stop - args[2].start for args in calls} == {3, 1}
        assert (tmp_path / "ragged.json").read_bytes() == (
            tmp_path / "one_group.json"
        ).read_bytes()


class TestGenerateChai:
    def test_requires_profile(self):
        weights = small_weights()
        with pytest.raises(ValidationError, match="profile"):
            generate(weights, [1, 2], 8, "CHAI")

    def test_fingerprint_mismatch_rejected(self):
        weights = small_weights()
        other = degenerate_profile(small_config(vocab_size=33))
        with pytest.raises(ValidationError, match="fingerprint"):
            generate(weights, [1, 2], 8, "CHAI", profile=other)

    def test_profile_plan_shape_mismatch_rejected(self):
        weights = small_weights()
        profile = degenerate_profile(weights.config)
        one_layer = ClusterPlan(layers=profile.static_assignment.layers[:1])
        two_heads = ClusterPlan.singleton(2, 2)
        for plan in (one_layer, two_heads):
            profile.static_assignment = plan
            profile.cluster_counts = plan.cluster_counts()
            for mode in ("CHAI", "CHAI_STATIC"):
                with pytest.raises(ValidationError, match="layers"):
                    generate(weights, [1, 2], 8, mode, profile=profile)

    def test_degenerate_profile_matches_mha_tokens(self):
        weights = small_weights(seed=4)
        prompt = random_prompt(weights.config, 5, seed=1)
        plain = generate(weights, prompt, 16, "MHA")
        clustered = generate(
            weights, prompt, 16, "CHAI", profile=degenerate_profile(weights.config)
        )
        assert plain.tokens == clustered.tokens

    def test_redundant_fixture_matches_mha_tokens_and_logits(self):
        weights, plan = redundant_fixture([1, 3], seed=5)
        profile = fixture_profile(weights, plan)
        prompt = random_prompt(weights.config, 4, seed=2)
        plain = generate(weights, prompt, 24, "MHA", collect_logits=True)
        clustered = generate(
            weights, prompt, 24, "CHAI", profile=profile, collect_logits=True
        )
        assert plain.tokens == clustered.tokens
        worst = max(
            float(np.max(np.abs(a - b)))
            for a, b in zip(plain.logits, clustered.logits)
        )
        assert worst < 1e-4

    def test_identification_flow(self):
        weights, plan = redundant_fixture([2, 2], seed=6)
        profile = fixture_profile(weights, plan)
        result = generate(
            weights, [1, 2, 3], 10, "CHAI", profile=profile, collect_trace=True
        )
        # trace rows exist for exactly steps 1..identify_at
        assert result.trace.steps(0) == result.trace.steps(1) == [1, 2, 3, 4, 5]
        assert result.trace.rows.shape == (2, 4, 5, 3 + 5)
        # key-head count drops at step 6 and stays down; values keep all heads
        for step_index, counts in enumerate(result.per_step_key_head_counts):
            want = [2, 2] if step_index >= 5 else [4, 4]
            assert counts == want
        assert all(v == [4, 4] for v in result.per_step_value_head_counts)
        assert result.identified_at_step == 5
        assert not result.identification_skipped

    def test_plan_frozen_after_identification(self):
        weights, plan = redundant_fixture([2, 2], seed=7)
        result = generate(
            weights, [1, 2], 12, "CHAI", profile=fixture_profile(weights, plan)
        )
        assert result.plan is not None
        payload = result.to_dict()
        assert payload["plan_at_identification"] == payload["plan"] == result.plan.to_dict()

    def test_short_run_skips_identification(self):
        weights, plan = redundant_fixture([2, 2], seed=8)
        profile = fixture_profile(weights, plan)
        result = generate(weights, [1, 2], 5, "CHAI", profile=profile)
        assert result.identification_skipped
        assert result.plan is None
        assert result.per_step_key_head_counts[-1] == [4, 4]
        # equivalent plain run decodes the same stream
        assert result.tokens == generate(weights, [1, 2], 5, "MHA").tokens

    def test_determinism_across_runs(self):
        weights = small_weights(seed=9)
        profile = degenerate_profile(weights.config)
        prompt = random_prompt(weights.config, 3, seed=3)
        a = generate(weights, prompt, 10, "CHAI", profile=profile, seed=11)
        b = generate(weights, prompt, 10, "CHAI", profile=profile, seed=11)
        assert a.tokens == b.tokens
        assert a.plan.to_dict() == b.plan.to_dict()

    @pytest.mark.parametrize(
        "mode, steps, identified_at",
        [
            pytest.param("MHA", 12, None, id="MHA"),
            pytest.param("CHAI", 12, 5, id="CHAI"),
            pytest.param("CHAI", 6, 5, id="CHAI-one_frozen_step"),
            pytest.param("CHAI_STATIC", 12, 0, id="CHAI_STATIC"),
            pytest.param("CHAI_STATIC", 1, 0, id="CHAI_STATIC-one_step"),
            pytest.param("CHAI_QKV", 12, 5, id="CHAI_QKV"),
            pytest.param("CHAI_QKV", 5, None, id="CHAI_QKV-skipped"),
        ],
    )
    def test_measured_cache_bytes_match_closed_form_every_step(
        self, mode, steps, identified_at
    ):
        weights, plan = redundant_fixture([2, 3], seed=10)
        config = weights.config
        prompt = random_prompt(config, 4, seed=4)
        result = generate(
            weights, prompt, steps, mode,
            profile=None if mode == "MHA" else fixture_profile(weights, plan),
        )
        assert result.identified_at_step == identified_at
        layouts = [HeadLayout.singleton(config)]
        if result.plan is not None:
            layouts.append(HeadLayout(config, result.plan, reuse_values=mode == "CHAI_QKV"))
        for step in range(1, steps + 1):
            seq_len = len(prompt) + step
            frozen = identified_at is not None and step > identified_at
            layout = layouts[-1] if frozen else layouts[0]
            want_bytes = kv_cache_bytes(config, layout, seq_len)
            want_flops = attention_flops(config, layout, seq_len)
            assert result.per_step_kv_bytes[step - 1] == want_bytes.kv_total_bytes
            assert result.per_step_attention_flops[step - 1] == want_flops.total_flops
        # the last step's bytes are the final cache's, as it reports itself
        summary = result.kv_cache_summary
        assert summary["length"] == len(prompt) + steps
        stored = sum(
            len(layer["stored_key_heads"]) + len(layer["stored_value_heads"])
            for layer in summary["layers"]
        )
        assert result.per_step_kv_bytes[-1] == stored * summary["length"] * config.head_dim * 2

    def test_accounting_runs_once_per_plan_epoch(self, monkeypatch):
        weights, plan = redundant_fixture([2, 3], seed=10)
        real = accounting_mod.attention_flops
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(accounting_mod, "attention_flops", spy)
        generate(
            weights, random_prompt(weights.config, 4, seed=4), 12, "CHAI",
            profile=fixture_profile(weights, plan),
        )
        # two closed-form evaluations per plan epoch, plus the final report
        assert len(calls) <= 5


class TestGenerateStaticAndQkv:
    def test_static_prunes_immediately(self):
        weights, plan = redundant_fixture([2, 2], seed=11)
        profile = fixture_profile(weights, plan)
        result = generate(weights, [1, 2, 3], 8, "CHAI_STATIC", profile=profile)
        assert all(c == [2, 2] for c in result.per_step_key_head_counts)
        assert all(v == [4, 4] for v in result.per_step_value_head_counts)
        assert result.plan is profile.static_assignment

    def test_static_times_pruning_as_identification(self):
        weights, plan = redundant_fixture([2, 2], seed=11)
        profile = fixture_profile(weights, plan)
        result = generate(weights, [1, 2, 3], 4, "CHAI_STATIC", profile=profile)
        assert result.identified_at_step == 0
        assert result.identification_ms > 0.0

    def test_static_on_redundant_fixture_matches_mha(self):
        weights, plan = redundant_fixture([1, 2], seed=12)
        profile = fixture_profile(weights, plan)
        plain = generate(weights, [2, 3], 16, "MHA")
        static = generate(weights, [2, 3], 16, "CHAI_STATIC", profile=profile)
        assert plain.tokens == static.tokens

    def test_qkv_prunes_values_too(self):
        weights, plan = redundant_fixture([2, 2], seed=13)
        profile = fixture_profile(weights, plan)
        result = generate(weights, [1, 2], 10, "CHAI_QKV", profile=profile)
        assert result.per_step_key_head_counts[-1] == [2, 2]
        assert result.per_step_value_head_counts[-1] == [2, 2]
        assert result.memory_report.key_bytes == result.memory_report.value_bytes

    def test_qkv_degenerate_profile_matches_mha(self):
        weights = small_weights(seed=14)
        prompt = random_prompt(weights.config, 3, seed=5)
        plain = generate(weights, prompt, 12, "MHA")
        reused = generate(
            weights, prompt, 12, "CHAI_QKV", profile=degenerate_profile(weights.config)
        )
        assert plain.tokens == reused.tokens


class TestDecodeGathers:
    @pytest.mark.parametrize("mode", MODES)
    def test_head_columns_called_only_while_building_plan_tensors(self, mode, monkeypatch):
        weights, plan = redundant_fixture([2, 3], seed=6)
        profile = fixture_profile(weights, plan)
        phase = []  # innermost of "build" (PlanTensors) and "step" (_forward_pass)
        calls = []
        builds = []

        def within(name, fn):
            def wrapped(*args, **kwargs):
                phase.append(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    phase.pop()
            return wrapped

        def spy_columns(*args, **kwargs):
            calls.append(phase[-1] if phase else None)
            return real_columns(*args, **kwargs)

        def spy_tensors(*args, **kwargs):
            builds.append(args[0])
            return real_tensors(*args, **kwargs)

        real_columns = attention_mod.head_columns
        real_tensors = within("build", engine_mod.PlanTensors)
        monkeypatch.setattr(attention_mod, "head_columns", spy_columns)
        monkeypatch.setattr(engine_mod, "PlanTensors", spy_tensors)
        monkeypatch.setattr(
            engine_mod, "_forward_pass", within("step", engine_mod._forward_pass)
        )
        result = generate(
            weights, random_prompt(weights.config, 6), 12, mode,
            profile=None if mode == "MHA" else profile,
        )
        # wq, wk and wv columns once per layer per plan, never during a step
        assert calls == ["build"] * 3 * weights.config.num_layers * len(builds)
        assert builds[0].plan == ClusterPlan.singleton(2, 4)
        if mode == "MHA":
            assert len(builds) == 1 and result.plan is None
        else:
            assert len(builds) == 2 and builds[1].plan == result.plan

    @pytest.mark.parametrize("mode", ["CHAI", "CHAI_STATIC", "CHAI_QKV"])
    def test_frozen_plan_tensors_built_after_unpruned_cache_released(self, mode, monkeypatch):
        weights, plan = redundant_fixture([2, 3], seed=6)
        caches, planes = [], []  # weak references: the spies must keep nothing alive
        at_build = []  # per PlanTensors build: (key arrays alive, value arrays kept)
        real_prefill, real_tensors = engine_mod.prefill, engine_mod.PlanTensors

        def spy_prefill(weights, prompt, cache, *args, **kwargs):
            logits = real_prefill(weights, prompt, cache, *args, **kwargs)
            caches.append(weakref.ref(cache))
            planes.extend((weakref.ref(lc.keys), weakref.ref(lc.values)) for lc in cache.layers)
            return logits

        def spy_tensors(*args, **kwargs):
            if planes:
                layers = caches[0]().layers
                at_build.append((
                    [keys() is not None for keys, _ in planes],
                    [values() is lc.values for (_, values), lc in zip(planes, layers)],
                ))
            return real_tensors(*args, **kwargs)

        monkeypatch.setattr(engine_mod, "prefill", spy_prefill)
        monkeypatch.setattr(engine_mod, "PlanTensors", spy_tensors)
        result = generate(
            weights, random_prompt(weights.config, 6), 8, mode,
            profile=fixture_profile(weights, plan),
        )
        assert result.plan is not None and len(caches) == 1
        # the frozen plan's column gathers come only after pruning has
        # released every pre-prune key array of the request's one cache; the
        # value arrays stay uncopied unless the layout prunes values too
        layers = weights.config.num_layers
        assert at_build == [([False] * layers, [mode != "CHAI_QKV"] * layers)]


class TestRequestMemory:
    # The benchmark's model shape with its 16/8/8/4 cluster counts. Each mode
    # first serves one untraced request, so no traced request pays for a
    # first call's allocations, and the peaks come from a fresh interpreter,
    # so nothing earlier tests left behind moves them.
    PEAKS = textwrap.dedent(
        """
        import json, sys, tracemalloc
        from chai.engine import MODES, generate
        from chai.model import ModelConfig, init_random
        from helpers import fixture_profile, grouped_plan, random_prompt

        prompt_len, steps = map(int, sys.argv[1:])
        config = ModelConfig(
            num_layers=4, num_heads=32, model_dim=512, head_dim=16,
            ffn_dim=256, vocab_size=64, max_seq_len=2112,
        )
        weights = init_random(config, seed=0)
        profile = fixture_profile(weights, grouped_plan(4, 32, [16, 8, 8, 4]))
        prompt = random_prompt(config, prompt_len)
        for mode in MODES:
            generate(weights, prompt, steps, mode, profile=profile)
        peaks = {}
        for mode in MODES:
            tracemalloc.start()
            generate(weights, prompt, steps, mode, profile=profile)
            peaks[mode] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        print(json.dumps(peaks))
        """
    )

    @pytest.mark.parametrize("prompt_len, steps", [(512, 32), (256, 512)])
    def test_no_clustered_request_peaks_above_mha(self, prompt_len, steps):
        # Pruning narrows the request's one cache: a clustered request never
        # holds two caches, so its traced peak stays within plain attention's.
        tests_dir = os.path.dirname(os.path.abspath(__file__))
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(engine_mod.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src_dir, tests_dir]))
        proc = subprocess.run(
            [sys.executable, "-c", self.PEAKS, str(prompt_len), str(steps)],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        peaks = json.loads(proc.stdout)
        assert set(peaks) == set(MODES)
        assert all(peak <= peaks["MHA"] for peak in peaks.values()), peaks

    @pytest.mark.parametrize("collect_trace", [False, True])
    @pytest.mark.parametrize("mode", ["CHAI", "CHAI_QKV"])
    def test_trace_released_at_the_plan_freeze(self, mode, collect_trace, monkeypatch):
        weights, plan = redundant_fixture([2, 3], seed=6)
        traces = []  # weak references to the trace and its rows
        alive = []  # per decode step: are they still alive?
        real_trace, real_forward = engine_mod.AttentionTrace, engine_mod._forward_pass

        def spy_trace(*args, **kwargs):
            trace = real_trace(*args, **kwargs)
            traces.extend((weakref.ref(trace), weakref.ref(trace.rows)))
            return trace

        def spy_forward(weights, token_ids, *args, **kwargs):
            if len(token_ids) == 1:  # a decode step, not the prefill
                alive.append(any(ref() is not None for ref in traces))
            return real_forward(weights, token_ids, *args, **kwargs)

        monkeypatch.setattr(engine_mod, "AttentionTrace", spy_trace)
        monkeypatch.setattr(engine_mod, "_forward_pass", spy_forward)
        split, steps = 4, 8
        result = generate(
            weights, random_prompt(weights.config, 6), steps, mode,
            profile=fixture_profile(weights, plan), identify_at=split,
            collect_trace=collect_trace,
        )
        assert len(traces) == 2 and result.plan is not None
        # a collected trace lives on in the result; otherwise the plan is
        # all the frozen epoch keeps of identification
        assert alive == [True] * split + [collect_trace] * (steps - split)
        assert (result.trace is not None) == collect_trace


class TestFlopOrdering:
    def test_steady_state_ordering(self):
        weights, plan = redundant_fixture([2, 3], seed=15)
        profile = fixture_profile(weights, plan)
        prompt = [1, 2, 3]
        plain = generate(weights, prompt, 10, "MHA")
        dynamic = generate(weights, prompt, 10, "CHAI", profile=profile)
        static = generate(weights, prompt, 10, "CHAI_STATIC", profile=profile)
        for step in range(6, 11):
            i = step - 1
            assert (
                dynamic.per_step_attention_flops[i]
                == static.per_step_attention_flops[i]
                <= plain.per_step_attention_flops[i]
            )
            assert dynamic.per_step_attention_flops[i] < plain.per_step_attention_flops[i]

    def test_equality_only_for_full_head_count(self):
        weights = small_weights(seed=16)
        profile = degenerate_profile(weights.config)
        prompt = [1, 2]
        plain = generate(weights, prompt, 8, "MHA")
        dynamic = generate(weights, prompt, 8, "CHAI", profile=profile)
        assert dynamic.per_step_attention_flops == plain.per_step_attention_flops


class TestCalibrate:
    def test_recovers_planted_cluster_counts(self):
        weights, plan = redundant_fixture([1, 3], seed=17)
        corpus = [random_prompt(weights.config, 8, seed=i) for i in range(6)]
        profile = calibrate(weights, corpus, seed=0)
        assert profile.cluster_counts == [1, 3]

    def test_zero_threshold_forces_full_count(self):
        weights, _ = redundant_fixture([1, 3], seed=18)
        corpus = [random_prompt(weights.config, 6, seed=i) for i in range(3)]
        profile = calibrate(weights, corpus, threshold=0.0, seed=0)
        assert profile.cluster_counts == [4, 4]

    def test_deterministic_given_seed(self):
        weights, _ = redundant_fixture([2, 2], seed=19)
        corpus = [random_prompt(weights.config, 8, seed=i) for i in range(5)]
        a = calibrate(weights, corpus, sample_count=3, seed=5)
        b = calibrate(weights, corpus, sample_count=3, seed=5)
        assert a.to_dict() == b.to_dict()

    def test_profile_round_trip(self, tmp_path):
        weights, plan = redundant_fixture([1, 2], seed=20)
        corpus = [random_prompt(weights.config, 6, seed=i) for i in range(3)]
        profile = calibrate(weights, corpus, seed=1)
        path = tmp_path / "profile.json"
        profile.save(path)
        loaded = CalibrationProfile.load(path)
        assert loaded.to_dict() == profile.to_dict()
        # byte-identical on re-save
        loaded.save(tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_traced_prefix_cache_holds_exactly_the_window(self, monkeypatch):
        weights = small_weights(seed=21)
        real_prefill = engine_mod.prefill
        caches = []

        def spy_prefill(weights, tokens, cache, *args, **kwargs):
            caches.append(cache)
            return real_prefill(weights, tokens, cache, *args, **kwargs)

        monkeypatch.setattr(engine_mod, "prefill", spy_prefill)
        corpus = [random_prompt(weights.config, 9, seed=i) for i in range(2)]
        calibrate(weights, corpus, window=6)
        assert len(caches) == 2
        for cache in caches:
            for lc in cache.layers:
                assert lc.length == lc.keys.shape[1] == lc.values.shape[1] == 6

    def test_window_beyond_max_seq_len_rejected(self):
        weights = small_weights(seed=21, max_seq_len=6)
        corpus = [random_prompt(weights.config, 9, seed=0)]
        with pytest.raises(ValidationError, match=r"window must lie in \[1, 6\], got 7"):
            calibrate(weights, corpus, window=7)

    def test_short_sample_rejected(self):
        weights = small_weights(seed=21)
        with pytest.raises(ValidationError, match="sample"):
            calibrate(weights, [[1, 2]], window=5)

    def test_sample_count_bounds(self):
        weights = small_weights(seed=22)
        corpus = [random_prompt(weights.config, 6, seed=0)]
        with pytest.raises(ValidationError):
            calibrate(weights, corpus, sample_count=2)

    def test_elbow_curves_non_increasing(self):
        weights = small_weights(seed=23)
        corpus = [random_prompt(weights.config, 8, seed=i) for i in range(3)]
        profile = calibrate(weights, corpus, seed=2)
        for curve in profile.elbow_curves:
            assert all(a >= b - 1e-9 for a, b in zip(curve, curve[1:]))


class TestCompareOutputs:
    def test_degenerate_profile_zero_divergence(self):
        weights = small_weights(seed=24)
        profile = degenerate_profile(weights.config)
        report = compare_outputs(weights, [1, 2, 3], 10, profile)
        assert report["first_divergence_step"] is None
        assert all(v == 0.0 for v in report["per_step_max_abs_logit_delta"])
        assert all(v == 0.0 for v in report["per_step_next_token_kl"])

    def test_redundant_fixture_small_drift(self):
        weights, plan = redundant_fixture([2, 2], seed=25)
        profile = fixture_profile(weights, plan)
        report = compare_outputs(weights, [1, 2], 16, profile)
        assert report["first_divergence_step"] is None
        assert max(report["per_step_max_abs_logit_delta"]) < 1e-4

    def test_random_weights_report_well_formed(self):
        weights = small_weights(seed=26)
        corpus = [random_prompt(weights.config, 8, seed=i) for i in range(3)]
        profile = calibrate(weights, corpus, seed=3)
        report = compare_outputs(weights, [1, 2, 3], 12, profile, mode="CHAI_QKV")
        assert len(report["per_step_next_token_kl"]) == 12
        for kl in report["per_step_next_token_kl"]:
            assert np.isfinite(kl) and kl >= 0.0

    def test_mha_variant_rejected(self):
        weights = small_weights(seed=27)
        with pytest.raises(ValidationError):
            compare_outputs(weights, [1], 4, degenerate_profile(weights.config), mode="MHA")
