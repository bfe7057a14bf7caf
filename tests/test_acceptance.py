"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
Criterion 4 measures wall-clock medians and is the only timing-sensitive test.
"""

import itertools
import statistics
import time

import numpy as np
import pytest

from chai.accounting import attention_flops, kv_cache_bytes
from chai.clustering import (
    correlation_matrix,
    elbow_select,
    kmeans,
    membership_stability,
)
from chai.engine import calibrate, generate
from chai.kernels import softmax_rows
from chai.model import ModelConfig, init_random
from chai.plan import HeadLayout
from helpers import (
    ACCEPTANCE_COUNTS,
    acceptance_corpus,
    acceptance_fixture,
    degenerate_profile,
    fixture_profile,
    grouped_plan,
    random_prompt,
    small_weights,
)

CALIBRATION_THRESHOLD = 0.03  # elbow threshold used on the planted fixture


def report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {status}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def test_criterion_1_cluster_exactness():
    start = time.perf_counter()
    weights, plan = acceptance_fixture()
    profile = fixture_profile(weights, plan)
    prompt = random_prompt(weights.config, 8, seed=11)
    plain = generate(weights, prompt, 64, "MHA", collect_logits=True)
    clustered = generate(weights, prompt, 64, "CHAI", profile=profile, collect_logits=True)
    elapsed = time.perf_counter() - start
    worst = max(
        float(np.max(np.abs(a - b))) for a, b in zip(plain.logits, clustered.logits)
    )
    ok = plain.tokens == clustered.tokens and worst < 1e-4 and elapsed < 30.0
    report(
        1,
        "clustered decoding is exact on the planted-redundancy model",
        ok,
        f"64 steps, max logit dev {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_kv_cache_byte_magnitude():
    config = ModelConfig(
        num_layers=32, num_heads=32, model_dim=4096, head_dim=128,
        ffn_dim=11008, vocab_size=32000, max_seq_len=4096,
    )
    report_bytes = kv_cache_bytes(config, HeadLayout.singleton(config), 2048)
    total = report_bytes.kv_total_bytes
    ok = total == 1_073_741_824 and abs(total - 1.2e9) / 1.2e9 < 0.15
    report(2, "7B-shape cache at 2048 tokens is exactly 1,073,741,824 bytes", ok,
           f"{total} bytes, {abs(total - 1.2e9) / 1.2e9:.1%} from 1.2 GB")


def test_criterion_3_savings_headline_and_live_match():
    config = ModelConfig(
        num_layers=2, num_heads=32, model_dim=256, head_dim=8,
        ffn_dim=96, vocab_size=64, max_seq_len=64,
    )
    plan = grouped_plan(config.num_layers, 32, [18] * config.num_layers)
    layout = HeadLayout(config, plan)
    closed = kv_cache_bytes(config, layout, 32)
    exact = closed.savings_fraction == 0.21875

    weights = init_random(config, seed=4)
    profile = fixture_profile(weights, plan)
    prompt = random_prompt(config, 6, seed=5)
    result = generate(weights, prompt, 20, "CHAI_STATIC", profile=profile)
    live_match = all(
        result.per_step_kv_bytes[step - 1]
        == kv_cache_bytes(config, layout, len(prompt) + step).kv_total_bytes
        for step in range(1, 21)
    )
    final_fraction = result.memory_report.savings_fraction
    ok = exact and live_match and final_fraction == 0.21875
    report(3, "18-of-32 keys-only savings fraction is exactly 0.21875, live bytes match",
           ok, f"closed {closed.savings_fraction}, live {final_fraction}")


def test_criterion_4_latency_trend():
    # Wall-clock measurement on a shared machine: use long steady windows and
    # the median speedup across five full attempts per sequence length. Each
    # attempt runs all four requests back to back, in reverse order on every
    # other attempt, so host drift hits both lengths' ratios alike.
    start = time.perf_counter()
    config = ModelConfig(
        num_layers=4, num_heads=32, model_dim=512, head_dim=16,
        ffn_dim=256, vocab_size=64, max_seq_len=2112,
    )
    weights = init_random(config, seed=0)
    plan = grouped_plan(4, 32, [8, 8, 8, 8])
    profile = fixture_profile(weights, plan)

    identify_at = 5
    window = 40
    steps = identify_at + window + 2
    attempts = 5
    seq_lens = (256, 2048)
    prompts = {seq_len: random_prompt(config, seq_len, seed=seq_len) for seq_len in seq_lens}

    def step_median(seq_len, mode):
        result = generate(
            weights, prompts[seq_len], steps, mode, profile=profile, identify_at=identify_at
        )
        return statistics.median(result.step_ms[-window:])

    ratios = {seq_len: [] for seq_len in seq_lens}
    for attempt in range(attempts):
        requests = [(seq_len, mode) for seq_len in seq_lens for mode in ("MHA", "CHAI")]
        if attempt % 2:
            requests.reverse()
        for mode in ("MHA", "CHAI"):  # warm-up
            generate(weights, prompts[256][:16], 8, mode, profile=profile, identify_at=identify_at)
        medians = {request: step_median(*request) for request in requests}
        for seq_len in seq_lens:
            ratios[seq_len].append(medians[seq_len, "MHA"] / medians[seq_len, "CHAI"])
    speedups = {seq_len: statistics.median(ratios[seq_len]) for seq_len in seq_lens}
    elapsed = time.perf_counter() - start
    ok = speedups[2048] >= 1.3 and speedups[2048] > speedups[256] and elapsed < 300.0
    report(4, "time-to-next-token speedup >= 1.3x at 2048 and grows with length", ok,
           f"256: {speedups[256]:.2f}x, 2048: {speedups[2048]:.2f}x, {elapsed:.0f}s")


def _enumerate_partitions(n, k):
    if k == 1:
        yield [list(range(n))]
        return
    for assignment in itertools.product(range(k), repeat=n):
        seen = []
        ok = True
        for a in assignment:
            if a not in seen:
                if a != len(seen):
                    ok = False
                    break
                seen.append(a)
        if not ok or len(seen) != k:
            continue
        blocks = [[] for _ in range(k)]
        for i, a in enumerate(assignment):
            blocks[a].append(i)
        yield blocks


def test_criterion_5_kmeans_matches_exhaustive_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    hits = 0
    trials = 200
    for _ in range(trials):
        n = int(rng.integers(2, 9))
        dim = int(rng.integers(1, 4))
        k = int(rng.integers(1, min(3, n) + 1))
        points = rng.uniform(-1.0, 1.0, size=(n, dim))
        result = kmeans(points, k, seed=int(rng.integers(1 << 30)), restarts=50)
        best = min(
            sum(((points[b] - points[b].mean(axis=0)) ** 2).sum() for b in blocks)
            for blocks in _enumerate_partitions(n, k)
        )
        if result.sse <= best + 1e-9:
            hits += 1
    elapsed = time.perf_counter() - start
    ok = hits / trials >= 0.99 and elapsed < 60.0
    report(5, "k-means with 50 restarts matches exhaustive-partition optima", ok,
           f"{hits}/{trials} optimal, {elapsed:.1f}s")


def test_criterion_6_calibration_recovers_planted_counts():
    weights, plan = acceptance_fixture()
    corpus = acceptance_corpus(weights.config)
    recovered = []
    for seed in range(5):
        profile = calibrate(
            weights, corpus, threshold=CALIBRATION_THRESHOLD, seed=seed
        )
        recovered.append(profile.cluster_counts)
    ok = all(counts == ACCEPTANCE_COUNTS for counts in recovered)
    report(6, "calibration recovers the planted per-layer cluster counts (5 seeds)",
           ok, f"want {ACCEPTANCE_COUNTS}, got {recovered}")


def test_criterion_7_membership_stability():
    weights, plan = acceptance_fixture()
    profile = fixture_profile(weights, plan)
    prompt = random_prompt(weights.config, 4, seed=21)
    fixture_run = generate(weights, prompt, 14, "MHA", collect_trace=True)
    _, fixture_counts = membership_stability(fixture_run.trace, profile, 5, 14)
    fixture_ok = bool(np.all(fixture_counts == 0))

    random_weights = small_weights(seed=31, num_heads=8, head_dim=8, model_dim=64)
    random_run = generate(random_weights, [1, 2, 3], 12, "MHA", collect_trace=True)
    rand_profile = degenerate_profile(random_weights.config)
    steps, rand_counts = membership_stability(random_run.trace, rand_profile, 5, 12)
    random_ok = (
        rand_counts.shape == (random_weights.config.num_layers, len(steps))
        and bool(np.all(rand_counts >= 0))
        and bool(np.all(rand_counts <= random_weights.config.num_heads))
    )
    report(7, "membership stability: zero changes on the fixture, bounded elsewhere",
           fixture_ok and random_ok,
           f"fixture max {int(fixture_counts.max())}, random max {int(rand_counts.max())}")


def test_criterion_8_invariant_suites():
    start = time.perf_counter()
    rng = np.random.default_rng(99)

    # softmax normalization and causal zeros
    for _ in range(30):
        rows = int(rng.integers(1, 8))
        cols = int(rng.integers(1, 12))
        scores = (rng.standard_normal((rows, cols)) * 8).astype(np.float32)
        probs = softmax_rows(scores)
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-5)
        assert np.all((probs >= 0) & (probs <= 1))
        causal_from = int(rng.integers(0, cols))
        masked = softmax_rows(scores, causal_from=causal_from)
        for i in range(rows):
            assert np.all(masked[i, causal_from + i + 1 :] == 0.0)

    # Pearson scale invariance
    for _ in range(20):
        base = rng.standard_normal((int(rng.integers(2, 7)), int(rng.integers(3, 20))))
        scaled = base * rng.uniform(0.1, 5.0, size=(base.shape[0], 1)) + rng.uniform(
            -3, 3, size=(base.shape[0], 1)
        )
        assert np.max(np.abs(correlation_matrix(base) - correlation_matrix(scaled))) < 1e-9

    # per-iteration SSE monotonicity is asserted inside the Lloyd loop;
    # exercise it across random instances
    for _ in range(40):
        points = rng.uniform(size=(int(rng.integers(2, 20)), int(rng.integers(1, 6))))
        kmeans(points, int(rng.integers(1, points.shape[0] + 1)), seed=int(rng.integers(1 << 30)))

    # elbow monotone in threshold
    for _ in range(20):
        errors = np.sort(rng.uniform(0, 50, size=int(rng.integers(2, 12))))[::-1]
        picks = [elbow_select(errors, t) for t in (0.01, 0.05, 0.2, 0.5)]
        assert picks == sorted(picks, reverse=True)

    # plan/cache laws and FLOP ordering over randomized small configs
    for trial in range(6):
        heads = int(rng.integers(2, 6))
        layers = int(rng.integers(1, 4))
        config_weights = small_weights(
            seed=trial, num_layers=layers, num_heads=heads, head_dim=8,
            model_dim=heads * 8,
        )
        counts = [int(rng.integers(1, heads + 1)) for _ in range(layers)]
        plan = grouped_plan(layers, heads, counts)
        profile = fixture_profile(config_weights, plan)
        result = generate(
            config_weights, [1, 2, 3], 9, "CHAI_STATIC", profile=profile
        )
        for key_counts, value_counts in zip(
            result.per_step_key_head_counts, result.per_step_value_head_counts
        ):
            assert key_counts == counts
            assert value_counts == [heads] * layers
        config = config_weights.config
        mha_flops = attention_flops(config, HeadLayout.singleton(config), 12).total_flops
        plan_flops = attention_flops(config, HeadLayout(config, plan), 12).total_flops
        assert plan_flops <= mha_flops
        if any(k < heads for k in counts):
            assert plan_flops < mha_flops

    elapsed = time.perf_counter() - start
    report(8, "invariant property suites hold over randomized configs", elapsed < 120.0,
           f"{elapsed:.1f}s")


def test_criterion_9_full_pipeline_determinism(tmp_path):
    import json

    from chai.cli import main

    def run_pipeline(tag):
        work = tmp_path / tag
        work.mkdir()
        weights_path = work / "weights.bin"
        assert main([
            "init", "--layers", "2", "--heads", "4", "--head-dim", "8",
            "--ffn-dim", "48", "--vocab-size", "64", "--max-seq-len", "64",
            "--seed", "7", "--out", str(weights_path),
        ]) == 0
        corpus = acceptance_corpus(
            ModelConfig(2, 4, 32, 8, 48, 64, 64), samples=4, length=8, seed=5
        )
        corpus_path = work / "corpus.json"
        corpus_path.write_text(json.dumps(corpus))
        profile_path = work / "profile.json"
        assert main([
            "calibrate", "--weights", str(weights_path), "--corpus", str(corpus_path),
            "--seed", "7", "--out", str(profile_path),
        ]) == 0
        prompt_path = work / "prompt.bin"
        np.array([1, 2, 3], dtype="<i4").tofile(prompt_path)
        result_path = work / "result.json"
        assert main([
            "generate", "--weights", str(weights_path), "--mode", "CHAI",
            "--profile", str(profile_path), "--prompt", str(prompt_path),
            "--steps", "10", "--seed", "7", "--out", str(result_path),
        ]) == 0
        bench_path = work / "bench.csv"
        assert main([
            "bench", "--weights", str(weights_path), "--profile", str(profile_path),
            "--seq-lens", "8,16", "--modes", "MHA,CHAI", "--repeats", "3",
            "--seed", "7", "--out", str(bench_path),
        ]) == 0
        result = json.loads(result_path.read_text())
        result.pop("timing")
        bench_rows = []
        import csv as csv_mod

        with open(bench_path, newline="") as fh:
            for row in csv_mod.DictReader(fh):
                for timing_col in ("ttft_ms", "median_ms", "identification_ms",
                                   "speedup", "ttft_speedup"):
                    row.pop(timing_col)
                bench_rows.append(row)
        return profile_path.read_bytes(), result, bench_rows

    profile_a, result_a, bench_a = run_pipeline("a")
    profile_b, result_b, bench_b = run_pipeline("b")
    ok = profile_a == profile_b and result_a == result_b and bench_a == bench_b
    report(9, "calibrate -> generate -> bench is byte-identical across runs", ok)
