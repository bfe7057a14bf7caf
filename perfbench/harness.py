"""Closed-loop, single-client benchmark of the chai engine, driven in-process.

One client sends one request at a time through `chai.engine.generate` and
`chai.engine.calibrate`, and sends the next only when the previous returns.
The model is the baseline config (L=4, H=32, d=512, d_h=16) with planted
head redundancy: per-layer cluster counts 16/8/8/4, wq/wk shared within
each cluster by `model.make_redundant`, and wv shared here as well, so every
clustered mode must emit exactly the MHA token stream. That token match is
the correctness check of every request.

Workloads (inputs come only from the workload seed):
  long_prompt  rounds of 512-token prompts with 32 output tokens, one request
               per mode in the order MHA, CHAI, CHAI_STATIC, CHAI_QKV;
               prefill and the identification k-means on wide features dominate.
  long_output  the same rounds with 256-token prompts and 512 output tokens;
               the per-step decode path and per-step accounting dominate.
  calibrate    each operation is one `calibrate` call on the seed's corpus
               (8 samples x 12 tokens, window 5, threshold 0.05), whose profile
               must equal the first of the run, between short rounds
               (64-token prompts, 64 output tokens).

Companions make every end-to-end metric measurable on every workload: the
short rounds give `calibrate` its token metrics, and in the untraced pass
`companion_calls` calibrate calls on a fixed one-sample corpus, spread over
the rounds, give long_prompt and long_output their `calibrate_cpu_s`.

The untraced pass gives the end-to-end metrics. A traced pass (`trace=True`)
runs half the operations untraced, then the same operations again with the
spans of `tracer.PATCHES` installed, and reports per-layer figures per
operation plus the tracing overhead.
"""

from __future__ import annotations

import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from chai import engine, model
from chai.model import ModelConfig
from chai.plan import ClusterPlan, LayerPlan

import tracer

MODES = ("MHA", "CHAI", "CHAI_STATIC", "CHAI_QKV")
IDENTIFYING_MODES = ("CHAI", "CHAI_QKV")
WORKLOADS = ("long_prompt", "long_output", "calibrate")
MODEL_SEED = 0
WINDOW = 5
THRESHOLD = 0.05
FLOAT32_BYTES = 4
# A mode's tail is TAIL_PERCENTILE of its gap profile: the PROFILE_PERCENTILE
# gap at each step position, taken across the mode's requests. Every request
# of a mode has the same shape, so a position has the same context length and
# the same place relative to identification in each. The profile keeps what
# the program does at a position in every request (the window steps, the
# identification stall, growth with context) and drops the ~10 ms
# preemptions a shared host adds to random single steps, which the pooled
# gaps' p90/p95 mostly measured. The lower quartile rather than the median,
# because long_output has 4 requests per mode: a position's median moves
# when 2 of the 4 are preempted there, its lower quartile only when 3 are
# (perfbench/README.md, End-to-end metrics).
TAIL_PERCENTILE = 95.0
PROFILE_PERCENTILE = 25.0
# Seconds one operation takes on the reference machine (2 cores, x86-64, one
# BLAS thread). A run does round(seconds / OP_SECONDS) operations, at least
# one, so every run with the same --seconds does the same work, and a faster
# program finishes sooner instead of taking more samples.
OP_SECONDS = {"long_prompt": 2.7, "long_output": 7.5, "calibrate": 15.0}

NOTES = (
    "Bytes and FLOPs are computed from tensor sizes and the closed-form "
    "accounting, not measured.",
    "Clock gap: CHAI_STATIC's post-prefill prune_cache and PlanTensors are "
    "timed by no GenerationResult field; they show only in "
    "engine.unaccounted_ms and tokens_per_cpu_s.",
    "Clock gap: GenerationResult.ttft_ms includes one decode step that emits "
    "no token; the benchmark's ttft_ms is prefill_ms, and the first token is "
    "the argmax of the prefill logits.",
)


@dataclass(frozen=True)
class Shapes:
    config: ModelConfig
    planted_counts: tuple[int, ...]
    long_prompt: tuple[int, int]  # prompt tokens, output tokens
    long_output: tuple[int, int]
    corpus: tuple[int, int]  # samples, tokens of the calibrate workload
    short_round: tuple[int, int]  # companions; see the module docstring
    short_rounds: int
    companion_corpus: tuple[int, int]
    companion_calls: int
    warmup: tuple[int, int]
    setup_repeats: int


FULL = Shapes(
    config=ModelConfig(
        num_layers=4, num_heads=32, model_dim=512, head_dim=16,
        ffn_dim=256, vocab_size=64, max_seq_len=2112,
    ),
    planted_counts=(16, 8, 8, 4),
    # 512 rather than 1024 prompt tokens: a 30 s run then holds 11 rounds, not
    # 4, and each mode's gap medians no longer hinge on a few 0.1 s decode
    # bursts of a host whose speed drifts (perfbench/README.md).
    long_prompt=(512, 32),
    long_output=(256, 512),
    corpus=(8, 12),
    short_round=(64, 64),
    short_rounds=6,
    companion_corpus=(1, 12),
    companion_calls=4,
    warmup=(16, 8),
    setup_repeats=5,
)

# For the smoke test: same code paths, a model small enough to run in seconds.
TINY = Shapes(
    config=ModelConfig(
        num_layers=2, num_heads=8, model_dim=64, head_dim=8,
        ffn_dim=32, vocab_size=64, max_seq_len=80,
    ),
    planted_counts=(4, 2),
    long_prompt=(48, 8),
    long_output=(12, 24),
    corpus=(2, 12),
    short_round=(8, 8),
    short_rounds=1,
    companion_corpus=(1, 12),
    companion_calls=1,
    warmup=(8, 7),
    setup_repeats=1,
)


def planted_plan(config: ModelConfig, counts) -> ClusterPlan:
    """Heads permuted per layer, then dealt round-robin into `counts[l]`
    clusters; each cluster's lowest head represents it."""
    layers = []
    for layer, k in enumerate(counts):
        perm = np.random.default_rng((MODEL_SEED, layer)).permutation(config.num_heads)
        assignment = tuple(int(perm[h]) % k for h in range(config.num_heads))
        representatives = tuple(assignment.index(c) for c in range(k))
        layers.append(LayerPlan(assignment=assignment, representatives=representatives))
    return ClusterPlan(layers=tuple(layers))


def share_value_heads(weights, plan: ClusterPlan) -> None:
    """Copy each representative's wv head block to the rest of its cluster,
    so value reuse (CHAI_QKV) is exact too."""
    dh = weights.config.head_dim
    for lw, layer_plan in zip(weights.layers, plan.layers):
        for head, cluster in enumerate(layer_plan.assignment):
            rep = layer_plan.representatives[cluster]
            lw.wv[:, head * dh : (head + 1) * dh] = lw.wv[:, rep * dh : (rep + 1) * dh]


@dataclass
class Phase:
    """What one pass over the operations observed."""

    tracer: tracer.Tracer | None = None
    requests: list = field(default_factory=list)
    calibrate_s: list = field(default_factory=list)
    calibrate_cpu_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    wall_s: float = 0.0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 8:
            self.errors.append(message)

    def call(self, name, fn, *args, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.call(name, fn, *args, **kwargs)


class Run:
    """The model, profile and inputs shared by every pass of one run."""

    def __init__(self, workload: str, seed: int, shapes: Shapes, workdir: str):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
        self.workload = workload
        self.seed = seed
        self.shapes = shapes
        self.workdir = workdir
        self.setup_s: list[float] = []
        self.init_random_s: list[float] = []
        self.load_weights_s: list[float] = []
        self.reference_profiles: dict[tuple, dict] = {}
        self.weights = None
        self.profile = None

    def set_up(self) -> None:
        """Build the weights, round-trip them through a CHAIWGT1 file, make
        the planted profile, and warm up with one short round."""
        start = time.perf_counter()
        config, counts = self.shapes.config, self.shapes.planted_counts
        t = time.perf_counter()
        base = model.init_random(config, MODEL_SEED)
        self.init_random_s.append(time.perf_counter() - t)
        plan = planted_plan(config, counts)
        weights = model.make_redundant(base, plan)
        share_value_heads(weights, plan)
        path = os.path.join(self.workdir, "weights.bin")
        model.save_weights(weights, path)
        t = time.perf_counter()
        self.weights = model.load_weights(path)
        self.load_weights_s.append(time.perf_counter() - t)
        if not model.weights_equal(weights, self.weights):
            raise RuntimeError("weights changed in the CHAIWGT1 round trip")
        self.profile = engine.CalibrationProfile(
            fingerprint=config.fingerprint(), window=WINDOW, threshold=THRESHOLD,
            sample_count=0, seed=MODEL_SEED, cluster_counts=list(counts),
            elbow_curves=[[] for _ in counts], static_assignment=plan,
        )
        warm = Phase()
        self.serve_round(warm, self.prompt(-1, self.shapes.warmup[0]), self.shapes.warmup[1])
        if warm.failed:
            raise RuntimeError(f"warm-up failed: {warm.errors}")
        self.setup_s.append(time.perf_counter() - start)

    def prompt(self, index: int, length: int) -> list[int]:
        rng = np.random.default_rng((self.seed, index + 1))
        return rng.integers(0, self.shapes.config.vocab_size, length).tolist()

    def corpus(self, seed: int, samples: int, tokens: int) -> list[list[int]]:
        rng = np.random.default_rng((seed, 0, samples, tokens))
        return rng.integers(0, self.shapes.config.vocab_size, (samples, tokens)).tolist()

    def serve_round(self, phase: Phase, prompt: list[int], steps: int) -> None:
        """One request per mode; each must emit the MHA request's tokens."""
        reference = None
        for mode in MODES:
            phase.attempted += 1
            start, cpu_start = time.perf_counter(), time.process_time()
            try:
                result = phase.call(
                    "engine.generate", engine.generate, self.weights, prompt, steps,
                    mode, profile=self.profile, seed=self.seed,
                )
            except Exception as exc:  # a failed request is counted, not fatal
                phase.fail(f"{mode}: {exc!r}")
                continue
            wall_s = time.perf_counter() - start
            cpu_s = time.process_time() - cpu_start
            if mode == "MHA":
                reference = result.tokens
            elif result.tokens != reference:
                phase.fail(f"{mode}: tokens differ from MHA")
                continue
            phase.requests.append(request_record(mode, result, wall_s, cpu_s, self.shapes.config))

    def calibrate_once(self, phase: Phase, corpus_seed: int, samples: int, tokens: int) -> None:
        """One calibrate call; its profile must equal the first one made on
        the same corpus in this run."""
        phase.attempted += 1
        corpus = self.corpus(corpus_seed, samples, tokens)
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            profile = phase.call(
                "engine.calibrate", engine.calibrate, self.weights, corpus,
                window=WINDOW, threshold=THRESHOLD, seed=corpus_seed,
            )
        except Exception as exc:  # a failed call is counted, not fatal
            phase.fail(f"calibrate: {exc!r}")
            return
        wall_s = time.perf_counter() - start
        cpu_s = time.process_time() - cpu_start
        payload = profile.to_dict()
        reference = self.reference_profiles.setdefault((corpus_seed, samples, tokens), payload)
        if payload != reference:
            phase.fail("calibrate: profile differs from the first of the run")
            return
        phase.calibrate_s.append(wall_s)
        phase.calibrate_cpu_s.append(cpu_s)

    def operation(self, phase: Phase, index: int) -> None:
        shapes = self.shapes
        if self.workload == "calibrate":
            # Short rounds on both sides of the call spread their samples
            # over the run.
            prompt_len, steps = shapes.short_round
            for r in range(shapes.short_rounds):
                if r == shapes.short_rounds // 2:
                    self.calibrate_once(phase, self.seed, *shapes.corpus)
                prompt = self.prompt(index * shapes.short_rounds + r, prompt_len)
                self.serve_round(phase, prompt, steps)
            return
        prompt_len, steps = getattr(shapes, self.workload)
        self.serve_round(phase, self.prompt(index, prompt_len), steps)

    def run_ops(self, phase: Phase, count: int, companions: bool = False) -> None:
        """`count` operations; with `companions`, also `companion_calls`
        calibrate calls spread evenly between them."""
        calls = self.shapes.companion_calls if companions else 0
        start = time.perf_counter()
        for index in range(count):
            self.operation(phase, index)
            for _ in range((index + 1) * calls // count - index * calls // count):
                # A fixed corpus: this call exists to time calibrate, and a
                # one-sample corpus drawn from the seed varies its work too much.
                self.calibrate_once(phase, MODEL_SEED, *self.shapes.companion_corpus)
        phase.wall_s = time.perf_counter() - start


def request_record(mode: str, result, wall_s: float, cpu_s: float, config: ModelConfig) -> dict:
    step_ms = list(result.step_ms)
    # Step s (1-based) emits token s+1; the last step emits nothing. The
    # identification stall delays step identified_at_step + 1.
    gaps = step_ms[:-1]
    ident_ms = result.identification_ms
    if ident_ms and 0 < (result.identified_at_step or 0) < len(gaps):
        gaps[result.identified_at_step] += ident_ms
    record = {
        "mode": mode,
        "prefill_ms": result.prefill_ms,
        "gaps_ms": gaps,
        "identification_ms": ident_ms,
        "wall_ms": wall_s * 1000.0,
        "cpu_ms": cpu_s * 1000.0,
        "unaccounted_ms": wall_s * 1000.0 - result.prefill_ms - sum(step_ms) - ident_ms,
        "tokens": len(result.tokens),
    }
    # Fields below feed only per-layer figures; a result without them
    # leaves those figures absent.
    flops = getattr(result, "per_step_attention_flops", None)
    if flops is not None:
        record["modeled_attention_flop"] = sum(flops)
    summary = getattr(result, "kv_cache_summary", None)
    if summary is not None:
        per_position = config.head_dim * FLOAT32_BYTES
        stored = [len(l["stored_key_heads"]) + len(l["stored_value_heads"])
                  for l in summary["layers"]]
        record["kv_reserved_bytes"] = sum(stored) * config.max_seq_len * per_position
        record["kv_live_bytes"] = sum(stored) * summary["length"] * per_position
        record["key_heads"] = sum(len(l["stored_key_heads"]) for l in summary["layers"])
    plan = getattr(result, "plan", None)
    if plan is not None:
        record["representatives"] = sum(len(l.representatives) for l in plan.layers)
    return record


def tail(gap_lists) -> tuple[float, dict]:
    """TAIL_PERCENTILE of the PROFILE_PERCENTILE gap at each step position,
    over the requests that reach that position; and what it rests on."""
    positions = max(len(gaps) for gaps in gap_lists)
    profile = [
        float(np.percentile([gaps[i] for gaps in gap_lists if len(gaps) > i], PROFILE_PERCENTILE))
        for i in range(positions)
    ]
    return float(np.percentile(profile, TAIL_PERCENTILE)), {
        "percentile": TAIL_PERCENTILE,
        "profile_percentile": PROFILE_PERCENTILE,
        "positions": positions,
        "requests": len(gap_lists),
        "samples": sum(len(gaps) for gaps in gap_lists),
    }


def end_to_end(run: Run, phase: Phase, import_s: float) -> tuple[dict, dict]:
    metrics: dict[str, tuple[float, str]] = {}
    tails = {}
    requests = phase.requests
    metrics["setup_s"] = (import_s + statistics.median(run.setup_s), "s")
    if requests:
        metrics["ttft_ms.p50"] = (statistics.median(r["prefill_ms"] for r in requests), "ms")
        for mode in MODES:
            gap_lists = [r["gaps_ms"] for r in requests if r["mode"] == mode]
            gaps = [g for gap_list in gap_lists for g in gap_list]
            if not gaps:
                continue
            value, tails[mode] = tail(gap_lists)
            metrics[f"tpot_ms.{mode}.p50"] = (statistics.median(gaps), "ms")
            metrics[f"tpot_ms.{mode}.tail"] = (value, "ms")
        # Whole calls are timed in process CPU time, which leaves out the
        # time the hypervisor gives the vCPU to other tenants; on the wall
        # clock these two figures followed the host's load, not the program
        # (perfbench/README.md, End-to-end metrics). The wall-clock figures
        # are in the detail record.
        metrics["tokens_per_cpu_s"] = (tokens_per(requests, "cpu_ms"), "1/s")
        identified = [r["identification_ms"] for r in requests if r["mode"] in IDENTIFYING_MODES]
        if identified:
            metrics["identify_ms.p50"] = (statistics.median(identified), "ms")
    if phase.calibrate_cpu_s:
        metrics["calibrate_cpu_s"] = (statistics.median(phase.calibrate_cpu_s), "s")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    extra = {
        "tails": tails,
        "wall_tokens_per_s": tokens_per(requests, "wall_ms") if requests else None,
        "wall_calibrate_s": statistics.median(phase.calibrate_s) if phase.calibrate_s else None,
        "engine.unaccounted_ms": mean_of(requests, "unaccounted_ms"),
    }
    return metrics, extra


def tokens_per(requests, clock_ms: str):
    """Emitted tokens per second of the generate calls, on one clock."""
    return sum(r["tokens"] for r in requests) / (sum(r[clock_ms] for r in requests) / 1000.0)


def mean_of(records, key):
    values = [r[key] for r in records if key in r]
    return sum(values) / len(values) if values else None


def per_layer(run: Run, untraced: Phase, traced: Phase, count: int) -> tuple[dict, dict]:
    tr = traced.tracer
    metrics: dict[str, tuple[float, str]] = {}

    def span(name, prefix=None, calls=False, self_ms=False, total_ms=False):
        if name not in tr.installed:
            return
        prefix = prefix or name
        if calls:
            metrics[prefix + ".calls"] = (tr.calls[name] / count, "count")
        if self_ms:
            metrics[prefix + ".self_ms"] = (tr.self_s[name] * 1000.0 / count, "ms")
        if total_ms:
            metrics[prefix + ".ms"] = (tr.total_s[name] * 1000.0 / count, "ms")

    c = tr.counters
    span("kernels.softmax_rows", calls=True, self_ms=True)
    if "kernels.softmax_rows" in tr.installed:
        elements = c["softmax.elements"]
        metrics["kernels.softmax_rows.elements"] = (elements / count, "count")
        metrics["kernels.softmax_rows.masked_share"] = (
            c["softmax.masked"] / elements if elements else 0.0, "ratio")
    for user in ("attention", "engine"):
        name = f"kernels.matmul.{user}"
        span(name, self_ms=True)
        if name in tr.installed:
            metrics[name + ".gflop"] = (c[f"matmul.{user}.flop"] / 1e9 / count, "GFLOP")
    span("kernels.apply_rope_heads", calls=True, self_ms=True)
    span("kernels.rms_norm", calls=True, self_ms=True)
    span("attention.mha_forward.prefill", self_ms=True)
    span("attention.mha_forward.decode", self_ms=True)
    span("attention.clustered_forward", calls=True, self_ms=True)
    span("attention.prune_cache", total_ms=True)
    span("attention.PlanTensors", total_ms=True)
    span("attention.AttentionTrace.record", calls=True, total_ms=True)
    span("clustering.kmeans", calls=True, self_ms=True)
    if "clustering.kmeans" in tr.installed:
        calls = tr.calls["clustering.kmeans"]
        metrics["clustering.kmeans.feature_width"] = (
            c["kmeans.feature_width"] / calls if calls else 0.0, "count")
    span("clustering.sse_curve", total_ms=True)
    span("clustering.extract_features", total_ms=True)
    span("clustering.choose_representatives", total_ms=True)
    span("accounting.attention_flops", calls=True, total_ms=True)
    span("accounting.kv_cache_bytes", total_ms=True)
    span("engine.generate", prefix="engine.generate", self_ms=True)
    metrics["engine.generate.busy_ms"] = (tr.total_s["engine.generate"] * 1000.0 / count, "ms")
    span("engine.prefill", self_ms=True)

    requests = traced.requests
    flops = [r["modeled_attention_flop"] for r in requests if "modeled_attention_flop" in r]
    if flops:
        metrics["accounting.modeled_attention_gflop"] = (sum(flops) / 1e9 / count, "GFLOP")
    reserved = mean_of(requests, "kv_reserved_bytes")
    live = mean_of(requests, "kv_live_bytes")
    if reserved:
        metrics["attention.kv_reserved_bytes"] = (reserved, "bytes")
        metrics["attention.kv_live_bytes"] = (live, "bytes")
        metrics["attention.kv_live_share"] = (live / reserved, "ratio")
    config = run.shapes.config
    heads = config.num_layers * config.num_heads
    clustered = [r for r in requests if r["mode"] != "MHA"]
    key_heads = [r["key_heads"] for r in clustered if "key_heads" in r]
    if key_heads:
        metrics["attention.key_head_share"] = (sum(key_heads) / (len(key_heads) * heads), "ratio")
    reps = [r["representatives"] for r in clustered if "representatives" in r]
    if reps:
        metrics["plan.representative_share"] = (sum(reps) / (len(reps) * heads), "ratio")
    unaccounted = mean_of(untraced.requests, "unaccounted_ms")
    if unaccounted is not None:
        metrics["engine.unaccounted_ms"] = (unaccounted, "ms")
    if requests:
        tokens = sum(r["tokens"] for r in requests)
        metrics["engine.tokens_per_forward"] = (tokens / (tokens + len(requests)), "ratio")
    metrics["model.load_weights.ms"] = (statistics.median(run.load_weights_s) * 1000.0, "ms")
    metrics["model.init_random.ms"] = (statistics.median(run.init_random_s) * 1000.0, "ms")
    metrics["bench.tracing_overhead_share"] = (traced.wall_s / untraced.wall_s - 1.0, "ratio")
    extra = {
        "traced_operations": count,
        "absent_spans": sorted(
            {name for entry in tracer.PATCHES for name in tracer.span_names(entry[2])}
            - tr.installed
        ),
        "engine.unaccounted_ms.traced": mean_of(requests, "unaccounted_ms"),
    }
    return metrics, extra


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux and in bytes on macOS.
    scale = 1.0 / (1024 * 1024) if sys.platform == "darwin" else 1.0 / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict form; the name is only reported
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    shapes: Shapes = FULL,
    import_s: float = 0.0,
    root: str = ".",
) -> tuple[dict, dict]:
    """Set up, run one workload, and return (result line, detail record)."""
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        bench = Run(workload, seed, shapes, workdir)
        for _ in range(shapes.setup_repeats):
            bench.set_up()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    count = max(1, round(seconds / OP_SECONDS[workload]))
    if trace:
        # Half the work untraced, then the same operations traced.
        count = max(1, count // 2)
        untraced = Phase()
        bench.run_ops(untraced, count)
        traced = Phase(tracer.Tracer())
        traced.tracer.installed.add("engine.generate")
        undo = tracer.install(traced.tracer)
        try:
            bench.run_ops(traced, count)
        finally:
            tracer.restore(undo)
        phases = (untraced, traced)
        metrics, extra = per_layer(bench, untraced, traced, count)
    else:
        phase = Phase()
        bench.run_ops(phase, count, companions=workload != "calibrate")
        phases = (phase,)
        metrics, extra = end_to_end(bench, phase, import_s)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "operations": count,
        "requests": sum(len(p.requests) for p in phases),
        "calibrate_calls": sum(len(p.calibrate_s) for p in phases),
        "failed_share": failed / attempted,
        "errors": [e for p in phases for e in p.errors],
        "setup_repeats_s": bench.setup_s,
        "import_s": import_s,
        "environment": environment(),
        "notes": NOTES,
        **extra,
    }
    return result, detail
