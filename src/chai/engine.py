"""End-to-end inference: plain multi-head decoding, clustered decoding with
online membership identification, the static-assignment variant, the
value-reuse variant, and offline calibration.

Every forward pass goes through the one attention kernel,
`clustered_forward`, under precomputed `PlanTensors`. Plain multi-head
attention is the singleton plan (every head its own cluster): every mode
prefills the prompt under it, through `mha_forward`, the kernel's name for
prefill (the benchmark's tracer replaces it to time prefill apart from
decode). Each plan epoch has one `HeadLayout`, which the cache, the plan
tensors and the accounting read.
A request's cache holds exactly its prompt plus its decode steps; a
calibration prefix's holds exactly the window. `max_seq_len` is only the
limit both are checked against.

Every request is two plan epochs. Decode steps 1..split run under the
singleton plan over the unpruned cache; split is `steps` for MHA (the plan
never freezes), 0 for the static variant and min(identify_at, steps) for
the clustered modes, whose steps 1..split are traced into one array sized
to them (a calibration prefix traces its window); the kernel records a
trace only under the singleton plan, so no frozen step is traced. The plan
freezes at one site, at the start of step split + 1: to the profile's
calibration-time assignment for the static variant, or else to a
clustering of each layer's heads from the traced rows (k-means with the
profile's per-layer cluster counts), after which the trace is released
unless the caller collects it.
The frozen plan's head layout is derived, the request's one cache is
pruned to it in place (releasing each layer's dropped planes), and only
then are the layout's `PlanTensors` gathered; they run every remaining step.

The decode loop only decodes: per-step bytes, FLOPs and head counts are
computed after it, once per plan epoch, from that epoch's layout and the
closed forms in `accounting`.

Decode steps are numbered from 1; step s feeds generated token s and attends
over prompt_len + s cached positions.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from . import accounting
from .attention import (
    AttentionTrace,
    KVCache,
    PlanTensors,
    clustered_forward,
    mha_forward,
    prune_cache,
)
from .clustering import (
    choose_representatives,
    derived_seed,
    elbow_select,
    extract_features,
    kmeans,
    sse_curve,
)
from .errors import ContractError, ValidationError
from .kernels import matmul, rms_norm
from .model import ModelConfig, Weights
from .plan import ClusterPlan, HeadLayout, LayerPlan, is_integer

MODES = ("MHA", "CHAI", "CHAI_STATIC", "CHAI_QKV")
DEFAULT_IDENTIFY_AT = 5


def parse_mode(mode: str) -> str:
    name = str(mode).upper().replace("-", "_")
    if name not in MODES:
        raise ValidationError(f"unknown mode {mode!r}; valid modes: {', '.join(MODES)}")
    return name


@dataclass
class CalibrationProfile:
    """Offline per-layer cluster counts plus a corpus-level static assignment."""

    fingerprint: str
    window: int
    threshold: float
    sample_count: int
    seed: int
    cluster_counts: list[int]
    elbow_curves: list[list[float]]
    static_assignment: ClusterPlan

    def __post_init__(self):
        if not is_integer(self.seed) or self.seed < 0:
            raise ValidationError(f"profile seed must be an integer >= 0, got {self.seed!r}")
        if not is_integer(self.window) or self.window < 1:
            raise ValidationError(f"profile window must be an integer >= 1, got {self.window!r}")
        if not all(map(is_integer, self.cluster_counts)):
            raise ValidationError(
                f"profile cluster counts must be integers, got {list(self.cluster_counts)!r}"
            )
        static_counts = self.static_assignment.cluster_counts()
        if static_counts != list(self.cluster_counts):
            raise ValidationError(
                f"static assignment cluster counts {static_counts} disagree "
                f"with chosen counts {list(self.cluster_counts)}"
            )

    def require_shape(self, num_layers: int, num_heads: int, owner: str) -> None:
        """Reject a static assignment not shaped for the `owner` model or trace."""
        heads = [layer.num_heads for layer in self.static_assignment.layers]
        if heads != [num_heads] * num_layers:
            raise ValidationError(
                f"calibration profile plan covers {len(heads)} layers with {heads} heads; "
                f"the {owner} has {num_layers} layers of {num_heads} heads"
            )

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "window": self.window,
            "threshold": self.threshold,
            "sample_count": self.sample_count,
            "seed": self.seed,
            "cluster_counts": list(self.cluster_counts),
            "elbow_curves": [list(curve) for curve in self.elbow_curves],
            "static_assignment": self.static_assignment.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CalibrationProfile":
        return cls(
            fingerprint=data["fingerprint"],
            window=data["window"],
            threshold=data["threshold"],
            sample_count=data["sample_count"],
            seed=data["seed"],
            cluster_counts=list(data["cluster_counts"]),
            elbow_curves=[list(curve) for curve in data["elbow_curves"]],
            static_assignment=ClusterPlan.from_dict(data["static_assignment"]),
        )

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "CalibrationProfile":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def _forward_pass(
    weights: Weights,
    token_ids,
    cache: KVCache,
    attend,
    plan_tensors: PlanTensors,
    trace: AttentionTrace | None = None,
) -> np.ndarray:
    """Run tokens through every block, attending with `attend`
    (`mha_forward` or `clustered_forward`) under `plan_tensors`; returns the
    last position's logits, which must be finite."""
    ids = np.asarray(token_ids, dtype=np.intp)
    h = weights.token_embedding[ids]
    for layer, lw in enumerate(weights.layers):
        normed = rms_norm(h, lw.attn_norm_gain)
        h += attend(normed, lw, cache, layer, plan_tensors, trace)
        normed = rms_norm(h, lw.mlp_norm_gain)
        # silu(gate) * up = gate / (1 + exp(-gate)) * up, in gate's buffer;
        # exp(-gate) overflows to inf, whose quotient is the exact 0, only
        # past 88.72, and only then is an errstate (dearer than the max) needed
        gate = matmul(normed, lw.w_gate)
        denominator = np.negative(gate)
        if np.maximum.reduce(denominator, None) < 88.0:
            np.exp(denominator, out=denominator)
        else:
            with np.errstate(over="ignore"):
                np.exp(denominator, out=denominator)
        denominator += 1.0
        gate /= denominator
        gate *= matmul(normed, lw.w_up)
        h += matmul(gate, lw.w_down)
    last = rms_norm(h[-1:], weights.final_norm_gain)
    logits = matmul(last, weights.output_projection)[0]
    if not np.isfinite(logits).all():
        raise ContractError(f"non-finite logits at cache position {cache.length - 1}")
    return logits


def prefill(
    weights: Weights,
    prompt,
    cache: KVCache,
    plan_tensors: PlanTensors,
    trace: AttentionTrace | None = None,
):
    """Process the whole prompt with plain causal attention under the
    singleton plan's `plan_tensors`; returns last-position logits."""
    return _forward_pass(weights, prompt, cache, mha_forward, plan_tensors, trace)


def _token_ids(config: ModelConfig, tokens, what: str) -> list[int]:
    """`tokens` as ints, each an integer that is not a bool (numpy integers
    pass) and lies in [0, vocab_size); `what` names them in the error."""
    tokens = list(tokens)
    for t in tokens:
        if not (is_integer(t) or isinstance(t, np.integer)) or not 0 <= t < config.vocab_size:
            raise ValidationError(
                f"{what} has token id {t!r}; token ids must be integers "
                f"in [0, {config.vocab_size})"
            )
    return [int(t) for t in tokens]


def _validate_prompt(config: ModelConfig, prompt, steps: int) -> list[int]:
    prompt = _token_ids(config, prompt, "prompt")
    if not prompt:
        raise ValidationError("prompt must contain at least one token id")
    if steps < 1:
        raise ValidationError(f"steps must be >= 1, got {steps}")
    if len(prompt) + steps > config.max_seq_len:
        raise ValidationError(
            f"prompt length {len(prompt)} + steps {steps} exceeds "
            f"max_seq_len {config.max_seq_len}"
        )
    return prompt


@dataclass
class GenerationResult:
    mode: str
    prompt_length: int
    tokens: list[int]
    identify_at: int
    plan: ClusterPlan | None
    prefill_ms: float
    step_ms: list[float]
    identification_ms: float
    per_step_kv_bytes: list[int]
    per_step_attention_flops: list[int]
    per_step_key_head_counts: list[list[int]]
    per_step_value_head_counts: list[list[int]]
    kv_cache_summary: dict
    memory_report: accounting.MemoryReport
    flop_report: accounting.FlopReport
    trace: AttentionTrace | None = None
    logits: list[np.ndarray] | None = None
    identified_at_step: int | None = None

    @property
    def ttft_ms(self) -> float:
        return self.prefill_ms + self.step_ms[0]

    @property
    def identification_skipped(self) -> bool:
        """A clustered mode decoded too few steps to reach identification."""
        return self.mode in ("CHAI", "CHAI_QKV") and self.identified_at_step is None

    def to_dict(self) -> dict:
        """Deterministic payload; wall-clock measurements live under 'timing'."""
        plan = self.plan.to_dict() if self.plan is not None else None
        return {
            "mode": self.mode,
            "prompt_length": self.prompt_length,
            "steps": len(self.tokens),
            "tokens": list(self.tokens),
            "identify_at": self.identify_at,
            "identification_skipped": self.identification_skipped,
            "identified_at_step": self.identified_at_step,
            "plan": plan,
            "plan_at_identification": plan,  # a frozen plan never changes
            "per_step_kv_bytes": list(self.per_step_kv_bytes),
            "per_step_attention_flops": list(self.per_step_attention_flops),
            "per_step_key_head_counts": [list(c) for c in self.per_step_key_head_counts],
            "per_step_value_head_counts": [list(c) for c in self.per_step_value_head_counts],
            "kv_cache_summary": self.kv_cache_summary,
            "memory_report": self.memory_report.to_dict(),
            "flop_report": self.flop_report.to_dict(),
            "timing": {
                "prefill_ms": self.prefill_ms,
                "ttft_ms": self.ttft_ms,
                "step_ms": list(self.step_ms),
                "identification_ms": self.identification_ms,
            },
        }


def _require_profile(config: ModelConfig, mode: str, profile: CalibrationProfile | None):
    if profile is None:
        raise ValidationError(f"mode {mode} requires a calibration profile")
    if profile.fingerprint != config.fingerprint():
        raise ValidationError(
            "calibration profile fingerprint does not match the model config"
        )
    profile.require_shape(config.num_layers, config.num_heads, "model")


def _cluster_plan(layer_features, cluster_counts, seeds) -> ClusterPlan:
    """k-means each layer's (H, F) head features into that layer's cluster
    count, all layers in one batch; each cluster's representative is its
    member nearest the centroid."""
    layers = []
    for features, result in zip(layer_features, kmeans(layer_features, cluster_counts, seeds)):
        reps = choose_representatives(features, result.assignment, result.centroids)
        assignment = tuple(int(c) for c in result.assignment)
        layers.append(LayerPlan(assignment=assignment, representatives=tuple(reps)))
    return ClusterPlan(layers=tuple(layers))


def _epoch_series(config: ModelConfig, layout: HeadLayout, seq_lens: range):
    """Per-step KV bytes, attention FLOPs and per-layer stored key and value
    head counts of the decode steps at `seq_lens`, all run in `layout`.
    Bytes are linear and FLOPs affine in seq_len under a fixed layout, so
    three closed-form evaluations give them all."""
    key_heads = [len(heads) for heads in layout.key_heads]
    value_heads = [len(heads) for heads in layout.value_heads]
    position_bytes = accounting.kv_cache_bytes(config, layout, 1).kv_total_bytes
    flops = [accounting.attention_flops(config, layout, n).total_flops for n in seq_lens[:2]]
    slope = flops[1] - flops[0] if len(flops) == 2 else 0
    return (
        [position_bytes * n for n in seq_lens],
        [flops[0] + slope * i for i in range(len(seq_lens))],
        [list(key_heads) for _ in seq_lens],
        [list(value_heads) for _ in seq_lens],
    )


def generate(
    weights: Weights,
    prompt,
    steps: int,
    mode: str = "MHA",
    profile: CalibrationProfile | None = None,
    identify_at: int = DEFAULT_IDENTIFY_AT,
    seed: int = 0,
    collect_trace: bool = False,
    collect_logits: bool = False,
) -> GenerationResult:
    """Greedy-decode `steps` tokens; see the module docstring for the flow."""
    config = weights.config
    mode = parse_mode(mode)
    prompt = _validate_prompt(config, prompt, steps)
    if identify_at < 1:
        raise ValidationError(f"identify_at must be >= 1, got {identify_at}")
    if mode != "MHA":
        _require_profile(config, mode, profile)

    # steps 1..split run under the singleton plan; see the module docstring
    split = {"MHA": steps, "CHAI_STATIC": 0}.get(mode, min(identify_at, steps))

    layouts = [HeadLayout.singleton(config)]  # one per plan epoch
    cache = KVCache(config, layouts[0], len(prompt) + steps)
    tensors = PlanTensors(layouts[0], weights.layers, config.head_dim)
    plan: ClusterPlan | None = None  # the frozen plan
    identification_ms = 0.0

    start = time.perf_counter()
    logits = prefill(weights, prompt, cache, tensors)
    prefill_ms = (time.perf_counter() - start) * 1000.0
    next_token = int(np.argmax(logits))

    trace = None  # built after prefill (untraced), so its peak does not hold it
    if split and (collect_trace or split < steps):
        trace = AttentionTrace(config.num_layers, config.num_heads, split, len(prompt))

    tokens: list[int] = []
    step_ms: list[float] = []
    collected_logits: list[np.ndarray] = []

    for step in range(1, steps + 1):
        if step == split + 1:
            ident_start = time.perf_counter()
            if mode == "CHAI_STATIC":
                plan = profile.static_assignment
            else:
                layers = range(config.num_layers)
                plan = _cluster_plan(
                    [extract_features(trace, layer, (1, split)) for layer in layers],
                    profile.cluster_counts,
                    [derived_seed(derived_seed(seed), layer) for layer in layers],
                )
                if not collect_trace:
                    trace = None  # the plan is all the frozen epoch needs of it
            layouts.append(HeadLayout(config, plan, reuse_values=mode == "CHAI_QKV"))
            prune_cache(cache, layouts[-1])
            tensors = PlanTensors(layouts[-1], weights.layers, config.head_dim)
            identification_ms = (time.perf_counter() - ident_start) * 1000.0

        tokens.append(next_token)
        step_start = time.perf_counter()
        logits = _forward_pass(
            weights, [next_token], cache, clustered_forward, tensors,
            trace=trace if step <= split else None,
        )
        next_token = int(logits.argmax())
        step_ms.append((time.perf_counter() - step_start) * 1000.0)

        if collect_logits:
            collected_logits.append(logits.copy())

    seq_lens = range(len(prompt) + 1, len(prompt) + steps + 1)
    series = [
        _epoch_series(config, layout, lens)
        for layout, lens in zip(layouts, (seq_lens[:split], seq_lens[split:]))
    ]
    per_step_kv_bytes, per_step_attention_flops, per_step_key_heads, per_step_value_heads = (
        sum(columns, []) for columns in zip(*series)
    )
    memory_report = accounting.kv_cache_bytes(config, layouts[-1], seq_lens[-1])
    flop_report = accounting.attention_flops(config, layouts[-1], seq_lens[-1])
    return GenerationResult(
        mode=mode,
        prompt_length=len(prompt),
        tokens=tokens,
        identify_at=identify_at,
        plan=plan,
        prefill_ms=prefill_ms,
        step_ms=step_ms,
        identification_ms=identification_ms,
        per_step_kv_bytes=per_step_kv_bytes,
        per_step_attention_flops=per_step_attention_flops,
        per_step_key_head_counts=per_step_key_heads,
        per_step_value_head_counts=per_step_value_heads,
        kv_cache_summary=cache.summary(),
        memory_report=memory_report,
        flop_report=flop_report,
        trace=trace,
        logits=collected_logits if collect_logits else None,
        identified_at_step=None if plan is None else split,
    )


def _traced_prefix(weights: Weights, token_ids) -> AttentionTrace:
    """Plain attention over a fresh cache with tracing from position 0; the
    step-s row then has length s, giving fixed-size calibration features."""
    config = weights.config
    trace = AttentionTrace(config.num_layers, config.num_heads, len(token_ids))
    layout = HeadLayout.singleton(config)
    tensors = PlanTensors(layout, weights.layers, config.head_dim)
    prefill(weights, token_ids, KVCache(config, layout, len(token_ids)), tensors, trace)
    return trace


def calibrate(
    weights: Weights,
    corpus,
    sample_count: int | None = None,
    window: int = DEFAULT_IDENTIFY_AT,
    threshold: float = 0.05,
    seed: int = 0,
) -> CalibrationProfile:
    """Offline pass: trace each sample's first `window` tokens under plain
    attention, average per-sample clustering-error curves per layer, pick each
    layer's cluster count at the elbow, and bake a static assignment from the
    corpus-mean features."""
    config = weights.config
    corpus = [
        _token_ids(config, sample, f"corpus sample {index}") for index, sample in enumerate(corpus)
    ]
    if not corpus:
        raise ValidationError("calibration corpus is empty")
    if sample_count is None:
        sample_count = len(corpus)
    if sample_count < 1 or sample_count > len(corpus):
        raise ValidationError(
            f"sample_count {sample_count} outside [1, {len(corpus)}]"
        )
    if not 1 <= window <= config.max_seq_len:
        raise ValidationError(f"window must lie in [1, {config.max_seq_len}], got {window}")
    if not np.isfinite(threshold):
        raise ValidationError(f"threshold must be finite, got {threshold}")
    if threshold < 0:
        raise ValidationError(f"threshold must be >= 0, got {threshold}")

    rng = np.random.default_rng(seed)
    chosen = sorted(rng.choice(len(corpus), size=sample_count, replace=False).tolist())
    samples = []
    for index in chosen:
        sample = corpus[index]
        if len(sample) < window:
            raise ValidationError(
                f"corpus sample {index} has {len(sample)} tokens, "
                f"needs at least {window} to decode the feature window"
            )
        samples.append(sample[:window])

    layers = range(config.num_layers)
    feature_sets = []  # per sample: list of (H, F) arrays per layer
    for sample in samples:
        trace = _traced_prefix(weights, sample)
        feature_sets.append(
            [extract_features(trace, layer, (1, window)) for layer in layers]
        )

    # every (layer, sample) curve in one batch, layer by layer
    count = len(samples)
    curves = sse_curve(
        [fs[layer] for layer in layers for fs in feature_sets],
        [derived_seed(seed, i, layer) for layer in layers for i in range(count)],
    )
    cluster_counts = []
    elbow_curves = []
    for layer in layers:
        mean_curve = np.mean(np.stack(curves[layer * count : (layer + 1) * count]), axis=0)
        cluster_counts.append(elbow_select(mean_curve, threshold))
        elbow_curves.append([float(e) for e in mean_curve])

    static_assignment = _cluster_plan(
        [np.mean(np.stack([fs[layer] for fs in feature_sets]), axis=0) for layer in layers],
        cluster_counts,
        [derived_seed(seed, len(samples), layer) for layer in layers],
    )

    return CalibrationProfile(
        fingerprint=config.fingerprint(),
        window=window,
        threshold=threshold,
        sample_count=sample_count,
        seed=seed,
        cluster_counts=cluster_counts,
        elbow_curves=elbow_curves,
        static_assignment=static_assignment,
    )


def compare_outputs(
    weights: Weights,
    prompt,
    steps: int,
    profile: CalibrationProfile,
    mode: str = "CHAI",
    identify_at: int = DEFAULT_IDENTIFY_AT,
    seed: int = 0,
) -> dict:
    """Run plain decoding and a clustered variant on the same prompt; report
    where the token streams diverge and how far the logits drift."""
    variant = parse_mode(mode)
    if variant == "MHA":
        raise ValidationError("compare_outputs needs a clustered variant, got MHA")
    base = generate(
        weights, prompt, steps, "MHA", collect_logits=True, seed=seed,
        identify_at=identify_at,
    )
    other = generate(
        weights, prompt, steps, variant, profile=profile, collect_logits=True,
        seed=seed, identify_at=identify_at,
    )

    first_divergence = None
    for i, (a, b) in enumerate(zip(base.tokens, other.tokens)):
        if a != b:
            first_divergence = i + 1
            break

    max_abs, mean_abs, kls = [], [], []
    for la, lb in zip(base.logits, other.logits):
        delta = np.abs(la.astype(np.float64) - lb.astype(np.float64))
        max_abs.append(float(delta.max()))
        mean_abs.append(float(delta.mean()))
        kls.append(_kl_divergence(la, lb))

    return {
        "mode": variant,
        "steps": steps,
        "prompt_length": base.prompt_length,
        "first_divergence_step": first_divergence,
        "tokens_mha": base.tokens,
        "tokens_variant": other.tokens,
        "per_step_max_abs_logit_delta": max_abs,
        "per_step_mean_abs_logit_delta": mean_abs,
        "per_step_next_token_kl": kls,
    }


def _kl_divergence(logits_p: np.ndarray, logits_q: np.ndarray) -> float:
    """KL(P || Q) of the two next-token distributions, in nats."""
    lp = logits_p.astype(np.float64)
    lq = logits_q.astype(np.float64)
    log_p = lp - _logsumexp(lp)
    log_q = lq - _logsumexp(lq)
    kl = float(np.sum(np.exp(log_p) * (log_p - log_q)))
    return max(kl, 0.0)


def _logsumexp(x: np.ndarray) -> float:
    m = x.max()
    return float(m + np.log(np.exp(x - m).sum()))
