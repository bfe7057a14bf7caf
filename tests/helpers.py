"""Shared fixtures for the test suite: tiny configs and planted-redundancy models."""

import csv
import json
import struct

import numpy as np

from chai.attention import TRACE_COLUMNS, AttentionTrace, PlanTensors, _head_scale, _project_heads
from chai.clustering import (
    DEFAULT_RESTARTS, MAX_ITERATIONS, RELATIVE_TOL, KMeansResult, derived_seed, extract_features,
    kmeans,
)
from chai.engine import CalibrationProfile
from chai.errors import ContractError, ValidationError
from chai.kernels import apply_rope_heads, matmul
from chai.model import ModelConfig, Weights, init_random, make_redundant
from chai.plan import ClusterPlan, HeadLayout, LayerPlan


def small_config(**overrides) -> ModelConfig:
    params = dict(
        num_layers=2,
        num_heads=4,
        model_dim=32,
        head_dim=8,
        ffn_dim=48,
        vocab_size=32,
        max_seq_len=64,
    )
    params.update(overrides)
    return ModelConfig(**params)


def small_weights(seed=0, **overrides) -> Weights:
    return init_random(small_config(**overrides), seed)


def grouped_plan(num_layers: int, num_heads: int, counts: list[int]) -> ClusterPlan:
    """Contiguous-block plan with counts[l] clusters in layer l.

    Heads are split into near-equal contiguous groups; the first head of each
    group is its representative.
    """
    layers = []
    for layer in range(num_layers):
        k = counts[layer]
        bounds = np.linspace(0, num_heads, k + 1).astype(int)
        assignment = []
        representatives = []
        for cluster in range(k):
            lo, hi = bounds[cluster], bounds[cluster + 1]
            representatives.append(int(lo))
            assignment.extend([cluster] * (hi - lo))
        layers.append(
            LayerPlan(assignment=tuple(assignment), representatives=tuple(representatives))
        )
    return ClusterPlan(layers=tuple(layers))


def redundant_fixture(counts, seed=0, **overrides):
    """Random weights rewritten so each layer has exactly counts[l] distinct
    (wq, wk) head blocks; returns (weights, plan)."""
    config = small_config(**overrides)
    plan = grouped_plan(config.num_layers, config.num_heads, counts)
    weights = make_redundant(init_random(config, seed), plan)
    return weights, plan


def rewrite_header_config(path, **fields) -> None:
    """Overwrite config fields in a CHAIWGT1 file's JSON header, leaving its
    tensor manifest and payload as they are."""
    raw = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", raw, 8)
    header = json.loads(raw[12 : 12 + header_len])
    header["config"].update(fields)
    new_header = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(raw[:8] + struct.pack("<I", len(new_header)) + new_header + raw[12 + header_len :])


def random_prompt(config: ModelConfig, length: int, seed=0) -> list[int]:
    rng = np.random.default_rng(seed)
    return rng.integers(0, config.vocab_size, size=length).tolist()


def degenerate_profile(config, window=5, seed=0) -> CalibrationProfile:
    """All heads their own cluster: clustered modes collapse to plain MHA."""
    num_heads, num_layers = config.num_heads, config.num_layers
    return CalibrationProfile(
        fingerprint=config.fingerprint(),
        window=window,
        threshold=0.05,
        sample_count=1,
        seed=seed,
        cluster_counts=[num_heads] * num_layers,
        elbow_curves=[[0.0] * num_heads] * num_layers,
        static_assignment=ClusterPlan.singleton(num_layers, num_heads),
    )


def fixture_profile(weights, plan, window=5, seed=0) -> CalibrationProfile:
    """Profile carrying a known plan's cluster counts and static assignment."""
    return CalibrationProfile(
        fingerprint=weights.config.fingerprint(),
        window=window,
        threshold=0.05,
        sample_count=1,
        seed=seed,
        cluster_counts=plan.cluster_counts(),
        elbow_curves=[[0.0] * weights.config.num_heads] * weights.config.num_layers,
        static_assignment=plan,
    )


ACCEPTANCE_COUNTS = [1, 4, 8, 4]


def acceptance_fixture(base_seed=0, boost=6.0):
    """The criterion-scale planted-redundancy model: H=16, L=4, d=256 with
    per-layer cluster counts {1, 4, 8}. Query/key projections are scaled up so
    head attention patterns are sharply peaked and well separated."""
    config = ModelConfig(
        num_layers=4, num_heads=16, model_dim=256, head_dim=16,
        ffn_dim=384, vocab_size=64, max_seq_len=128,
    )
    plan = grouped_plan(4, 16, ACCEPTANCE_COUNTS)
    weights = init_random(config, seed=base_seed)
    for lw in weights.layers:
        lw.wq[...] *= boost
        lw.wk[...] *= boost
    return make_redundant(weights, plan), plan


def acceptance_corpus(config, samples=8, length=10, seed=123):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, config.vocab_size, size=length).tolist() for _ in range(samples)]


def plan_tensors(weights: Weights, plan: ClusterPlan, reuse_values=False) -> PlanTensors:
    layout = HeadLayout(weights.config, plan, reuse_values)
    return PlanTensors(layout, weights.layers, weights.config.head_dim)


def singleton_tensors(weights: Weights) -> PlanTensors:
    """Plan tensors of the singleton plan: the engine's plain MHA decode."""
    config = weights.config
    return plan_tensors(weights, ClusterPlan.singleton(config.num_layers, config.num_heads))


def reference_softmax_rows(scores, causal_from=None):
    """Out-of-place row softmax as first written: mask with np.where, subtract
    the row max, exponentiate, divide by the row sum, then zero the masked
    entries. The production kernel must match it byte for byte."""
    scores = np.asarray(scores, dtype=np.float32)
    masked = np.zeros(scores.shape, dtype=bool)
    if causal_from is not None:
        query_pos = causal_from + np.arange(scores.shape[0])
        masked = np.arange(scores.shape[1])[None, :] > query_pos[:, None]
    shifted = np.where(masked, -np.inf, scores)
    shifted = shifted - shifted.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    probs[masked] = 0.0
    return probs.astype(np.float32, copy=False)


def reference_mha_forward(x, layer_weights, cache, layer, trace=None):
    """`attention.mha_forward` as first written: a batched single-token
    branch, and per-head prefill with the out-of-place reference softmax on a
    fresh score matrix and per-head outputs collected in a list and
    concatenated. The bit-identity oracle for the in-place prefill path and,
    through its single-token branch, for singleton-plan decoding."""
    config = cache.config
    num_heads, head_dim = config.num_heads, config.head_dim
    lc = cache.layers[layer]
    tokens = x.shape[0]
    start = lc.length
    scale = _head_scale(head_dim)

    queries = apply_rope_heads(_project_heads(x, layer_weights.wq, head_dim), start)
    new_keys = apply_rope_heads(_project_heads(x, layer_weights.wk, head_dim), start)
    new_values = _project_heads(x, layer_weights.wv, head_dim)
    lc.append(new_keys.transpose(1, 0, 2), new_values.transpose(1, 0, 2))
    live_keys = lc.live_keys()
    live_values = lc.live_values()

    if tokens == 1:
        scores = np.matmul(queries[0][:, None, :], live_keys.transpose(0, 2, 1))[:, 0, :]
        scores *= scale
        probs = reference_softmax_rows(scores)
        if trace is not None:
            for head in range(num_heads):
                trace.record(layer, start, slice(head, head + 1), probs[head][None, None])
        merged = np.matmul(probs[:, None, :], live_values)[:, 0, :]
        return matmul(merged.reshape(1, num_heads * head_dim), layer_weights.wo)

    outputs = []
    for head in range(num_heads):
        scores = matmul(queries[:, head, :], live_keys[head].T) * scale
        probs = reference_softmax_rows(scores, causal_from=start)
        outputs.append(matmul(probs, live_values[head]))
        if trace is not None:
            trace.record(layer, start, slice(head, head + 1), probs[None])
    merged = np.concatenate(outputs, axis=1)
    return matmul(merged, layer_weights.wo)


def reference_extract_features(trace, layer, window):
    """`clustering.extract_features` as first written: each head's rows for
    the window's steps, read one at a time and copied into a zeroed feature
    row at their step's offset. The bit-identity oracle for the slice."""
    first, last = window
    final_len = len(trace.row(layer, 0, last))
    num_steps = last - first + 1
    features = np.zeros((trace.num_heads, num_steps * final_len), dtype=np.float32)
    for head in range(trace.num_heads):
        for i, step in enumerate(range(first, last + 1)):
            row = trace.row(layer, head, step)
            features[head, i * final_len : i * final_len + len(row)] = row
    return features


def reference_membership_changes(trace, profile, from_step, to_step):
    """`clustering.membership_stability`'s counts as first written: each
    step's labels as a tuple of canonical members found per cluster, and
    changes counted head by head against the previous step's tuple."""
    window = profile.window
    first_needed = from_step - 1 if from_step - 1 >= window else from_step
    memberships = {}
    for layer in range(trace.num_layers):
        k = profile.cluster_counts[layer]
        for step in range(first_needed, to_step + 1):
            features = extract_features(trace, layer, (step - window + 1, step))
            assignment = kmeans(features, k, seed=derived_seed(profile.seed, layer, step))
            assignment = assignment.assignment.tolist()
            canonical = {c: min(h for h, a in enumerate(assignment) if a == c)
                         for c in set(assignment)}
            memberships[(layer, step)] = tuple(canonical[c] for c in assignment)
    steps = list(range(from_step, to_step + 1))
    counts = np.zeros((trace.num_layers, len(steps)), dtype=int)
    for layer in range(trace.num_layers):
        for i, step in enumerate(steps):
            before = memberships.get((layer, step - 1))
            if before is not None:
                now = memberships[(layer, step)]
                counts[layer, i] = sum(a != b for a, b in zip(before, now))
    return counts


def reference_load_trace_csv(path) -> AttentionTrace:
    """`attention.load_trace_csv` as first written: a `csv.DictReader` pass
    that parses every row with `int`/`float` into a dict of per-(layer,
    head, step) lists, then per-(layer, step) checks in Python. The
    differential oracle for the columnar loader: same rows, or the same
    message."""

    def malformed(problem: str) -> ValidationError:
        return ValidationError(f"trace {path}: {problem}")

    rows: dict[tuple[int, int, int], list[tuple[int, float]]] = {}
    num_layers = num_heads = 0
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in TRACE_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise ValidationError(f"trace {path} has no {', '.join(missing)} column")
        for record in reader:
            try:
                layer, head, step, position = (int(record[c]) for c in TRACE_COLUMNS[:4])
                probability = float(record["probability"])
                if min(layer, head) < 0:
                    raise ValueError(f"negative layer {layer} or head {head}")
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"trace {path} line {reader.line_num}: {exc}") from None
            rows.setdefault((layer, head, step), []).append((position, probability))
            num_layers, num_heads = max(num_layers, layer + 1), max(num_heads, head + 1)
    if not rows:
        raise ValidationError(f"trace {path} has no rows")
    blocks: dict[tuple[int, int], np.ndarray] = {}  # (layer, step) -> (heads, positions)
    following: dict[int, tuple[int, int]] = {}  # layer -> (next step, its row length)
    first_length = 0  # of the first layer's step-1 rows
    for layer, step in sorted({(layer, step) for layer, _, step in rows}):
        per_head = []
        for head in range(num_heads):
            if (layer, head, step) not in rows:
                raise malformed(f"layer {layer}, step {step} has no head {head}")
            entries = sorted(rows[(layer, head, step)])
            if [position for position, _ in entries] != list(range(len(entries))):
                raise malformed(
                    f"positions of layer {layer}, head {head}, step {step} "
                    f"are not 0..{len(entries) - 1}"
                )
            per_head.append([prob for _, prob in entries])
        length = len(per_head[0])
        if any(len(row) != length for row in per_head):
            raise malformed(f"rows of layer {layer}, step {step} differ in length")
        # every layer starts at step 1, with rows as long as the first layer's
        want_step, want_length = following.get(layer, (1, first_length or length - step + 1))
        if (step, length) != (want_step, want_length):
            raise malformed(
                f"layer {layer} has step {step} of {length} positions where step "
                f"{want_step} of {want_length} positions should come next"
            )
        first_length = first_length or length
        following[layer] = (step + 1, length + 1)
        blocks[(layer, step)] = np.array(per_head, dtype=np.float32)

    def span(layer: int) -> str:
        return f"steps 1..{following[layer][0] - 1}" if layer in following else "no steps"

    for layer in range(1, num_layers):
        if following.get(layer) != following.get(0):
            raise malformed(f"layer {layer} has {span(layer)} where layer 0 has {span(0)}")
    trace = AttentionTrace(num_layers, num_heads, following[0][0] - 1, first_length - 1)
    try:
        for (layer, step), block in blocks.items():
            trace.record(layer, first_length + step - 2, slice(None), block[:, None, :])
    except ContractError as exc:
        raise malformed(str(exc)) from None
    return trace


def reference_kmeans(points, k, seed=0, restarts=DEFAULT_RESTARTS, extra_inits=None):
    """`clustering.kmeans` as first written: k-means++ seeding that computes a
    fresh distance row for every centre, per-cluster boolean-mask means, and
    an empty-cluster repair that searches for the farthest donor once per
    empty cluster. The bit-identity oracle for the production k-means."""
    points = np.asarray(points, dtype=np.float64)
    rng = np.random.default_rng(seed)
    inits = [_reference_kmeanspp_init(points, k, rng) for _ in range(restarts)]
    for init in extra_inits or ():
        inits.append(np.asarray(init, dtype=np.float64))
    best = None
    for init in inits:
        result = _reference_lloyd(points, init)
        if best is None or result.sse < best.sse:
            best = result
    return best


def reference_sse_curve(points, seed=0):
    """`clustering.sse_curve` over `reference_kmeans`."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    errors = np.empty(n, dtype=np.float64)
    prev = None
    for k in range(1, n + 1):
        extra = []
        if prev is not None:
            own_dist = ((points - prev.centroids[prev.assignment]) ** 2).sum(axis=1)
            farthest = int(np.argmax(own_dist))
            extra.append(np.vstack([prev.centroids, points[farthest]]))
        prev = reference_kmeans(points, k, seed=seed, extra_inits=extra)
        errors[k - 1] = prev.sse
    return errors


def reference_pairwise_sqdist(points):
    """`clustering._pairwise_sqdist` as first written: every row computed in
    full, row i being `((points - points[i]) ** 2).sum(axis=1)`."""
    pairwise = np.empty((points.shape[0], points.shape[0]), dtype=np.float64)
    for i, point in enumerate(points):
        pairwise[i] = ((points - point) ** 2).sum(axis=1)
    return pairwise


def reference_choose_representatives(features, assignment, centroids):
    """`clustering.choose_representatives` as first written: one distance
    computation and `argmin` per cluster over its members."""
    features = np.asarray(features, dtype=np.float64)
    assignment = np.asarray(assignment)
    representatives = []
    for c in range(len(centroids)):
        members = np.flatnonzero(assignment == c)
        if members.size == 0:
            raise ContractError(f"cluster {c} has no members")
        d2 = ((features[members] - centroids[c]) ** 2).sum(axis=1)
        representatives.append(int(members[int(np.argmin(d2))]))
    return representatives


def _reference_kmeanspp_init(points, k, rng):
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = ((points - points[chosen[0]]) ** 2).sum(axis=1)
    for _ in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        chosen.append(idx)
        d2 = np.minimum(d2, ((points - points[idx]) ** 2).sum(axis=1))
    return points[chosen].copy()


def _reference_sqdist(points, centroids):
    p2 = (points**2).sum(axis=1)[:, None]
    c2 = (centroids**2).sum(axis=1)[None, :]
    return np.maximum(p2 + c2 - 2.0 * points @ centroids.T, 0.0)


def _reference_cluster_means(points, assignment, k):
    means = np.empty((k, points.shape[1]), dtype=np.float64)
    for c in range(k):
        members = points[assignment == c]
        if members.shape[0] == 0:
            raise ContractError(f"cluster {c} became empty despite repair")
        means[c] = members.mean(axis=0)
    return means


def _reference_repair_empty(points, assignment, centroids, d2):
    k = centroids.shape[0]
    counts = np.bincount(assignment, minlength=k)
    if np.all(counts > 0):
        return assignment, centroids
    assignment = assignment.copy()
    centroids = centroids.copy()
    own_dist = d2[np.arange(points.shape[0]), assignment]
    for empty in np.flatnonzero(counts == 0):
        candidates = np.flatnonzero(counts[assignment] > 1)
        if candidates.size == 0:
            raise ContractError("no donor point available for empty-cluster repair")
        farthest = candidates[np.argmax(own_dist[candidates])]
        counts[assignment[farthest]] -= 1
        assignment[farthest] = empty
        counts[empty] = 1
        centroids[empty] = points[farthest]
        own_dist[farthest] = 0.0
    return assignment, centroids


def _reference_lloyd(points, init):
    centroids = init.copy()
    k = centroids.shape[0]
    prev_sse = np.inf
    assignment = np.zeros(points.shape[0], dtype=np.intp)
    for _ in range(MAX_ITERATIONS):
        d2 = _reference_sqdist(points, centroids)
        assignment = d2.argmin(axis=1)
        assignment, centroids = _reference_repair_empty(points, assignment, centroids, d2)
        sse = float(((points - centroids[assignment]) ** 2).sum())
        if sse > prev_sse + 1e-9:
            raise ContractError(
                f"SSE increased across a Lloyd iteration ({prev_sse!r} -> {sse!r})"
            )
        if np.isfinite(prev_sse) and prev_sse - sse <= RELATIVE_TOL * max(prev_sse, 1e-12):
            prev_sse = sse
            break
        prev_sse = sse
        centroids = _reference_cluster_means(points, assignment, k)
    centroids = _reference_cluster_means(points, assignment, k)
    sse = float(((points - centroids[assignment]) ** 2).sum())
    return KMeansResult(assignment=assignment, centroids=centroids, sse=sse)
