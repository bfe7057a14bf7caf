"""Statistical machinery over attention traces: feature extraction (one
slice of the trace's zero-padded array per layer and window), k-means with
restarts, elbow selection, representative choice, correlation matrices,
membership-stability and cluster-size analyses.

Distances are plain squared Euclidean on raw probabilities (entries are
already commensurate in [0, 1]); k-means uses k-means++ seeding, best-of-N
restarts, and deterministic empty-cluster repair. Everything is pure and
deterministic given (input order, seed).

k-means makes no Python loop per cluster or per restart iteration. One
pairwise distance matrix serves every restart's seeding (and every count of
an `sse_curve`). Each weighted k-means++ draw is `rng.choice`'s own
cumulative-sum search with one `rng.random()`, without its argument checks;
the draws stay sequential, so the random stream is used exactly as before.
Lloyd's iterations run the restarts as one (R, k, dim) batch, each restart
stopping on its own SSE test; the restarts go in groups whose (R, n, dim)
float64 temporaries fit LLOYD_BUFFER_BYTES, so wide identification features
stay cache-sized. Cluster means come from one stacked block per distinct
cluster size across the batch, and the empty-cluster repair is one walk down
the points by falling distance, for each restart that has an empty cluster.
Each is bit-equal to the per-cluster reference `reference_kmeans` in
tests/helpers.py, which the tests hold it to.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .attention import AttentionTrace
from .errors import ContractError, InsufficientTraceError, ShapeError, ValidationError
from .plan import ClusterPlan

DEFAULT_RESTARTS = 10
MAX_ITERATIONS = 100
RELATIVE_TOL = 1e-6  # Lloyd stops when an iteration cuts SSE by at most this share
# Budget for one restart group's float64 (restarts, n, dim) temporaries in
# Lloyd's iterations. At 256 KiB calibration's 32 x 25 features run all
# restarts as one group and identification's 32 x 1305 or 32 x 2585 ones one
# restart per group. Larger groups of wide features were slower (all ten
# restarts of 32 x 2585 in one group took 1.4 to 2.3 times as long), and
# 1 MiB temporaries raised glibc's dynamic mmap threshold enough to add 4 MB
# to peak RSS.
LLOYD_BUFFER_BYTES = 256 << 10


def extract_features(trace: AttentionTrace, layer: int, window: tuple[int, int]) -> np.ndarray:
    """One feature vector per head: its probability rows for the window's steps,
    each right-padded with zeros to the window's final row length, concatenated.

    For a trace over a fresh cache and the window (1, 5) this gives rows of
    lengths 1..5 padded to 5, i.e. 25 features per head. The zero padding is
    the trace array's own, so this is one slice of it, reshaped (a view of
    the array when the window ends at its last step).
    """
    first, last = window
    if not 1 <= first <= last:
        raise ValidationError(f"bad step window ({first}, {last})")
    final_len = len(trace.row(layer, 0, last))
    return trace.rows[layer, :, first - 1 : last, :final_len].reshape(trace.num_heads, -1)


class KMeansResult(NamedTuple):
    assignment: np.ndarray  # (n,) cluster ids
    centroids: np.ndarray  # (k, dim) float64
    sse: float


def kmeans(
    points,
    k: int,
    seed: int = 0,
    restarts: int = DEFAULT_RESTARTS,
    extra_inits=None,
    *,
    _pairwise=None,
) -> KMeansResult:
    """Lloyd's algorithm, k-means++ seeded, best of `restarts` by SSE.

    Empty clusters are repaired by reassigning the point farthest from its
    centroid. `extra_inits` adds caller-provided centroid seeds to the restart
    pool (used to keep error curves monotone in k); the earliest init wins an
    SSE tie. `_pairwise` is `_pairwise_sqdist(points)` when the caller already
    has it.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ShapeError(f"kmeans expects (n, dim) points, got shape {points.shape}")
    n, dim = points.shape
    if not 1 <= k <= n:
        raise ValidationError(f"cluster count {k} outside [1, {n}]")
    if not np.isfinite(points).all():
        raise ValidationError("kmeans points must be finite")
    extra = [np.asarray(init, dtype=np.float64) for init in extra_inits or ()]
    if any(init.shape != (k, dim) for init in extra):
        raise ShapeError(f"every extra init must be ({k}, {dim}) centroids")

    rng = np.random.default_rng(seed)
    pairwise = _pairwise_sqdist(points) if _pairwise is None else _pairwise
    inits = [points[_kmeanspp_seeds(pairwise, k, rng)] for _ in range(restarts)] + extra
    if not inits:
        raise ContractError("kmeans has no initialization to run (restarts=0, no extra_inits)")

    group = max(1, LLOYD_BUFFER_BYTES // max(8 * points.size, 1))
    best: KMeansResult | None = None
    for lo in range(0, len(inits), group):
        assignment, centroids, sse = _lloyd(points, np.stack(inits[lo : lo + group]))
        r = int(sse.argmin())
        if best is None or sse[r] < best.sse:
            best = KMeansResult(assignment[r], centroids[r], float(sse[r]))
    return best


def _pairwise_sqdist(points: np.ndarray) -> np.ndarray:
    """Row i is `((points - points[i]) ** 2).sum(axis=1)`, built row by row so
    every row carries the exact bits of that expression and the peak extra
    memory stays one (n, dim) difference, not an (n, n, dim) broadcast."""
    pairwise = np.empty((points.shape[0], points.shape[0]), dtype=np.float64)
    for i, point in enumerate(points):
        pairwise[i] = ((points - point) ** 2).sum(axis=1)
    return pairwise


def _kmeanspp_seeds(pairwise: np.ndarray, k: int, rng: np.random.Generator) -> list[int]:
    """Indices of k k-means++ seed points, read from the pairwise distances.

    Each weighted draw is `rng.choice(n, p=d2 / total)` without its argument
    checks: the same cumulative sum, normalization and single `rng.random()`.
    """
    n = pairwise.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = pairwise[chosen[0]]
    while len(chosen) < k:
        total = np.add.reduce(d2)
        if total <= 0.0:  # every point is a seed's duplicate, and stays one
            chosen += [int(rng.integers(n)) for _ in range(k - len(chosen))]
            break
        cdf = (d2 / total).cumsum()
        cdf /= cdf[-1]
        idx = int(cdf.searchsorted(rng.random(), side="right"))
        chosen.append(idx)
        d2 = np.minimum(d2, pairwise[idx])
    return chosen


def _sqdist(points: np.ndarray, centroids: np.ndarray, p2=None) -> np.ndarray:
    """(n, k) squared distances to (k, dim) centroids, or (R, n, k) to an
    (R, k, dim) stack of them; each slice has the bits of the 2-D case.
    `p2` is the points' squared norms as an (n, 1) column, if already known."""
    if p2 is None:
        p2 = (points**2).sum(axis=1)[:, None]
    c2 = (centroids**2).sum(axis=-1)[..., None, :]
    return np.maximum(p2 + c2 - 2.0 * np.matmul(points, np.swapaxes(centroids, -1, -2)), 0.0)


def _sse(points: np.ndarray, centroids: np.ndarray, assignment: np.ndarray) -> np.ndarray:
    """(R,) SSEs of an (R, k, dim) centroid stack under (R, n) assignments,
    each bit-equal to `((points - centroids[r][assignment[r]]) ** 2).sum()`."""
    diff = centroids[np.arange(len(assignment))[:, None], assignment]
    np.subtract(points, diff, out=diff)
    np.square(diff, out=diff)
    return diff.reshape(len(diff), points.size).sum(axis=1)


def _cluster_means(points: np.ndarray, assignment: np.ndarray, k: int) -> np.ndarray:
    """Per-cluster means, bit-equal to `points[assignment == c].mean(axis=0)`:
    (k, dim) for an (n,) assignment, (R, k, dim) for an (R, n) stack.

    The clusters of every restart are pooled. Those of one size are stacked,
    each one's points in input order, into a (clusters, size, dim) block. Its
    sum over axis 1 adds up each cluster's (size, dim) rows in the same order
    as that cluster's own `mean`, which divides the same sum by the count. (A
    `np.add.reduceat` over the sorted points is not bit-equal: it adds the
    first row to a pairwise sum of the rest.)
    """
    n, dim = points.shape
    runs = assignment.size // n
    labels = (assignment.reshape(runs, n) + k * np.arange(runs)[:, None]).ravel()
    total = runs * k
    counts = np.bincount(labels, minlength=total)
    if not counts.all():
        raise ContractError(f"cluster {int(np.argmin(counts)) % k} became empty despite repair")
    rows = points[np.argsort(counts[labels] * total + labels, kind="stable") % n]
    clusters = np.argsort(counts, kind="stable")
    means = np.empty((total, dim), dtype=np.float64)
    row = first = 0
    for size, group in enumerate(np.bincount(counts).tolist()):
        if group:
            block = rows[row : row + size * group].reshape(group, size, dim)
            means[clusters[first : first + group]] = block.sum(axis=1) / size
            row += size * group
            first += group
    return means.reshape(assignment.shape[:-1] + (k, dim))


def _repair_empty(points, assignment, centroids, d2, counts):
    """Give each empty cluster, in ascending order, the point farthest from its
    current centroid (ties to the lowest index); donors must not empty their
    own cluster. `counts` holds the cluster sizes under `assignment`.

    One walk down the points by falling own distance does it: a cluster that
    has one member left never gains one here, so a point that cannot donate
    now never can, and a donated point is alone in its new cluster.
    """
    counts = counts.tolist()
    empties = [c for c, count in enumerate(counts) if count == 0]
    if not empties:
        return assignment, centroids
    assignment = assignment.copy()
    centroids = centroids.copy()
    own_dist = d2[np.arange(points.shape[0]), assignment]
    pending = iter(empties)
    empty = next(pending)
    for point in np.argsort(-own_dist, kind="stable").tolist():
        cluster = int(assignment[point])
        if counts[cluster] > 1:
            counts[cluster] -= 1
            assignment[point] = empty
            centroids[empty] = points[point]
            empty = next(pending, None)
            if empty is None:
                return assignment, centroids
    raise ContractError("no donor point available for empty-cluster repair")


def _lloyd(points: np.ndarray, inits: np.ndarray):
    """Lloyd's iterations from an (R, k, dim) stack of inits, all restarts at
    once; each stops on its own SSE test, exactly where it would alone.

    Returns the (R, n) assignments, (R, k, dim) centroids and (R,) SSEs.
    """
    restarts, k, _ = inits.shape
    assignment = np.empty((restarts, points.shape[0]), dtype=np.intp)
    active = np.arange(restarts)  # the restarts still iterating, in order
    live = inits.copy()  # their centroids
    prev_sse = np.full(restarts, np.inf)
    p2 = (points**2).sum(axis=1)[:, None]
    for _ in range(MAX_ITERATIONS):
        d2 = _sqdist(points, live, p2)
        labels = d2.argmin(axis=2)
        counts = np.bincount((labels + k * np.arange(len(active))[:, None]).ravel(),
                             minlength=len(active) * k).reshape(-1, k)
        for r in np.flatnonzero((counts == 0).any(axis=1)).tolist():
            labels[r], live[r] = _repair_empty(points, labels[r], live[r], d2[r], counts[r])
        sse = _sse(points, live, labels)
        increased = np.flatnonzero(sse > prev_sse + 1e-9)
        if increased.size:
            r = increased[0]
            raise ContractError(
                "SSE increased across a Lloyd iteration "
                f"({float(prev_sse[r])!r} -> {float(sse[r])!r})"
            )
        assignment[active] = labels
        cut = prev_sse - sse
        done = np.isfinite(prev_sse) & (cut <= RELATIVE_TOL * np.maximum(prev_sse, 1e-12))
        if done.all():
            break
        going = ~done
        active, prev_sse, labels = active[going], sse[going], labels[going]
        live = _cluster_means(points, labels, k)
    centroids = _cluster_means(points, assignment, k)
    return assignment, centroids, _sse(points, centroids, assignment)


def sse_curve(points, seed: int = 0) -> np.ndarray:
    """SSE at every cluster count from 1 to the number of points.

    Each count's restart pool is warm-started by splitting the previous
    solution, so the curve is non-increasing by construction. Every count's
    `kmeans` call shares one pairwise distance matrix.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    pairwise = _pairwise_sqdist(points)
    errors = np.empty(n, dtype=np.float64)
    prev: KMeansResult | None = None
    for k in range(1, n + 1):
        extra = []
        if prev is not None:
            own_dist = ((points - prev.centroids[prev.assignment]) ** 2).sum(axis=1)
            farthest = int(np.argmax(own_dist))
            extra.append(np.vstack([prev.centroids, points[farthest]]))
        prev = kmeans(points, k, seed=seed, extra_inits=extra, _pairwise=pairwise)
        errors[k - 1] = prev.sse
    if np.any(np.diff(errors) > 1e-9):
        raise ContractError("cluster error curve is not non-increasing")
    return errors


def elbow_select(errors, threshold: float = 0.05) -> int:
    """Smallest k whose drop to k+1 falls below `threshold` of err(1); the
    full head count if the curve never plateaus."""
    errors = list(errors)
    if not errors:
        raise ValidationError("empty error curve")
    denom = max(errors[0], 1e-12)
    for k in range(1, len(errors)):
        if (errors[k - 1] - errors[k]) / denom < threshold:
            return k
    return len(errors)


def choose_representatives(features, assignment, centroids) -> list[int]:
    """Per cluster, the member closest to the centroid; ties go to the lowest
    head index."""
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


def correlation_matrix(vectors) -> np.ndarray:
    """Symmetric Pearson correlation of the rows; rows with zero variance
    correlate 0 with everything (including themselves)."""
    m = np.asarray(vectors, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"expected (heads, length) rows, got shape {m.shape}")
    if m.shape[1] < 2:
        raise ShapeError(f"rows must have length >= 2, got {m.shape[1]}")
    centered = m - m.mean(axis=1, keepdims=True)
    norms = np.sqrt((centered**2).sum(axis=1))
    nonzero = norms > 0.0
    normalized = centered / np.where(nonzero, norms, 1.0)[:, None]
    corr = normalized @ normalized.T
    corr = np.clip((corr + corr.T) / 2.0, -1.0, 1.0)
    corr[~nonzero, :] = 0.0
    corr[:, ~nonzero] = 0.0
    corr[np.diag_indices_from(corr)] = np.where(nonzero, 1.0, 0.0)
    return corr


def derived_seed(*parts: int) -> int:
    """Deterministic k-means seed from a base seed and one clustering's indices."""
    return int(np.random.SeedSequence(tuple(int(p) for p in parts)).generate_state(1)[0])


def membership_stability(trace: AttentionTrace, profile, from_step: int, to_step: int):
    """Counts of heads whose cluster changed at each step, per layer.

    Re-clusters the trailing calibration window ending at every step with the
    profile's per-layer cluster counts. A head's membership label is its
    cluster's canonical member (the lowest head index in it), so neither label
    permutations nor representative drift within an unchanged partition count
    as changes. The first comparable step reports 0.
    """
    window = profile.window
    if from_step < window:
        raise ValidationError(
            f"stability needs steps >= the {window}-step window, got {from_step}"
        )
    if to_step < from_step:
        raise ValidationError(f"empty step range [{from_step}, {to_step}]")
    if to_step > trace.max_step():
        raise InsufficientTraceError(
            f"stability range ends at step {to_step}, past the trace's last step "
            f"{trace.max_step()}"
        )

    first_needed = from_step - 1 if from_step - 1 >= window else from_step
    needed = range(first_needed, to_step + 1)
    labels = np.empty((trace.num_layers, len(needed), trace.num_heads), dtype=np.intp)
    for layer in range(trace.num_layers):
        k = profile.cluster_counts[layer]
        for i, step in enumerate(needed):
            features = extract_features(trace, layer, (step - window + 1, step))
            seed = derived_seed(profile.seed, layer, step)
            assignment = kmeans(features, k, seed=seed).assignment
            _, lowest, cluster = np.unique(assignment, return_index=True, return_inverse=True)
            labels[layer, i] = lowest[cluster]  # the lowest head index in each head's cluster

    counts = (labels[:, 1:] != labels[:, :-1]).sum(axis=2)
    if first_needed == from_step:  # nothing to compare the first step with
        counts = np.concatenate([np.zeros((trace.num_layers, 1), dtype=int), counts], axis=1)
    return list(range(from_step, to_step + 1)), counts


def cluster_size_histogram(plan: ClusterPlan, layer: int) -> list[int]:
    """Cluster cardinalities of one layer, largest first."""
    layer_plan = plan.layers[layer]
    sizes = np.bincount(np.asarray(layer_plan.assignment), minlength=layer_plan.cluster_count)
    return sorted((int(s) for s in sizes), reverse=True)
