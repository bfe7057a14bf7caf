"""Statistical machinery over attention traces: feature extraction (one
slice of the trace's zero-padded array per layer and window), k-means with
restarts, elbow selection, representative choice, correlation matrices,
membership-stability and cluster-size analyses.

Distances are plain squared Euclidean on raw probabilities (entries are
already commensurate in [0, 1]); k-means uses k-means++ seeding, best-of-N
restarts, and deterministic empty-cluster repair. Everything is pure and
deterministic given (input order, seed).

k-means clusters a batch of independent point sets in one call, each set
with its own cluster count, seed and extra inits (one set is a batch of
one), with no Python loop per cluster or per restart iteration. Seeding is
separate from Lloyd's iterations: `kmeans` seeds its batch in one k-means++
pass, and `sse_curve` seeds every (set, cluster count) pair of its batch in
one pass before its count loop, each pair from a fresh generator of its
set's seed, as a lone `kmeans` call at that count would; the count loop then
runs only Lloyd batches, each count warm-started from the last. One pairwise
distance matrix per set serves every restart and every count of that set.
Each weighted k-means++ draw is `rng.choice`'s own cumulative-sum search
with one `rng.random()`, without its argument checks; a draw set's draws
stay sequential in its own generator, so its random stream is used exactly
as before, but draw j of every draw set of one size is one array operation.
Lloyd's iterations run the restarts of every set of one shape as one
(R, k, dim) batch, each restart with its owner set's points and stopping on
its own SSE test; the restarts go in groups whose (R, n, dim) float64
temporaries fit LLOYD_BUFFER_BYTES, so wide identification features stay
cache-sized. Cluster means come from one stacked block per distinct cluster
size across the group, and the empty-cluster repair is one vectorized pass
over every restart that has an empty cluster. Each is bit-equal to the
per-cluster reference `reference_kmeans` in tests/helpers.py, which the
tests hold it to.
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
# Lloyd's iterations; a group holds restarts of one shape from any sets of
# a batch. At 256 KiB calibration's 32 x 25 features run 40 restarts per
# group, about four sets' worth, and identification's 32 x 1305 or 32 x 2585
# ones one restart per group, so only one layer's features are widened to
# float64 at a time. Larger groups of wide features were slower (all ten
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


def kmeans(points, k, seed=0, restarts: int = DEFAULT_RESTARTS, extra_inits=None):
    """Lloyd's algorithm, k-means++ seeded, best of `restarts` by SSE.

    Empty clusters are repaired by reassigning the point farthest from its
    centroid. `extra_inits` adds caller-provided centroid seeds to the restart
    pool (used to keep error curves monotone in k); the earliest init wins an
    SSE tie.

    A sequence of seeds clusters that many independent point sets in one
    batch: `points`, `k` and `extra_inits` (when given) are then sequences
    with one entry per set, and the result is the list of the sets'
    `KMeansResult`s, each bit-equal to that set's own call.
    """
    if np.ndim(seed) == 0:
        return _kmeans_batch([points], [k], [seed], restarts, [extra_inits])[0]
    return _kmeans_batch(points, k, seed, restarts, extra_inits)


def _kmeans_batch(point_sets, ks, seeds, restarts, extra_inits) -> list[KMeansResult]:
    """`kmeans` over a batch of point sets: checks every set's input, then
    clusters them all together."""
    sets = [_checked_points(points) for points in point_sets]
    ks, seeds = list(ks), list(seeds)
    extra_inits = [None] * len(sets) if extra_inits is None else list(extra_inits)
    if not len(ks) == len(seeds) == len(extra_inits) == len(sets):
        raise ValidationError(
            "kmeans needs one cluster count, seed and extra-init list per point set"
        )
    restarts = max(restarts, 0)
    extras = []
    for points, k, inits in zip(sets, ks, extra_inits):
        n, dim = points.shape
        if not 1 <= k <= n:
            raise ValidationError(f"cluster count {k} outside [1, {n}]")
        inits = [np.asarray(init, dtype=np.float64) for init in inits or ()]
        if any(init.shape != (k, dim) for init in inits):
            raise ShapeError(f"every extra init must be ({k}, {dim}) centroids")
        if restarts + len(inits) == 0:
            raise ContractError("kmeans has no initialization to run (restarts=0, no extra_inits)")
        extras.append(inits)
    pairwise = [_pairwise_sqdist(np.asarray(points, dtype=np.float64)) for points in sets]
    draws = _kmeanspp_seeds(pairwise, ks, [np.random.default_rng(s) for s in seeds], restarts)
    return _kmeans_sets(sets, draws, extras)


def _checked_points(points) -> np.ndarray:
    """`points` as a finite (n, dim) array. A floating dtype is kept, so
    float32 features are widened to float64 one set at a time, where they are
    used; any other dtype becomes float64."""
    points = np.asarray(points)
    if not np.issubdtype(points.dtype, np.floating):
        points = points.astype(np.float64)
    if points.ndim != 2:
        raise ShapeError(f"kmeans expects (n, dim) points, got shape {points.shape}")
    if not np.isfinite(points).all():
        raise ValidationError("kmeans points must be finite")
    return points


def _kmeans_sets(sets, draws, extras) -> list[KMeansResult]:
    """The k-means of checked point sets in one batch, each set with its
    (restarts, k) k-means++ seed indices and its extra inits.

    The restarts of all sets of one shape, each set's seeded restarts before
    its extra inits, go through Lloyd's iterations in groups that fit
    LLOYD_BUFFER_BYTES, and each set keeps its first restart of least SSE.
    """
    ks = [draw.shape[1] for draw in draws]
    shapes = [(points.shape, k) for points, k in zip(sets, ks)]
    best: list[KMeansResult | None] = [None] * len(sets)
    widened = (None, None)  # the set last widened to float64, and its points
    for shape in dict.fromkeys(shapes):
        (n, dim), k = shape
        runs = [(s, i) for s in range(len(sets)) if shapes[s] == shape
                for i in range(len(draws[s]) + len(extras[s]))]
        group = max(1, LLOYD_BUFFER_BYTES // max(8 * n * dim, 1))
        for lo in range(0, len(runs), group):
            chunk = runs[lo : lo + group]
            owners = [s for s, _ in chunk]
            if owners[0] == owners[-1]:  # one set's restarts share its (n, dim) points
                if widened[0] != owners[0]:
                    widened = (owners[0], np.asarray(sets[owners[0]], dtype=np.float64))
                points = widened[1]
                own = [points] * len(chunk)
            else:
                points = own = np.array([sets[s] for s in owners], dtype=np.float64)
            inits = np.stack([
                own[j][draws[s][i]] if i < len(draws[s]) else extras[s][i - len(draws[s])]
                for j, (s, i) in enumerate(chunk)
            ])
            assignment, centroids, sse = _lloyd(points, inits)
            for j, (s, value) in enumerate(zip(owners, sse.tolist())):
                if best[s] is None or value < best[s].sse:  # copied: a view pins the group
                    best[s] = KMeansResult(assignment[j].copy(), centroids[j].copy(), value)
    return best


def _pairwise_sqdist(points: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of float64 `points`: entry (i, j)
    has the exact bits of `((points[j] - points[i]) ** 2).sum()`, and the
    matrix is exactly symmetric. Row i computes its entries j >= i and
    mirrors them: fl(a - b) = -fl(b - a), so each square and each sum is the
    same. The peak extra memory stays one (n, dim) difference."""
    pairwise = np.empty((points.shape[0], points.shape[0]), dtype=np.float64)
    for i, point in enumerate(points):
        pairwise[i, i:] = pairwise[i:, i] = ((points[i:] - point) ** 2).sum(axis=1)
    return pairwise


def _kmeanspp_seeds(pairwise, ks, rngs, restarts: int, owners=None) -> list[np.ndarray]:
    """Each draw set's k-means++ seed indices for `restarts` restarts, as a
    (restarts, k) array, read from its (n, n) pairwise distances: draw set s
    reads `pairwise[owners[s]]`, by default `pairwise[s]`. Draw sets that
    share a matrix (the counts of one `sse_curve` set) read its one copy.

    Each draw set's generator is used as `rng.choice(n, p=d2 / total)` would
    use it, restart after restart: the same cumulative sum and normalization
    and one `rng.random()` per weighted draw. Draw sets of one size draw in
    lockstep, draw j of every such set being one array operation; each row's
    sum and cumulative sum has the bits of its own 1-D call, and counting the
    cdf entries at most u is `searchsorted(u, side="right")` on a
    non-decreasing cdf.
    """
    owners = range(len(ks)) if owners is None else owners
    draws: list[np.ndarray | None] = [None] * len(ks)
    by_size: dict[int, list[int]] = {}
    for s, owner in enumerate(owners):
        by_size.setdefault(len(pairwise[owner]), []).append(s)
    for n, members in by_size.items():
        shared = {owner: i for i, owner in enumerate(dict.fromkeys(owners[s] for s in members))}
        stack = np.stack([pairwise[owner] for owner in shared])
        matrix = np.array([shared[owners[s]] for s in members])  # each member's stack row
        counts = np.array([ks[s] for s in members])
        gens = [rngs[s] for s in members]
        out = np.empty((len(members), restarts, counts.max()), dtype=np.intp)
        for r in range(restarts):
            out[:, r, 0] = [g.integers(n) for g in gens]
            live = np.flatnonzero(counts > 1)  # the sets still drawing
            d2 = stack[matrix[live], out[live, r, 0]]
            for j in range(1, counts.max()):
                keep = counts[live] > j
                if not keep.all():
                    live, d2 = live[keep], d2[keep]
                total = np.add.reduce(d2, axis=1)
                flat = total <= 0.0  # every point is a seed's duplicate, and stays one
                if flat.any():
                    for t in live[flat].tolist():
                        out[t, r, j : counts[t]] = gens[t].integers(n, size=counts[t] - j)
                    live, d2, total = live[~flat], d2[~flat], total[~flat]
                if not live.size:
                    break
                u = np.array([gens[t].random() for t in live.tolist()])
                cdf = np.cumsum(d2 / total[:, None], axis=1)
                cdf /= cdf[:, -1:]
                chosen = (cdf <= u[:, None]).sum(axis=1)
                out[live, r, j] = chosen
                d2 = np.minimum(d2, stack[matrix[live], chosen])
        for t, s in enumerate(members):
            draws[s] = out[t, :, : ks[s]]
    return draws


def _sqdist(points: np.ndarray, centroids: np.ndarray, p2=None) -> np.ndarray:
    """(n, k) squared distances to (k, dim) centroids, or (R, n, k) to an
    (R, k, dim) stack of them, from one (n, dim) set or an (R, n, dim) stack
    of sets; each slice has the bits of the 2-D case. `p2` is the points'
    squared norms with a trailing axis of 1, if already known."""
    if p2 is None:
        p2 = (points**2).sum(axis=-1)[..., None]
    c2 = (centroids**2).sum(axis=-1)[..., None, :]
    return np.maximum(p2 + c2 - 2.0 * np.matmul(points, np.swapaxes(centroids, -1, -2)), 0.0)


def _sse(points: np.ndarray, centroids: np.ndarray, assignment: np.ndarray) -> np.ndarray:
    """(R,) SSEs of an (R, k, dim) centroid stack under (R, n) assignments of
    one (n, dim) set or an (R, n, dim) stack of sets, each bit-equal to
    `((points[r] - centroids[r][assignment[r]]) ** 2).sum()`."""
    diff = centroids[np.arange(len(assignment))[:, None], assignment]
    np.subtract(points, diff, out=diff)
    np.square(diff, out=diff)
    return diff.reshape(len(diff), -1).sum(axis=1)


def _cluster_means(points: np.ndarray, assignment: np.ndarray, k: int) -> np.ndarray:
    """Per-cluster means, bit-equal to `points[assignment == c].mean(axis=0)`:
    (k, dim) for an (n,) assignment, (R, k, dim) for an (R, n) stack, whose
    restarts share one (n, dim) set or each have their own in an (R, n, dim)
    stack.

    The clusters of every restart are pooled. Those of one size are stacked,
    each one's points in input order, into a (clusters, size, dim) block. Its
    sum over axis 1 adds up each cluster's (size, dim) rows in the same order
    as that cluster's own `mean`, which divides the same sum by the count. (A
    `np.add.reduceat` over the sorted points is not bit-equal: it adds the
    first row to a pairwise sum of the rest.)
    """
    n, dim = points.shape[-2:]
    runs = assignment.size // n
    labels = (assignment.reshape(runs, n) + k * np.arange(runs)[:, None]).ravel()
    total = runs * k
    counts = np.bincount(labels, minlength=total)
    if not counts.all():
        raise ContractError(f"cluster {int(np.argmin(counts)) % k} became empty despite repair")
    flat = points.reshape(-1, dim)
    rows = flat[np.argsort(counts[labels] * total + labels, kind="stable") % len(flat)]
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
    """Give each empty cluster of every restart, in ascending order, the point
    farthest from its current centroid (ties to the lowest index); donors
    must not empty their own cluster. Takes (R, n) assignments, (R, k, dim)
    centroids, (R, n, k) squared distances and (R, k) cluster sizes, with
    `points` as in `_sse`; returns the inputs themselves when no cluster is
    empty, else repaired copies.

    It is one pass over the restarts that need it. Walking a restart's points
    by falling own distance, a point donates exactly when its rank among its
    own cluster's members in walk order is below that cluster's size minus
    one (a cluster with one member left never gains one here), and the j-th
    donor fills the j-th empty cluster.
    """
    rows = np.flatnonzero((counts == 0).any(axis=1))
    if not rows.size:
        return assignment, centroids
    assignment, centroids = assignment.copy(), centroids.copy()
    labels, sizes = assignment[rows], counts[rows]
    own_dist = np.take_along_axis(d2[rows], labels[..., None], axis=2)[..., 0]
    walk = np.argsort(-own_dist, axis=1, kind="stable")
    walked = np.take_along_axis(labels, walk, axis=1)
    members_so_far = np.cumsum(walked[..., None] == np.arange(sizes.shape[1]), axis=1)
    rank = np.take_along_axis(members_so_far, walked[..., None], axis=2)[..., 0] - 1
    donor = rank < np.take_along_axis(sizes, walked, axis=1) - 1
    needed = (sizes == 0).sum(axis=1)
    if (donor.sum(axis=1) < needed).any():
        raise ContractError("no donor point available for empty-cluster repair")
    nth = np.cumsum(donor, axis=1) - 1
    batch, position = np.nonzero(donor & (nth < needed[:, None]))
    point = walk[batch, position]
    empties = np.argsort(sizes != 0, axis=1, kind="stable")  # each row's empty clusters first
    target = empties[batch, nth[batch, position]]
    row = rows[batch]
    assignment[row, point] = target
    centroids[row, target] = points[point] if points.ndim == 2 else points[row, point]
    return assignment, centroids


def _lloyd(points: np.ndarray, inits: np.ndarray):
    """Lloyd's iterations from an (R, k, dim) stack of inits, all restarts at
    once; each stops on its own SSE test, exactly where it would alone.
    `points` is the (n, dim) set every restart clusters, or an (R, n, dim)
    stack of each restart's own.

    Returns the (R, n) assignments, (R, k, dim) centroids and (R,) SSEs.
    """
    restarts, k, _ = inits.shape
    assignment = np.empty((restarts, points.shape[-2]), dtype=np.intp)
    active = np.arange(restarts)  # the restarts still iterating, in order
    live, own = inits, points  # their centroids and points
    prev_sse = np.full(restarts, np.inf)
    p2 = (points**2).sum(axis=-1)[..., None]
    for _ in range(MAX_ITERATIONS):
        d2 = _sqdist(own, live, p2)
        labels = d2.argmin(axis=2)
        counts = np.bincount((labels + k * np.arange(len(active))[:, None]).ravel(),
                             minlength=len(active) * k).reshape(-1, k)
        labels, live = _repair_empty(own, labels, live, d2, counts)
        sse = _sse(own, live, labels)
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
        if points.ndim == 3:
            own, p2 = own[going], p2[going]
        live = _cluster_means(own, labels, k)
    centroids = _cluster_means(points, assignment, k)
    return assignment, centroids, _sse(points, centroids, assignment)


def sse_curve(points, seed=0):
    """SSE at every cluster count from 1 to the number of points.

    Each count's restart pool is warm-started by splitting the previous
    solution, so the curve is non-increasing by construction. Every count's
    k-means++ seeds are drawn in one pass before the first count's Lloyd
    iterations, all from one pairwise distance matrix.

    A sequence of seeds computes the curves of that many independent point
    sets, `points` then being a sequence of sets, in one batch that advances
    every curve one cluster count at a time; the result is the list of
    curves, each bit-equal to that set's own call.
    """
    if np.ndim(seed) == 0:
        return _sse_curves([points], [seed])[0]
    return _sse_curves(points, seed)


def _sse_curves(point_sets, seeds) -> list[np.ndarray]:
    sets = [np.asarray(_checked_points(points), dtype=np.float64) for points in point_sets]
    seeds = list(seeds)
    if len(seeds) != len(sets):
        raise ValidationError("sse_curve needs one seed per point set")
    pairwise = [_pairwise_sqdist(points) for points in sets]
    # every (set, count) pair's seeds, each from a fresh generator of its
    # set's seed as a lone kmeans call would draw them, in one lockstep pass
    pairs = [(s, k) for s, points in enumerate(sets) for k in range(1, len(points) + 1)]
    draws = _kmeanspp_seeds(
        pairwise, [k for _, k in pairs], [np.random.default_rng(seeds[s]) for s, _ in pairs],
        DEFAULT_RESTARTS, [s for s, _ in pairs],
    )
    seeded = dict(zip(pairs, draws))
    curves = [np.empty(len(points), dtype=np.float64) for points in sets]
    prev: list[KMeansResult | None] = [None] * len(sets)
    for k in range(1, max(map(len, sets), default=0) + 1):
        live = [s for s, points in enumerate(sets) if len(points) >= k]
        extras = []
        for s in live:
            extra = []
            if prev[s] is not None:
                points, centroids = sets[s], prev[s].centroids
                own_dist = ((points - centroids[prev[s].assignment]) ** 2).sum(axis=1)
                extra.append(np.vstack([centroids, points[int(np.argmax(own_dist))]]))
            extras.append(extra)
        results = _kmeans_sets([sets[s] for s in live], [seeded[s, k] for s in live], extras)
        for s, result in zip(live, results):
            prev[s] = result
            curves[s][k - 1] = result.sse
    if any(np.any(np.diff(curve) > 1e-9) for curve in curves):
        raise ContractError("cluster error curve is not non-increasing")
    return curves


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
    assignment = np.asarray(assignment)
    counts = np.bincount(assignment, minlength=len(centroids))
    if not counts.all():
        raise ContractError(f"cluster {int(np.argmin(counts))} has no members")
    d2 = np.asarray(centroids, dtype=np.float64)[assignment]
    np.subtract(features, d2, out=d2)
    np.square(d2, out=d2)
    d2 = d2.sum(axis=1)
    # by cluster, then distance; lexsort is stable, so a tie keeps head order
    order = np.lexsort((d2, assignment))
    return order[np.cumsum(counts) - counts].tolist()


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
    windows = [(layer, step) for layer in range(trace.num_layers) for step in needed]
    results = kmeans(  # every (layer, step) window in one batch
        [extract_features(trace, layer, (step - window + 1, step)) for layer, step in windows],
        [profile.cluster_counts[layer] for layer, _ in windows],
        seed=[derived_seed(profile.seed, layer, step) for layer, step in windows],
    )
    labels = np.empty((len(windows), trace.num_heads), dtype=np.intp)
    for i, result in enumerate(results):
        _, lowest, cluster = np.unique(result.assignment, return_index=True, return_inverse=True)
        labels[i] = lowest[cluster]  # the lowest head index in each head's cluster
    labels = labels.reshape(trace.num_layers, len(needed), trace.num_heads)

    counts = (labels[:, 1:] != labels[:, :-1]).sum(axis=2)
    if first_needed == from_step:  # nothing to compare the first step with
        counts = np.concatenate([np.zeros((trace.num_layers, 1), dtype=int), counts], axis=1)
    return list(range(from_step, to_step + 1)), counts


def cluster_size_histogram(plan: ClusterPlan, layer: int) -> list[int]:
    """Cluster cardinalities of one layer, largest first."""
    layer_plan = plan.layers[layer]
    sizes = np.bincount(np.asarray(layer_plan.assignment), minlength=layer_plan.cluster_count)
    return sorted((int(s) for s in sizes), reverse=True)
