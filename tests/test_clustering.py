import itertools
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

import chai
import chai.clustering as clustering_mod
import helpers
from chai.attention import AttentionTrace, export_trace_csv, load_trace_csv
from chai.clustering import (
    DEFAULT_RESTARTS,
    choose_representatives,
    cluster_size_histogram,
    correlation_matrix,
    elbow_select,
    extract_features,
    kmeans,
    membership_stability,
    sse_curve,
)
from chai.errors import ContractError, InsufficientTraceError, ShapeError, ValidationError
from chai.plan import ClusterPlan, LayerPlan
from chai.engine import _traced_prefix, generate
from helpers import (
    acceptance_corpus,
    acceptance_fixture,
    grouped_plan,
    reference_extract_features,
    reference_kmeans,
    reference_sse_curve,
)


def build_trace(head_rows):
    """Trace for one layer from {head: [row_step1, row_step2, ...]} lists,
    heads 0..H-1, each step's rows one position longer than the last."""
    steps = len(head_rows[0])
    base = len(head_rows[0][0]) - 1
    trace = AttentionTrace(1, len(head_rows), steps, base)
    for step in range(steps):
        block = np.array([[head_rows[h][step]] for h in range(len(head_rows))], np.float32)
        trace.record(0, base + step, slice(None), block)
    return trace


def fresh_cache_rows(num_steps, pattern):
    """Probability rows of growing length 1..num_steps; `pattern(step)` returns
    the row for that step."""
    return [pattern(step) for step in range(1, num_steps + 1)]


def peaked_rows(num_steps, favorite):
    """Rows concentrating weight on `favorite` (clipped to the causal prefix)."""
    rows = []
    for step in range(1, num_steps + 1):
        row = np.full(step, 0.05, dtype=np.float64)
        row[min(favorite, step - 1)] += 1.0 - row.sum()
        rows.append(row)
    return rows


def enumerate_partitions(n, k):
    """All partitions of range(n) into exactly k non-empty blocks."""
    if k == 1:
        yield [list(range(n))]
        return
    for assignment in itertools.product(range(k), repeat=n):
        # canonical: block labels appear in first-seen order, all used
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


def partition_sse(points, blocks):
    total = 0.0
    for block in blocks:
        members = points[block]
        total += ((members - members.mean(axis=0)) ** 2).sum()
    return total


def optimal_sse(points, k):
    return min(partition_sse(points, blocks) for blocks in enumerate_partitions(len(points), k))


class TestExtractFeatures:
    def test_step_one_block_is_one_hot(self):
        trace = build_trace({
            0: peaked_rows(5, 0),
            1: peaked_rows(5, 2),
        })
        features = extract_features(trace, 0, (1, 5))
        assert features.shape == (2, 25)
        np.testing.assert_array_equal(features[0, :5], [1, 0, 0, 0, 0])
        np.testing.assert_array_equal(features[1, :5], [1, 0, 0, 0, 0])

    def test_identical_rows_identical_features(self):
        rows = peaked_rows(5, 1)
        features = extract_features(build_trace({0: rows, 1: rows}), 0, (1, 5))
        np.testing.assert_array_equal(features[0], features[1])

    def test_hand_built_concatenation_and_padding(self):
        trace = build_trace({
            0: [[1.0], [0.25, 0.75]],
            1: [[1.0], [0.6, 0.4]],
        })
        features = extract_features(trace, 0, (1, 2))
        np.testing.assert_allclose(features[0], [1.0, 0.0, 0.25, 0.75])
        np.testing.assert_allclose(features[1], [1.0, 0.0, 0.6, 0.4])

    def test_window_beyond_trace_raises(self):
        trace = build_trace({0: peaked_rows(3, 0)})
        with pytest.raises(InsufficientTraceError):
            extract_features(trace, 0, (1, 5))


class TestExtractFeaturesOracle:
    """The one-slice features against the per-head reference
    `reference_extract_features`, byte for byte, on every kind of trace."""

    @staticmethod
    def assert_same(trace, layer, window):
        got = extract_features(trace, layer, window)
        want = reference_extract_features(trace, layer, window)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def assert_windows_same(self, trace):
        last = trace.max_step()
        for layer in range(trace.num_layers):
            for window in ((1, last), (1, 1), (2, last), (1, last - 1), (2, 3)):
                self.assert_same(trace, layer, window)

    @pytest.mark.parametrize("mode", ["MHA", "CHAI"])
    def test_generate_traces(self, mode):
        weights, plan = helpers.redundant_fixture([2, 2], seed=6)
        profile = helpers.fixture_profile(weights, plan)
        result = generate(weights, [1, 2, 3], 10, mode, profile=profile, collect_trace=True)
        assert result.trace.max_step() == (10 if mode == "MHA" else 5)
        self.assert_windows_same(result.trace)

    def test_calibration_prefixes(self):
        weights, _ = acceptance_fixture()
        for tokens in acceptance_corpus(weights.config, samples=2):
            self.assert_windows_same(_traced_prefix(weights, tokens))

    def test_csv_loaded_trace(self, tmp_path):
        weights = helpers.small_weights(seed=4)
        trace = generate(weights, [5, 6, 7, 8], 9, "MHA", collect_trace=True).trace
        export_trace_csv(trace, tmp_path / "trace.csv")
        loaded = load_trace_csv(tmp_path / "trace.csv")
        self.assert_windows_same(loaded)
        assert extract_features(loaded, 1, (1, 9)).tobytes() == (
            extract_features(trace, 1, (1, 9)).tobytes()
        )

    def test_membership_stability_sliding_windows(self, monkeypatch):
        windows = []

        def checked(trace, layer, window):
            windows.append(window)
            self.assert_same(trace, layer, window)
            return extract_features(trace, layer, window)

        monkeypatch.setattr(clustering_mod, "extract_features", checked)
        weights = helpers.small_weights(seed=5)
        trace = generate(weights, [1, 2, 3], 12, "MHA", collect_trace=True).trace
        membership_stability(trace, _FakeProfile([2, 3]), 5, 12)
        assert (8, 12) in windows and min(first for first, _ in windows) == 1


class TestKMeans:
    def test_k_equals_n_reaches_zero_sse(self):
        rng = np.random.default_rng(0)
        points = rng.standard_normal((6, 3))
        result = kmeans(points, 6, seed=1, restarts=20)
        assert result.sse == pytest.approx(0.0, abs=1e-12)

    def test_k_one_gives_mean_and_total_deviation(self):
        rng = np.random.default_rng(1)
        points = rng.standard_normal((10, 4))
        result = kmeans(points, 1, seed=0)
        np.testing.assert_allclose(result.centroids[0], points.mean(axis=0), atol=1e-12)
        want = ((points - points.mean(axis=0)) ** 2).sum()
        assert result.sse == pytest.approx(want, rel=1e-12)

    def test_matches_exhaustive_partition_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(3, 9))
            dim = int(rng.integers(1, 3))
            k = int(rng.integers(2, min(3, n) + 1))
            points = rng.uniform(-1, 1, size=(n, dim))
            result = kmeans(points, k, seed=int(rng.integers(1 << 30)), restarts=50)
            assert result.sse <= optimal_sse(points, k) + 1e-9

    def test_k_larger_than_points_rejected(self):
        with pytest.raises(ValidationError):
            kmeans(np.zeros((3, 2)), 4)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_points_rejected(self, value):
        points = np.zeros((4, 2))
        points[2, 1] = value
        with pytest.raises(ValidationError, match="finite"):
            kmeans(points, 2)

    def test_extra_init_of_other_shape_rejected(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\) centroids"):
            kmeans(np.zeros((4, 3)), 2, extra_inits=[np.zeros((3, 3))])

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        points = rng.standard_normal((12, 5))
        a = kmeans(points, 3, seed=7)
        b = kmeans(points, 3, seed=7)
        np.testing.assert_array_equal(a.assignment, b.assignment)
        np.testing.assert_array_equal(a.centroids, b.centroids)
        assert a.sse == b.sse

    def test_duplicate_points_fill_all_clusters(self):
        points = np.zeros((4, 2))
        result = kmeans(points, 3, seed=0)
        assert sorted(set(result.assignment.tolist())) == [0, 1, 2]
        assert result.sse == 0.0

    def test_assignment_surjective_on_random_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            k = int(rng.integers(1, n + 1))
            points = rng.uniform(size=(n, 2))
            result = kmeans(points, k, seed=int(rng.integers(1 << 30)), restarts=5)
            assert sorted(set(result.assignment.tolist())) == list(range(k))


class TestKMeansGuards:
    """Internal invariants raise ContractError, also under `python -O`."""

    POINTS = np.random.default_rng(8).standard_normal((6, 2))

    def test_sse_increase_raises(self, monkeypatch):
        real_means = clustering_mod._cluster_means
        monkeypatch.setattr(
            clustering_mod, "_cluster_means", lambda *args: real_means(*args) + 100.0
        )
        with pytest.raises(ContractError, match="SSE increased"):
            kmeans(self.POINTS, 2, seed=0, restarts=1)

    def test_no_initialization_raises(self):
        with pytest.raises(ContractError, match="no initialization"):
            kmeans(self.POINTS, 2, restarts=0)

    def test_mean_of_empty_cluster_raises(self):
        with pytest.raises(ContractError, match="cluster 1 became empty despite repair"):
            clustering_mod._cluster_means(self.POINTS, np.array([0, 0, 2, 2, 0, 2]), 3)

    def test_guards_survive_optimized_mode(self):
        script = textwrap.dedent(
            """
            import numpy as np
            import chai.clustering as c
            from chai.errors import ContractError

            if __debug__:
                raise SystemExit("interpreter is not running with -O")
            points = np.random.default_rng(8).standard_normal((6, 2))
            try:
                c.kmeans(points, 2, restarts=0)
            except ContractError:
                pass
            else:
                raise SystemExit("kmeans without initializations did not raise")
            try:
                c._cluster_means(points, np.zeros(6, dtype=np.intp), 2)
            except ContractError:
                pass
            else:
                raise SystemExit("an empty cluster's mean did not raise")
            real_means = c._cluster_means
            c._cluster_means = lambda *args: real_means(*args) + 100.0
            try:
                c.kmeans(points, 2, seed=0, restarts=1)
            except ContractError:
                print("guarded")
            else:
                raise SystemExit("an SSE increase did not raise")
            """
        )
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(chai.__file__)))
        env = dict(os.environ, PYTHONPATH=src_dir)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "guarded"


def duplicate_heavy_inputs(count, seed):
    """Seeded (points, k, seed) triples with n in 1..40 drawn from few
    distinct rows: a third of them 0/1 rows, and some with every row equal,
    so k-means++ seeding meets an all-zero distance row and Lloyd iterations
    leave clusters empty."""
    rng = np.random.default_rng(seed)
    inputs = []
    for i in range(count):
        n = int(rng.integers(1, 41))
        distinct = 1 if i % 10 == 0 else int(rng.integers(1, n + 1))
        dim = int(rng.integers(1, 6))
        if i % 3 == 0:
            rows = rng.integers(0, 2, size=(distinct, dim)).astype(np.float64)
        else:
            rows = rng.uniform(size=(distinct, dim))
        points = rows[rng.integers(distinct, size=n)]
        inputs.append((points, int(rng.integers(1, n + 1)), int(rng.integers(1 << 30))))
    return inputs


def assert_same_kmeans(got, want):
    assert np.array_equal(got.assignment, want.assignment)
    assert np.array_equal(got.centroids, want.centroids)
    assert got.sse == want.sse


class TestKMeansOracle:
    """`kmeans` and `sse_curve` against the loop-per-cluster reference in
    tests/helpers.py: assignments, centroids and SSE must be bit-equal."""

    def test_kmeans_bit_equal_on_duplicate_heavy_inputs(self):
        inputs = duplicate_heavy_inputs(240, seed=10)
        for points, k, seed in inputs:
            assert_same_kmeans(kmeans(points, k, seed=seed), reference_kmeans(points, k, seed=seed))
        assert any(len(np.unique(p, axis=0)) == 1 and k > 1 for p, k, _ in inputs)
        assert any(len(np.unique(p, axis=0)) < k for p, k, _ in inputs)

    def test_sse_curve_bit_equal_on_duplicate_heavy_inputs(self):
        for points, _, seed in duplicate_heavy_inputs(40, seed=11):
            points = points[:12]
            assert np.array_equal(sse_curve(points, seed=seed), reference_sse_curve(points, seed=seed))

    def test_bit_equal_on_planted_model_calibration_features(self):
        weights, _ = acceptance_fixture()
        config = weights.config
        for sample, tokens in enumerate(acceptance_corpus(config, samples=2)):
            trace = _traced_prefix(weights, tokens[:5])
            for layer in range(config.num_layers):
                features = extract_features(trace, layer, (1, 5))
                seed = 1000 * sample + layer
                assert np.array_equal(
                    sse_curve(features, seed=seed), reference_sse_curve(features, seed=seed)
                )
                for k in (2, 8, 13):
                    assert_same_kmeans(
                        kmeans(features, k, seed=seed), reference_kmeans(features, k, seed=seed)
                    )

    def test_bit_equal_on_wide_features(self):
        # Identification-width features: at the default buffer budget the
        # restarts run in several groups.
        rng = np.random.default_rng(12)
        for n, k in ((16, 2), (24, 5), (32, 9)):
            rows = rng.uniform(size=(6, 2100)) * (rng.uniform(size=(6, 2100)) < 0.02)
            points = rows[rng.integers(6, size=n)] + 1e-3 * rng.uniform(size=(n, 2100))
            assert clustering_mod.LLOYD_BUFFER_BYTES // (8 * points.size) < DEFAULT_RESTARTS
            seed = int(rng.integers(1 << 30))
            assert_same_kmeans(kmeans(points, k, seed=seed), reference_kmeans(points, k, seed=seed))

    def test_bit_equal_when_restarts_repair_and_converge_apart(self, monkeypatch):
        """Several restarts repair an empty cluster in the same iteration, and
        restarts stop at different iterations; the oracle's own run shows both."""
        repairs, iterations = [], []
        real_lloyd, real_repair = helpers._reference_lloyd, helpers._reference_repair_empty

        def lloyd(points, init):
            iterations.append(0)
            return real_lloyd(points, init)

        def repair(points, assignment, centroids, d2):
            iterations[-1] += 1
            if np.bincount(assignment, minlength=len(centroids)).min() == 0:
                repairs.append((len(iterations), iterations[-1]))
            return real_repair(points, assignment, centroids, d2)

        monkeypatch.setattr(helpers, "_reference_lloyd", lloyd)
        monkeypatch.setattr(helpers, "_reference_repair_empty", repair)
        same_iteration_repairs = spread_convergence = False
        for points, k, seed in duplicate_heavy_inputs(60, seed=13):
            repairs.clear()
            iterations.clear()
            want = reference_kmeans(points, k, seed=seed)
            assert_same_kmeans(kmeans(points, k, seed=seed), want)
            at = [iteration for _, iteration in repairs]
            same_iteration_repairs |= any(at.count(i) > 1 for i in at)
            spread_convergence |= len(set(iterations)) > 1
        assert same_iteration_repairs and spread_convergence

    @pytest.mark.parametrize("cap", [1, 2])
    def test_bit_equal_at_the_iteration_cap(self, monkeypatch, cap):
        monkeypatch.setattr(clustering_mod, "MAX_ITERATIONS", cap)
        monkeypatch.setattr(helpers, "MAX_ITERATIONS", cap)
        for points, k, seed in duplicate_heavy_inputs(60, seed=14):
            assert_same_kmeans(kmeans(points, k, seed=seed), reference_kmeans(points, k, seed=seed))
        weights, _ = acceptance_fixture()
        trace = _traced_prefix(weights, acceptance_corpus(weights.config, samples=1)[0][:5])
        features = extract_features(trace, 0, (1, 5))
        for k in (3, 8):
            assert_same_kmeans(kmeans(features, k, seed=k), reference_kmeans(features, k, seed=k))

    def test_bit_equal_with_only_extra_inits(self):
        rng = np.random.default_rng(15)
        for points, k, seed in duplicate_heavy_inputs(40, seed=15):
            n, dim = points.shape
            extra = [points[rng.integers(n, size=k)] + rng.uniform(size=(k, dim))
                     for _ in range(int(rng.integers(1, 4)))]
            got = kmeans(points, k, seed=seed, restarts=0, extra_inits=extra)
            assert_same_kmeans(got, reference_kmeans(points, k, seed=seed, restarts=0, extra_inits=extra))
        with pytest.raises(ContractError, match="no initialization"):
            kmeans(points, k, restarts=0, extra_inits=[])

    @pytest.mark.parametrize("budget", [1, 1 << 20], ids=["one_per_group", "one_group"])
    def test_restart_beats_an_extra_init_of_equal_sse(self, monkeypatch, budget):
        monkeypatch.setattr(clustering_mod, "LLOYD_BUFFER_BYTES", budget)
        rng = np.random.default_rng(16)
        points = np.vstack([rng.normal(c, 0.1, size=(5, 3)) for c in (0.0, 4.0, 8.0)])
        best = kmeans(points, 3, seed=2)
        relabelled = best.centroids[::-1].copy()  # the same partition, clusters reversed
        got = kmeans(points, 3, seed=2, extra_inits=[relabelled])
        alone = kmeans(points, 3, seed=2, restarts=0, extra_inits=[relabelled])
        assert alone.sse == best.sse
        assert not np.array_equal(alone.assignment, best.assignment)
        assert_same_kmeans(got, best)
        assert_same_kmeans(got, reference_kmeans(points, 3, seed=2, extra_inits=[relabelled]))


class TestBatchOracle:
    """Batched `kmeans` and `sse_curve` against each set's `reference_kmeans`
    and `reference_sse_curve`, bit for bit."""

    @staticmethod
    def spy(monkeypatch):
        """Per `_lloyd` call: whether its restarts came from several sets, and
        per iteration the restarts still active and those that repaired."""
        calls = []
        real_lloyd, real_repair = clustering_mod._lloyd, clustering_mod._repair_empty

        def lloyd(points, inits):
            calls.append({"mixed": points.ndim == 3, "active": [], "repairs": []})
            return real_lloyd(points, inits)

        def repair(points, assignment, centroids, d2, counts):
            calls[-1]["active"].append(len(assignment))
            calls[-1]["repairs"].append(int((counts == 0).any(axis=1).sum()))
            return real_repair(points, assignment, centroids, d2, counts)

        monkeypatch.setattr(clustering_mod, "_lloyd", lloyd)
        monkeypatch.setattr(clustering_mod, "_repair_empty", repair)
        return calls

    @staticmethod
    def batch(seed):
        """(points, k, seed, extra inits) per set. Sets of one shape with 1, 2
        and 3 distinct rows and k = 5 meet the all-duplicates draw at steps 1,
        2 and 3 of one lockstep; others of that shape have other k; the
        duplicate-heavy ones have other sizes."""
        rng = np.random.default_rng(seed)
        sets = []
        for distinct, k in ((1, 5), (2, 5), (3, 5), (12, 5), (12, 2), (12, 4), (5, 4)):
            rows = rng.integers(0, 2, size=(distinct, 3)) + rng.uniform(size=(distinct, 3))
            points = rows[np.arange(12) % distinct]
            assert len(np.unique(points, axis=0)) == distinct
            sets.append((points, k, int(rng.integers(1 << 30)), []))
        for points, k, s in duplicate_heavy_inputs(12, seed=seed + 1):
            n, dim = points.shape
            extra = [points[rng.integers(n, size=k)] + rng.uniform(size=(k, dim))
                     for _ in range(int(rng.integers(0, 3)))]
            sets.append((points, k, s, extra))
        return sets

    @pytest.mark.parametrize("budget", [None, 8 * 12 * 3 * 4], ids=["default", "four_per_group"])
    def test_kmeans_batch_bit_equal(self, monkeypatch, budget):
        if budget is not None:  # one set's ten restarts straddle groups of four
            monkeypatch.setattr(clustering_mod, "LLOYD_BUFFER_BYTES", budget)
        calls = self.spy(monkeypatch)
        for seed in (30, 31, 32):
            sets = self.batch(seed)
            got = kmeans([p for p, *_ in sets], [k for _, k, *_ in sets],
                         seed=[s for _, _, s, _ in sets], extra_inits=[e for *_, e in sets])
            assert len(got) == len(sets)
            for result, (points, k, s, extra) in zip(got, sets):
                assert_same_kmeans(result, reference_kmeans(points, k, seed=s, extra_inits=extra))
        assert any(call["mixed"] for call in calls)
        assert any(max(call["repairs"]) > 1 for call in calls)
        assert any(len(set(call["active"])) > 1 for call in calls)
        if budget is not None:  # a full group of four holding two sets' restarts
            assert any(call["mixed"] and call["active"][0] == 4 for call in calls)

    def test_sse_curve_batch_bit_equal(self, monkeypatch):
        calls = self.spy(monkeypatch)
        sets = [(points[:10], s) for points, _, s, _ in self.batch(33)]
        weights, _ = acceptance_fixture()
        for sample, tokens in enumerate(acceptance_corpus(weights.config, samples=2)):
            trace = _traced_prefix(weights, tokens[:5])
            sets += [(extract_features(trace, layer, (1, 5)), 100 * sample + layer)
                     for layer in range(weights.config.num_layers)]
        got = sse_curve([points for points, _ in sets], seed=[s for _, s in sets])
        assert len({len(curve) for curve in got}) > 2
        for curve, (points, s) in zip(got, sets):
            assert np.array_equal(curve, reference_sse_curve(points, seed=s))
        assert any(call["mixed"] for call in calls)
        assert any(max(call["repairs"]) > 1 for call in calls)

    def test_batch_needs_one_entry_per_set(self):
        sets = [np.zeros((3, 2)), np.ones((4, 2))]
        with pytest.raises(ValidationError, match="per point set"):
            kmeans(sets, [1], seed=[0, 1])
        with pytest.raises(ValidationError, match="one seed per point set"):
            sse_curve(sets, seed=[0])
        assert kmeans([], [], seed=[]) == [] and sse_curve([], seed=[]) == []


class TestSeedingPass:
    """`sse_curve` seeds every (set, cluster count) pair of its batch in one
    `_kmeanspp_seeds` call, each pair from a fresh generator of its set's
    seed, and the pairs of one set read that set's one pairwise matrix."""

    @staticmethod
    def counted(monkeypatch):
        calls = []
        real = clustering_mod._kmeanspp_seeds

        def seeds(pairwise, ks, rngs, restarts, owners=None):
            calls.append(len(ks))
            return real(pairwise, ks, rngs, restarts, owners)

        monkeypatch.setattr(clustering_mod, "_kmeanspp_seeds", seeds)
        return calls

    @staticmethod
    def duplicate_heavy_sets(sizes, seed):
        """Per size, a set of one distinct row, one of 0/1 rows and one of
        a few uniform rows, each with its own seed."""
        rng = np.random.default_rng(seed)
        sets = []
        for n in sizes:
            for distinct, binary in ((1, False), (3, True), (max(2, n // 4), False)):
                rows = rng.uniform(size=(distinct, 4))
                if binary:
                    rows = np.round(rows)
                sets.append((rows[rng.integers(distinct, size=n)], int(rng.integers(1 << 30))))
        return sets

    def test_one_seeding_call_per_batch(self, monkeypatch):
        calls = self.counted(monkeypatch)
        sets = self.duplicate_heavy_sets((5, 9, 12), seed=40)
        sse_curve([points for points, _ in sets], seed=[s for _, s in sets])
        assert calls == [sum(len(points) for points, _ in sets)]  # one draw set per count
        calls.clear()
        sse_curve(sets[0][0], seed=sets[0][1])
        assert calls == [5]
        calls.clear()
        kmeans([points for points, _ in sets], [2] * len(sets), seed=[s for _, s in sets])
        assert calls == [len(sets)]

    def test_curves_bit_equal_on_duplicate_heavy_sets(self):
        sets = self.duplicate_heavy_sets((5, 9, 32), seed=41)
        got = sse_curve([points for points, _ in sets], seed=[s for _, s in sets])
        for curve, (points, s) in zip(got, sets):
            assert curve.tobytes() == reference_sse_curve(points, seed=s).tobytes()

    def test_seeding_keeps_one_pairwise_matrix_per_set(self, monkeypatch):
        """32 sets of 32 points: one copy of every pairwise matrix per cluster
        count would be 8 MiB; the whole seeding pass stays below that."""
        real = clustering_mod._kmeanspp_seeds
        peaks = []

        def seeds(*args):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            draws = real(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            return draws

        monkeypatch.setattr(clustering_mod, "_kmeanspp_seeds", seeds)
        rng = np.random.default_rng(42)
        sets = [rng.uniform(size=(32, 3)) for _ in range(32)]
        tracemalloc.start()
        try:
            sse_curve(sets, seed=list(range(32)))
        finally:
            tracemalloc.stop()
        per_count_copies = 32 * 32 * 32 * 32 * 8
        assert len(peaks) == 1 and peaks[0] < per_count_copies


def choice_seeds(pairwise, k, rng):
    """k-means++ seed indices drawn with `rng.choice`, as `kmeans` first did."""
    n = len(pairwise)
    chosen = [int(rng.integers(n))]
    d2 = pairwise[chosen[0]]
    for _ in range(1, k):
        total = d2.sum()
        idx = int(rng.integers(n)) if total <= 0.0 else int(rng.choice(n, p=d2 / total))
        chosen.append(idx)
        d2 = np.minimum(d2, pairwise[idx])
    return chosen


class TestKMeansppDraw:
    """`_kmeanspp_seeds` re-derives `rng.choice(n, p=...)`: the same indices
    and the same use of each set's random stream, the sets of a batch drawing
    in lockstep. A numpy release that changes `choice` fails here."""

    @pytest.mark.parametrize("kind", ["many_zero_distances", "single_nonzero_distance"])
    def test_same_indices_and_stream_as_rng_choice(self, kind):
        rng = np.random.default_rng(17)
        later_seeds = 0
        for n in range(1, 41):
            if kind == "many_zero_distances":
                rows = rng.integers(0, 2, size=(max(1, n // 4), 3)).astype(np.float64)
                points = rows[rng.integers(len(rows), size=n)]
            else:
                points = np.zeros((n, 2))
                points[int(rng.integers(n))] = rng.uniform(0.5, 2.0, size=2)
            pairwise = clustering_mod._pairwise_sqdist(points)
            ks = [int(rng.integers(1, n + 1)) for _ in range(5)]
            ours = [np.random.default_rng(seed) for seed in range(5)]
            theirs = [np.random.default_rng(seed) for seed in range(5)]
            # five sets, one per seed, each with its own k; a set's consecutive
            # restarts share its stream
            draws = clustering_mod._kmeanspp_seeds([pairwise] * 5, ks, ours, 3)
            for seed, k in enumerate(ks):
                for restart in range(3):
                    assert draws[seed][restart].tolist() == choice_seeds(
                        pairwise, k, theirs[seed]
                    )
                    later_seeds += k - 1
                assert ours[seed].bit_generator.state == theirs[seed].bit_generator.state
        assert later_seeds > 1000

    def test_sets_of_several_sizes_in_one_batch(self):
        rng = np.random.default_rng(18)
        sets = [rng.integers(0, 3, size=(n, 2)).astype(np.float64) for n in (5, 9, 5, 1, 9)]
        pairwise = [clustering_mod._pairwise_sqdist(points) for points in sets]
        ks = [4, 9, 2, 1, 6]
        ours = [np.random.default_rng(seed) for seed in range(5)]
        theirs = [np.random.default_rng(seed) for seed in range(5)]
        draws = clustering_mod._kmeanspp_seeds(pairwise, ks, ours, 4)
        for s, k in enumerate(ks):
            assert draws[s].shape == (4, k)
            for restart in range(4):
                assert draws[s][restart].tolist() == choice_seeds(pairwise[s], k, theirs[s])
            assert ours[s].bit_generator.state == theirs[s].bit_generator.state


class TestPairwiseSqdist:
    def test_equals_the_row_by_row_definition_and_is_symmetric(self):
        rng = np.random.default_rng(19)
        for n, dim in ((1, 3), (7, 1), (12, 25), (32, 517)):
            points = rng.uniform(size=(n, dim)) * (rng.uniform(size=(n, dim)) < 0.3)
            points[n // 2] = points[0]  # a duplicate row: an exact zero off the diagonal
            got = clustering_mod._pairwise_sqdist(points)
            assert np.array_equal(got, helpers.reference_pairwise_sqdist(points))
            assert np.array_equal(got, got.T)


class TestRepairEmpty:
    """Each empty cluster, in ascending order, takes the point farthest from
    its centroid (ties to the lowest index) from a cluster that keeps a member."""

    @staticmethod
    def repair(points, assignment, centroids):
        """One restart's repair, run as a batch of one."""
        points = np.asarray(points, dtype=np.float64)
        centroids = np.asarray(centroids, dtype=np.float64)[None]
        d2 = clustering_mod._sqdist(points, centroids)
        assignment = np.asarray(assignment)[None]
        counts = np.bincount(assignment[0], minlength=centroids.shape[1])[None]
        got = clustering_mod._repair_empty(points, assignment, centroids, d2, counts)
        return got[0][0], got[1][0]

    def test_equal_distances_go_to_lowest_index(self):
        assignment, centroids = self.repair([[5.0], [1.0], [-1.0]], [1, 0, 0], [[0.0], [5.0], [50.0]])
        assert assignment.tolist() == [1, 2, 0]
        assert centroids.tolist() == [[0.0], [5.0], [1.0]]

    def test_empty_clusters_filled_in_order_from_farthest_donor(self):
        assignment, centroids = self.repair(
            [[0.0], [3.0], [1.0], [2.0]], [0, 0, 0, 0], [[0.0], [40.0], [50.0]]
        )
        assert assignment.tolist() == [0, 1, 0, 2]
        assert centroids.tolist() == [[0.0], [3.0], [2.0]]

    def test_two_member_cluster_donates_once(self):
        assignment, centroids = self.repair(
            [[8.0], [-8.0], [1.0], [2.0], [4.0]],
            [0, 0, 1, 1, 1],
            [[0.0], [2.0], [50.0], [60.0]],
        )
        assert assignment.tolist() == [2, 0, 1, 1, 3]
        assert centroids.tolist() == [[0.0], [2.0], [8.0], [4.0]]

    def test_full_clusters_returned_unchanged(self):
        points = np.array([[0.0], [1.0]])
        assignment = np.array([[0, 1], [1, 0]])
        centroids = np.array([[[0.0], [1.0]], [[1.0], [0.0]]])
        got = clustering_mod._repair_empty(
            points, assignment, centroids, np.zeros((2, 2, 2)), np.array([[1, 1], [1, 1]])
        )
        assert got[0] is assignment and got[1] is centroids

    @pytest.mark.parametrize(
        "assignment, k", [([0, 1], 3), ([0, 0, 1], 4)], ids=["no_donor", "donors_run_out"]
    )
    def test_no_donor_raises(self, assignment, k):
        points = [[float(i)] for i in range(len(assignment))]
        centroids = [[float(c)] for c in range(k)]
        with pytest.raises(ContractError, match="no donor point available"):
            self.repair(points, assignment, centroids)

    @pytest.mark.parametrize("stacked", [False, True], ids=["shared_points", "own_points"])
    def test_batch_equals_the_per_restart_reference(self, stacked):
        # Restarts with and without empty clusters, several empties per
        # restart, and duplicate points, so own distances tie.
        rng = np.random.default_rng(20)
        repaired = 0
        for _ in range(40):
            restarts, n = int(rng.integers(1, 7)), int(rng.integers(2, 12))
            k = int(rng.integers(2, n + 1))
            dim = int(rng.integers(1, 4))
            shape = (restarts, n, dim) if stacked else (n, dim)
            points = rng.integers(0, 3, size=shape).astype(np.float64)
            centroids = rng.uniform(-1, 4, size=(restarts, k, dim))
            d2 = clustering_mod._sqdist(points, centroids)
            assignment = np.minimum(rng.integers(0, k, size=(restarts, n)), d2.argmin(axis=2))
            counts = np.stack([np.bincount(a, minlength=k) for a in assignment])
            got_assignment, got_centroids = clustering_mod._repair_empty(
                points, assignment, centroids, d2, counts
            )
            for r in range(restarts):
                own = points[r] if stacked else points
                want = helpers._reference_repair_empty(own, assignment[r], centroids[r], d2[r])
                assert np.array_equal(got_assignment[r], want[0])
                assert np.array_equal(got_centroids[r], want[1])
            repaired += int((counts == 0).any(axis=1).sum())
        assert repaired > 40

    def test_no_donor_in_a_batch_raises_like_the_reference(self):
        # Fewer points than clusters: every restart runs out of donors.
        points = np.array([[0.0], [1.0], [2.0]])
        assignment = np.array([[0, 0, 1], [2, 2, 2], [0, 1, 3]])
        centroids = np.arange(12, dtype=np.float64).reshape(3, 4, 1)
        d2 = clustering_mod._sqdist(points, centroids)
        counts = np.stack([np.bincount(a, minlength=4) for a in assignment])
        for r in range(3):
            with pytest.raises(ContractError, match="no donor point available"):
                helpers._reference_repair_empty(points, assignment[r], centroids[r], d2[r])
        with pytest.raises(ContractError, match="no donor point available"):
            clustering_mod._repair_empty(points, assignment, centroids, d2, counts)


class TestSseCurve:
    def test_non_increasing_and_zero_at_n(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            points = rng.standard_normal((8, 4))
            errors = sse_curve(points, seed=int(rng.integers(1 << 30)))
            assert np.all(np.diff(errors) <= 1e-9)
            assert errors[-1] == pytest.approx(0.0, abs=1e-12)


class TestElbowSelect:
    def test_hand_curve_picks_two(self):
        errors = [100.0, 20.0, 18.0, 17.5, 17.2, 17.0]
        assert elbow_select(errors, threshold=0.05) == 2

    def test_constant_zero_curve_picks_one(self):
        assert elbow_select([0.0] * 8) == 1

    def test_steep_curve_exhausts_to_full_count(self):
        errors = [100.0 - 10.0 * i for i in range(8)]  # every drop is 10% of err(1)
        assert elbow_select(errors, threshold=0.05) == 8

    def test_zero_threshold_never_satisfied(self):
        errors = [100.0, 50.0, 25.0, 12.0, 6.0]
        assert elbow_select(errors, threshold=0.0) == 5

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            errors = np.sort(rng.uniform(0, 100, size=10))[::-1]
            chosen = [elbow_select(errors, t) for t in (0.01, 0.05, 0.2, 0.5)]
            assert chosen == sorted(chosen, reverse=True)

    def test_two_separated_blobs_select_two(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            spread = 0.05
            blob_a = rng.normal(0.0, spread, size=(8, 6))
            blob_b = rng.normal(10.0, spread, size=(8, 6))
            points = np.vstack([blob_a, blob_b])
            errors = sse_curve(points, seed=trial)
            assert elbow_select(errors, threshold=0.05) == 2

    def test_empty_curve_rejected(self):
        with pytest.raises(ValidationError):
            elbow_select([])


class TestChooseRepresentatives:
    def test_singleton_cluster_is_its_member(self):
        features = np.array([[0.0, 0.0], [5.0, 5.0]])
        result = kmeans(features, 2, seed=0)
        reps = choose_representatives(features, result.assignment, result.centroids)
        assert sorted(reps) == [0, 1]

    def test_tie_goes_to_lowest_index(self):
        features = np.array([[1.0, 1.0], [1.0, 1.0], [9.0, 9.0]])
        assignment = np.array([0, 0, 1])
        centroids = np.array([[1.0, 1.0], [9.0, 9.0]])
        assert choose_representatives(features, assignment, centroids) == [0, 2]

    def test_hand_distances(self):
        centroids = np.array([[0.0]])
        features = np.array([[0.1], [0.2], [0.3]])
        assignment = np.array([0, 0, 0])
        assert choose_representatives(features, assignment, centroids) == [0]

    def test_empty_cluster_rejected(self):
        with pytest.raises(ContractError):
            choose_representatives(np.zeros((2, 2)), np.array([0, 0]), np.zeros((2, 2)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_the_per_cluster_reference(self, dtype):
        # Small integer features and centroids, so members often tie.
        rng = np.random.default_rng(21)
        ties = 0
        for _ in range(80):
            n, dim = int(rng.integers(1, 33)), int(rng.integers(1, 5))
            k = int(rng.integers(1, n + 1))
            features = rng.integers(0, 3, size=(n, dim)).astype(dtype)
            assignment = rng.permutation(np.concatenate([np.arange(k), rng.integers(0, k, n - k)]))
            centroids = rng.integers(0, 3, size=(k, dim)) + rng.choice([0.0, 0.5], size=(k, 1))
            got = choose_representatives(features, assignment, centroids)
            assert got == helpers.reference_choose_representatives(features, assignment, centroids)
            for c in range(k):
                d2 = ((features - centroids[c]) ** 2).sum(axis=1)[assignment == c]
                ties += int((d2 == d2.min()).sum() > 1)
        assert ties > 40


class TestCorrelationMatrix:
    def test_self_correlation_is_exactly_one(self):
        v = np.array([[1.0, 2.0, 4.0]])
        assert correlation_matrix(v)[0, 0] == 1.0

    def test_negation_is_minus_one(self):
        rows = np.array([[1.0, 2.0, 4.0], [-1.0, -2.0, -4.0]])
        assert correlation_matrix(rows)[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_hand_pearson_value(self):
        x = np.array([1.0, 2.0, 3.0])
        y = np.array([1.0, 2.0, 4.0])
        xc, yc = x - x.mean(), y - y.mean()
        want = (xc @ yc) / np.sqrt((xc @ xc) * (yc @ yc))
        got = correlation_matrix(np.vstack([x, y]))
        assert got[0, 1] == pytest.approx(want, abs=1e-9)
        assert got[1, 0] == pytest.approx(want, abs=1e-9)

    def test_scale_invariance(self):
        rng = np.random.default_rng(8)
        rows = rng.standard_normal((5, 12))
        scaled = rows * rng.uniform(0.5, 3.0, size=(5, 1)) + rng.uniform(-2, 2, size=(5, 1))
        np.testing.assert_allclose(
            correlation_matrix(rows), correlation_matrix(scaled), atol=1e-9
        )

    def test_zero_variance_row_correlates_zero(self):
        rows = np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 3.0]])
        got = correlation_matrix(rows)
        assert got[0, 0] == 0.0 and got[0, 1] == 0.0 and got[1, 0] == 0.0
        assert got[1, 1] == 1.0

    def test_length_one_rejected(self):
        with pytest.raises(ShapeError):
            correlation_matrix(np.ones((3, 1)))


class _FakeProfile:
    def __init__(self, cluster_counts, window=5, seed=0):
        self.cluster_counts = cluster_counts
        self.window = window
        self.seed = seed


class TestMembershipStability:
    def _grouped_trace(self, num_heads, groups, num_steps):
        """Heads in the same group share identical peaked rows at every step."""
        rows = {}
        for head in range(num_heads):
            rows[head] = peaked_rows(num_steps, groups[head] * 2)
        return build_trace(rows)

    def test_stable_groups_report_zero_changes(self):
        groups = [0, 0, 1, 1, 2, 2]
        trace = self._grouped_trace(6, groups, 12)
        steps, counts = membership_stability(trace, _FakeProfile([3]), 5, 12)
        assert steps == list(range(5, 13))
        assert counts.shape == (1, 8)
        assert np.all(counts == 0)

    def test_single_cluster_never_changes(self):
        rng = np.random.default_rng(9)
        rows = {}
        for head in range(4):
            rows[head] = []
            for step in range(1, 11):
                raw = rng.uniform(size=step)
                rows[head].append(raw / raw.sum())
        trace = build_trace(rows)
        _, counts = membership_stability(trace, _FakeProfile([1]), 5, 10)
        assert np.all(counts == 0)

    def test_counts_bounded_by_heads_on_random_traces(self):
        rng = np.random.default_rng(10)
        rows = {}
        for head in range(5):
            rows[head] = []
            for step in range(1, 11):
                raw = rng.uniform(size=step)
                rows[head].append(raw / raw.sum())
        trace = build_trace(rows)
        _, counts = membership_stability(trace, _FakeProfile([2]), 5, 10)
        assert np.all(counts >= 0) and np.all(counts <= 5)

    @pytest.mark.parametrize("from_step", [5, 6, 9])
    def test_counts_equal_to_reference_on_generated_traces(self, from_step):
        changed = 0
        for seed in range(3):
            weights = helpers.small_weights(seed=seed, num_heads=8, head_dim=4)
            trace = generate(weights, [1, 2, 3], 12, "MHA", collect_trace=True).trace
            profile = _FakeProfile([3, 4], seed=seed)
            steps, counts = membership_stability(trace, profile, from_step, 12)
            want = helpers.reference_membership_changes(trace, profile, from_step, 12)
            assert steps == list(range(from_step, 13))
            assert counts.dtype == want.dtype and np.array_equal(counts, want)
            changed += int(counts.sum())
        assert changed > 0

    def test_range_before_window_rejected(self):
        trace = self._grouped_trace(4, [0, 0, 1, 1], 8)
        with pytest.raises(ValidationError):
            membership_stability(trace, _FakeProfile([2]), 3, 8)


class TestClusterSizeHistogram:
    def test_singleton_plan(self):
        plan = ClusterPlan.singleton(1, 32)
        assert cluster_size_histogram(plan, 0) == [1] * 32

    def test_one_cluster(self):
        plan = grouped_plan(1, 16, [1])
        assert cluster_size_histogram(plan, 0) == [16]

    def test_direct_count(self):
        plan = ClusterPlan(
            layers=(LayerPlan(assignment=(0, 0, 0, 1), representatives=(0, 3)),)
        )
        assert cluster_size_histogram(plan, 0) == [3, 1]
