import math

import numpy as np
import pytest

from chai.errors import ConfigError, ContractError, ShapeError
from chai.kernels import apply_rope_heads, matmul, rms_norm, rope_table, softmax_rows
from helpers import reference_apply_rope_heads, reference_rms_norm, reference_softmax_rows


def naive_matmul(a, b):
    """Triple-loop oracle, independent of the production path."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += float(a[i, t]) * float(b[t, j])
            out[i, j] = acc
    return out


class TestMatmul:
    def test_identity_passthrough(self):
        b = np.array([[3, 4], [5, 6]], dtype=np.float32)
        eye = np.eye(2, dtype=np.float32)
        np.testing.assert_array_equal(matmul(eye, b), b)
        np.testing.assert_array_equal(matmul(b, eye), b)

    def test_hand_dot_product(self):
        a = np.array([[1, 2]], dtype=np.float32)
        b = np.array([[3], [4]], dtype=np.float32)
        assert matmul(a, b)[0, 0] == pytest.approx(11.0)

    def test_against_triple_loop_oracle(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((7, 5)).astype(np.float32)
        b = rng.standard_normal((5, 4)).astype(np.float32)
        got = matmul(a, b)
        want = naive_matmul(a, b)
        assert np.max(np.abs(got.astype(np.float64) - want)) < 1e-6

    def test_shape_error_names_both_shapes(self):
        a = np.zeros((2, 3), dtype=np.float32)
        b = np.zeros((2, 3), dtype=np.float32)
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(a, b)

    def test_output_finite_and_float32(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 6)).astype(np.float32)
        b = rng.standard_normal((6, 2)).astype(np.float32)
        out = matmul(a, b)
        assert out.dtype == np.float32
        assert np.all(np.isfinite(out))


class TestSoftmaxRows:
    def test_uniform_row(self):
        out = softmax_rows(np.zeros((1, 3), dtype=np.float32))
        np.testing.assert_allclose(out, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-6)

    @pytest.mark.parametrize("x", [-1000.0, 0.0, 3.5, 1000.0])
    def test_single_entry_normalizes_to_one(self, x):
        out = softmax_rows(np.array([[x]], dtype=np.float32))
        assert out[0, 0] == 1.0

    def test_matches_direct_formula(self):
        row = np.array([[1.0, 2.0, 3.0]], dtype=np.float32)
        exps = [math.exp(v) for v in (1.0, 2.0, 3.0)]
        want = np.array(exps) / sum(exps)
        np.testing.assert_allclose(softmax_rows(row)[0], want, atol=1e-6)

    def test_rows_sum_to_one_and_bounded(self):
        rng = np.random.default_rng(7)
        scores = (rng.standard_normal((20, 13)) * 5).astype(np.float32)
        out = softmax_rows(scores)
        np.testing.assert_allclose(out.sum(axis=1), np.ones(20), atol=1e-5)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_causal_mask_zeroes_future_positions(self):
        rng = np.random.default_rng(3)
        scores = rng.standard_normal((4, 6)).astype(np.float32)
        out = softmax_rows(scores, causal_from=2)
        for i in range(4):
            for j in range(6):
                if j > 2 + i:
                    assert out[i, j] == 0.0
            np.testing.assert_allclose(out[i].sum(), 1.0, atol=1e-5)

    def test_causal_fast_path_matches_masked_path(self):
        # When nothing is masked the causal variant must equal the plain one.
        rng = np.random.default_rng(11)
        scores = rng.standard_normal((3, 4)).astype(np.float32)
        np.testing.assert_array_equal(
            softmax_rows(scores, causal_from=3), softmax_rows(scores)
        )

    def test_fully_masked_row_is_a_contract_violation(self):
        with pytest.raises(ContractError):
            softmax_rows(np.zeros((2, 4), dtype=np.float32), causal_from=-1)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ContractError):
            softmax_rows(np.zeros((1, 0), dtype=np.float32))


class TestSoftmaxRowsOut:
    """`out=` picks the destination buffer; the values never depend on it."""

    CASES = [None, 0, 3, 9, 20]  # plain, then causal offsets down to no masking

    @staticmethod
    def scores(rows=12, cols=21, seed=13):
        rng = np.random.default_rng(seed)
        return (rng.standard_normal((rows, cols)) * 4).astype(np.float32)

    @pytest.mark.parametrize("causal_from", CASES)
    def test_matches_reference_byte_for_byte(self, causal_from):
        scores = self.scores()
        want = reference_softmax_rows(scores, causal_from)
        assert softmax_rows(scores, causal_from).tobytes() == want.tobytes()

    @pytest.mark.parametrize("causal_from", CASES)
    def test_input_untouched_without_out(self, causal_from):
        scores = self.scores()
        before = scores.copy()
        result = softmax_rows(scores, causal_from)
        assert result is not scores
        assert scores.tobytes() == before.tobytes()

    @pytest.mark.parametrize("causal_from", CASES)
    def test_in_place_equals_out_of_place(self, causal_from):
        scores = self.scores()
        want = softmax_rows(scores, causal_from)
        result = softmax_rows(scores, causal_from, out=scores)
        assert result is scores
        assert scores.tobytes() == want.tobytes()

    @pytest.mark.parametrize("causal_from", CASES)
    def test_separate_out_buffer(self, causal_from):
        scores = self.scores()
        before = scores.copy()
        buf = np.full_like(scores, np.nan)
        result = softmax_rows(scores, causal_from, out=buf)
        assert result is buf
        assert buf.tobytes() == softmax_rows(scores, causal_from).tobytes()
        assert scores.tobytes() == before.tobytes()

    def test_masked_entries_are_positive_zero(self):
        scores = self.scores(rows=6, cols=9)
        out = softmax_rows(scores, causal_from=1, out=scores)
        masked = np.arange(9)[None, :] > 1 + np.arange(6)[:, None]
        assert masked.any()
        assert np.all(out[masked] == 0.0) and not np.any(np.signbit(out[masked]))
        assert np.all(out[~masked] > 0.0)

    @pytest.mark.parametrize("causal_from", CASES)
    def test_stack_slices_equal_matrix_calls(self, causal_from):
        seeds = (13, 14, 15)
        stack = np.stack([self.scores(seed=seed) for seed in seeds])
        out = softmax_rows(stack, causal_from, out=stack)
        assert out is stack and out.shape == (3, 12, 21)
        for seed, got in zip(seeds, out):
            assert got.tobytes() == softmax_rows(self.scores(seed=seed), causal_from).tobytes()
        if causal_from is not None:
            masked = np.arange(21)[None, :] > causal_from + np.arange(12)[:, None]
            assert np.all(out[:, masked] == 0.0) and not np.any(np.signbit(out[:, masked]))

    @pytest.mark.parametrize(
        "scores, causal_from, error",
        [
            (np.ones((3, 4), dtype=np.float32), -1, ContractError),
            (np.ones((3, 0), dtype=np.float32), None, ContractError),
            (np.ones(4, dtype=np.float32), None, ShapeError),
            (np.ones((1, 2, 3, 4), dtype=np.float32), None, ShapeError),
        ],
    )
    def test_errors_raised_before_out_is_written(self, scores, causal_from, error):
        buf = np.full(scores.shape, 7.0, dtype=np.float32)
        with pytest.raises(error):
            softmax_rows(scores, causal_from, out=buf)
        assert np.all(buf == 7.0)
        with pytest.raises(error):
            softmax_rows(scores, causal_from, out=scores)
        assert np.all(scores == 1.0)

    @pytest.mark.parametrize(
        "buf", [np.zeros((3, 5), dtype=np.float32), np.zeros((3, 4), dtype=np.float64)]
    )
    def test_mismatched_out_rejected_untouched(self, buf):
        with pytest.raises(ShapeError):
            softmax_rows(np.ones((3, 4), dtype=np.float32), out=buf)
        assert not buf.any()


class TestRmsNorm:
    def test_unit_rms_is_identity(self):
        x = np.ones(4, dtype=np.float32)
        np.testing.assert_allclose(rms_norm(x, np.ones(4), eps=0.0), x, atol=1e-7)

    def test_zero_input_stays_zero(self):
        x = np.zeros(5, dtype=np.float32)
        np.testing.assert_array_equal(rms_norm(x, np.ones(5), eps=1e-5), x)

    def test_matches_direct_formula(self):
        x = np.array([3.0, 4.0], dtype=np.float32)
        want = np.array([3.0, 4.0]) / math.sqrt(12.5)
        np.testing.assert_allclose(rms_norm(x, np.ones(2), eps=0.0), want, atol=1e-6)

    def test_gain_scale_covariance_is_exact(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(16).astype(np.float32)
        gain = rng.standard_normal(16).astype(np.float32)
        np.testing.assert_array_equal(
            rms_norm(x, 2.0 * gain), 2.0 * rms_norm(x, gain)
        )

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            rms_norm(np.zeros(4, dtype=np.float32), np.zeros(3, dtype=np.float32))

    def test_rowwise_on_matrix(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((3, 8)).astype(np.float32)
        gain = rng.standard_normal(8).astype(np.float32)
        out = rms_norm(x, gain)
        for i in range(3):
            np.testing.assert_array_equal(out[i], rms_norm(x[i], gain))


def _rope(x, start):
    """`apply_rope_heads` by a table that ends at the block's last position."""
    return apply_rope_heads(x, start, rope_table(start + x.shape[-3], x.shape[-1]))


class TestApplyRope:
    """apply_rope_heads on (T, 1, d) blocks: one head, rows at successive positions."""

    def test_position_zero_is_identity(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 1, 8)).astype(np.float32)
        np.testing.assert_allclose(_rope(x, 0)[0, 0], x[0, 0], atol=1e-7)

    def test_pairwise_norm_preserved(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((6, 1, 10)).astype(np.float32)
        out = _rope(x, 17)
        for p in range(5):
            before = np.hypot(x[:, 0, 2 * p], x[:, 0, 2 * p + 1])
            after = np.hypot(out[:, 0, 2 * p], out[:, 0, 2 * p + 1])
            np.testing.assert_allclose(after, before, atol=1e-6)

    def test_unit_vector_at_position_one(self):
        x = np.array([[[1.0, 0.0]]], dtype=np.float32)
        out = _rope(x, 1)
        np.testing.assert_allclose(out[0, 0], [math.cos(1.0), math.sin(1.0)], atol=1e-6)

    def test_odd_head_dim_rejected(self):
        with pytest.raises(ConfigError):
            rope_table(2, 3)

    def test_rows_advance_positions(self):
        # Two stacked rows must equal two single-row calls at successive positions.
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 1, 6)).astype(np.float32)
        both = _rope(x, 5)
        np.testing.assert_array_equal(both[0], _rope(x[:1], 5)[0])
        np.testing.assert_array_equal(both[1], _rope(x[1:], 6)[0])


class TestRmsNormOracle:
    """The `np.add.reduce` form, and the float32-scalar form of one row,
    against `np.mean`'s, byte for byte, on rows from 1e-20 to 1e15 with -0.0
    and subnormal entries."""

    @staticmethod
    def rows(dim, seed):
        rng = np.random.default_rng(seed)
        scales = np.array([1e-20, 1e-3, 1.0, 7.5, 1e6, 1e15])[:, None]
        x = (rng.standard_normal((6, dim)) * scales).astype(np.float32)
        x[0, 0] = -0.0
        x[2, -1] = np.float32(1e-41)  # subnormal
        tiny = np.full((1, dim), -1e-44, dtype=np.float32)  # all subnormal
        return np.vstack([x, tiny, np.zeros((1, dim), dtype=np.float32)])

    @pytest.mark.parametrize("gain_dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dim", [1, 3, 5, 7, 100, 512])
    def test_byte_equal_to_mean_form(self, dim, gain_dtype):
        x = self.rows(dim, seed=dim)
        gain = np.random.default_rng(dim + 1).standard_normal(dim).astype(gain_dtype)
        gain[0] = -0.0
        for rows in (x, x[3], x[6]):  # a matrix and single vectors
            got = rms_norm(rows, gain)
            assert got.dtype == np.float32
            assert got.tobytes() == reference_rms_norm(rows, gain).tobytes()
        assert np.signbit(rms_norm(x, gain)[:, 0]).any()  # -0.0 kept

    @pytest.mark.parametrize("eps", [1e-5, 0.1])
    @pytest.mark.parametrize("dim", [1, 3, 5, 7, 100, 512])
    def test_single_rows_byte_equal_to_mean_form(self, dim, eps):
        rng = np.random.default_rng(dim)
        magnitudes = 10.0 ** rng.uniform(-20, 15, size=(300, 1))
        x = (rng.standard_normal((300, dim)) * magnitudes).astype(np.float32)
        gain = rng.standard_normal(dim).astype(np.float32)
        got = np.concatenate([rms_norm(row[None, :], gain, eps) for row in x])
        assert got.tobytes() == reference_rms_norm(x, gain, eps).tobytes()

    def test_zero_row_without_eps_matches_mean_form(self):
        x = np.zeros((1, 4), dtype=np.float32)
        with np.errstate(divide="ignore", invalid="ignore"):
            got, want = rms_norm(x, np.ones(4), eps=0.0), reference_rms_norm(x, np.ones(4), 0.0)
        assert np.isnan(got).all() and got.tobytes() == want.tobytes()


class TestRopeTable:
    """Rotation by a cache's table against the per-call float64 formula,
    byte for byte, at every position a 2112-position cache holds."""

    POSITIONS = 2112

    @pytest.mark.parametrize("head_dim", [2, 8, 16, 64])
    def test_every_position_byte_equal_to_reference(self, head_dim):
        rng = np.random.default_rng(head_dim)
        x = (rng.standard_normal((self.POSITIONS, 3, head_dim)) * 3).astype(np.float32)
        x[5, 1, 0] = -0.0
        table = rope_table(self.POSITIONS, head_dim)
        assert table.dtype == np.float32 and table.shape == (2, self.POSITIONS, 1, head_dim)
        rows = [apply_rope_heads(x[p : p + 1], p, table) for p in range(self.POSITIONS)]
        want = [reference_apply_rope_heads(x[p : p + 1], p) for p in range(self.POSITIONS)]
        assert np.concatenate(rows).tobytes() == np.concatenate(want).tobytes()
        for start in range(0, self.POSITIONS, 300):
            block = x[start : start + 300]
            got = apply_rope_heads(block, start, table)
            assert got.tobytes() == reference_apply_rope_heads(block, start).tobytes(), start

    def test_longer_table_and_leading_axes(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 5, 4, 8)).astype(np.float32)
        table = rope_table(30, 8)
        both = apply_rope_heads(x, 20, table)
        for i in range(2):
            assert both[i].tobytes() == _rope(x[i], 20).tobytes()
            assert both[i].tobytes() == reference_apply_rope_heads(x[i], 20).tobytes()

    def test_table_holds_cos_and_signed_sin_per_pair(self):
        table = rope_table(3, 4).astype(np.float64)[:, :, 0]
        angles = np.arange(3)[:, None] * 10000.0 ** (-np.arange(2) * 2.0 / 4)
        np.testing.assert_allclose(table[0, :, 0::2], np.cos(angles), atol=1e-7)
        np.testing.assert_array_equal(table[0, :, 0::2], table[0, :, 1::2])
        np.testing.assert_allclose(table[1, :, 1::2], np.sin(angles), atol=1e-7)
        np.testing.assert_array_equal(table[1, :, 0::2], -table[1, :, 1::2])
