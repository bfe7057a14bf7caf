"""Dense numeric kernels: matrix multiply, row softmax, RMS norm, rotary embedding.

Everything here operates on float32 numpy arrays. A "matrix" is a 2-D,
row-major (C-contiguous) float32 ndarray; vectors are 1-D float32 ndarrays.
All kernels are pure functions and safe to call concurrently, except that
`softmax_rows(..., out=buf)` writes its result into the caller's `buf`
(numpy's `out=` idiom; `out=m` normalizes in place and saves the copy).

Row softmax and the score paths are deliberately row-independent so that
computing a subset of rows yields bit-identical values to computing the
full set; the attention module relies on this for its exact-equivalence
guarantees between the pruned and unpruned paths.

Rotary positions read a table built once per KV cache (`rope_table`, in
the manner of LLaMA's `precompute_freqs_cis`): for every position it holds
cos(angle) repeated over each dimension pair and sin(angle) signed -/+ per
pair, each computed in float64 and rounded to float32, so a rotation is
`x * cos + swap_pairs(x) * sin`. That is byte-equal to rotating with
`even * cos - odd * sin` and `even * sin + odd * cos` from freshly computed
angles: IEEE 754 defines a - b as a + (-b), a product's rounding is
symmetric in sign, so fl(odd * -sin) = -fl(odd * sin), and addition
commutes.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, ContractError, ShapeError

DTYPE = np.float32
ROPE_BASE = 10000.0
MASK_BAND = 64  # rows per band of softmax_rows's causal mask

# A Matrix is a 2-D float32 ndarray; the alias exists for signature clarity.
Matrix = np.ndarray


def matmul(a: Matrix, b: Matrix, out: Matrix | None = None) -> Matrix:
    """Multiply an (m, k) float32 matrix by a (k, n) one, into the
    C-contiguous float32 (m, n) matrix `out` if one is given.

    The operands are not converted or checked before the multiply, which a
    decode step makes seven times per layer: numpy's shape error becomes a
    ShapeError naming both shapes.
    """
    try:
        return a @ b if out is None else np.matmul(a, b, out=out)
    except ValueError:
        raise ShapeError(f"cannot multiply {np.shape(a)} by {np.shape(b)}") from None


def softmax_rows(
    m: np.ndarray, causal_from: int | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """Row-wise softmax with optional causal masking.

    `m` is a (rows, cols) matrix or a (batch, rows, cols) stack of them.
    Rows are normalized independently after subtracting the row max, so each
    unmasked row sums to 1 and every entry lies in [0, 1].

    When `causal_from` is given, row i of each matrix is treated as the score
    row of the query at absolute position `causal_from + i`, and any column j
    (a key position) with j > causal_from + i is masked to exactly 0.

    `out` names the float32 buffer, shaped like `m`, that receives the result;
    `out=m` normalizes a float32 `m` in place. By default a new array is
    returned and `m` is left untouched. The input is validated before `out`
    is written.
    """
    scores = m if out is m else np.asarray(m, dtype=DTYPE)
    if scores.ndim not in (2, 3):
        raise ShapeError(f"softmax_rows expects a 2-D or 3-D array, got shape {scores.shape}")
    n_rows, n_cols = scores.shape[-2:]
    if n_cols == 0:
        raise ContractError("softmax over an empty row")
    if causal_from is not None and causal_from < 0:
        raise ContractError(
            f"causal softmax row 0 at position {causal_from} has no unmasked entries"
        )
    if out is None:
        out = scores.copy()
    elif out.shape != scores.shape or out.dtype != DTYPE:
        raise ShapeError(
            f"softmax_rows out buffer {out.dtype}{out.shape} does not match "
            f"scores {DTYPE.__name__}{scores.shape}"
        )
    elif out is not scores:
        np.copyto(out, scores)

    # Masking is needed only when some key position lies beyond a row's query.
    # Row i masks the columns past causal_from + i. A band of rows masks the
    # columns past its last query by slice, and its diagonal block, whose
    # first column is its first query, by one upper-triangle mask.
    if causal_from is not None and n_cols - 1 > causal_from:
        band = np.arange(MASK_BAND)
        above = band[:, None] < band  # strictly above the diagonal
        for lo in range(0, n_rows, MASK_BAND):
            first = causal_from + lo  # the band's first query position
            if first >= n_cols - 1:  # no later row masks anything
                break
            hi = min(lo + MASK_BAND, n_rows)
            out[..., lo:hi, causal_from + hi :] = -np.inf
            width = min(hi - lo, n_cols - first)
            np.copyto(out[..., lo:hi, first : first + width], -np.inf,
                      where=above[: hi - lo, :width])
    # exp(-inf) is exactly +0.0, so masked entries come out as 0 with no fix-up.
    out -= np.maximum.reduce(out, -1, keepdims=True)
    np.exp(out, out=out)
    out /= np.add.reduce(out, -1, keepdims=True)
    return out


def rms_norm(x: np.ndarray, gain: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """RMS-normalize over the last axis: x * gain / sqrt(mean(x^2) + eps).

    Accepts a single float32 vector or a (rows, dim) float32 matrix
    normalized row-wise; the gain is converted to float32. A single row's
    scale 1 / sqrt(mean + eps) comes from float32 scalars rather than four
    array calls on one element, with the same bits.
    """
    gain = np.asarray(gain, dtype=DTYPE)
    dim = x.shape[-1]
    if gain.ndim != 1 or dim != gain.shape[0]:
        raise ShapeError(f"rms_norm input {x.shape} does not match gain {gain.shape}")
    squares = np.square(x)
    inv = np.add.reduce(squares, -1, keepdims=True)
    if inv.size == 1:  # one row, as in every decode step
        # float32 scalar division and addition round as the array calls do;
        # sqrt runs in float64 and is rounded to float32 once more, which is
        # exact, since 53 >= 2 * 24 + 2 digits makes double rounding innocuous
        inv = 1.0 / DTYPE(math.sqrt(inv.reshape(-1)[0] / dim + eps))
    else:
        inv /= dim  # the float32 sum over an int: np.mean's bits, without its wrapper
        inv += eps
        np.sqrt(inv, out=inv)
        np.divide(1.0, inv, out=inv)
    out = np.multiply(x, inv, out=squares)
    out *= gain
    return out


def rope_table(positions: int, head_dim: int) -> np.ndarray:
    """The float32 (2, positions, 1, head_dim) rotary table: [0, p, 0]
    holds cos(a) and [1, p, 0] holds (-sin(a), sin(a)) for each dimension
    pair's angle a = p * ROPE_BASE**(-2i / head_dim), computed in float64;
    the singleton axis broadcasts over heads."""
    if head_dim % 2 != 0:
        raise ConfigError(f"rotary embedding needs an even head dimension, got {head_dim}")
    half = head_dim // 2
    inv_freq = ROPE_BASE ** (-np.arange(half, dtype=np.float64) * 2.0 / head_dim)
    angles = np.arange(positions, dtype=np.float64)[:, None] * inv_freq[None, :]
    sin = np.sin(angles).astype(DTYPE)
    table = np.empty((2, positions, half, 2), dtype=DTYPE)
    table[0] = np.cos(angles).astype(DTYPE)[..., None]
    np.negative(sin, out=table[1, ..., 0])
    table[1, ..., 1] = sin
    return table.reshape(2, positions, 1, head_dim)


def apply_rope_heads(x: np.ndarray, start_position: int, table: np.ndarray):
    """Rotate consecutive dimension pairs of a (..., T, heads, head_dim) block.

    Row i sits at absolute position start_position + i; pair p of every head
    rotates by angle position * ROPE_BASE**(-2p / head_dim). Applied to
    queries and keys before caching, so cached keys never need re-rotation.
    `table` is a `rope_table` covering those positions (a KV cache's).
    """
    shape = x.shape
    if len(shape) < 3:
        raise ShapeError(f"expected a (..., T, heads, head_dim) block, got shape {shape}")
    end = start_position + shape[-3]
    cos = table[0, start_position:end]
    sin = table[1, start_position:end]
    swapped = np.empty(shape, DTYPE)  # each pair's entries swapped: 1, 0, 3, 2, ...
    swapped[..., 0::2] = x[..., 1::2]
    swapped[..., 1::2] = x[..., 0::2]
    return x * cos + swapped * sin
