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
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ContractError, ShapeError

DTYPE = np.float32
ROPE_BASE = 10000.0

# A Matrix is a 2-D float32 ndarray; the alias exists for signature clarity.
Matrix = np.ndarray


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Multiply an (m, k) matrix by a (k, n) matrix.

    Raises ShapeError naming both shapes when the inner dimensions differ.
    """
    a = np.asarray(a, dtype=DTYPE)
    b = np.asarray(b, dtype=DTYPE)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"cannot multiply {a.shape} by {b.shape}")
    return a @ b


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
    scores = np.asarray(m, dtype=DTYPE)
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
    if causal_from is not None and n_cols - 1 > causal_from:
        query_pos = causal_from + np.arange(n_rows)
        np.copyto(out, -np.inf, where=np.arange(n_cols)[None, :] > query_pos[:, None])
    # exp(-inf) is exactly +0.0, so masked entries come out as 0 with no fix-up.
    out -= out.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def rms_norm(x: np.ndarray, gain: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """RMS-normalize over the last axis: x * gain / sqrt(mean(x^2) + eps).

    Accepts a single vector or a (rows, dim) matrix normalized row-wise.
    """
    x = np.asarray(x, dtype=DTYPE)
    gain = np.asarray(gain, dtype=DTYPE)
    if gain.ndim != 1 or x.shape[-1] != gain.shape[0]:
        raise ShapeError(f"rms_norm input {x.shape} does not match gain {gain.shape}")
    mean_sq = np.mean(np.square(x), axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(mean_sq + DTYPE(eps))
    return (x * inv).astype(DTYPE) * gain


def apply_rope_heads(x: np.ndarray, start_position: int) -> np.ndarray:
    """Rotate consecutive dimension pairs of a (T, heads, head_dim) block.

    Row i sits at absolute position start_position + i; pair p of every head
    rotates by angle position * ROPE_BASE**(-2p / head_dim). Applied to
    queries and keys before caching, so cached keys never need re-rotation.
    """
    x = np.asarray(x, dtype=DTYPE)
    if x.ndim != 3:
        raise ShapeError(f"expected a (T, heads, head_dim) block, got shape {x.shape}")
    dim = x.shape[2]
    if dim % 2 != 0:
        raise ConfigError(f"rotary embedding needs an even head dimension, got {dim}")
    half = dim // 2
    inv_freq = ROPE_BASE ** (-np.arange(half, dtype=np.float64) * 2.0 / dim)
    positions = start_position + np.arange(x.shape[0], dtype=np.float64)
    angles = positions[:, None] * inv_freq[None, :]
    cos = np.cos(angles).astype(DTYPE)[:, None, :]
    sin = np.sin(angles).astype(DTYPE)[:, None, :]
    even = x[:, :, 0::2]
    odd = x[:, :, 1::2]
    out = np.empty_like(x)
    out[:, :, 0::2] = even * cos - odd * sin
    out[:, :, 1::2] = even * sin + odd * cos
    return out
