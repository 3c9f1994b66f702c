"""Dense linear-algebra substrate: input and row checks, aligned storage,
column normalization and the per-row products of the batch solvers.

All arrays are 64-bit floats in C (row-major) order. Everything here is a
pure function; inputs are never mutated.
"""

import numpy as np

from .errors import DimensionMismatch, NonFinite, ZeroColumn

# Norm below which a column counts as zero and cannot be normalized.
ZERO_COLUMN_TOL = 1e-12

# Byte boundary the model matrices start on.  BLAS matrix-vector products
# on a matrix that starts 16 or 48 bytes past a 64-byte boundary ran about
# a fifth slower than at 0 or 32 (OpenBLAS, AVX-512, 256 x 300), with
# identical results, so the speed of a solve depended on where an
# allocation happened to land.  malloc places large arrays 16 bytes past
# a page boundary.
ALIGNMENT = 64


def as_float_array(a, name: str = "array") -> np.ndarray:
    """Coerce to a C-contiguous float64 ndarray, rejecting NaN/Inf."""
    out = np.ascontiguousarray(a, dtype=np.float64)
    if not np.isfinite(out).all():
        raise NonFinite(f"{name} contains NaN or Inf")
    return out


def _rows(a, n, k: int, name: str) -> np.ndarray:
    """The one row check of the solvers, the energy and the gradient: a
    holds n rows of length k, one per patch; any n if None."""
    a = as_float_array(a, name)
    if a.ndim != 2 or a.shape[1] != k or (n is not None and a.shape[0] != n):
        raise DimensionMismatch(
            f"{name} must be ({'n' if n is None else n}, {k}), got {a.shape}")
    return a


def aligned_zeros(shape) -> np.ndarray:
    """A C-ordered float64 array of zeros starting on an ALIGNMENT boundary."""
    size = int(np.prod(shape))
    buf = np.zeros(size + ALIGNMENT // 8)
    start = (-buf.ctypes.data % ALIGNMENT) // 8
    return buf[start:start + size].reshape(shape)


def as_aligned_array(a, name: str = "array") -> np.ndarray:
    """as_float_array, copied to an ALIGNMENT boundary unless it starts on one."""
    a = as_float_array(a, name)
    if a.ctypes.data % ALIGNMENT == 0:
        return a
    out = aligned_zeros(a.shape)
    out[...] = a
    return out


def column_normalize(m: np.ndarray) -> np.ndarray:
    """Rescale every column of ``m`` to unit Euclidean norm.

    Raises ZeroColumn if any column norm falls below ``ZERO_COLUMN_TOL``.
    """
    m = np.asarray(m, dtype=np.float64)
    norms = np.linalg.norm(m, axis=0)
    if np.any(norms < ZERO_COLUMN_TOL):
        bad = int(np.argmin(norms))
        raise ZeroColumn(f"column {bad} has norm {norms[bad]:.3e}")
    return m / norms


def _times_rows(m: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """m @ row for every row, as one stacked matmul.

    NumPy runs a stack of matrix-vector products as one BLAS gemv per row,
    so every row rounds exactly like m @ row on its own, whatever the
    layout of m.  A matrix-matrix product, rows @ m.T, rounds differently.
    """
    return np.matmul(m, rows[..., None])[..., 0]


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_i @ b_i for every row i, as one stacked matmul: a BLAS dot per row."""
    return np.matmul(a[..., None, :], b[..., None])[..., 0, 0]
