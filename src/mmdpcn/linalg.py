"""Dense linear-algebra substrate: input coercion and column normalization.

All arrays are 64-bit floats in C (row-major) order. Everything here is a
pure function; inputs are never mutated.
"""

import numpy as np

from .errors import NonFinite, ZeroColumn

# Norm below which a column counts as zero and cannot be normalized.
ZERO_COLUMN_TOL = 1e-12


def as_float_array(a, name: str = "array") -> np.ndarray:
    """Coerce to a C-contiguous float64 ndarray, rejecting NaN/Inf."""
    out = np.ascontiguousarray(a, dtype=np.float64)
    if not np.all(np.isfinite(out)):
        raise NonFinite(f"{name} contains NaN or Inf")
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
