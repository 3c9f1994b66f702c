"""Surrogate machinery for the sparse-coding iterations.

Two pieces make the updates closed-form: a smoothed absolute value whose
gradient is a clipped linear map, and a quadratic upper bound on the l1
penalty that touches it at the current iterate.  Minimizing the bound turns
each update into a diagonally reweighted least-squares solve,
(C^T C + diag(1/r)) x = rhs.  Components with r_k = 0 stay exactly zero, so
the system is solved directly on the live support S = {k : r_k > 0}: a
scaled |S| x |S| system built from the Gram matrix C^T C.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import as_float_array


def soft_clip(e: np.ndarray, margin: float) -> np.ndarray:
    """Gradient of the smoothed absolute value: e/margin clipped to [-1, 1]."""
    if margin <= 0:
        raise ValueError("margin must be positive")
    return np.clip(np.asarray(e, dtype=np.float64) / margin, -1.0, 1.0)


def smooth_l1(e: np.ndarray, margin: float) -> float:
    """Smoothed l1 norm: quadratic within the margin, linear outside.

    Equals a^T e - (margin/2)*||a||^2 with a = soft_clip(e, margin), which
    undershoots the true l1 norm by at most margin/2 per component.
    """
    a = soft_clip(e, margin)
    e = np.asarray(e, dtype=np.float64)
    return float(np.sum(a * e) - 0.5 * margin * np.sum(a * a))


@dataclass(frozen=True)
class SmoothApprox:
    """The smoothed-l1 linearization at one innovation vector."""

    alpha_star: np.ndarray
    margin: float
    innovation: np.ndarray

    @classmethod
    def at(cls, innovation: np.ndarray, margin: float) -> "SmoothApprox":
        innovation = as_float_array(innovation, "innovation")
        return cls(soft_clip(innovation, margin), margin, innovation)


def majorizer_value(x: np.ndarray, anchor: np.ndarray, weight: float) -> float:
    """Quadratic upper bound on weight*||x||_1, tight where |x| = |anchor|.

    Zero anchor components are exact-zero carriers: they contribute nothing
    when the matching x component is zero and +inf otherwise, mirroring the
    absorbing behavior of the reweighted iteration.
    """
    if weight <= 0:
        raise ValueError("weight must be positive")
    x = as_float_array(x, "x")
    anchor = as_float_array(anchor, "anchor")
    mag = np.abs(anchor)
    live = mag > 0
    if np.any(x[~live] != 0):
        return float("inf")
    quad = 0.5 * weight * float(np.sum(x[live] ** 2 / mag[live]))
    const = 0.5 * weight * float(np.sum(mag[live]))
    return quad + const


@dataclass(frozen=True)
class ReweightDiagonal:
    """Diagonal of the inverted majorizer weights: r_k = |v_k| / weight.

    Zero entries are absorbing: a component that reaches exact zero has
    r_k = 0 and every later iterate keeps it at zero.
    """

    r: np.ndarray
    weight: float


def reweight(v: np.ndarray, weight: float) -> ReweightDiagonal:
    if weight <= 0:
        raise ValueError("weight must be positive")
    v = as_float_array(v, "reweight iterate")
    return ReweightDiagonal(np.abs(v) / weight, weight)


def _solve_on_support(gram: np.ndarray, r: np.ndarray,
                      rhs: np.ndarray) -> np.ndarray:
    """Solve (C^T C + diag(1/r_i)) x_i = rhs_i for every row i of r and rhs.

    gram is C^T C; r and rhs are (n, k).  Each row is solved on its own
    support S = {j : r_ij > 0} and is exactly zero elsewhere.  With
    h = sqrt(r_S), x_S = h z where (I + diag(h) G_SS diag(h)) z = h rhs_S;
    the eigenvalues are at least 1 however small r gets.  The rows are
    separate solves because a zero-padded batched solve rounds differently
    from the solve on each row's own support.
    """
    x = np.zeros(rhs.shape)
    for x_i, r_i, rhs_i in zip(x, r, rhs):
        s = r_i.nonzero()[0]
        if s.size == 0:
            continue
        h = np.sqrt(r_i[s])
        m = gram[s[:, None], s]
        m *= h[:, None]
        m *= h
        m.flat[::s.size + 1] += 1.0
        x_i[s] = h * np.linalg.solve(m, h * rhs_i[s])
        # Free this row's system before the next row gathers its own.
        del m
    return x


def woodbury_apply(c: np.ndarray, r, rhs: np.ndarray) -> np.ndarray:
    """Solve the reweighted normal equations on the support of r.

    Equals (C^T C + W)^-1 rhs on the support of r (W the diagonal majorizer
    weights); components with r_k = 0 come back exactly zero.
    """
    c = as_float_array(c, "dictionary")
    if isinstance(r, ReweightDiagonal):
        r = r.r
    r = as_float_array(r, "reweight diagonal")
    rhs = as_float_array(rhs, "rhs")
    if c.shape[1] != rhs.shape[0] or c.shape[1] != r.shape[0]:
        raise ValueError("dictionary, diagonal, and rhs sizes are inconsistent")
    if np.any(r < 0):
        raise ValueError("reweight diagonal must be nonnegative")
    return _solve_on_support(c.T @ c, r[None, :], rhs[None, :])[0]
