"""Surrogate machinery for the sparse-coding iterations.

Two pieces make the updates closed-form: a smoothed absolute value whose
gradient is a clipped linear map, and a quadratic upper bound on the l1
penalty that touches it at the current iterate.  Minimizing the bound turns
each update into a diagonally reweighted least-squares solve,
(C^T C + diag(1/r)) x = rhs.  Components with r_k = 0 stay exactly zero, so
the system is solved directly on the live support S = {k : r_k > 0}: a
scaled |S| x |S| system built from the Gram matrix C^T C.
"""

import numpy as np


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

