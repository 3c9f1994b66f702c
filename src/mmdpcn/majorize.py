"""Surrogate machinery for the sparse-coding iterations.

A quadratic upper bound on each l1 penalty, touching it at the current
iterate, makes the state updates closed-form: minimizing the bound is a
diagonally reweighted least-squares solve, (C^T C + diag(1/r)) x = rhs.
Components with r_k = 0 stay exactly zero, so the system lives on the live
support S = {k : r_k > 0}: a scaled |S| x |S| system built from the Gram
matrix C^T C.

Small supports are solved exactly (_solve_on_support), by solve1 from
numpy.linalg._umath_linalg, the LAPACK gesv gufunc that np.linalg.solve
calls for a 1-d right-hand side: the same bits, without the wrapper's
conversions, which cost about as much as the solve on systems this small.
The module is private to NumPy; a NumPy that changes it fails the
byte-identity tests.

Large supports take a few conjugate-gradient steps started at the current
iterate instead (_descend_on_support), a fraction of the LU's cost on a
near-full support.  An MM update need not minimize the bound, only lower
it (generalized MM; Hunter & Lange, Am. Stat. 2004): the bound equals the
objective at the current iterate and lies above it elsewhere, so any
point where the bound is lower has a lower objective.  Every CG step
minimizes the bound along its direction, so from the current iterate it
can only go down, and the objective still cannot rise.  The state solver
picks between the two by support size (states._CG_MIN_SUPPORT).
"""

import numpy as np
from numpy.linalg._umath_linalg import solve1

from .linalg import _dots, _times_rows

# Conjugate-gradient steps per MM update in _descend_on_support.  On the
# solver-bench problems of seeds 0, 4 and 41 (p = 256, k = 300; 1 BLAS
# thread, 2-core x86-64 host, best of 4), the MM solves took 1.18, 1.19
# and 1.33 CPU seconds at 5, 10 and 20 steps.  At 5 steps MM needed about
# 27 iterations to come within 1% of its final objective instead of 13-14,
# and ended up to 3e-4 higher; at 10 it ends within 1e-5 of the LU solves.
_CG_STEPS = 10


def _solve_on_support(gram: np.ndarray, r: np.ndarray,
                      rhs: np.ndarray) -> np.ndarray:
    """Solve (C^T C + diag(1/r_i)) x_i = rhs_i for every row i of r and rhs.

    gram is C^T C; r and rhs are (n, k).  Each row is solved on its own
    support S = {j : r_ij > 0} and is exactly zero elsewhere.  With
    h = sqrt(r_S), x_S = h z where (I + diag(h) G_SS diag(h)) z = h rhs_S;
    the eigenvalues are at least 1 however small r gets.  h, h rhs and the
    final rescale by h are computed for all rows at once (h is zero off
    the support); the systems are separate solves because a zero-padded
    batched solve rounds differently from the solve on each row's own
    support.

    Per row: gather G_SS into a new C-ordered m, whole rows first, then
    columns; scale it in place as (g h_i) h_j, the order that fixes the
    rounding; add the identity through the view m.reshape(-1); call
    solve1.  A row whose system overflows comes back as NaN, which the
    caller's finiteness check turns into NonFinite.
    """
    h = np.sqrt(r)
    h_rhs = h * rhs
    x = np.zeros(rhs.shape)
    for x_i, h_i, b_i in zip(x, h, h_rhs):
        s = h_i.nonzero()[0]
        if s.size == 0:
            continue
        h_s = h_i[s]
        # Allocate m before the |S| x k block of rows, so the block is freed
        # at the top of the heap, where LAPACK's working copy of m then
        # fits: a fresh array from the gather raised solver_bench's peak
        # RSS by 0.6 MB (k=300).  mode="clip" lets take write straight
        # into m; every index is in range.
        m = np.empty((s.size, s.size))
        gram.take(s, 0).take(s, 1, out=m, mode="clip")
        m *= h_s[:, None]
        m *= h_s
        m.reshape(-1)[::s.size + 1] += 1.0
        x_i[s] = solve1(m, b_i[s])
        # Free this row's system before the next row gathers its own.
        del m
    x *= h
    return x


def _descend_on_support(gram: np.ndarray, r: np.ndarray, rhs: np.ndarray,
                        x: np.ndarray) -> np.ndarray:
    """Lower the support system's quadratic from x by _CG_STEPS CG steps.

    The same system as _solve_on_support, (I + H G H) z = h rhs with
    h = sqrt(r) and x = h z, but run as conjugate gradients started at the
    current iterate, z0 = x / h (zero off the support).  Every CG step
    minimizes 0.5 z^T A z - (h rhs)^T z along its direction, so the
    returned point lowers the quadratic bound from x however few steps
    run, which is all an MM update needs.  Each step is one stacked gemv
    with the full Gram matrix per row, h * (G @ (h v)), and per-row dots;
    h is zero off the support, so those components stay exactly zero, and
    no row's bits depend on the other rows.  A step whose denominator is
    zero, as when the start already solves the system, moves by zero.
    """
    h = np.sqrt(r)
    z = np.divide(x, h, out=np.zeros(x.shape), where=h > 0.0)
    res = h * rhs - z - h * _times_rows(gram, h * z)
    d = res.copy()
    rr = _dots(res, res)
    for _ in range(_CG_STEPS):
        ad = d + h * _times_rows(gram, h * d)
        dad = _dots(d, ad)
        a = np.divide(rr, dad, out=np.zeros(rr.shape), where=dad > 0.0)
        z += a[:, None] * d
        res -= a[:, None] * ad
        rr_next = _dots(res, res)
        beta = np.divide(rr_next, rr, out=np.zeros(rr.shape), where=rr > 0.0)
        d = res + beta[:, None] * d
        rr = rr_next
    return h * z
