"""Sparse state inference by reweighted least squares.

Each iteration rebuilds the quadratic bounds on the two l1 penalties, of
the state and, on later frames, of its innovation x - A x_prev, at the
current iterate and lowers their sum on the live support, using the layer's
cached Gram matrix: exactly, by one LU solve, on a support of at most
_CG_MIN_SUPPORT components, and by a few conjugate-gradient steps from the
current iterate on a larger one, which cost a fraction of the LU.  Either
update lowers the bound, which equals the objective at the current iterate
and lies above it elsewhere, so the objective cannot rise (majorize.py).  A
layer with k <= _CG_MIN_SUPPORT never takes CG steps.  The state penalty
weighs every component by its own mu_k: the weight total_energy charges
it under the frame's cause (model.state_weights), or, in infer_state,
state_sparsity.  Components that reach exact zero stay zero, which is
what produces genuinely sparse codes without a shrinkage step, and which
keeps every solve no larger than the support.

A frame's states are one (patch, state) float array: the patches come in
as rows, previous states and warm starts are arrays of the same shape, and
the result is one such array.  The elementwise work and the per-row sums
act on the whole array.  The matrix-vector products and the residual dot
products are stacked matmuls, which NumPy runs as one BLAS gemv or dot per
row; a matrix-matrix product would round differently.  The LU solves stay
one LAPACK solve per row, on that row's own support, and the CG steps are
stacked gemvs and dots that mix no rows.  Every patch therefore gets
exactly the iterates, objective values and stopping decision of a solve on
its own.  So network inference can stack the rows of several independent
frames into one call without changing a bit.  infer_state is a batch of
one weighted by state_sparsity.

_run_rows is the row loop of every batch solver, this one and the
reference solvers in baselines.py: it keeps one trace per row, applies the
stop test and drops each converged row from the batch, so each solver
supplies only its update step.  The cause solver is one vector, not a
batch of rows, and keeps its own loop (causes.py).
"""

import time
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .errors import NonFinite
from .linalg import _dots, _rows, _times_rows
from .majorize import _descend_on_support, _solve_on_support
from .model import HyperParams, LayerModel

# Rows whose live support exceeds this many components take CG steps
# (majorize._descend_on_support) instead of the LU support solve.  CPU
# seconds of the MM solves on the solver-bench problems of seeds 0, 4 and
# 41 (p = 256, k = 300; 1 BLAS thread, 2-core x86-64 host, best of 4): LU
# only 1.98; this threshold at 150, 100, 60 and 30: 1.15, 1.19, 1.28 and
# 2.35.  An LU solve costs about |S|^3 and a CG step k^2, so CG pays only
# on large supports.
_CG_MIN_SUPPORT = 100


@dataclass
class SolveTrace:
    """Record of one solve, shared by the state, cause and reference solvers.

    objective_per_iter starts with the objective at the initial point, then
    holds one value per update, so it has iterations + 1 entries.
    converged says whether the stopping test passed within the iteration
    budget.  final_residual is the stationarity residual the solver tested
    against its tolerance after the last update: nan when the solver ran
    without a stop test, as Adam always does and ISTA and FISTA do at
    tol = 0.  wall_time is the solve's elapsed seconds; a batch of n
    patches is timed as a whole and each of its traces holds an equal 1/n
    share.
    """

    objective_per_iter: list = field(default_factory=list)
    wall_time: float = 0.0
    iterations: int = 0
    converged: bool = False
    final_residual: float = float("nan")


def _finite(name: str, x: np.ndarray) -> None:
    """The NaN/Inf guard of every solver iterate, causes' included."""
    if not np.isfinite(x).all():
        raise NonFinite(f"{name} iterate diverged to NaN/Inf")


def _run_rows(step, rows: tuple, f: np.ndarray, max_iter: int, tol: float,
              start: float) -> tuple[np.ndarray, list]:
    """The loop of the batch solvers: one trace per row, stop test, row exit.

    rows holds the per-row arrays (None for an unused slot), the first the
    starting iterates; f holds their objectives.  step(it, rows) makes the
    it-th update of the live rows and returns their new arrays, objectives
    and stop residuals (None without a stop test).  A row whose residual is
    at most tol is copied out as converged and leaves every array.  start
    is the perf_counter at entry; each trace gets an equal share of the
    time since.  Returns the final iterates and one trace per row.
    """
    out = np.empty_like(rows[0])
    index = np.arange(out.shape[0])
    traces = [SolveTrace(objective_per_iter=[f_i]) for f_i in f.tolist()]
    live = traces
    for it in range(1, max_iter + 1):
        rows, f, resid = step(it, rows)
        residuals = repeat(float("nan")) if resid is None else resid.tolist()
        for tr, f_i, r_i in zip(live, f.tolist(), residuals):
            tr.objective_per_iter.append(f_i)
            tr.iterations = it
            tr.final_residual = r_i
        if resid is not None and (done := resid <= tol).any():
            for tr, d in zip(live, done.tolist()):
                tr.converged = d
            live = [tr for tr in live if not tr.converged]
            out[index[done]] = rows[0][done]
            keep = ~done
            index = index[keep]
            rows = tuple(None if a is None else a[keep] for a in rows)
            if not live:
                break

    out[index] = rows[0]
    share = (time.perf_counter() - start) / max(len(traces), 1)
    for tr in traces:
        tr.wall_time = share
    return out, traces


def _objectives(residual, mag, innovation, mu, lam):
    """Each row's exact state energy, given |x| as mag and per-component
    sparsity weights mu of its shape; innovation is read only if lam > 0."""
    val = 0.5 * _dots(residual, residual) + (mu * mag).sum(axis=1)
    if lam > 0:
        val += lam * np.abs(innovation).sum(axis=1)
    return val


def _evaluate(x, y, mu, prediction, c, lam):
    """|x|, the residual, the innovation (None if lam is 0) and the row
    objectives at x."""
    mag = np.abs(x)
    residual = y - _times_rows(c, x)
    e = x - prediction if lam > 0 else None
    return mag, residual, e, _objectives(residual, mag, e, mu, lam)


def _update(gram, r, rhs, x):
    """The MM support update: LU on small supports, CG steps from x on large.

    A layer with k <= _CG_MIN_SUPPORT never counts supports.
    """
    if gram.shape[0] > _CG_MIN_SUPPORT:
        large = np.count_nonzero(r, axis=1) > _CG_MIN_SUPPORT
        if large.any():
            out = np.empty_like(rhs)
            out[large] = _descend_on_support(gram, r[large], rhs[large],
                                             x[large])
            out[~large] = _solve_on_support(gram, r[~large], rhs[~large])
            return out
    return _solve_on_support(gram, r, rhs)


def infer_state(y, x_prev, model: LayerModel, hp: HyperParams,
                x_init=None) -> tuple[np.ndarray, SolveTrace]:
    """Infer one patch's sparse state given the previous frame's state.

    Iterates x <- (C^T C + diag(1/r))^-1 (C^T y + w*(A x_prev)), solved
    on the support of r, with r = |x|/(mu + w|x|) and w = lam/|e| rebuilt
    from the current iterate and its innovation e = x - A x_prev, where
    mu = hp.state_sparsity and lam = hp.temporal_sparsity (w = 0 without
    the temporal term).  These are the weights of the quadratic bound that
    touches each l1 term at the current iterate, so every step lowers the
    exact objective that state_energy charges, and that is the objective
    recorded.  Supports of at most _CG_MIN_SUPPORT components are solved
    exactly; larger ones take _CG_STEPS conjugate-gradient steps on the
    same system from the current iterate, which lower the bound without
    minimizing it, and so still lower the objective.  A component whose
    innovation is exactly zero is held at its prediction.

    Stops when the stationarity residual on the support,
    ||C^T(Cx - y) + mu*sign(x) + lam*sign(e)||_inf, falls below
    hp.inner_tol, or after hp.max_inner_iter updates (converged flag
    false).

    Returns the state as a 1-d array; entries under hp.clamp_state are
    exact zeros.  Pass x_prev=None to drop the temporal term (first
    frame).  x_init defaults to 0.1 everywhere; starting from exact zeros
    is a fixed point of the iteration and therefore useless.  This is
    infer_states_batch on one row, every weight hp.state_sparsity.
    """
    states, traces = infer_states_batch(
        [y], None if x_prev is None else [x_prev], model, hp,
        np.full((1, model.dims.state_dim), hp.state_sparsity),
        None if x_init is None else [x_init])
    return states[0], traces[0]


def infer_states_batch(patches, prev, model: LayerModel, hp: HyperParams,
                       weights, inits=None) -> tuple[np.ndarray, list]:
    """Infer states for a batch of patches in one solve.

    patches is an (n, p) array; weights is an (n, k) array, and prev and
    inits are None or (n, k) arrays.  weights holds each row's positive
    per-component sparsity mu_k, the mu of infer_state's update; network
    and learning pass model.state_weights of each frame's cause, the state
    weight that total_energy charges.  The rows may come from one frame or
    from several.  Returns the (n, k) states and one trace per patch.  Each
    row and trace equal those of a batch of that row alone, except
    wall_time, which is an equal share of the batch's elapsed time; with
    every weight hp.state_sparsity, those of infer_state on that patch.
    """
    start = time.perf_counter()
    p, k = model.dictionary.shape
    patches = _rows(patches, None, p, "patches")
    n = patches.shape[0]
    x_prev = None if prev is None else _rows(prev, n, k, "previous states")
    x = 0.1 * np.ones((n, k)) if inits is None else _rows(inits, n, k, "state inits")
    mu = _rows(weights, n, k, "state weights")
    if not (mu > 0).all():
        raise ValueError("state weights must be positive")
    if n == 0:
        return np.zeros((0, k)), []
    c = model.dictionary
    prediction, lam = None, 0.0
    if x_prev is not None and hp.temporal_sparsity > 0:
        prediction = _times_rows(model.transition, x_prev)
        lam = hp.temporal_sparsity

    # One MM update of the live rows.
    def step(it, rows):
        x, mag, innovation, y, cty, mu, prediction = rows
        if lam > 0:
            # |e_k| <= e_k^2/(2|e0_k|) + |e0_k|/2 at the current innovation
            # e0, the bound behind mu/|x_k| too: weights mu/|x_k| + w_k,
            # w = lam/|e0|, inverted entrywise, and the pull w*(A x_prev).
            # Where e0_k is exactly zero the curvature is infinite: x_k is
            # held at its prediction, out of the solve, which sees it in rhs.
            held = innovation == 0.0
            w = lam / np.where(held, 1.0, np.abs(innovation))
            r = np.where(held, 0.0, mag / (mu + w * mag))
            rhs = cty + w * prediction
            if held.any():
                rhs -= _times_rows(model.gram, np.where(held, x, 0.0))
            x = np.where(held, x, _update(model.gram, r, rhs, x))
        else:
            x = _update(model.gram, mag / mu, cty, x)
        _finite("state", x)

        mag, residual, innovation, f = _evaluate(x, y, mu, prediction, c, lam)
        nonzero = x != 0.0

        # Clamp small components to exact zero, but never at the cost of an
        # objective increase: a component mid-collapse is clamped one
        # iteration later when its removal is genuinely free.
        small = (mag < hp.clamp_state) & nonzero
        if small.any():
            # Rows without small components get back their own values.
            x_cl = np.where(small, 0.0, x)
            mag_cl, res_cl, e_cl, f_cl = _evaluate(x_cl, y, mu, prediction,
                                                   c, lam)
            take = f_cl <= f
            if take.any():
                row = take[:, None]
                x = np.where(row, x_cl, x)
                mag = np.where(row, mag_cl, mag)
                residual = np.where(row, res_cl, residual)
                f = np.where(take, f_cl, f)
                if lam > 0:
                    innovation = np.where(row, e_cl, innovation)
                nonzero = x != 0.0

        grad = -_times_rows(c.T, residual)
        if lam > 0:
            grad = grad + lam * np.sign(innovation)
        # Stationarity residual on the support.
        kkt = np.abs(grad + mu * np.sign(x)).max(axis=1, where=nonzero,
                                                 initial=0.0)
        return (x, mag, innovation, y, cty, mu, prediction), f, kkt

    mag, _, innovation, f = _evaluate(x, patches, mu, prediction, c, lam)
    out, traces = _run_rows(
        step, (x, mag, innovation, patches, _times_rows(c.T, patches), mu, prediction),
        f, hp.max_inner_iter, hp.inner_tol, start)
    # Terminal clamp: the returned state never carries sub-threshold values.
    out[np.abs(out) < hp.clamp_state] = 0.0
    return out, traces
