"""Cause inference: per-frame sparse variables that gate state magnitudes.

One kernel minimizes the cause objective, optionally plus a quadratic pull
0.5*||u - preference||^2 toward what the layer above predicts.  Its update
is a diagonally scaled fixed-point step on the stationarity equation; the
step direction always points downhill, so a halving backtrack makes the
recorded objective provably nonincreasing even on badly scaled inputs
where the raw step overshoots.  infer_cause and infer_cause_topdown are
its two entry points.

Each iterate's objective and drive are computed once: the energy that the
backtrack accepted is the next backtrack's reference, and the drive that
the stationarity test evaluates is the next step's drive.  The loop
evaluates the objective through cause_energy's own formula on inputs
checked once at entry.

A cause is one vector, not a batch of rows, so it keeps this loop rather
than states._run_rows, the state and reference solvers' row loop; routed
through that loop each cause solve ran 9-38% slower (ROADMAP.md, Settled).
"""

import time

import numpy as np

from .errors import DimensionMismatch
from .linalg import as_float_array
from .model import (CauseVector, HyperParams, LayerModel, _cause_inputs,
                    _cause_objective, _cause_values, _gate, pooled_weight)
from .states import SolveTrace, _finite

# Halvings of the step before giving up; by then the candidate coincides
# with the current iterate to machine precision.
_MAX_BACKTRACK = 60


def _drive(coupling: np.ndarray, pooled: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Downhill pull of the exponential term: coupling^T (pooled * _gate(u))."""
    return coupling.T @ (pooled * _gate(coupling, u))


def _descend(u, e_cur, full_step, clamp, energy):
    """Step from u, of objective e_cur, toward full_step; never uphill."""
    delta = full_step - u
    s = 1.0
    for _ in range(_MAX_BACKTRACK):
        cand = u + s * delta
        cand[np.abs(cand) < clamp] = 0.0
        e_cand = energy(cand)
        if e_cand <= e_cur:
            return cand, e_cand
        s *= 0.5
    return u, e_cur


def _solve(pooled, preference, model: LayerModel, hp: HyperParams,
           u_init) -> tuple[CauseVector, SolveTrace]:
    """The cause iteration, with a pull toward preference unless it is None.

    With r = |u|/beta, each step moves toward r * drive(u), or with a
    preference toward (r/(1+r)) * (preference + drive(u)), the diagonal
    inverse of (I + W).  Zero components are absorbing, so the initial
    value must be nonzero (default CAUSE_INIT everywhere).  Stops when the
    stationarity residual on the support falls below hp.inner_tol, or at
    hp.max_inner_iter.
    """
    start = time.perf_counter()
    u, pv, preference = _cause_inputs(model, u_init, pooled, preference)
    u = u.copy()
    b = model.coupling
    beta = hp.cause_sparsity

    # Everything the objective reads was checked above and every iterate
    # has length d, so the loop skips cause_energy's checks.
    energy = lambda v: _cause_objective(v, pv, b, beta, preference)
    e_cur = energy(u)
    drive = _drive(b, pv, u)
    trace = SolveTrace(objective_per_iter=[e_cur])

    for it in range(1, hp.max_inner_iter + 1):
        r = np.abs(u) / beta
        if preference is None:
            full = r * drive
        else:
            full = (r / (1.0 + r)) * (preference + drive)
        _finite("cause", full)
        u, e_cur = _descend(u, e_cur, full, hp.clamp_cause, energy)
        trace.objective_per_iter.append(e_cur)
        trace.iterations = it

        support = u != 0.0
        if support.any():
            # The drive at the new iterate serves this stationarity test and
            # the next step (an empty support always ends the loop).
            drive = _drive(b, pv, u)
            # Subgradient of the penalty and the pull, minus the drive.
            pull = beta * np.sign(u[support])
            if preference is not None:
                pull = u[support] - preference[support] + pull
            kkt = float(np.abs(pull - drive[support]).max())
        else:
            kkt = 0.0
        trace.final_residual = kkt
        if kkt <= hp.inner_tol:
            trace.converged = True
            break

    trace.wall_time = time.perf_counter() - start
    return CauseVector(u), trace


def infer_cause(pooled, model: LayerModel, hp: HyperParams,
                u_init=None) -> tuple[CauseVector, SolveTrace]:
    """Infer the frame's cause from its pooled state magnitudes alone.

    pooled is the frame's pool_states vector.  u_init None starts every
    component at CAUSE_INIT.
    """
    return _solve(pooled, None, model, hp, u_init)


def infer_cause_topdown(pooled, preference, model: LayerModel,
                        hp: HyperParams, u_init=None) -> tuple[CauseVector, SolveTrace]:
    """Cause inference with a quadratic pull toward a predicted preference."""
    return _solve(pooled, preference, model, hp, u_init)


def top_down_prediction(upper_model: LayerModel, upper_x_prev, upper_u,
                        upper_hp: HyperParams) -> np.ndarray:
    """Project the upper layer's temporal prediction down one layer.

    A component of the predicted upper state, transition @ upper_x_prev,
    survives only where the temporal weight beats the cause-modulated
    part of its sparsity weight, temporal_sparsity >
    pooled_weight(upper_model, u)_k; everything else is zeroed.  Returns
    the survivors rendered through the upper dictionary, sized for the
    lower layer's cause vector.  upper_u is read by _cause_values, so None
    stands for the cause solver's start.  With configs/shapes2.ini's 0.1
    against 0.03 a component survives wherever (coupling @ u)_k > -ln(7/3).
    """
    x_prev = as_float_array(upper_x_prev, "upper state")
    u = _cause_values(upper_u, upper_model)
    k = upper_model.dims.state_dim
    if x_prev.shape != (k,):
        raise DimensionMismatch(f"upper state must have length {k}, got {x_prev.shape}")

    gate = upper_hp.temporal_sparsity > pooled_weight(upper_model, u, upper_hp)
    return upper_model.dictionary @ np.where(
        gate, upper_model.transition @ x_prev, 0.0)
