"""Cause inference: per-frame sparse variables that gate state magnitudes.

One kernel minimizes the cause objective, optionally plus a quadratic pull
0.5*||u - preference||^2 toward what the layer above predicts.  Its update
is a diagonally scaled fixed-point step on the stationarity equation; the
step direction always points downhill, so a halving backtrack makes the
recorded objective provably nonincreasing even on badly scaled inputs
where the raw step overshoots.  infer_cause and infer_cause_topdown are
its two entry points.
"""

import time
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFinite
from .linalg import as_float_array
from .model import (CauseVector, HyperParams, LayerModel, PooledStateMagnitude,
                    _cause_values, cause_energy)
from .states import SolveTrace, _pct_zero

# Halvings of the step before giving up; by then the candidate coincides
# with the current iterate to machine precision.
_MAX_BACKTRACK = 60


def _drive(coupling: np.ndarray, pooled: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Downhill pull of the exponential term: coupling^T (pooled * exp(-coupling@u))."""
    z = np.clip(coupling @ u, -700.0, 700.0)
    return coupling.T @ (pooled * np.exp(-z))


def _descend(u, full_step, clamp, energy):
    """Move from u toward full_step without letting the objective rise."""
    delta = full_step - u
    e_cur = energy(u)
    s = 1.0
    for _ in range(_MAX_BACKTRACK):
        cand = u + s * delta
        cand[np.abs(cand) < clamp] = 0.0
        e_cand = energy(cand)
        if e_cand <= e_cur:
            return cand, e_cand
        s *= 0.5
    return u, e_cur


def _solve(pooled: PooledStateMagnitude, preference, model: LayerModel,
           hp: HyperParams, u_init) -> tuple[CauseVector, SolveTrace]:
    """The cause iteration, with a pull toward preference unless it is None.

    With r = |u|/beta, each step moves toward r * drive(u), or with a
    preference toward (r/(1+r)) * (preference + drive(u)), the diagonal
    inverse of (I + W).  Zero components are absorbing, so the initial
    value must be nonzero (default 0.1 everywhere).  Stops when the
    stationarity residual on the support falls below hp.inner_tol, or at
    hp.max_inner_iter.
    """
    start = time.perf_counter()
    b = model.coupling
    pv = pooled.values
    if pv.shape != (b.shape[0],):
        raise DimensionMismatch(
            f"pooled magnitudes must have length {b.shape[0]}, got {pv.shape}")
    d = b.shape[1]
    if preference is not None:
        preference = as_float_array(preference, "cause preference")
        if preference.shape != (d,):
            raise DimensionMismatch(
                f"preference must have length {d}, got {preference.shape}")
    beta = hp.cause_sparsity

    u = 0.1 * np.ones(d) if u_init is None else _cause_values(u_init).copy()
    if u.shape != (d,):
        raise DimensionMismatch(f"cause init must have length {d}")

    energy = lambda v: cause_energy(v, pooled, model, hp, preference)
    trace = SolveTrace()
    trace.objective_per_iter.append(energy(u))
    trace.sparsity_per_iter.append(_pct_zero(u))

    for it in range(1, hp.max_inner_iter + 1):
        r = np.abs(u) / beta
        if preference is None:
            full = r * _drive(b, pv, u)
        else:
            full = (r / (1.0 + r)) * (preference + _drive(b, pv, u))
        if not np.all(np.isfinite(full)):
            raise NonFinite("cause iterate diverged to NaN/Inf")
        u, e_cur = _descend(u, full, hp.clamp_cause, energy)
        trace.objective_per_iter.append(e_cur)
        trace.sparsity_per_iter.append(_pct_zero(u))
        trace.iterations = it

        support = u != 0.0
        if np.any(support):
            # Subgradient of the penalty and the pull, minus the drive.
            pull = beta * np.sign(u[support])
            if preference is not None:
                pull = u[support] - preference[support] + pull
            kkt = float(np.max(np.abs(pull - _drive(b, pv, u)[support])))
        else:
            kkt = 0.0
        trace.final_residual = kkt
        if kkt <= hp.inner_tol:
            trace.converged = True
            break

    trace.wall_time = time.perf_counter() - start
    return CauseVector(u), trace


def infer_cause(pooled: PooledStateMagnitude, model: LayerModel, hp: HyperParams,
                u_init=None) -> tuple[CauseVector, SolveTrace]:
    """Infer the frame's cause from the pooled state magnitudes alone."""
    return _solve(pooled, None, model, hp, u_init)


def infer_cause_topdown(pooled: PooledStateMagnitude, preference, model: LayerModel,
                        hp: HyperParams, u_init=None) -> tuple[CauseVector, SolveTrace]:
    """Cause inference with a quadratic pull toward a predicted preference."""
    return _solve(pooled, preference, model, hp, u_init)


@dataclass(frozen=True)
class TopDownPrediction:
    """What the layer above expects of a layer's cause at the current frame.

    x_hat is the gated temporal prediction of the upper layer's state;
    u_hat is its rendering through the upper dictionary, sized for the
    lower layer's cause vector.
    """

    u_hat: np.ndarray
    x_hat: np.ndarray


def top_down_prediction(upper_model: LayerModel, upper_x_prev, upper_u,
                        upper_hp: HyperParams) -> TopDownPrediction:
    """Project the upper layer's temporal prediction down one layer.

    A component of the predicted upper state survives only where the
    temporal weight beats the cause-modulated sparsity level,
    temporal_sparsity > pool_gain * (1 + exp(-(coupling@u)_k)); everything
    else is zeroed before rendering through the dictionary.
    """
    x_prev = as_float_array(upper_x_prev, "upper state")
    u = _cause_values(upper_u)
    k, d = upper_model.coupling.shape
    if x_prev.shape != (k,):
        raise DimensionMismatch(f"upper state must have length {k}, got {x_prev.shape}")
    if u.shape != (d,):
        raise DimensionMismatch(f"upper cause must have length {d}, got {u.shape}")

    z = np.clip(upper_model.coupling @ u, -700.0, 700.0)
    gate = upper_hp.temporal_sparsity > upper_hp.pool_gain * (1.0 + np.exp(-z))
    x_hat = np.where(gate, upper_model.transition @ x_prev, 0.0)
    return TopDownPrediction(u_hat=upper_model.dictionary @ x_hat, x_hat=x_hat)
