"""Sparse state inference by reweighted least squares.

Each iteration rebuilds the quadratic bound on the sparsity penalty at the
current iterate and solves the resulting normal equations directly on the
live support, using the layer's cached Gram matrix.  Components that reach
exact zero stay zero, which is what produces genuinely sparse codes without
a shrinkage step, and which keeps every solve no larger than the support.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NonFinite
from .linalg import as_float_array
from .majorize import _solve_on_support, smooth_l1, soft_clip
from .model import HyperParams, LayerModel, StateVector


@dataclass
class SolveTrace:
    """Per-iteration record shared by the reweighted solver and the baselines.

    objective_per_iter starts with the objective at the initial point, then
    holds one value per update.  sparsity_per_iter is the percentage of
    exactly-zero components at the same checkpoints.  final_residual is the
    stationarity residual the solver tested against its tolerance after the
    last update (nan for solvers that do not measure one).
    """

    objective_per_iter: list = field(default_factory=list)
    sparsity_per_iter: list = field(default_factory=list)
    wall_time: float = 0.0
    iterations: int = 0
    converged: bool = False
    final_residual: float = float("nan")


def _pct_zero(x: np.ndarray) -> float:
    return 100.0 * float(np.count_nonzero(x == 0.0)) / x.shape[0]


def _state_values(x) -> np.ndarray:
    if isinstance(x, StateVector):
        return x.values
    return as_float_array(x, "state")


def _objective(residual, x, innovation, mu, lam, margin):
    val = 0.5 * float(residual @ residual) + mu * float(np.abs(x).sum())
    if innovation is not None:
        val += lam * smooth_l1(innovation, margin)
    return val


def infer_state(y, x_prev, model: LayerModel, hp: HyperParams,
                x_init=None) -> tuple[StateVector, SolveTrace]:
    """Infer one patch's sparse state given the previous frame's state.

    Iterates x <- (C^T C + diag(1/r))^-1 (C^T y - lam*a), solved on the
    support of r, with r = |x|/mu rebuilt from the current iterate, where
    a is the clipped gradient of the smoothed innovation penalty.  When the
    temporal weight is active, the solve carries the curvature bound
    lam/margin of the smoothed term on its diagonal (and the matching pull
    toward the current iterate on the right-hand side); this leaves the
    fixed points of the stationarity equation untouched but makes every
    step minimize a true upper bound of the objective, so the recorded
    objective cannot increase.

    Stops when the stationarity residual on the support,
    ||C^T(Cx - y) + mu*sign(x) + lam*a||_inf, falls below hp.inner_tol,
    or after hp.max_inner_iter updates (converged flag false).

    Pass x_prev=None to drop the temporal term (first frame).  x_init
    defaults to 0.1 everywhere; starting from exact zeros is a fixed point
    of the iteration and therefore useless.
    """
    start = time.perf_counter()
    c = model.dictionary
    y = as_float_array(y, "patch")
    if y.shape != (c.shape[0],):
        raise DimensionMismatch(f"patch must have length {c.shape[0]}, got {y.shape}")

    k = c.shape[1]
    mu = hp.state_sparsity
    margin = hp.smooth_margin
    lam = hp.temporal_sparsity if x_prev is not None else 0.0
    prediction = None
    if lam > 0:
        prediction = model.transition @ _state_values(x_prev)

    x = 0.1 * np.ones(k) if x_init is None else _state_values(x_init).copy()
    if x.shape != (k,):
        raise DimensionMismatch(f"state init must have length {k}")

    cty = c.T @ y
    damping = lam / margin
    trace = SolveTrace()

    residual = y - c @ x
    innovation = x - prediction if lam > 0 else None
    f_cur = _objective(residual, x, innovation, mu, lam, margin)
    trace.objective_per_iter.append(f_cur)
    trace.sparsity_per_iter.append(_pct_zero(x))

    for it in range(1, hp.max_inner_iter + 1):
        if lam > 0:
            alpha = soft_clip(innovation, margin)
            rhs = cty - lam * alpha + damping * x
            # Combined diagonal weights mu/|x| + lam/margin, inverted entrywise;
            # zero components stay zero.
            r = np.abs(x) * margin / (mu * margin + lam * np.abs(x))
        else:
            rhs = cty
            r = np.abs(x) / mu

        x_new = _solve_on_support(model.gram, r, rhs)
        if not np.all(np.isfinite(x_new)):
            raise NonFinite("state iterate diverged to NaN/Inf")

        residual = y - c @ x_new
        innovation = x_new - prediction if lam > 0 else None
        f_new = _objective(residual, x_new, innovation, mu, lam, margin)

        # Clamp small components to exact zero, but never at the cost of an
        # objective increase: a component mid-collapse is clamped one
        # iteration later when its removal is genuinely free.
        small = (np.abs(x_new) < hp.clamp_state) & (x_new != 0.0)
        if np.any(small):
            x_cl = x_new.copy()
            x_cl[small] = 0.0
            res_cl = y - c @ x_cl
            inn_cl = x_cl - prediction if lam > 0 else None
            f_cl = _objective(res_cl, x_cl, inn_cl, mu, lam, margin)
            if f_cl <= f_new:
                x_new, residual, innovation, f_new = x_cl, res_cl, inn_cl, f_cl

        x, f_cur = x_new, f_new
        trace.objective_per_iter.append(f_cur)
        trace.sparsity_per_iter.append(_pct_zero(x))
        trace.iterations = it

        grad = -(c.T @ residual)
        if lam > 0:
            grad = grad + lam * soft_clip(innovation, margin)
        support = x != 0.0
        if np.any(support):
            kkt = float(np.max(np.abs(grad[support] + mu * np.sign(x[support]))))
        else:
            kkt = 0.0
        trace.final_residual = kkt
        if kkt <= hp.inner_tol:
            trace.converged = True
            break

    # Terminal clamp: the returned state never carries sub-threshold values.
    x[np.abs(x) < hp.clamp_state] = 0.0
    trace.wall_time = time.perf_counter() - start
    return StateVector(x, x == 0.0), trace


def infer_states_batch(batch, prev, model: LayerModel, hp: HyperParams,
                       inits=None) -> tuple[list, list]:
    """Infer states for every patch of one frame.

    Patches are independent given the previous frame, so this is exactly a
    sequence of infer_state calls; prev and inits may be None or per-patch
    lists.
    """
    patches = batch.patches if hasattr(batch, "patches") else as_float_array(batch, "patches")
    n = patches.shape[0]
    if prev is not None and len(prev) != n:
        raise DimensionMismatch(f"{n} patches but {len(prev)} previous states")
    if inits is not None and len(inits) != n:
        raise DimensionMismatch(f"{n} patches but {len(inits)} state inits")

    states, traces = [], []
    for i in range(n):
        sv, tr = infer_state(
            patches[i],
            None if prev is None else prev[i],
            model,
            hp,
            None if inits is None else inits[i],
        )
        states.append(sv)
        traces.append(tr)
    return states, traces
