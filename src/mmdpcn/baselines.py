"""Proximal-gradient and Adam reference solvers for the state objective.

All three minimize the same per-patch objective as the reweighted solver
(temporal term in smoothed form) and fill the same trace structure, so the
benchmark harness treats every method uniformly.  Traces record the
objective with the state l1 term exact, whatever the solver's internal
surrogate, to keep final-value comparisons honest.
"""

import time
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFinite
from .linalg import as_float_array
from .majorize import smooth_l1, soft_clip
from .model import HyperParams, LayerModel
from .states import SolveTrace, _pct_zero


@dataclass(frozen=True)
class BaselineConfig:
    """Knobs for the reference solvers.

    tol > 0 enables early stopping on the composite gradient mapping
    (prox-based stationarity residual); tol = 0 runs the full budget,
    which is the fixed-iteration benchmark regime.
    """

    step: float = 1e-2
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    max_iter: int = 200
    tol: float = 0.0

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("step must be positive")
        if not (0 < self.adam_beta1 < 1 and 0 < self.adam_beta2 < 1):
            raise ValueError("adam momentum parameters must lie in (0,1)")
        if self.adam_eps <= 0 or self.max_iter < 1:
            raise ValueError("adam_eps must be positive, max_iter >= 1")
        if self.tol < 0:
            raise ValueError("tol must be nonnegative")


def _shrink(z: np.ndarray, amount: float) -> np.ndarray:
    return np.sign(z) * np.maximum(np.abs(z) - amount, 0.0)


class _Problem:
    """Shared pieces of the per-patch objective for the reference solvers."""

    def __init__(self, y, model: LayerModel, hp: HyperParams, x_prev):
        self.c = model.dictionary
        self.y = as_float_array(y, "patch")
        if self.y.shape != (self.c.shape[0],):
            raise DimensionMismatch(
                f"patch must have length {self.c.shape[0]}, got {self.y.shape}")
        self.mu = hp.state_sparsity
        self.margin = hp.smooth_margin
        self.lam = hp.temporal_sparsity if x_prev is not None else 0.0
        self.prediction = None
        if self.lam > 0:
            self.prediction = model.transition @ as_float_array(
                x_prev, "previous state")

    def smooth_grad(self, x):
        """Gradient of the smooth part (reconstruction + smoothed innovation)."""
        g = self.c.T @ (self.c @ x - self.y)
        if self.lam > 0:
            g = g + self.lam * soft_clip(x - self.prediction, self.margin)
        return g

    def objective(self, x):
        """Reconstruction + exact state l1 + smoothed innovation penalty."""
        r = self.y - self.c @ x
        val = 0.5 * float(r @ r) + self.mu * float(np.abs(x).sum())
        if self.lam > 0:
            val += self.lam * smooth_l1(x - self.prediction, self.margin)
        return val

    def mapping_residual(self, x, step):
        """Stationarity measure: displacement of one prox step, per unit step."""
        w = _shrink(x - step * self.smooth_grad(x), step * self.mu)
        return float(np.max(np.abs(x - w))) / step if x.size else 0.0


def _record(trace, prob, x):
    trace.objective_per_iter.append(prob.objective(x))
    trace.sparsity_per_iter.append(_pct_zero(x))


def ista_solve(y, model: LayerModel, hp: HyperParams, cfg: BaselineConfig,
               x_prev=None) -> tuple[np.ndarray, SolveTrace]:
    """Proximal gradient: x <- shrink(x - step*grad, step*mu)."""
    start = time.perf_counter()
    prob = _Problem(y, model, hp, x_prev)
    x = np.zeros(prob.c.shape[1])
    trace = SolveTrace()
    _record(trace, prob, x)

    for it in range(1, cfg.max_iter + 1):
        x = _shrink(x - cfg.step * prob.smooth_grad(x), cfg.step * prob.mu)
        if not np.all(np.isfinite(x)):
            raise NonFinite("ista iterate diverged to NaN/Inf")
        _record(trace, prob, x)
        trace.iterations = it
        if cfg.tol > 0 and prob.mapping_residual(x, cfg.step) <= cfg.tol:
            trace.converged = True
            break

    trace.wall_time = time.perf_counter() - start
    return x, trace


def fista_solve(y, model: LayerModel, hp: HyperParams, cfg: BaselineConfig,
                x_prev=None) -> tuple[np.ndarray, SolveTrace]:
    """Accelerated proximal gradient with the standard momentum sequence."""
    start = time.perf_counter()
    prob = _Problem(y, model, hp, x_prev)
    x = np.zeros(prob.c.shape[1])
    z = x.copy()
    t_mom = 1.0
    trace = SolveTrace()
    _record(trace, prob, x)

    for it in range(1, cfg.max_iter + 1):
        x_new = _shrink(z - cfg.step * prob.smooth_grad(z), cfg.step * prob.mu)
        if not np.all(np.isfinite(x_new)):
            raise NonFinite("fista iterate diverged to NaN/Inf")
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom * t_mom))
        z = x_new + ((t_mom - 1.0) / t_new) * (x_new - x)
        x, t_mom = x_new, t_new
        _record(trace, prob, x)
        trace.iterations = it
        if cfg.tol > 0 and prob.mapping_residual(x, cfg.step) <= cfg.tol:
            trace.converged = True
            break

    trace.wall_time = time.perf_counter() - start
    return x, trace


def adam_solve(y, model: LayerModel, hp: HyperParams, cfg: BaselineConfig,
               x_prev=None) -> tuple[np.ndarray, SolveTrace]:
    """Adam on the fully smoothed objective (state l1 smoothed as well).

    The trace still records the exact-l1 objective.  Values below the state
    clamp are zeroed at termination, and the final trace entry reflects the
    clamped vector.
    """
    start = time.perf_counter()
    prob = _Problem(y, model, hp, x_prev)
    x = np.zeros(prob.c.shape[1])
    m1 = np.zeros_like(x)
    m2 = np.zeros_like(x)
    trace = SolveTrace()
    _record(trace, prob, x)

    for it in range(1, cfg.max_iter + 1):
        g = prob.smooth_grad(x) + prob.mu * soft_clip(x, prob.margin)
        m1 = cfg.adam_beta1 * m1 + (1.0 - cfg.adam_beta1) * g
        m2 = cfg.adam_beta2 * m2 + (1.0 - cfg.adam_beta2) * g * g
        hat1 = m1 / (1.0 - cfg.adam_beta1 ** it)
        hat2 = m2 / (1.0 - cfg.adam_beta2 ** it)
        x = x - cfg.step * hat1 / (np.sqrt(hat2) + cfg.adam_eps)
        if not np.all(np.isfinite(x)):
            raise NonFinite("adam iterate diverged to NaN/Inf")
        _record(trace, prob, x)
        trace.iterations = it

    x[np.abs(x) < hp.clamp_state] = 0.0
    trace.objective_per_iter[-1] = prob.objective(x)
    trace.sparsity_per_iter[-1] = _pct_zero(x)
    trace.wall_time = time.perf_counter() - start
    return x, trace


def state_objective(x, y, model: LayerModel, hp: HyperParams, x_prev=None) -> float:
    """The common final-value yardstick used when comparing solvers."""
    return _Problem(y, model, hp, x_prev).objective(as_float_array(x, "state"))

