"""Proximal-gradient and Adam reference solvers for the state objective.

All three minimize the per-patch objective of the solver benchmark,
0.5*||y - C x||^2 + mu*||x||_1, which is the reweighted solver's state
objective without a previous state.  Each method is only its update step,
written as a generator of iterates; one loop, _solve, runs all three.  It
starts every solve at x = 0, tests each iterate for NaN/Inf, records the
objective, applies the tol stop and times the whole call, so the
benchmark harness sees the same trace from every method.  Traces record
the objective with the state l1 term exact, whatever the solver's
internal surrogate, to keep final-value comparisons honest.
"""

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFinite
from .linalg import as_float_array
from .majorize import soft_clip
from .model import HyperParams, LayerModel, _require_finite
from .states import SolveTrace


# Adam's moment decay rates and denominator guard (Kingma & Ba, ICLR 2015).
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class BaselineConfig:
    """Knobs for the reference solvers.

    tol > 0 enables early stopping on the composite gradient mapping
    (prox-based stationarity residual); tol = 0 runs the full budget,
    which is the fixed-iteration benchmark regime.
    """

    step: float = 1e-2
    max_iter: int = 200
    tol: float = 0.0

    def __post_init__(self):
        _require_finite(self)
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.tol < 0:
            raise ValueError("tol must be nonnegative")


def _shrink(z: np.ndarray, amount: float) -> np.ndarray:
    return np.sign(z) * np.maximum(np.abs(z) - amount, 0.0)


class _Problem:
    """Shared pieces of the per-patch objective for the reference solvers."""

    def __init__(self, y, model: LayerModel, hp: HyperParams):
        self.c = model.dictionary
        self.y = as_float_array(y, "patch")
        if self.y.shape != (self.c.shape[0],):
            raise DimensionMismatch(
                f"patch must have length {self.c.shape[0]}, got {self.y.shape}")
        self.mu = hp.state_sparsity
        self.margin = hp.smooth_margin

    def smooth_grad(self, x):
        """Gradient of the reconstruction term."""
        return self.c.T @ (self.c @ x - self.y)

    def objective(self, x):
        """Reconstruction + exact state l1."""
        r = self.y - self.c @ x
        return 0.5 * float(r @ r) + self.mu * float(np.abs(x).sum())

    def mapping_residual(self, x, step):
        """Stationarity measure: displacement of one prox step, per unit step."""
        w = _shrink(x - step * self.smooth_grad(x), step * self.mu)
        return float(np.max(np.abs(x - w))) / step if x.size else 0.0


def _solve(name, steps, y, model: LayerModel, hp: HyperParams,
           cfg: BaselineConfig, tol: float) -> tuple[np.ndarray, SolveTrace]:
    """The one loop of the reference solvers.

    steps(prob, x) is a generator that yields one iterate per update from
    the start point x = 0.  The loop stops it after cfg.max_iter updates,
    or once the prox-gradient mapping residual is at most tol > 0, and
    tests each iterate for NaN/Inf before asking for the next.
    """
    start = time.perf_counter()
    prob = _Problem(y, model, hp)
    x = np.zeros(prob.c.shape[1])
    trace = SolveTrace(objective_per_iter=[prob.objective(x)])
    iterates = steps(prob, x)
    for it in range(1, cfg.max_iter + 1):
        x = next(iterates)
        if not np.all(np.isfinite(x)):
            raise NonFinite(f"{name} iterate diverged to NaN/Inf")
        trace.objective_per_iter.append(prob.objective(x))
        trace.iterations = it
        if tol > 0 and prob.mapping_residual(x, cfg.step) <= tol:
            trace.converged = True
            break

    trace.wall_time = time.perf_counter() - start
    return x, trace


def ista_solve(y, model: LayerModel, hp: HyperParams,
               cfg: BaselineConfig) -> tuple[np.ndarray, SolveTrace]:
    """Proximal gradient: x <- shrink(x - step*grad, step*mu)."""
    def steps(prob, x):
        while True:
            x = _shrink(x - cfg.step * prob.smooth_grad(x), cfg.step * prob.mu)
            yield x

    return _solve("ista", steps, y, model, hp, cfg, cfg.tol)


def fista_solve(y, model: LayerModel, hp: HyperParams,
                cfg: BaselineConfig) -> tuple[np.ndarray, SolveTrace]:
    """Accelerated proximal gradient with the standard momentum sequence."""
    def steps(prob, x):
        z, t_mom = x, 1.0
        while True:
            x_new = _shrink(z - cfg.step * prob.smooth_grad(z), cfg.step * prob.mu)
            # The loop checks x_new for NaN/Inf before the momentum uses it.
            yield x_new
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom * t_mom))
            z = x_new + ((t_mom - 1.0) / t_new) * (x_new - x)
            x, t_mom = x_new, t_new

    return _solve("fista", steps, y, model, hp, cfg, cfg.tol)


def adam_solve(y, model: LayerModel, hp: HyperParams,
               cfg: BaselineConfig) -> tuple[np.ndarray, SolveTrace]:
    """Adam on the fully smoothed objective (state l1 smoothed as well).

    It has no prox step, so it ignores tol and runs the full budget.  The
    trace still records the exact-l1 objective.  The last iterate has its
    values below the state clamp zeroed, and the final trace entry is the
    objective of that clamped vector.
    """
    def steps(prob, x):
        m1 = np.zeros_like(x)
        m2 = np.zeros_like(x)
        for it in itertools.count(1):
            g = prob.smooth_grad(x) + prob.mu * soft_clip(x, prob.margin)
            m1 = _ADAM_BETA1 * m1 + (1.0 - _ADAM_BETA1) * g
            m2 = _ADAM_BETA2 * m2 + (1.0 - _ADAM_BETA2) * g * g
            hat1 = m1 / (1.0 - _ADAM_BETA1 ** it)
            hat2 = m2 / (1.0 - _ADAM_BETA2 ** it)
            x = x - cfg.step * hat1 / (np.sqrt(hat2) + _ADAM_EPS)
            # Adam runs the full budget, so this iterate is the one returned.
            if it == cfg.max_iter:
                x[np.abs(x) < hp.clamp_state] = 0.0
            yield x

    return _solve("adam", steps, y, model, hp, cfg, 0.0)


def state_objective(x, y, model: LayerModel, hp: HyperParams) -> float:
    """The common final-value yardstick used when comparing solvers."""
    return _Problem(y, model, hp).objective(as_float_array(x, "state"))

