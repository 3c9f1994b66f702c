"""Proximal-gradient and Adam reference solvers for the state objective.

All three minimize the per-patch objective of the solver benchmark,
0.5*||y - C x||^2 + mu*||x||_1, which is the reweighted solver's state
objective without a previous state.  Like infer_states_batch, each takes
an (n, p) batch of patches and returns the (n, k) states and one trace
per row, and every row is an independent problem.  Each method is only
its update step.  _solve starts every row at x = 0, follows the update
with the NaN/Inf guard, the objective and, with tol > 0, the stop
residual, and hands that step to states._run_rows, the row loop the MM
state solver runs too.  So the benchmark harness sees the same trace from
every method.  Traces record the objective with the state l1 term exact,
whatever the solver's internal surrogate, to keep final-value comparisons
honest.

The products are stacked matrix-vector products and the squared norms
stacked dots (linalg._times_rows, linalg._dots), so every row
rounds exactly as a batch of that row alone.  A row that stops on the tol
test leaves the batch; the others keep iterating.
"""

import time
from dataclasses import dataclass

import numpy as np

from .linalg import _dots, _rows, _times_rows, as_float_array
from .model import HyperParams, LayerModel, _require_finite
from .states import _finite, _run_rows


# Adam's moment decay rates and denominator guard (Kingma & Ba, ICLR 2015).
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8
# Adam has no prox step, so it descends mu*|x| smoothed to a quadratic
# within this margin of zero; its gradient is mu*clip(x/margin, -1, 1).
_ADAM_MARGIN = 0.1


@dataclass(frozen=True)
class BaselineConfig:
    """Knobs for the reference solvers.

    tol > 0 enables early stopping on the composite gradient mapping
    (prox-based stationarity residual), row by row, and each trace's
    final_residual is that residual after its last update.  tol = 0 runs
    the full budget, the fixed-iteration benchmark regime, and leaves
    final_residual nan.  Adam ignores tol.
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
    """The benchmark objective on the rows of a batch of patches y."""

    def __init__(self, model: LayerModel, hp: HyperParams):
        self.c = model.dictionary
        self.mu = hp.state_sparsity

    def residual(self, y, x):
        """y - C x, row by row."""
        return y - _times_rows(self.c, x)

    def pull(self, r):
        """C^T r, minus the reconstruction gradient where the residual is r.

        This is exactly -(C^T (C x - y)), since negating a vector negates
        its gemv without rounding.  So x + step*pull(r) is bit for bit the
        step x - step*gradient.
        """
        return _times_rows(self.c.T, r)

    def objective(self, x, r) -> np.ndarray:
        """Reconstruction + exact state l1 of each row, given r = y - C x."""
        # np.add.reduce, as .sum does, without the wrapper that costs as
        # much as the sum on a one-row batch.
        return 0.5 * _dots(r, r) + self.mu * np.add.reduce(np.abs(x), axis=1)

    def mapping_residual(self, x, r, step):
        """Stationarity measure: displacement of one prox step, per unit step."""
        w = _shrink(x + step * self.pull(r), step * self.mu)
        return np.abs(x - w).max(axis=1, initial=0.0) / step


def _solve(name, update, slots: int, y, model: LayerModel, hp: HyperParams,
           cfg: BaselineConfig, tol: float) -> tuple[np.ndarray, list]:
    """Run one reference solver: its update step through states._run_rows.

    update(prob, it, x, y, r, carry) returns the it-th iterates of the live
    rows and the new carry, given their current iterates x, patches y,
    residuals r = y - C x and carry, a list of per-row arrays the method
    keeps between updates; carry starts as `slots` zero arrays shaped like
    x.  The loop stops after cfg.max_iter updates.  With tol > 0, a row
    whose prox-gradient mapping residual is at most tol stops with its
    state and trace as they are, and leaves the batch.
    """
    start = time.perf_counter()
    prob = _Problem(model, hp)
    p, k = prob.c.shape
    y = _rows(y, None, p, "patches")
    x = np.zeros((y.shape[0], k))
    r = prob.residual(y, x)

    def step(it, rows):
        x, r, y, *carry = rows
        x, carry = update(prob, it, x, y, r, carry)
        _finite(name, x)
        r = prob.residual(y, x)
        resid = prob.mapping_residual(x, r, cfg.step) if tol > 0 else None
        return (x, r, y, *carry), prob.objective(x, r), resid

    carry = tuple(np.zeros_like(x) for _ in range(slots))
    return _run_rows(step, (x, r, y, *carry), prob.objective(x, r),
                     cfg.max_iter, tol, start)


def ista_solve(y, model: LayerModel, hp: HyperParams,
               cfg: BaselineConfig) -> tuple[np.ndarray, list]:
    """Proximal gradient: x <- shrink(x - step*grad, step*mu).

    The gradient at x reuses the residual the loop computed for x's
    objective.
    """
    def update(prob, it, x, y, r, carry):
        return _shrink(x + cfg.step * prob.pull(r), cfg.step * prob.mu), carry

    return _solve("ista", update, 0, y, model, hp, cfg, cfg.tol)


def fista_solve(y, model: LayerModel, hp: HyperParams,
                cfg: BaselineConfig) -> tuple[np.ndarray, list]:
    """Accelerated proximal gradient with the standard momentum sequence.

    The gradient is taken at the extrapolated point z, so it needs its own
    residual.  carry holds the previous iterate, x = 0 before the first.
    """
    # beta[it - 1] = (t_{it-1} - 1) / t_it, with t_1 = 1; the first two
    # updates take no momentum.
    t, beta = 1.0, [0.0]
    for _ in range(cfg.max_iter - 1):
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        beta.append((t - 1.0) / t_new)
        t = t_new

    def update(prob, it, x, y, r, carry):
        z = x + beta[it - 1] * (x - carry[0])
        x_new = _shrink(z + cfg.step * prob.pull(prob.residual(y, z)),
                        cfg.step * prob.mu)
        return x_new, (x,)

    return _solve("fista", update, 1, y, model, hp, cfg, cfg.tol)


def adam_solve(y, model: LayerModel, hp: HyperParams,
               cfg: BaselineConfig) -> tuple[np.ndarray, list]:
    """Adam on the objective with the state l1 smoothed by _ADAM_MARGIN.

    It has no prox step, so it ignores tol and runs the full budget.  The
    trace still records the exact-l1 objective.  The last iterate has its
    values below the state clamp zeroed, and the final trace entry is the
    objective of that clamped vector.  carry holds the two moments.
    """
    def update(prob, it, x, y, r, carry):
        m1, m2 = carry
        g = prob.mu * np.clip(x / _ADAM_MARGIN, -1.0, 1.0) - prob.pull(r)
        m1 = _ADAM_BETA1 * m1 + (1.0 - _ADAM_BETA1) * g
        m2 = _ADAM_BETA2 * m2 + (1.0 - _ADAM_BETA2) * g * g
        hat1 = m1 / (1.0 - _ADAM_BETA1 ** it)
        hat2 = m2 / (1.0 - _ADAM_BETA2 ** it)
        x = x - cfg.step * hat1 / (np.sqrt(hat2) + _ADAM_EPS)
        # Adam runs the full budget, so this iterate is the one returned.
        if it == cfg.max_iter:
            x[np.abs(x) < hp.clamp_state] = 0.0
        return x, (m1, m2)

    return _solve("adam", update, 2, y, model, hp, cfg, 0.0)


def state_objective(x, y, model: LayerModel, hp: HyperParams) -> float:
    """The common final-value yardstick used when comparing solvers.

    It is the objective the traces record, on a batch of one patch.
    """
    prob = _Problem(model, hp)
    y = _rows([y], None, prob.c.shape[0], "patches")
    x = as_float_array(x, "state")[None]
    return float(prob.objective(x, prob.residual(y, x))[0])
