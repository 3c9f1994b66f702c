"""Proximal-gradient and Adam reference solvers for the state objective.

All three minimize the per-patch objective of the solver benchmark,
0.5*||y - C x||^2 + mu*||x||_1, which is the reweighted solver's state
objective without a previous state.  Like infer_states_batch, each takes
an (n, p) batch of patches and returns the (n, k) states and one trace
per row, and every row is an independent problem.  Each method is only
its update step; one loop, _solve, runs all three.  It starts every row
at x = 0, tests each iterate for NaN/Inf, records the objective, applies
the tol stop and times the whole call, so the benchmark harness sees the
same trace from every method.  Traces record the objective with the state
l1 term exact, whatever the solver's internal surrogate, to keep
final-value comparisons honest.

The products are stacked matrix-vector products and the squared norms
stacked dots (states._times_rows, states._squared_norms), so every row
rounds exactly as a batch of that row alone.  A row that stops on the tol
test leaves the batch; the others keep iterating.
"""

import time
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFinite
from .linalg import as_float_array
from .majorize import soft_clip
from .model import HyperParams, LayerModel, _require_finite
from .states import SolveTrace, _squared_norms, _times_rows


# Adam's moment decay rates and denominator guard (Kingma & Ba, ICLR 2015).
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class BaselineConfig:
    """Knobs for the reference solvers.

    tol > 0 enables early stopping on the composite gradient mapping
    (prox-based stationarity residual), row by row; tol = 0 runs the full
    budget, which is the fixed-iteration benchmark regime.
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
    """The benchmark objective on the rows of a batch of patches."""

    def __init__(self, y, model: LayerModel, hp: HyperParams):
        self.c = model.dictionary
        self.y = as_float_array(y, "patches")
        p = self.c.shape[0]
        if self.y.ndim != 2 or self.y.shape[1] != p:
            raise DimensionMismatch(
                f"patches must be (n, {p}), got {self.y.shape}")
        self.mu = hp.state_sparsity
        self.margin = hp.smooth_margin

    def residual(self, x):
        """y - C x, row by row."""
        return self.y - _times_rows(self.c, x)

    def pull(self, r):
        """C^T r, minus the reconstruction gradient where the residual is r.

        This is exactly -(C^T (C x - y)), since negating a vector negates
        its gemv without rounding.  So x + step*pull(r) is bit for bit the
        step x - step*gradient.
        """
        return _times_rows(self.c.T, r)

    def objective(self, x, r) -> list:
        """Reconstruction + exact state l1 of each row, given r = y - C x."""
        # np.add.reduce, as .sum does, without the wrapper that costs as
        # much as the sum on a one-row batch.
        l1 = np.add.reduce(np.abs(x), axis=1).tolist()
        return [0.5 * sq + self.mu * a for sq, a in
                zip(_squared_norms(r).tolist(), l1)]

    def mapping_residual(self, x, r, step):
        """Stationarity measure: displacement of one prox step, per unit step."""
        w = _shrink(x + step * self.pull(r), step * self.mu)
        return np.abs(x - w).max(axis=1, initial=0.0) / step


def _solve(name, update, slots: int, y, model: LayerModel, hp: HyperParams,
           cfg: BaselineConfig, tol: float) -> tuple[np.ndarray, list]:
    """The one loop of the reference solvers.

    update(prob, it, x, r, carry) returns the it-th iterates of the live
    rows and the new carry, given their current iterates x, residuals
    r = y - C x and carry, a tuple of per-row arrays the method keeps
    between updates; carry starts as `slots` zero arrays shaped like x.
    The loop stops after cfg.max_iter updates.  With tol > 0, a row whose
    prox-gradient mapping residual is at most tol stops with its state and
    trace as they are, and leaves the batch.  Only the live rows are
    tested for NaN/Inf.
    """
    start = time.perf_counter()
    prob = _Problem(y, model, hp)
    n, k = prob.y.shape[0], prob.c.shape[1]
    out = np.empty((n, k))
    rows = np.arange(n)
    x = np.zeros((n, k))
    carry = tuple(np.zeros((n, k)) for _ in range(slots))
    r = prob.residual(x)
    traces = [SolveTrace(objective_per_iter=[f])
              for f in prob.objective(x, r)]
    live = traces
    for it in range(1, cfg.max_iter + 1):
        x, carry = update(prob, it, x, r, carry)
        if not np.isfinite(x).all():
            raise NonFinite(f"{name} iterate diverged to NaN/Inf")
        r = prob.residual(x)
        for tr, f in zip(live, prob.objective(x, r)):
            tr.objective_per_iter.append(f)
            tr.iterations = it
        if tol > 0:
            done = prob.mapping_residual(x, r, cfg.step) <= tol
            flags = done.tolist()
            if any(flags):
                for tr, d in zip(live, flags):
                    tr.converged = d
                live = [tr for tr in live if not tr.converged]
                out[rows[done]] = x[done]
                keep = ~done
                rows, x, r, prob.y = rows[keep], x[keep], r[keep], prob.y[keep]
                carry = tuple(a[keep] for a in carry)
                if not live:
                    break

    out[rows] = x
    elapsed = time.perf_counter() - start
    for tr in traces:
        tr.wall_time = elapsed / n
    return out, traces


def ista_solve(y, model: LayerModel, hp: HyperParams,
               cfg: BaselineConfig) -> tuple[np.ndarray, list]:
    """Proximal gradient: x <- shrink(x - step*grad, step*mu).

    The gradient at x reuses the residual the loop computed for x's
    objective.
    """
    def update(prob, it, x, r, carry):
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

    def update(prob, it, x, r, carry):
        z = x + beta[it - 1] * (x - carry[0])
        x_new = _shrink(z + cfg.step * prob.pull(prob.residual(z)),
                        cfg.step * prob.mu)
        return x_new, (x,)

    return _solve("fista", update, 1, y, model, hp, cfg, cfg.tol)


def adam_solve(y, model: LayerModel, hp: HyperParams,
               cfg: BaselineConfig) -> tuple[np.ndarray, list]:
    """Adam on the fully smoothed objective (state l1 smoothed as well).

    It has no prox step, so it ignores tol and runs the full budget.  The
    trace still records the exact-l1 objective.  The last iterate has its
    values below the state clamp zeroed, and the final trace entry is the
    objective of that clamped vector.  carry holds the two moments.
    """
    def update(prob, it, x, r, carry):
        m1, m2 = carry
        g = prob.mu * soft_clip(x, prob.margin) - prob.pull(r)
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
    prob = _Problem(np.asarray(y, dtype=np.float64)[None], model, hp)
    x = as_float_array(x, "state")[None]
    return prob.objective(x, prob.residual(x))[0]
