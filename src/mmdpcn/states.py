"""Sparse state inference by reweighted least squares.

Each iteration rebuilds the quadratic bound on the sparsity penalty at the
current iterate and solves the resulting normal equations directly on the
live support, using the layer's cached Gram matrix.  The penalty weighs
every component by its own mu_k: the weight total_energy charges it under
the frame's cause (model.state_weights), or, in infer_state,
state_sparsity.  Components that reach exact zero stay zero, which is what
produces genuinely sparse codes without a shrinkage step, and which keeps
every solve no larger than the support.

A frame's states are one (patch, state) float array: the patches come in
as rows, previous states and warm starts are arrays of the same shape, and
the result is one such array.  One kernel runs the iteration on all rows
at once.  The elementwise work and the per-row sums act on the whole
array.  The matrix-vector products and the residual dot products are
stacked matmuls, which NumPy runs as one BLAS gemv or dot per row; a
matrix-matrix product would round differently.  The support solves
stay one LAPACK solve per row, on that row's own support.  Every patch
therefore gets exactly the iterates, objective values and stopping
decision of a solve on its own, and a row that converges leaves the
active set.  So network inference can stack the rows of several
independent frames into one call without changing a bit.  infer_state
is a batch of one weighted by state_sparsity.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NonFinite
from .linalg import as_float_array
from .majorize import _solve_on_support
from .model import HyperParams, LayerModel


@dataclass
class SolveTrace:
    """Record of one solve, shared by the state, cause and reference solvers.

    objective_per_iter starts with the objective at the initial point, then
    holds one value per update, so it has iterations + 1 entries.
    converged says whether the stopping test passed within the iteration
    budget.  final_residual is the stationarity residual the solver tested
    against its tolerance after the last update (nan for solvers that do
    not measure one).  wall_time is the solve's elapsed seconds; a batch of
    n patches is timed as a whole and each of its traces holds an equal 1/n
    share.
    """

    objective_per_iter: list = field(default_factory=list)
    wall_time: float = 0.0
    iterations: int = 0
    converged: bool = False
    final_residual: float = float("nan")


def _rows(a, n: int, k: int, name: str) -> np.ndarray:
    """Check that a holds n rows of length k, one per patch."""
    a = as_float_array(a, name)
    if a.shape != (n, k):
        raise DimensionMismatch(f"{name} must be ({n}, {k}), got {a.shape}")
    return a


def _times_rows(m: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """m @ row for every row, as one stacked matmul.

    NumPy runs a stack of matrix-vector products as one BLAS gemv per row,
    so every row rounds exactly like m @ row on its own, whatever the
    layout of m.  A matrix-matrix product, rows @ m.T, rounds differently.
    """
    return np.matmul(m, rows[..., None])[..., 0]


def _squared_norms(rows: np.ndarray) -> np.ndarray:
    """row @ row for every row, as one stacked matmul: a BLAS dot per row."""
    return np.matmul(rows[..., None, :], rows[..., None])[..., 0, 0]


def _objectives(residual, mag, innovation, alpha, mu, lam, margin):
    """Per-row objective, given |x| as mag and alpha = soft_clip(innovation).

    mu holds each row's per-component sparsity weights, the shape of mag.
    The innovation term is smooth_l1 written out on rows.
    """
    val = 0.5 * _squared_norms(residual) + (mu * mag).sum(axis=1)
    if lam > 0:
        val += lam * ((alpha * innovation).sum(axis=1)
                      - 0.5 * margin * (alpha * alpha).sum(axis=1))
    return val


def _evaluate(x, y, mu, prediction, c, lam, margin):
    """|x|, the residual, soft_clip(innovation) and the row objectives at x.

    alpha is None when lam is 0, and prediction is read only when lam > 0.
    """
    mag = np.abs(x)
    residual = y - _times_rows(c, x)
    innovation = alpha = None
    if lam > 0:
        innovation = x - prediction
        alpha = (innovation / margin).clip(-1.0, 1.0)
    return mag, residual, alpha, _objectives(residual, mag, innovation, alpha,
                                             mu, lam, margin)


def _solve_rows(y, x, mu, prediction, model: LayerModel, hp: HyperParams):
    """Run the MM iteration on every row of y together.

    y is (n, p), x (n, k) holds the starting iterates and mu (n, k) the
    positive sparsity weight of every component.  prediction is the (n, k)
    transition-predicted state, or None to drop the temporal term.
    Returns the (n, k) final states and one trace per row.  A row that
    converges is copied out and dropped from the working arrays; the rest
    keep iterating.  soft_clip is written out as a clip, since
    HyperParams already guarantees a positive margin.
    """
    c = model.dictionary
    margin = hp.smooth_margin
    lam = hp.temporal_sparsity if prediction is not None else 0.0
    damping = lam / margin
    out = np.empty_like(x)
    rows = np.arange(y.shape[0])
    cty = _times_rows(c.T, y)

    mag, residual, alpha, f = _evaluate(x, y, mu, prediction, c, lam, margin)
    traces = [SolveTrace(objective_per_iter=[f_i]) for f_i in f.tolist()]

    for it in range(1, hp.max_inner_iter + 1):
        if lam > 0:
            rhs = cty - lam * alpha + damping * x
            # Combined diagonal weights mu/|x| + lam/margin, inverted entrywise;
            # zero components stay zero.
            r = mag * margin / (mu * margin + lam * mag)
        else:
            rhs = cty
            r = mag / mu

        x = _solve_on_support(model.gram, r, rhs)
        if not np.isfinite(x).all():
            raise NonFinite("state iterate diverged to NaN/Inf")

        mag, residual, alpha, f = _evaluate(x, y, mu, prediction, c, lam, margin)
        nonzero = x != 0.0

        # Clamp small components to exact zero, but never at the cost of an
        # objective increase: a component mid-collapse is clamped one
        # iteration later when its removal is genuinely free.
        small = (mag < hp.clamp_state) & nonzero
        if small.any():
            # Rows without small components get back their own values.
            x_cl = np.where(small, 0.0, x)
            mag_cl, res_cl, a_cl, f_cl = _evaluate(x_cl, y, mu, prediction, c,
                                                   lam, margin)
            take = f_cl <= f
            if take.any():
                row = take[:, None]
                x = np.where(row, x_cl, x)
                mag = np.where(row, mag_cl, mag)
                residual = np.where(row, res_cl, residual)
                f = np.where(take, f_cl, f)
                if lam > 0:
                    alpha = np.where(row, a_cl, alpha)
                nonzero = x != 0.0

        grad = -_times_rows(c.T, residual)
        if lam > 0:
            grad = grad + lam * alpha
        # Stationarity residual on the support.
        kkt = np.abs(grad + mu * np.sign(x)).max(axis=1, where=nonzero,
                                                 initial=0.0)
        for i, f_i, kkt_i in zip(rows.tolist(), f.tolist(), kkt.tolist()):
            tr = traces[i]
            tr.objective_per_iter.append(f_i)
            tr.iterations = it
            tr.final_residual = kkt_i
        done = kkt <= hp.inner_tol
        if done.any():
            for i in rows[done].tolist():
                traces[i].converged = True
            out[rows[done]] = x[done]
            live = ~done
            rows, x, mag, y, cty = rows[live], x[live], mag[live], y[live], cty[live]
            mu = mu[live]
            if lam > 0:
                prediction, alpha = prediction[live], alpha[live]
            if rows.size == 0:
                break

    out[rows] = x
    # Terminal clamp: the returned state never carries sub-threshold values.
    out[np.abs(out) < hp.clamp_state] = 0.0
    return out, traces


def infer_state(y, x_prev, model: LayerModel, hp: HyperParams,
                x_init=None) -> tuple[np.ndarray, SolveTrace]:
    """Infer one patch's sparse state given the previous frame's state.

    Iterates x <- (C^T C + diag(1/r))^-1 (C^T y - lam*a), solved on the
    support of r, with r = |x|/mu rebuilt from the current iterate and
    mu = hp.state_sparsity, where a is the clipped gradient of the smoothed
    innovation penalty.  When the temporal weight is active, the solve
    carries the curvature bound lam/margin of the smoothed term on its
    diagonal (and the matching pull toward the current iterate on the
    right-hand side); this leaves the fixed points of the stationarity
    equation untouched but makes every step minimize a true upper bound of
    the objective, so the recorded objective cannot increase.

    Stops when the stationarity residual on the support,
    ||C^T(Cx - y) + mu*sign(x) + lam*a||_inf, falls below hp.inner_tol,
    or after hp.max_inner_iter updates (converged flag false).

    Returns the state as a 1-d array; entries under hp.clamp_state are
    exact zeros.  Pass x_prev=None to drop the temporal term (first
    frame).  x_init defaults to 0.1 everywhere; starting from exact zeros
    is a fixed point of the iteration and therefore useless.  This is
    infer_states_batch on one row, every weight hp.state_sparsity.
    """
    y = as_float_array(y, "patch")
    p, k = model.dictionary.shape
    if y.shape != (p,):
        raise DimensionMismatch(f"patch must have length {p}, got {y.shape}")
    states, traces = infer_states_batch(
        y[None, :], None if x_prev is None else [x_prev], model, hp,
        np.full((1, k), hp.state_sparsity), None if x_init is None else [x_init])
    return states[0], traces[0]


def infer_states_batch(patches, prev, model: LayerModel, hp: HyperParams,
                       weights, inits=None) -> tuple[np.ndarray, list]:
    """Infer states for a batch of patches in one solve.

    patches is an (n, p) array; weights is an (n, k) array, and prev and
    inits are None or (n, k) arrays.  weights holds each row's positive
    per-component sparsity mu_k, so r = |x|/mu_k; network and learning
    pass model.state_weights of each frame's cause, the state weight that
    total_energy charges.  The rows may come from one frame or from
    several.  Returns the (n, k) states and one trace per patch.  Each row
    and trace equal those of a batch of that row alone, except wall_time,
    which is an equal share of the batch's elapsed time; with every weight
    hp.state_sparsity, those of infer_state on that patch.
    """
    start = time.perf_counter()
    patches = as_float_array(patches, "patches")
    p, k = model.dictionary.shape
    if patches.ndim != 2 or patches.shape[1] != p:
        raise DimensionMismatch(f"patches must be (n, {p}), got {patches.shape}")
    n = patches.shape[0]
    x_prev = None if prev is None else _rows(prev, n, k, "previous states")
    x = 0.1 * np.ones((n, k)) if inits is None else _rows(inits, n, k, "state inits")
    mu = _rows(weights, n, k, "state weights")
    if not (mu > 0).all():
        raise ValueError("state weights must be positive")
    if n == 0:
        return np.zeros((0, k)), []
    prediction = None
    if x_prev is not None and hp.temporal_sparsity > 0:
        prediction = _times_rows(model.transition, x_prev)
    x, traces = _solve_rows(patches, x, mu, prediction, model, hp)
    share = (time.perf_counter() - start) / n
    for tr in traces:
        tr.wall_time = share
    return x, traces
