"""Sparse state inference by reweighted least squares.

Each iteration rebuilds the quadratic bound on the sparsity penalty at the
current iterate and solves the resulting normal equations directly on the
live support, using the layer's cached Gram matrix.  Components that reach
exact zero stay zero, which is what produces genuinely sparse codes without
a shrinkage step, and which keeps every solve no larger than the support.

One kernel runs the iteration for all patches of a frame at once.  The
elementwise work and the per-patch sums act on the whole (patch, state)
array; the matrix-vector products, the residual dot products and the
support solves stay one per patch, because batched BLAS calls round
differently.  Every patch therefore gets exactly the iterates, objective
values and stopping decision of a solve on its own, and a patch that
converges leaves the active set.  infer_state is a batch of one.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NonFinite
from .linalg import as_float_array
from .majorize import _solve_on_support, soft_clip
from .model import HyperParams, LayerModel, StateVector


@dataclass
class SolveTrace:
    """Per-iteration record shared by the reweighted solver and the baselines.

    objective_per_iter starts with the objective at the initial point, then
    holds one value per update.  sparsity_per_iter is the percentage of
    exactly-zero components at the same checkpoints.  final_residual is the
    stationarity residual the solver tested against its tolerance after the
    last update (nan for solvers that do not measure one).  wall_time is
    the solve's elapsed seconds; a batch of n patches is timed as a whole
    and each of its traces holds an equal 1/n share.
    """

    objective_per_iter: list = field(default_factory=list)
    sparsity_per_iter: list = field(default_factory=list)
    wall_time: float = 0.0
    iterations: int = 0
    converged: bool = False
    final_residual: float = float("nan")


def _pct_zero(x: np.ndarray) -> float:
    return 100.0 * float(np.count_nonzero(x == 0.0)) / x.shape[0]


def _state_rows(vectors, n: int, k: int, name: str) -> np.ndarray:
    """Stack n per-patch states (StateVectors or arrays) into an (n, k) array."""
    if len(vectors) != n:
        raise DimensionMismatch(f"{n} patches but {len(vectors)} {name}s")
    rows = [v.values if isinstance(v, StateVector) else as_float_array(v, name)
            for v in vectors]
    for row in rows:
        if row.shape != (k,):
            raise DimensionMismatch(f"{name} must have length {k}, got {row.shape}")
    return np.array(rows).reshape(n, k)


def _times_rows(m: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """m @ row for every row, one matrix-vector product each.

    A single matrix-matrix product would round differently from the
    products of a solve on its own.
    """
    out = np.empty((rows.shape[0], m.shape[0]))
    for i, row in enumerate(rows):
        out[i] = m @ row
    return out


def _objectives(residual, mag, innovation, alpha, mu, lam, margin):
    """Per-row objective, given |x| as mag and alpha = soft_clip(innovation).

    The innovation term is smooth_l1 written out on rows.
    """
    val = 0.5 * np.array([r @ r for r in residual]) + mu * mag.sum(axis=1)
    if lam > 0:
        val += lam * ((alpha * innovation).sum(axis=1)
                      - 0.5 * margin * (alpha * alpha).sum(axis=1))
    return val


def _solve_rows(y, x, prediction, model: LayerModel, hp: HyperParams):
    """Run the MM iteration on every row of y together.

    y is (n, p) and x (n, k) holds the starting iterates.  prediction is
    the (n, k) transition-predicted state, or None to drop the temporal
    term.  Returns the (n, k) final states and one trace per row.  A row
    that converges is copied out and dropped from the working arrays; the
    rest keep iterating.
    """
    c = model.dictionary
    mu, margin = hp.state_sparsity, hp.smooth_margin
    lam = hp.temporal_sparsity if prediction is not None else 0.0
    damping = lam / margin
    traces = [SolveTrace() for _ in range(y.shape[0])]
    out = np.empty_like(x)
    rows = np.arange(y.shape[0])
    cty = _times_rows(c.T, y)

    mag = np.abs(x)
    residual = y - _times_rows(c, x)
    innovation = alpha = None
    if lam > 0:
        innovation = x - prediction
        alpha = soft_clip(innovation, margin)
    f = _objectives(residual, mag, innovation, alpha, mu, lam, margin)
    for tr, x_i, f_i in zip(traces, x, f.tolist()):
        tr.objective_per_iter.append(f_i)
        tr.sparsity_per_iter.append(_pct_zero(x_i))

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

        mag = np.abs(x)
        nonzero = x != 0.0
        residual = y - _times_rows(c, x)
        if lam > 0:
            innovation = x - prediction
            alpha = soft_clip(innovation, margin)
        f = _objectives(residual, mag, innovation, alpha, mu, lam, margin)

        # Clamp small components to exact zero, but never at the cost of an
        # objective increase: a component mid-collapse is clamped one
        # iteration later when its removal is genuinely free.
        small = (mag < hp.clamp_state) & nonzero
        if small.any():
            # Rows without small components get back their own values.
            x_cl = np.where(small, 0.0, x)
            mag_cl = np.where(small, 0.0, mag)
            res_cl = y - _times_rows(c, x_cl)
            inn_cl = a_cl = None
            if lam > 0:
                inn_cl = x_cl - prediction
                a_cl = soft_clip(inn_cl, margin)
            f_cl = _objectives(res_cl, mag_cl, inn_cl, a_cl, mu, lam, margin)
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
        for i, x_i, f_i, kkt_i in zip(rows.tolist(), x, f.tolist(), kkt.tolist()):
            tr = traces[i]
            tr.objective_per_iter.append(f_i)
            tr.sparsity_per_iter.append(_pct_zero(x_i))
            tr.iterations = it
            tr.final_residual = kkt_i
        done = kkt <= hp.inner_tol
        if done.any():
            for i in rows[done].tolist():
                traces[i].converged = True
            out[rows[done]] = x[done]
            live = ~done
            rows, x, mag, y, cty = rows[live], x[live], mag[live], y[live], cty[live]
            if lam > 0:
                prediction, alpha = prediction[live], alpha[live]
            if rows.size == 0:
                break

    out[rows] = x
    # Terminal clamp: the returned state never carries sub-threshold values.
    out[np.abs(out) < hp.clamp_state] = 0.0
    return out, traces


def _infer(patches, prev, model: LayerModel, hp: HyperParams, inits, start):
    """Check the per-patch inputs, solve, and share the elapsed time out."""
    n, k = patches.shape[0], model.dictionary.shape[1]
    x_prev = None if prev is None else _state_rows(prev, n, k, "previous state")
    x = 0.1 * np.ones((n, k)) if inits is None else _state_rows(inits, n, k, "state init")
    if n == 0:
        return [], []
    prediction = None
    if x_prev is not None and hp.temporal_sparsity > 0:
        prediction = _times_rows(model.transition, x_prev)
    x, traces = _solve_rows(patches, x, prediction, model, hp)
    share = (time.perf_counter() - start) / n
    for tr in traces:
        tr.wall_time = share
    return [StateVector(row, row == 0.0) for row in x], traces


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
    y = as_float_array(y, "patch")
    p = model.dictionary.shape[0]
    if y.shape != (p,):
        raise DimensionMismatch(f"patch must have length {p}, got {y.shape}")
    states, traces = _infer(y[None, :], None if x_prev is None else [x_prev],
                            model, hp, None if x_init is None else [x_init], start)
    return states[0], traces[0]


def infer_states_batch(batch, prev, model: LayerModel, hp: HyperParams,
                       inits=None) -> tuple[list, list]:
    """Infer states for every patch of one frame in one batched solve.

    batch is a PatchBatch or an (n, p) array; prev and inits are None or
    per-patch lists.  Each patch's state and trace equal those of
    infer_state on that patch alone, except wall_time, which is an equal
    share of the batch's elapsed time.
    """
    start = time.perf_counter()
    patches = batch.patches if hasattr(batch, "patches") else as_float_array(batch, "patches")
    p = model.dictionary.shape[0]
    if patches.ndim != 2 or patches.shape[1] != p:
        raise DimensionMismatch(f"patches must be (n, {p}), got {patches.shape}")
    return _infer(patches, prev, model, hp, inits, start)
