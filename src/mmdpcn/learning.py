"""Dictionary learning for one layer.

Variables (states, causes) are inferred to convergence for the current
matrices, then the matrices take exactly one gradient step; the pass energy
decides whether that step is kept.  Rejected steps halve the learning rate
and retry from the last accepted model, so the recorded energy trace is
nonincreasing by construction.
"""

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionMismatch
from .linalg import as_float_array, column_normalize
from .majorize import soft_clip
from .model import (HyperParams, LayerDims, LayerModel, PooledStateMagnitude,
                    _cause_values, _gate, _require_finite, total_energy)
from .causes import infer_cause
from .states import infer_states_batch

# Cap on state/cause alternation blocks within one frame.
_MAX_BLOCKS = 50

# A trial step is accepted if the pass energy did not rise beyond this
# relative slack; rejections below this are indistinguishable from noise.
_ACCEPT_SLACK = 1e-9


@dataclass(frozen=True)
class LearnConfig:
    """Gradient-step sizes and outer-loop controls for fitting one layer."""

    lr_a: float = 1e-3
    lr_b: float = 1e-3
    lr_c: float = 1e-3
    theta_prox: float = 0.5
    outer_tol: float = 1e-4
    max_outer_iter: int = 300
    seed: int = 0

    def __post_init__(self):
        _require_finite(self)
        if min(self.lr_a, self.lr_b, self.lr_c) <= 0:
            raise ValueError("learning rates must be positive")
        if self.theta_prox < 0:
            raise ValueError("theta_prox must be nonnegative")
        if self.outer_tol <= 0 or self.max_outer_iter < 1:
            raise ValueError("outer_tol must be positive, max_outer_iter >= 1")


@dataclass
class FitReport:
    """What happened during fit_layer: accepted-pass energies and counters."""

    energy_per_outer: list = field(default_factory=list)
    outer_iterations: int = 0
    rejected_steps: int = 0
    converged: bool = False
    wall_time: float = 0.0


def grad_model(patches, states, prev_states, cause, pooled: PooledStateMagnitude,
               model: LayerModel, hp: HyperParams):
    """Analytic gradients of the full objective in the three matrices.

    patches is the frame's (patch, pixel) array.  Evaluated at fixed
    variables: the dictionary sees the reconstruction residual, the
    transition sees the clipped innovation gradient, and the coupling sees
    the exponential gating term.  Returns (dA, dB, dC) for
    (transition, coupling, dictionary).
    """
    y = np.asarray(patches, dtype=np.float64)
    x = as_float_array(states, "states")
    u = _cause_values(cause)
    if y.shape[0] != x.shape[0]:
        raise DimensionMismatch(f"{y.shape[0]} patches but {x.shape[0]} state rows")

    residual = y - x @ model.dictionary.T
    d_dict = -(residual.T @ x)

    if prev_states is not None and hp.temporal_sparsity > 0:
        x_prev = as_float_array(prev_states, "previous states")
        innovation = x - x_prev @ model.transition.T
        alpha = soft_clip(innovation, hp.smooth_margin)
        d_trans = -hp.temporal_sparsity * (alpha.T @ x_prev)
    else:
        d_trans = np.zeros_like(model.transition)

    d_coup = -np.outer(pooled.values * _gate(model.coupling, u), u)

    return d_trans, d_coup, d_dict


def update_model(model: LayerModel, grads, cfg: LearnConfig,
                 model_prev: LayerModel, lr_scale: float = 1.0) -> LayerModel:
    """One gradient step with a proximity pull toward the previous model.

    Each matrix moves along -(grad + theta_prox*(theta - theta_prev)).
    Columns of the coupling and dictionary are renormalized afterwards;
    the transition is left unnormalized.
    """
    d_trans, d_coup, d_dict = grads
    prox = cfg.theta_prox
    a = model.transition - lr_scale * cfg.lr_a * (
        d_trans + prox * (model.transition - model_prev.transition))
    b = model.coupling - lr_scale * cfg.lr_b * (
        d_coup + prox * (model.coupling - model_prev.coupling))
    c = model.dictionary - lr_scale * cfg.lr_c * (
        d_dict + prox * (model.dictionary - model_prev.dictionary))
    return LayerModel(model.dims, a, column_normalize(b), column_normalize(c))


def init_model(dims: LayerDims, rng: np.random.Generator) -> LayerModel:
    """Random starting point: normal entries, unit columns where required."""
    p, k, d = dims.input_dim, dims.state_dim, dims.cause_dim
    a = rng.standard_normal((k, k)) / np.sqrt(k)
    b = column_normalize(rng.standard_normal((k, d)) / np.sqrt(k))
    c = column_normalize(rng.standard_normal((p, k)) / np.sqrt(p))
    return LayerModel(dims, a, b, c)


def infer_frame_variables(patches: np.ndarray, prev_states, model: LayerModel,
                          hp: HyperParams):
    """Alternate short state and cause blocks until the frame's energy settles.

    Returns (states, cause, pooled, energy).  prev_states is None on the
    first frame, dropping the temporal term.
    """
    hp_states = replace(hp, max_inner_iter=hp.state_passes)
    hp_causes = replace(hp, max_inner_iter=hp.cause_passes)

    states, cause = None, None
    energy_prev = None
    for _ in range(_MAX_BLOCKS):
        states, _ = infer_states_batch(patches, prev_states, model, hp_states,
                                       inits=states)
        pooled = PooledStateMagnitude.pool(states, hp.pool_gain)
        cause, _ = infer_cause(pooled, model, hp_causes, u_init=cause)
        energy = total_energy(patches, states, prev_states, cause, pooled, model, hp)
        if energy_prev is not None and \
                abs(energy - energy_prev) <= hp.inner_tol * max(1.0, abs(energy_prev)):
            break
        energy_prev = energy
    return states, cause, pooled, energy


def _sweep(frames, model: LayerModel, hp: HyperParams):
    """One pass over all frames: inferred variables, summed gradients, energy."""
    k, d, p = model.dims.state_dim, model.dims.cause_dim, model.dims.input_dim
    g_trans = np.zeros((k, k))
    g_coup = np.zeros((k, d))
    g_dict = np.zeros((p, k))
    total = 0.0
    causes = []
    prev_states = None
    for patches in frames:
        states, cause, pooled, energy = infer_frame_variables(
            patches, prev_states, model, hp)
        da, db, dc = grad_model(patches, states, prev_states, cause, pooled, model, hp)
        g_trans += da
        g_coup += db
        g_dict += dc
        total += energy
        causes.append(cause)
        prev_states = states
    return total, (g_trans, g_coup, g_dict), causes


def fit_layer(frames, dims: LayerDims, hp: HyperParams,
              cfg: LearnConfig) -> tuple[LayerModel, list, FitReport]:
    """Fit one layer's matrices to a frame sequence.

    frames holds one (patch, pixel) array per frame.  Every outer pass
    re-infers all variables under the trial matrices and takes one
    gradient step.  A pass whose energy rises is rejected: the step is
    retried from the last accepted model at half the rate.  Returns the
    accepted model, the per-frame causes from its pass (the next layer's
    inputs), and the fit report.
    """
    start = time.perf_counter()
    frames = [as_float_array(f, "frame patches") for f in frames]
    if not frames:
        raise ValueError("fit_layer needs at least one frame")
    for f in frames:
        if f.shape != (dims.patch_count, dims.input_dim):
            raise DimensionMismatch(
                f"frame patches must be {(dims.patch_count, dims.input_dim)}, "
                f"got {f.shape}")

    rng = np.random.default_rng(cfg.seed)
    theta = init_model(dims, rng)
    report = FitReport()

    best_theta, best_energy, best_grads, best_causes = None, None, None, None
    prev_accepted = theta
    lr_scale = 1.0

    for outer in range(1, cfg.max_outer_iter + 1):
        report.outer_iterations = outer
        energy, grads, causes = _sweep(frames, theta, hp)

        if best_energy is None or \
                energy <= best_energy + _ACCEPT_SLACK * max(1.0, abs(best_energy)):
            converged = best_energy is not None and \
                abs(energy - best_energy) <= cfg.outer_tol * max(1.0, abs(energy))
            if best_theta is not None:
                prev_accepted = best_theta
            best_theta, best_energy = theta, energy
            best_grads, best_causes = grads, causes
            report.energy_per_outer.append(energy)
            if converged:
                report.converged = True
                break
        else:
            report.rejected_steps += 1
            lr_scale *= 0.5
            if lr_scale < 1e-8:
                break
        theta = update_model(best_theta, best_grads, cfg, prev_accepted, lr_scale)

    report.wall_time = time.perf_counter() - start
    return best_theta, best_causes, report
