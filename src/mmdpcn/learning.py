"""Dictionary learning for one layer.

Each outer pass infers every frame's variables (states, causes) for the
current matrices in short state and cause blocks of _BLOCK_ITERS
iterations each, a constant, until the frame energy settles, not to
convergence.  Then the matrices take exactly one (sub)gradient step of
the energy total_energy reports; the pass energy decides whether it is
kept.  Rejected steps halve the learning rate and retry from the last
accepted model, so the recorded energy trace is nonincreasing by
construction.

The two steps alternate as block-coordinate descent, so each block starts
where it last was: from pass 2 on, a frame's states start from its states
in the last accepted pass, never from a rejected one.  A component that
was exactly zero there restarts at _RESTART * clamp_state, since zeros are
absorbing in the MM state kernel; near the clamp one MM step scales a
component by about |gradient|/mu, so one that the new matrices favour
grows back and any other is clamped again within an iteration or two.
With clamp_state = 0 the zeros stay zero from pass to pass.  Causes start
at CAUSE_INIT in every pass.
"""

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .linalg import _rows, column_normalize
from .model import (HyperParams, LayerDims, LayerModel, _cause_values, _gate,
                    _require_finite, _state_terms, pool_states, state_weights,
                    total_energy)
from .causes import infer_cause
from .states import infer_states_batch

# Cap on state/cause alternation blocks within one frame.
_MAX_BLOCKS = 50

# Iterations of each state block and of each cause block.
_BLOCK_ITERS = 2

# Where a state component that was exactly zero in the last accepted pass
# restarts, in units of hp.clamp_state.
_RESTART = 10

# Weight of each step's proximity pull toward the last accepted model.
_THETA_PROX = 0.5

# A trial step is accepted if the pass energy did not rise beyond this
# relative slack; rejections below this are indistinguishable from noise.
_ACCEPT_SLACK = 1e-9


@dataclass(frozen=True)
class LearnConfig:
    """Gradient-step size and outer-loop controls for fitting one layer."""

    lr: float = 1e-3
    outer_tol: float = 1e-4
    max_outer_iter: int = 300

    def __post_init__(self):
        _require_finite(self)
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.outer_tol <= 0 or self.max_outer_iter < 1:
            raise ValueError("outer_tol must be positive, max_outer_iter >= 1")


@dataclass
class FitReport:
    """What happened during fit_layer: accepted-pass energies and counters.

    blocks counts the state/cause blocks of every pass, accepted or not.
    """

    energy_per_outer: list = field(default_factory=list)
    outer_iterations: int = 0
    rejected_steps: int = 0
    converged: bool = False
    wall_time: float = 0.0
    blocks: int = 0


def grad_model(patches, states, prev_states, cause, model: LayerModel,
               hp: HyperParams):
    """Analytic (sub)gradients of the full objective in the three matrices.

    The frame is read by model._state_terms, the one check and formation
    of its state terms that state_energy reads too, and pooled by
    pool_states.  Evaluated at fixed variables: the dictionary sees the
    reconstruction residual, the transition sees lambda*sign(e) of the
    innovation e = x - A x_prev (a subgradient of lambda*||e||_1; a
    component held at its prediction, e = 0 exactly, contributes 0), and
    the coupling sees the exponential gating term.  Returns (dA, dB, dC)
    for (transition, coupling, dictionary).
    """
    x, residual, x_prev, innovation = _state_terms(patches, states,
                                                   prev_states, model, hp)
    u, pooled = _cause_values(cause, model), pool_states(x, hp.pool_gain)
    d_dict = -(residual.T @ x)
    if innovation is None:
        d_trans = np.zeros_like(model.transition)
    else:
        d_trans = -hp.temporal_sparsity * (np.sign(innovation).T @ x_prev)

    d_coup = -np.outer(pooled * _gate(model.coupling, u), u)

    return d_trans, d_coup, d_dict


def update_model(model: LayerModel, grads, cfg: LearnConfig,
                 model_prev: LayerModel, lr_scale: float = 1.0) -> LayerModel:
    """One gradient step with a proximity pull toward the previous model.

    Each matrix moves by lr_scale*cfg.lr along -(grad + _THETA_PROX*d),
    d = theta - theta_prev.  Columns of the coupling and dictionary are
    renormalized afterwards; the transition is left unnormalized.
    """
    d_trans, d_coup, d_dict = grads
    lr = lr_scale * cfg.lr
    a = model.transition - lr * (
        d_trans + _THETA_PROX * (model.transition - model_prev.transition))
    b = model.coupling - lr * (
        d_coup + _THETA_PROX * (model.coupling - model_prev.coupling))
    c = model.dictionary - lr * (
        d_dict + _THETA_PROX * (model.dictionary - model_prev.dictionary))
    return LayerModel(model.dims, a, column_normalize(b), column_normalize(c))


def init_model(dims: LayerDims, rng: np.random.Generator) -> LayerModel:
    """Random starting point: normal entries, unit columns where required."""
    p, k, d = dims.input_dim, dims.state_dim, dims.cause_dim
    a = rng.standard_normal((k, k)) / np.sqrt(k)
    b = column_normalize(rng.standard_normal((k, d)) / np.sqrt(k))
    c = column_normalize(rng.standard_normal((p, k)) / np.sqrt(p))
    return LayerModel(dims, a, b, c)


def infer_frame_variables(patches: np.ndarray, prev_states, model: LayerModel,
                          hp: HyperParams, start=None):
    """Alternate short state and cause blocks until the frame's energy settles.

    Each state block weights the states by state_weights of the previous
    block's cause, the first by those of the cause solver's start, so it
    descends total_energy at that cause, as the cause block does at its
    states.  The first state block starts from start, an (n, k) array
    whose exact zeros move to _RESTART * hp.clamp_state, or from the
    solver's 0.1 everywhere when start is None; the cause starts at
    CAUSE_INIT.  Returns (states, cause, energy, blocks), blocks
    being the number of state/cause blocks run.  prev_states is None on
    the first frame, dropping the temporal term.
    """
    hp_block = replace(hp, max_inner_iter=_BLOCK_ITERS)

    states = None if start is None else \
        np.where(start == 0.0, _RESTART * hp.clamp_state, start)
    cause = None
    energy_prev = None
    for blocks in range(1, _MAX_BLOCKS + 1):
        weights = state_weights(model, [cause], patches.shape[0], hp)
        states, _ = infer_states_batch(patches, prev_states, model, hp_block,
                                       weights, inits=states)
        cause, _ = infer_cause(pool_states(states, hp.pool_gain), model,
                               hp_block, u_init=cause)
        energy = total_energy(patches, states, prev_states, cause, model, hp)
        if energy_prev is not None and \
                abs(energy - energy_prev) <= hp.inner_tol * max(1.0, abs(energy_prev)):
            break
        energy_prev = energy
    return states, cause, energy, blocks


def _sweep(frames, starts, model: LayerModel, hp: HyperParams):
    """One pass over all frames from one state start per frame.

    Returns the pass energy, the summed gradients, each frame's cause and
    states, and the number of state/cause blocks run.
    """
    k, d, p = model.dims.state_dim, model.dims.cause_dim, model.dims.input_dim
    g_trans = np.zeros((k, k))
    g_coup = np.zeros((k, d))
    g_dict = np.zeros((p, k))
    total = 0.0
    causes, all_states = [], []
    blocks = 0
    prev_states = None
    for patches, start in zip(frames, starts):
        states, cause, energy, frame_blocks = infer_frame_variables(
            patches, prev_states, model, hp, start)
        da, db, dc = grad_model(patches, states, prev_states, cause, model, hp)
        g_trans += da
        g_coup += db
        g_dict += dc
        total += energy
        causes.append(cause)
        all_states.append(states)
        blocks += frame_blocks
        prev_states = states
    return total, (g_trans, g_coup, g_dict), causes, all_states, blocks


def fit_layer(frames, dims: LayerDims, hp: HyperParams, cfg: LearnConfig,
              seed: int = 0) -> tuple[LayerModel, list, FitReport]:
    """Fit one layer's matrices to a frame sequence.

    frames holds one (patch, pixel) array per frame; seed seeds the
    starting matrices (init_model).  Every outer pass re-infers all
    variables under the trial matrices and takes one gradient step.  Pass
    1 starts the states at the solver's 0.1; every later pass starts each
    frame's states from that frame's states in the last accepted pass (see
    infer_frame_variables).  A pass whose energy rises is rejected: the
    step is retried from the last accepted model at half the rate, and its
    states are never a start.  Returns the accepted model, the per-frame
    causes from its pass (the next layer's inputs), and the fit report.
    """
    start = time.perf_counter()
    frames = [_rows(f, dims.patch_count, dims.input_dim, "frame patches")
              for f in frames]
    if not frames:
        raise ValueError("fit_layer needs at least one frame")

    theta = init_model(dims, np.random.default_rng(seed))
    report = FitReport()

    best_theta, best_energy, best_grads, best_causes = None, None, None, None
    prev_accepted = theta
    lr_scale = 1.0
    starts = [None] * len(frames)

    for outer in range(1, cfg.max_outer_iter + 1):
        report.outer_iterations = outer
        energy, grads, causes, states, blocks = _sweep(frames, starts, theta, hp)
        report.blocks += blocks

        if best_energy is None or \
                energy <= best_energy + _ACCEPT_SLACK * max(1.0, abs(best_energy)):
            converged = best_energy is not None and \
                abs(energy - best_energy) <= cfg.outer_tol * max(1.0, abs(energy))
            if best_theta is not None:
                prev_accepted = best_theta
            best_theta, best_energy = theta, energy
            best_grads, best_causes, starts = grads, causes, states
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
