"""Domain types and objective evaluators for the layered sparse-coding model.

One layer explains a frame's patch measurements y, one row per patch,
through three matrices: a dictionary (reconstructs patches from sparse
states), a transition (predicts states from the previous frame's states),
and a coupling (modulates state magnitudes through a nonnegative cause
vector).

A frame's patches are one (patch, pixel) float array, its states one
(patch, state) float array, its pooled magnitudes one (state,) vector
(pool_states) and its cause a CauseVector holding one vector; exact zeros
are the sparsity, and nothing else marks them.  _state_terms is the one
check and formation of a frame's state terms, _cause_values the one
reader of a cause, and _cause_inputs the one check of a cause objective's
inputs.  The cause objective takes an optional top-down preference, so
plain and pulled cause solves descend one energy.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch
from .linalg import _rows, aligned_zeros, as_aligned_array, as_float_array

# Where every cause component starts when a solve is given no start.  Zero
# is absorbing for the cause iteration, so the start must be nonzero.
CAUSE_INIT = 0.1


def _require_finite(settings, error=ValueError):
    """Raise error naming each float setting that is NaN or infinite.

    Range checks alone pass NaN: every comparison with it is false.
    """
    bad = [name for name, value in vars(settings).items()
           if isinstance(value, float) and not math.isfinite(value)]
    if bad:
        raise error(f"{', '.join(bad)} must be finite")


@dataclass(frozen=True)
class HyperParams:
    """Weights, thresholds and the inner solves' stop rule for one layer.

    state_sparsity and cause_sparsity weight the l1 penalties on states
    and causes.  temporal_sparsity weights the l1 penalty on the state
    innovation (state minus transition-predicted state).  pool_gain scales
    the pooled state magnitudes that drive cause inference; since the
    energy charges them, it also weights the states, which pay
    state_sparsity + pool_gain*(1 + exp(-coupling@u)) per unit of |x|
    (state_weights).  Every l1 is exact: the energy, the state solver and
    the transition (sub)gradient (grad_model) all read |.|.
    """

    state_sparsity: float = 0.3
    temporal_sparsity: float = 0.1
    pool_gain: float = 0.1
    cause_sparsity: float = 0.3
    clamp_state: float = 1e-4
    clamp_cause: float = 1e-4
    inner_tol: float = 1e-6
    max_inner_iter: int = 200

    def __post_init__(self):
        _require_finite(self)
        if self.state_sparsity <= 0 or self.cause_sparsity <= 0:
            raise ValueError("sparsity weights must be positive")
        if self.pool_gain <= 0:
            raise ValueError("pool_gain must be positive")
        if self.temporal_sparsity < 0:
            raise ValueError("temporal_sparsity must be nonnegative")
        if self.clamp_state < 0 or self.clamp_cause < 0:
            raise ValueError("clamp thresholds must be nonnegative")
        if self.inner_tol <= 0 or self.max_inner_iter < 1:
            raise ValueError("inner_tol must be positive, max_inner_iter >= 1")


@dataclass(frozen=True)
class LayerDims:
    """Sizes for one layer: input_dim < state_dim (overcomplete code)."""

    input_dim: int
    state_dim: int
    cause_dim: int
    patch_count: int

    def __post_init__(self):
        if min(self.input_dim, self.state_dim, self.cause_dim, self.patch_count) <= 0:
            raise ValueError("all dimensions must be positive")
        if self.input_dim >= self.state_dim:
            raise ValueError(
                f"state_dim ({self.state_dim}) must exceed input_dim "
                f"({self.input_dim}) for an overcomplete code"
            )


@dataclass
class LayerModel:
    """The learned triple for one layer.

    dictionary: (input_dim, state_dim), maps states to measurements.
    transition: (state_dim, state_dim), predicts states across time.
    coupling:   (state_dim, cause_dim), gates state magnitudes by causes.
    gram:       (state_dim, state_dim), dictionary^T dictionary, derived at
                construction for the state solves and never serialized.

    Every matrix starts on a 64-byte boundary (linalg.ALIGNMENT); one that
    does not arrive on one is copied.  So the speed of the BLAS products
    on them does not depend on where an allocation happened to land.
    """

    dims: LayerDims
    transition: np.ndarray
    coupling: np.ndarray
    dictionary: np.ndarray
    gram: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        k, d, p = self.dims.state_dim, self.dims.cause_dim, self.dims.input_dim
        for name, shape in (("transition", (k, k)), ("coupling", (k, d)),
                            ("dictionary", (p, k))):
            m = as_aligned_array(getattr(self, name), name)
            if m.shape != shape:
                raise DimensionMismatch(f"{name} must be {shape}, got {m.shape}")
            setattr(self, name, m)
        self.gram = np.matmul(self.dictionary.T, self.dictionary,
                              out=aligned_zeros((k, k)))


@dataclass
class CauseVector:
    """Sparse per-frame variable gating the layer's states."""

    values: np.ndarray

    def __post_init__(self):
        self.values = as_float_array(self.values, "cause values")


def pool_states(states, pool_gain: float) -> np.ndarray:
    """A frame's pooled magnitudes: pool_gain times the per-state sum of |x|
    over its (patch, state) array, so every consumer sees the gain folded in."""
    return pool_gain * np.abs(states).sum(axis=0)


def _cause_values(cause, model: LayerModel) -> np.ndarray:
    """The one cause reader: a CauseVector, an array or None as a float
    vector of the model's cause length.  None stands for the cause
    solver's start, CAUSE_INIT everywhere."""
    d = model.dims.cause_dim
    if cause is None:
        return np.full(d, CAUSE_INIT)
    u = cause.values if isinstance(cause, CauseVector) else \
        as_float_array(cause, "cause values")
    if u.shape != (d,):
        raise DimensionMismatch(f"cause must have length {d}, got {u.shape}")
    return u


def _cause_inputs(model: LayerModel, cause, pooled, preference):
    """The one check of a cause objective's inputs: returns the cause read
    by _cause_values, the pooled magnitudes, a nonnegative (state_dim,)
    vector, and the preference, None or of the cause's length."""
    u = _cause_values(cause, model)
    k = model.dims.state_dim
    pooled = as_float_array(pooled, "pooled magnitudes")
    if pooled.shape != (k,):
        raise DimensionMismatch(
            f"pooled magnitudes must have length {k}, got {pooled.shape}")
    if (pooled < 0).any():
        raise ValueError("pooled magnitudes must be nonnegative")
    if preference is not None:
        preference = as_float_array(preference, "cause preference")
        if preference.shape != u.shape:
            raise DimensionMismatch(f"preference must match the cause, got {preference.shape}")
    return u, pooled, preference


def _state_terms(patches, states, prev_states, model: LayerModel,
                 hp: HyperParams):
    """The one check and formation of a frame's state terms: the rows
    checked by _rows, then (x, y - x C^T, x_prev, x - x_prev A^T), the
    last two None without prev_states or a temporal weight."""
    p, k = model.dictionary.shape
    y = _rows(patches, None, p, "patches")
    x = _rows(states, y.shape[0], k, "states")
    residual = y - x @ model.dictionary.T
    if prev_states is None or hp.temporal_sparsity <= 0:
        return x, residual, None, None
    x_prev = _rows(prev_states, y.shape[0], k, "previous states")
    return x, residual, x_prev, x - x_prev @ model.transition.T


def state_energy(patches, states, prev_states, model: LayerModel, hp: HyperParams) -> float:
    """Exact per-frame state objective: reconstruction + sparsity + innovation.

    patches is the frame's (patch, pixel) array; states and prev_states
    are (patch, state) arrays, read by _state_terms.  Sum over patches of
    0.5*||y - dictionary@x||^2 + state_sparsity*||x||_1 plus
    temporal_sparsity*||x - transition@x_prev||_1.  Pass prev_states as
    None to drop the temporal term (first frame of a sequence).
    """
    x, residual, _, innovation = _state_terms(patches, states, prev_states,
                                              model, hp)
    total = 0.5 * float(np.sum(residual * residual))
    total += hp.state_sparsity * float(np.abs(x).sum())
    if innovation is not None:
        total += hp.temporal_sparsity * float(np.abs(innovation).sum())
    return total


def cause_energy(cause, pooled, model: LayerModel, hp: HyperParams,
                 preference=None) -> float:
    """Exact per-frame cause objective.

    pooled^T (1 + exp(-coupling@u)) + cause_sparsity*||u||_1, with the pool
    gain already folded into pooled (pool_states), plus
    0.5*||u - preference||^2 when a top-down preference is given.  The
    exponential is _gate's.
    """
    u, pooled, preference = _cause_inputs(model, cause, pooled, preference)
    return _cause_objective(u, pooled, model.coupling, hp.cause_sparsity,
                            preference)


def _gate(coupling: np.ndarray, u: np.ndarray) -> np.ndarray:
    """exp(-coupling@u), clipped so a badly scaled model cannot overflow.

    The energy, its gradient, the cause drive and top_down_prediction all
    read this one guard."""
    return np.exp(-(coupling @ u).clip(-700.0, 700.0))


def pooled_weight(model: LayerModel, u: np.ndarray, hp: HyperParams) -> np.ndarray:
    """pool_gain*(1 + _gate(coupling, u)): what the pooled term of
    cause_energy charges each unit of a state component's |x| at cause u.
    state_weights adds it to the state penalty, and top_down_prediction
    gates on it."""
    return hp.pool_gain * (1.0 + _gate(model.coupling, u))


def state_weights(model: LayerModel, causes, rows: int,
                  hp: HyperParams) -> np.ndarray:
    """The sparsity weight total_energy charges each state component.

    mu_k = state_sparsity + pooled_weight(model, u, hp)_k: the state
    penalty plus the pooled term of cause_energy, which charges every
    patch's |x_k| through pooled.  The state solves minimize under
    these weights, so a state block and a cause block descend one energy.
    causes holds one cause per frame, and each frame has rows patches, so
    the result is the (len(causes) * rows, state_dim) weights of
    infer_states_batch.  Each cause is read by _cause_values, so a cause
    None stands for the cause solver's start, CAUSE_INIT everywhere, and a
    frame's first state block descends from there too.
    """
    mu = [hp.state_sparsity + pooled_weight(model, _cause_values(u, model), hp)
          for u in causes]
    return np.repeat(np.reshape(mu, (len(mu), model.dims.state_dim)), rows,
                     axis=0)


def _cause_objective(u, pooled, coupling, beta, preference) -> float:
    """cause_energy's formula on float arrays of matching shapes, unchecked."""
    total = float(pooled @ (1.0 + _gate(coupling, u)))
    total += beta * float(np.abs(u).sum())
    if preference is not None:
        diff = u - preference
        total += 0.5 * float(diff @ diff)
    return total


def total_energy(patches, states, prev_states, cause, model: LayerModel,
                 hp: HyperParams) -> float:
    """Full per-frame objective: state part plus cause part of the states."""
    return (state_energy(patches, states, prev_states, model, hp)
            + cause_energy(cause, pool_states(states, hp.pool_gain), model, hp))
