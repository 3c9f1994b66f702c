"""Domain types and objective evaluators for the layered sparse-coding model.

One layer explains a frame's patch measurements y, one row per patch,
through three matrices: a dictionary (reconstructs patches from sparse
states), a transition (predicts states from the previous frame's states),
and a coupling (modulates state magnitudes through a nonnegative cause
vector).

A frame's patches are one (patch, pixel) float array, its states one
(patch, state) float array and its cause a CauseVector holding one
vector; exact zeros are the sparsity, and nothing else marks them.  The
cause objective takes an optional top-down preference, so plain and pulled
cause solves descend one energy.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch
from .linalg import aligned_zeros, as_aligned_array, as_float_array


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
    """Weights, thresholds, and schedule counts for one layer.

    state_sparsity and cause_sparsity weight the l1 penalties on states
    and causes.  temporal_sparsity weights the l1 penalty on the state
    innovation (state minus transition-predicted state).  pool_gain scales
    the pooled state magnitudes that drive cause inference.  smooth_margin
    is the width of the smoothed absolute value used wherever an l1 term
    must be differentiated.
    """

    state_sparsity: float = 0.3
    temporal_sparsity: float = 0.1
    pool_gain: float = 0.1
    cause_sparsity: float = 0.3
    smooth_margin: float = 0.1
    clamp_state: float = 1e-4
    clamp_cause: float = 1e-4
    state_passes: int = 5
    cause_passes: int = 5
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
        if self.smooth_margin <= 0:
            raise ValueError("smooth_margin must be positive")
        if self.clamp_state < 0 or self.clamp_cause < 0:
            raise ValueError("clamp thresholds must be nonnegative")
        if self.state_passes < 1 or self.cause_passes < 1:
            raise ValueError("pass counts must be at least 1")
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


@dataclass
class PooledStateMagnitude:
    """Gain-scaled sum of absolute states over the frame's patches.

    The pooling gain is folded in at construction so every consumer of the
    pooled vector sees one consistent quantity.
    """

    values: np.ndarray

    def __post_init__(self):
        self.values = as_float_array(self.values, "pooled magnitudes")
        if np.any(self.values < 0):
            raise ValueError("pooled magnitudes must be nonnegative")

    @classmethod
    def pool(cls, states, pool_gain: float) -> "PooledStateMagnitude":
        """Pool a frame's (patch, state) array."""
        return cls(pool_gain * np.abs(states).sum(axis=0))


def _cause_values(cause) -> np.ndarray:
    if isinstance(cause, CauseVector):
        return cause.values
    return as_float_array(cause, "cause values")


def state_energy(patches, states, prev_states, model: LayerModel, hp: HyperParams) -> float:
    """Exact per-frame state objective: reconstruction + sparsity + innovation.

    patches is the frame's (patch, pixel) array; states and prev_states
    are (patch, state) arrays.  Sum over patches of
    0.5*||y - dictionary@x||^2 + state_sparsity*||x||_1 plus
    temporal_sparsity*||x - transition@x_prev||_1.  Pass prev_states as
    None to drop the temporal term (first frame of a sequence).
    """
    y = as_float_array(patches, "patches")
    x = as_float_array(states, "states")
    p, k = model.dictionary.shape
    if y.ndim != 2 or y.shape[1] != p or x.shape != (y.shape[0], k):
        raise DimensionMismatch(
            f"patches {y.shape} and states {x.shape} do not fit a "
            f"({p}, {k}) dictionary")

    residual = y - x @ model.dictionary.T
    total = 0.5 * float(np.sum(residual * residual))
    total += hp.state_sparsity * float(np.abs(x).sum())

    if prev_states is not None and hp.temporal_sparsity > 0:
        x_prev = as_float_array(prev_states, "previous states")
        if x_prev.shape != x.shape:
            raise DimensionMismatch("previous states must match current state shape")
        innovation = x - x_prev @ model.transition.T
        total += hp.temporal_sparsity * float(np.abs(innovation).sum())
    return total


def cause_energy(cause, pooled: PooledStateMagnitude, model: LayerModel,
                 hp: HyperParams, preference=None) -> float:
    """Exact per-frame cause objective.

    pooled^T (1 + exp(-coupling@u)) + cause_sparsity*||u||_1, with the pool
    gain already folded into pooled, plus 0.5*||u - preference||^2 when a
    top-down preference is given.  The exponential is _gate's.
    """
    u = _cause_values(cause)
    if model.coupling.shape[1] != u.shape[0]:
        raise DimensionMismatch("cause length does not match the coupling matrix")
    if model.coupling.shape[0] != pooled.values.shape[0]:
        raise DimensionMismatch("pooled length does not match the coupling matrix")
    if preference is not None:
        preference = as_float_array(preference, "cause preference")
        if preference.shape != u.shape:
            raise DimensionMismatch("preference must match cause length")
    return _cause_objective(u, pooled.values, model.coupling,
                            hp.cause_sparsity, preference)


def _gate(coupling: np.ndarray, u: np.ndarray) -> np.ndarray:
    """exp(-coupling@u), clipped so a badly scaled model cannot overflow.

    The energy, its gradient, the cause drive and top_down_prediction all
    read this one guard."""
    return np.exp(-(coupling @ u).clip(-700.0, 700.0))


def _cause_objective(u, pooled, coupling, beta, preference) -> float:
    """cause_energy's formula on float arrays of matching shapes, unchecked."""
    total = float(pooled @ (1.0 + _gate(coupling, u)))
    total += beta * float(np.abs(u).sum())
    if preference is not None:
        diff = u - preference
        total += 0.5 * float(diff @ diff)
    return total


def total_energy(patches, states, prev_states, cause, pooled, model: LayerModel,
                 hp: HyperParams) -> float:
    """Full per-frame objective: state part plus cause part."""
    return (state_energy(patches, states, prev_states, model, hp)
            + cause_energy(cause, pooled, model, hp))
