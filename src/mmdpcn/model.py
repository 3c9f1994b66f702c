"""Domain types and objective evaluators for the layered sparse-coding model.

One layer explains a batch of patch measurements y through three matrices:
a dictionary (reconstructs patches from sparse states), a transition
(predicts states from the previous frame's states), and a coupling
(modulates state magnitudes through a nonnegative cause vector).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch
from .linalg import as_float_array
from .majorize import smooth_l1


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
    """

    dims: LayerDims
    transition: np.ndarray
    coupling: np.ndarray
    dictionary: np.ndarray
    gram: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        k, d, p = self.dims.state_dim, self.dims.cause_dim, self.dims.input_dim
        self.transition = as_float_array(self.transition, "transition")
        self.coupling = as_float_array(self.coupling, "coupling")
        self.dictionary = as_float_array(self.dictionary, "dictionary")
        if self.transition.shape != (k, k):
            raise DimensionMismatch(f"transition must be {(k, k)}, got {self.transition.shape}")
        if self.coupling.shape != (k, d):
            raise DimensionMismatch(f"coupling must be {(k, d)}, got {self.coupling.shape}")
        if self.dictionary.shape != (p, k):
            raise DimensionMismatch(f"dictionary must be {(p, k)}, got {self.dictionary.shape}")
        self.gram = self.dictionary.T @ self.dictionary


def _clamped(values: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    out = values.copy()
    mask = np.abs(out) < threshold
    out[mask] = 0.0
    return out, mask


@dataclass
class StateVector:
    """Sparse per-patch code; entries under the clamp threshold are exact zeros."""

    values: np.ndarray
    clamped: np.ndarray

    def __post_init__(self):
        self.values = as_float_array(self.values, "state values")
        self.clamped = np.asarray(self.clamped, dtype=bool)
        if self.clamped.shape != self.values.shape:
            raise DimensionMismatch("clamp mask must match value shape")
        if np.any(self.values[self.clamped] != 0.0):
            raise ValueError("clamped entries must be exactly zero")

    @classmethod
    def from_dense(cls, values, threshold: float) -> "StateVector":
        vals, mask = _clamped(as_float_array(values, "state values"), threshold)
        return cls(vals, mask)


@dataclass
class CauseVector:
    """Sparse per-frame variable gating the layer's states."""

    values: np.ndarray
    clamped: np.ndarray

    def __post_init__(self):
        self.values = as_float_array(self.values, "cause values")
        self.clamped = np.asarray(self.clamped, dtype=bool)
        if self.clamped.shape != self.values.shape:
            raise DimensionMismatch("clamp mask must match value shape")
        if np.any(self.values[self.clamped] != 0.0):
            raise ValueError("clamped entries must be exactly zero")

    @classmethod
    def from_dense(cls, values, threshold: float) -> "CauseVector":
        vals, mask = _clamped(as_float_array(values, "cause values"), threshold)
        return cls(vals, mask)


@dataclass
class PatchBatch:
    """All patch measurements of one frame at one layer, one row per patch."""

    time_index: int
    patches: np.ndarray

    def __post_init__(self):
        self.patches = as_float_array(self.patches, "patches")
        if self.patches.ndim != 2:
            raise DimensionMismatch("patches must be a 2-d array (patch, pixel)")


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
        dense = states_matrix(states)
        return cls(pool_gain * np.abs(dense).sum(axis=0))


def states_matrix(states) -> np.ndarray:
    """Coerce a list of StateVector (or an array) to a 2-d (patch, state) array."""
    if isinstance(states, np.ndarray):
        return states if states.ndim == 2 else states[None, :]
    rows = [s.values if isinstance(s, StateVector) else np.asarray(s, dtype=np.float64)
            for s in states]
    return np.vstack([r[None, :] for r in rows])


def _cause_values(cause) -> np.ndarray:
    if isinstance(cause, CauseVector):
        return cause.values
    return as_float_array(cause, "cause values")


def state_energy(batch, states, prev_states, model: LayerModel, hp: HyperParams) -> float:
    """Exact per-frame state objective: reconstruction + sparsity + innovation.

    Sum over patches of 0.5*||y - dictionary@x||^2 + state_sparsity*||x||_1
    plus temporal_sparsity*||x - transition@x_prev||_1.  Pass prev_states as
    None to drop the temporal term (first frame of a sequence).
    """
    return _state_energy(batch, states, prev_states, model, hp, smoothed=False)


def smoothed_state_energy(batch, states, prev_states, model: LayerModel,
                          hp: HyperParams) -> float:
    """State objective with the innovation l1 replaced by its smoothed form.

    This is the quantity the state iteration actually descends; it differs
    from state_energy by at most temporal_sparsity * smooth_margin/2 per
    innovation component.
    """
    return _state_energy(batch, states, prev_states, model, hp, smoothed=True)


def _state_energy(batch, states, prev_states, model, hp, smoothed):
    y = batch.patches if isinstance(batch, PatchBatch) else as_float_array(batch, "patches")
    if y.ndim == 1:
        y = y[None, :]
    x = states_matrix(states)
    if y.shape[0] != x.shape[0]:
        raise DimensionMismatch(
            f"{y.shape[0]} patches but {x.shape[0]} state vectors")
    if y.shape[1] != model.dictionary.shape[0] or x.shape[1] != model.dictionary.shape[1]:
        raise DimensionMismatch("patch or state length does not match the dictionary")

    residual = y - x @ model.dictionary.T
    total = 0.5 * float(np.sum(residual * residual))
    total += hp.state_sparsity * float(np.abs(x).sum())

    if prev_states is not None and hp.temporal_sparsity > 0:
        x_prev = states_matrix(prev_states)
        if x_prev.shape != x.shape:
            raise DimensionMismatch("previous states must match current state shape")
        innovation = x - x_prev @ model.transition.T
        if smoothed:
            total += hp.temporal_sparsity * smooth_l1(innovation.ravel(), hp.smooth_margin)
        else:
            total += hp.temporal_sparsity * float(np.abs(innovation).sum())
    return total


def cause_energy(cause, pooled: PooledStateMagnitude, model: LayerModel,
                 hp: HyperParams) -> float:
    """Exact per-frame cause objective.

    pooled^T (1 + exp(-coupling@u)) + cause_sparsity*||u||_1, with the pool
    gain already folded into pooled.  The exponent is range-guarded so badly
    scaled models cannot overflow.
    """
    u = _cause_values(cause)
    if model.coupling.shape[1] != u.shape[0]:
        raise DimensionMismatch("cause length does not match the coupling matrix")
    if model.coupling.shape[0] != pooled.values.shape[0]:
        raise DimensionMismatch("pooled length does not match the coupling matrix")
    z = np.clip(model.coupling @ u, -700.0, 700.0)
    total = float(pooled.values @ (1.0 + np.exp(-z)))
    total += hp.cause_sparsity * float(np.abs(u).sum())
    return total


def topdown_cause_energy(cause, pooled: PooledStateMagnitude, preference: np.ndarray,
                         model: LayerModel, hp: HyperParams) -> float:
    """Cause objective plus a quadratic pull toward a predicted preference."""
    u = _cause_values(cause)
    u_hat = as_float_array(preference, "cause preference")
    if u_hat.shape != u.shape:
        raise DimensionMismatch("preference must match cause length")
    diff = u - u_hat
    return cause_energy(u, pooled, model, hp) + 0.5 * float(diff @ diff)


def total_energy(batch, states, prev_states, cause, pooled, model: LayerModel,
                 hp: HyperParams) -> float:
    """Full per-frame objective: state part plus cause part."""
    return (state_energy(batch, states, prev_states, model, hp)
            + cause_energy(cause, pooled, model, hp))
