"""Multi-layer orchestration: patching, stacked training, joint inference.

Layers chain through causes: the whole cause vector of layer l is the
single input patch of layer l+1.  Training is greedy bottom-up.  Inference
runs repeated bottom-up sweeps in which every layer's cause is pulled
toward a prediction rendered by the layer above.
"""

import struct
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigError, DimensionMismatch, FormatError, GridMismatch,
                     ShapeError)
from .linalg import as_float_array
from .model import (HyperParams, LayerDims, LayerModel, PatchBatch,
                    PooledStateMagnitude)
from .causes import infer_cause, infer_cause_topdown, top_down_prediction
from .learning import LearnConfig, fit_layer
from .states import _times_rows, infer_states_batch

_MAGIC = b"DPCN"
_VERSION = 1

# Order in which hyperparameters are serialized, one f64 each.
_HP_FIELDS = ("state_sparsity", "temporal_sparsity", "pool_gain",
              "cause_sparsity", "smooth_margin", "clamp_state", "clamp_cause",
              "state_passes", "cause_passes", "inner_tol", "max_inner_iter")
_INT_HP = {"state_passes", "cause_passes", "max_inner_iter"}


@dataclass(frozen=True)
class LayerSpec:
    """Everything needed to build and fit one layer."""

    dims: LayerDims
    hp: HyperParams
    learn: LearnConfig


@dataclass(frozen=True)
class NetworkConfig:
    """Layer stack plus the frame patching scheme.

    Adjacent layers must chain: layer l+1's input dim equals layer l's
    cause dim, and only layer 1 sees more than one patch per frame.
    """

    layers: tuple
    grid: tuple = (2, 2)
    channels: int = 1

    def __post_init__(self):
        if not self.layers:
            raise ConfigError("at least one layer is required")
        rows, cols = self.grid
        if rows < 1 or cols < 1:
            raise ConfigError("grid must be positive in both directions")
        if self.channels not in (1, 3):
            raise ConfigError("channels must be 1 or 3")
        first = self.layers[0].dims
        if first.patch_count != rows * cols:
            raise ConfigError(
                f"layer 1 must have {rows * cols} patches for a {rows}x{cols} grid, "
                f"got {first.patch_count}")
        for i in range(1, len(self.layers)):
            lower, upper = self.layers[i - 1].dims, self.layers[i].dims
            if upper.input_dim != lower.cause_dim:
                raise ConfigError(
                    f"layer {i + 1} input dim {upper.input_dim} must equal "
                    f"layer {i} cause dim {lower.cause_dim}")
            if upper.patch_count != 1:
                raise ConfigError("layers above the first take a single patch")

    def validate_frame_shape(self, height: int, width: int, channels: int = 1):
        rows, cols = self.grid
        if height % rows or width % cols:
            raise GridMismatch(
                f"frame {height}x{width} not divisible by grid {rows}x{cols}")
        if channels != self.channels:
            raise ConfigError(f"config expects {self.channels} channels, got {channels}")
        expected = (height // rows) * (width // cols) * channels
        if self.layers[0].dims.input_dim != expected:
            raise ConfigError(
                f"layer 1 input dim {self.layers[0].dims.input_dim} does not match "
                f"patch size {expected}")


@dataclass
class Layer:
    """A trained layer: its matrices plus the hyperparameters they were fit with."""

    model: LayerModel
    hp: HyperParams


def decompose_frame(frame: np.ndarray, grid: tuple, time_index: int = 0) -> PatchBatch:
    """Split a frame into a grid of contiguous patches, row-major.

    Each patch is vectorized in row-major pixel order with the channel
    fastest.  Frame dimensions must be divisible by the grid.
    """
    frame = as_float_array(frame, "frame")
    if frame.ndim not in (2, 3):
        raise DimensionMismatch("frame must be HxW or HxWxC")
    rows, cols = grid
    h, w = frame.shape[0], frame.shape[1]
    if rows < 1 or cols < 1 or h % rows or w % cols:
        raise GridMismatch(f"frame {h}x{w} not divisible by grid {rows}x{cols}")
    bh, bw = h // rows, w // cols
    patches = []
    for r in range(rows):
        for c in range(cols):
            block = frame[r * bh:(r + 1) * bh, c * bw:(c + 1) * bw]
            patches.append(block.ravel())
    return PatchBatch(time_index, np.vstack(patches))


def recompose_frame(patches: np.ndarray, grid: tuple, frame_shape: tuple) -> np.ndarray:
    """Inverse of decompose_frame for a full set of patches."""
    rows, cols = grid
    h, w = frame_shape[0], frame_shape[1]
    bh, bw = h // rows, w // cols
    block_shape = (bh, bw) if len(frame_shape) == 2 else (bh, bw, frame_shape[2])
    frame = np.zeros(frame_shape)
    i = 0
    for r in range(rows):
        for c in range(cols):
            frame[r * bh:(r + 1) * bh, c * bw:(c + 1) * bw] = \
                patches[i].reshape(block_shape)
            i += 1
    return frame


def train_network(frames, cfg: NetworkConfig):
    """Fit the stack bottom-up on a frame sequence.

    Layer 1 is fit on the patch decomposition; each further layer is fit on
    the per-frame causes of the layer below, treated as single-patch frames.
    Returns (layers, fit reports).
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim == 3:
        cfg.validate_frame_shape(frames.shape[1], frames.shape[2], 1)
    elif frames.ndim == 4:
        cfg.validate_frame_shape(frames.shape[1], frames.shape[2], frames.shape[3])
    else:
        raise DimensionMismatch("frames must be TxHxW or TxHxWxC")

    batches = [decompose_frame(f, cfg.grid, t) for t, f in enumerate(frames)]
    layers, reports = [], []
    for spec in cfg.layers:
        model, causes, report = fit_layer(batches, spec.dims, spec.hp, spec.learn)
        layers.append(Layer(model, spec.hp))
        reports.append(report)
        batches = [PatchBatch(t, cv.values[None, :]) for t, cv in enumerate(causes)]
    return layers, reports


@dataclass
class InferenceResult:
    """Per-frame, per-layer variables from a full inference pass.

    states[t][l] is layer l's (patch, state) array at frame t and
    causes[t][l] its CauseVector.
    """

    states: list = field(default_factory=list)
    causes: list = field(default_factory=list)
    per_frame_seconds: list = field(default_factory=list)


def infer_variables(frames, layers, grid: tuple, sweeps: int = 10,
                    segment_starts=()) -> InferenceResult:
    """Infer states and causes for every frame with top-down refinement.

    Per frame: repeated bottom-up sweeps.  Within a sweep each layer infers
    its states (warm-started, temporal term against the previous frame) and
    then its cause, pulled toward the prediction rendered by the layer
    above; the top layer is pulled toward its own previous-frame cause.
    The first frame has no temporal context, so it gets one plain
    bottom-up pass without preferences.

    segment_starts lists frame indices where the temporal context resets:
    frames at a scene cut between independent clips carry no information
    about each other, so each listed frame is treated like the first.
    Inference over a segmented sequence is bit-identical to inferring each
    segment separately.

    Raises ConfigError, before any solve, when there is no layer or the
    grid does not cut the frames into layer 1's patch count and patch
    length.
    """
    frames = np.asarray(frames, dtype=np.float64)
    n_layers = len(layers)
    if n_layers == 0:
        raise ConfigError("at least one layer is required")
    if frames.shape[0] > 0:
        dims = layers[0].model.dims
        count, length = decompose_frame(frames[0], grid, 0).patches.shape
        if (count, length) != (dims.patch_count, dims.input_dim):
            raise ConfigError(
                f"grid {grid[0]}x{grid[1]} cuts frames into {count} patches of "
                f"length {length}; layer 1 expects {dims.patch_count} of "
                f"length {dims.input_dim}")
    starts = {int(s) for s in segment_starts}
    result = InferenceResult()

    prev_states = [None] * n_layers
    prev_causes = [None] * n_layers

    for t in range(frames.shape[0]):
        tick = time.perf_counter()
        fresh = t == 0 or t in starts
        if fresh:
            prev_states = [None] * n_layers
            prev_causes = [None] * n_layers
        batch0 = decompose_frame(frames[t], grid, t)

        cur_states = [None] * n_layers
        cur_causes = [None] * n_layers

        n_sweeps = 1 if fresh else sweeps
        for sweep in range(n_sweeps):
            previous = [cv.values.copy() if cv is not None else None
                        for cv in cur_causes]
            batch = batch0
            for l, layer in enumerate(layers):
                states, _ = infer_states_batch(
                    batch, prev_states[l], layer.model, layer.hp,
                    inits=cur_states[l])
                pooled = PooledStateMagnitude.pool(states, layer.hp.pool_gain)

                if fresh:
                    cause, _ = infer_cause(pooled, layer.model, layer.hp,
                                           u_init=cur_causes[l])
                else:
                    if l == n_layers - 1:
                        preference = prev_causes[l].values
                    else:
                        upper = layers[l + 1]
                        upper_u = cur_causes[l + 1] if cur_causes[l + 1] is not None \
                            else prev_causes[l + 1]
                        preference = top_down_prediction(
                            upper.model, prev_states[l + 1][0], upper_u,
                            upper.hp).u_hat
                    # Fresh default init on the first sweep: zeros are
                    # absorbing, so seeding from the previous frame's cause
                    # would freeze its support across the whole sequence.
                    cause, _ = infer_cause_topdown(
                        pooled, preference, layer.model, layer.hp,
                        u_init=cur_causes[l])

                cur_states[l] = states
                cur_causes[l] = cause
                batch = PatchBatch(t, cause.values[None, :])

            if all(p is not None for p in previous):
                change = max(
                    float(np.max(np.abs(cur_causes[l].values - previous[l])))
                    for l in range(n_layers))
                if change < layers[0].hp.inner_tol:
                    break

        result.states.append(cur_states)
        result.causes.append(cur_causes)
        result.per_frame_seconds.append(time.perf_counter() - tick)
        prev_states = cur_states
        prev_causes = cur_causes

    return result


def reconstruct_frames(frames_shape: tuple, layers, result: InferenceResult,
                       grid: tuple) -> np.ndarray:
    """Render layer-1 reconstructions of every frame from inferred states.

    Each patch is the dictionary times that patch's state, one product per
    patch, so it rounds exactly as the state solve's own reconstruction.
    """
    t_count = len(result.states)
    out = np.zeros((t_count,) + tuple(frames_shape))
    c = layers[0].model.dictionary
    for t in range(t_count):
        patches = _times_rows(c, result.states[t][0])
        out[t] = recompose_frame(patches, grid, tuple(frames_shape))
    return out


def save_network(layers, path):
    """Write the layer stack to a self-describing binary file.

    Layout: magic, version (u16), layer count (u16); per layer the four
    dims (u32), the hyperparameters (11 f64), then the transition,
    coupling, and dictionary matrices row-major as little-endian f64.
    """
    blob = bytearray()
    blob += _MAGIC
    blob += struct.pack("<HH", _VERSION, len(layers))
    for layer in layers:
        d = layer.model.dims
        blob += struct.pack("<IIII", d.input_dim, d.state_dim, d.cause_dim,
                            d.patch_count)
        blob += struct.pack("<11d", *(float(getattr(layer.hp, f)) for f in _HP_FIELDS))
        for m in (layer.model.transition, layer.model.coupling, layer.model.dictionary):
            blob += np.ascontiguousarray(m, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(bytes(blob))


def _take(buf: memoryview, offset: int, count: int) -> tuple[memoryview, int]:
    if offset + count > len(buf):
        raise FormatError("model file is truncated")
    return buf[offset:offset + count], offset + count


def load_network(path) -> list:
    """Read a layer stack written by save_network."""
    with open(path, "rb") as fh:
        buf = memoryview(fh.read())
    head, off = _take(buf, 0, 8)
    if bytes(head[:4]) != _MAGIC:
        raise FormatError("bad magic; not a model file")
    version, count = struct.unpack("<HH", head[4:])
    if version != _VERSION:
        raise FormatError(f"unsupported model file version {version}")

    layers = []
    for _ in range(count):
        raw, off = _take(buf, off, 16)
        p, k, d, n = struct.unpack("<IIII", raw)
        try:
            dims = LayerDims(p, k, d, n)
        except ValueError as exc:
            raise ShapeError(str(exc)) from None
        raw, off = _take(buf, off, 11 * 8)
        values = struct.unpack("<11d", raw)
        kwargs = {}
        for name, value in zip(_HP_FIELDS, values):
            kwargs[name] = int(round(value)) if name in _INT_HP else value
        try:
            hp = HyperParams(**kwargs)
        except ValueError as exc:
            raise FormatError(f"invalid hyperparameters in model file: {exc}") from None

        mats = []
        for shape in ((k, k), (k, d), (p, k)):
            nbytes = shape[0] * shape[1] * 8
            raw, off = _take(buf, off, nbytes)
            mats.append(np.frombuffer(raw, dtype="<f8").reshape(shape).copy())
        layers.append(Layer(LayerModel(dims, *mats), hp))
    if off != len(buf):
        raise FormatError("trailing bytes after the last layer")
    return layers
