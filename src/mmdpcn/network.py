"""Multi-layer orchestration: patching, stacked training, joint inference.

Layers chain through causes: the whole cause vector of layer l is the
single input patch of layer l+1.  Training is greedy bottom-up.  Inference
runs repeated bottom-up sweeps in which every layer's cause is pulled
toward a prediction rendered by the layer above.
"""

import numbers
import struct
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError, DimensionMismatch, FormatError, GridMismatch
from .frames import _read_file, _write_file, to_grayscale
from .linalg import _times_rows, as_float_array
from .model import HyperParams, LayerDims, LayerModel, pool_states, state_weights
from .causes import infer_cause, infer_cause_topdown, top_down_prediction
from .learning import LearnConfig, fit_layer
from .states import infer_states_batch

_MAGIC = b"DPCN"
_VERSION = 4

# The hyperparameters a model file stores, one f64 each, in file order.
_HP_FIELDS = ("state_sparsity", "temporal_sparsity", "pool_gain",
              "cause_sparsity", "clamp_state", "clamp_cause", "inner_tol",
              "max_inner_iter")
_INT_HP = {f.name for f in fields(HyperParams) if f.type is int}

# Cap on the bottom-up sweeps per frame of infer_variables.
_SWEEPS = 10


@dataclass(frozen=True)
class LayerSpec:
    """Everything needed to build and fit one layer."""

    dims: LayerDims
    hp: HyperParams
    learn: LearnConfig


def _check_chain(dims, error):
    """Raise error unless a stack of LayerDims is not empty and chains:
    layer l+1's input_dim equals layer l's cause_dim, and every layer
    above the first has grid (1, 1), one patch per frame."""
    if not dims:
        raise error("at least one layer is required")
    for i, (lower, upper) in enumerate(zip(dims, dims[1:]), start=1):
        if upper.input_dim != lower.cause_dim:
            raise error(f"layer {i + 1} input dim {upper.input_dim} must "
                        f"equal layer {i} cause dim {lower.cause_dim}")
        if upper.grid != (1, 1):
            raise error("layers above the first take a single patch")


@dataclass(frozen=True)
class NetworkConfig:
    """A layer stack to train: there must be a layer, and adjacent layers
    must chain (_check_chain).  Layer 1's dims hold the patch grid, which
    _fit_frames checks against the frames themselves."""

    layers: tuple

    def __post_init__(self):
        _check_chain([spec.dims for spec in self.layers], ConfigError)

    @property
    def grid(self) -> tuple:
        return self.layers[0].dims.grid  # layer 1's, as perfbench reads it


@dataclass
class Layer:
    """A trained layer: its matrices plus the hyperparameters they were fit with."""

    model: LayerModel
    hp: HyperParams


def decompose_frame(frame: np.ndarray, grid: tuple) -> np.ndarray:
    """Cut an HxW or HxWxC frame into the blocks of a (rows, cols) grid.

    Returns the (patch, pixel) array.  Patch r*cols + c is block (r, c),
    frame[r*bh:(r+1)*bh, c*bw:(c+1)*bw] with bh = H/rows and bw = W/cols,
    its pixels row-major with the channel fastest.  The grid must divide
    the frame.
    """
    frame = as_float_array(frame, "frame")
    if frame.ndim not in (2, 3):
        raise DimensionMismatch("frame must be HxW or HxWxC")
    rows, cols = grid
    h, w = frame.shape[0], frame.shape[1]
    if rows < 1 or cols < 1 or h % rows or w % cols:
        raise GridMismatch(f"frame {h}x{w} not divisible by grid {rows}x{cols}")
    blocks = frame.reshape(rows, h // rows, cols, w // cols, -1)
    return blocks.swapaxes(1, 2).reshape(rows * cols, -1)


def recompose_frame(patches: np.ndarray, grid: tuple, frame_shape: tuple) -> np.ndarray:
    """Inverse of decompose_frame for a full set of patches."""
    rows, cols = grid
    h, w = frame_shape[0], frame_shape[1]
    blocks = np.reshape(patches, (rows, cols, h // rows, w // cols, -1))
    return blocks.swapaxes(1, 2).reshape(frame_shape)


def _fit_frames(frames, dims: LayerDims, grid: tuple) -> np.ndarray:
    """frames as one float array, checked to cut into layer 1's patches.

    A grid other than the layer's own (dims.grid) raises ConfigError.
    Cutting a blank frame of their shape raises what decompose_frame
    raises; patches of other than dims.input_dim values raise ConfigError.
    A patch holds its pixels times the frame's channels, so colour frames
    whose patches are 3 * input_dim long are collapsed to luma
    (frames.to_grayscale).  A sequence of no frames fits when its frame
    shape does.
    """
    if tuple(grid) != dims.grid:
        raise ConfigError(f"grid {grid[0]}x{grid[1]} is not the model's "
                          f"{dims.grid[0]}x{dims.grid[1]}")
    frames = np.asarray(frames, dtype=np.float64)
    length = decompose_frame(np.zeros(frames.shape[1:]), grid).shape[1]
    if frames.shape[3:] == (3,) and length == 3 * dims.input_dim:
        frames, length = to_grayscale(frames), dims.input_dim
    if length != dims.input_dim:
        raise ConfigError(
            f"grid {grid[0]}x{grid[1]} cuts frames into patches of length "
            f"{length}; layer 1 expects length {dims.input_dim}")
    return frames


def train_network(frames, cfg: NetworkConfig, seed: int = 0):
    """Fit the stack bottom-up on a frame sequence.

    Layer 1 is fit on the patch decomposition; each further layer is fit on
    the per-frame causes of the layer below, treated as single-patch frames.
    seed seeds every layer's starting matrices (fit_layer).
    Returns (layers, fit reports).  Before any solve the frames go through
    _fit_frames, as in infer_variables, which collapses or refuses them.
    """
    frames = _fit_frames(frames, cfg.layers[0].dims, cfg.grid)
    inputs = [decompose_frame(f, cfg.grid) for f in frames]
    layers, reports = [], []
    for spec in cfg.layers:
        model, causes, report = fit_layer(inputs, spec.dims, spec.hp,
                                          spec.learn, seed)
        layers.append(Layer(model, spec.hp))
        reports.append(report)
        inputs = [cv.values[None, :] for cv in causes]
    return layers, reports


@dataclass
class InferenceResult:
    """Per-frame, per-layer variables from a full inference pass.

    states[t][l] is layer l's (patch, state) array at frame t and
    causes[t][l] its CauseVector.  per_frame_seconds[t] is frame t's share
    of the step that inferred it: like SolveTrace.wall_time in a batch,
    each step's elapsed time is split equally between the frames stacked
    in it.  The shares add up to the whole pass after input validation.
    """

    states: list = field(default_factory=list)
    causes: list = field(default_factory=list)
    per_frame_seconds: list = field(default_factory=list)


def infer_variables(frames, layers, grid: tuple,
                    segment_starts=()) -> InferenceResult:
    """Infer states and causes for every frame with top-down refinement.

    Per frame: up to _SWEEPS bottom-up sweeps.  Within a sweep each layer
    infers its states (warm-started, temporal term against the previous
    frame) and then its cause, pulled toward the prediction rendered by
    the layer above; the top layer is pulled toward its own previous-frame
    cause.  The states pay the weights total_energy charges them under the
    frame's cause from the last sweep, in the first sweep the previous
    frame's (model.state_weights).  The first frame has no temporal
    context, so it gets one plain bottom-up pass without preferences, its
    states weighted at the cause solver's start.  A frame stops sweeping
    once no layer's cause moved by layer 1's inner_tol or more.

    segment_starts lists frame indices where the temporal context resets:
    frames at a scene cut between independent clips carry no information
    about each other, so each listed frame is treated like the first.
    Start 0 and repeated starts are allowed.

    Segments share no state, so they are inferred side by side.  Step tau
    infers frame tau of every segment that long; in each sweep, one
    infer_states_batch call per layer solves the rows of all of those
    frames still sweeping, and each frame's cause is solved on its own.
    The state kernel solves every row on its own too, so inference over a
    segmented sequence is bit-identical to inferring each segment
    separately.

    Raises before any solve: ConfigError when the layers do not make a
    stack NetworkConfig accepts (_check_chain) or a segment start is not an
    integer frame index, and the errors of the frame check train_network
    makes (_fit_frames) when grid is not layer 1's own (perfbench still
    passes it; ROADMAP.md item 7) or layer 1 cannot take the frames.
    """
    _check_chain([layer.model.dims for layer in layers], ConfigError)
    n_layers = len(layers)
    frames = _fit_frames(frames, layers[0].model.dims, grid)
    t_count = frames.shape[0]
    for s in segment_starts:
        if not isinstance(s, numbers.Integral) or not 0 <= s < t_count:
            raise ConfigError(
                f"segment start {s!r} is not a frame index in [0, {t_count})")
    firsts = sorted({0, *(int(s) for s in segment_starts)}) if t_count else []
    ends = firsts[1:] + [t_count]
    tol = layers[0].hp.inner_tol
    result = InferenceResult([None] * t_count, [None] * t_count,
                             [0.0] * t_count)

    clock = time.perf_counter()
    for tau in range(max((e - f for f, e in zip(firsts, ends)), default=0)):
        step = [f + tau for f, e in zip(firsts, ends) if f + tau < e]
        fresh = tau == 0
        patches = {t: decompose_frame(frames[t], grid) for t in step}
        for t in step:
            result.states[t] = [None] * n_layers
            result.causes[t] = [None] * n_layers

        sweeping = step
        for sweep in range(1 if fresh else _SWEEPS):
            previous = {t: list(result.causes[t]) for t in sweeping}
            batch = np.vstack([patches[t] for t in sweeping])
            for l, layer in enumerate(layers):
                prev = None if fresh else \
                    np.vstack([result.states[t - 1][l] for t in sweeping])
                inits = None if sweep == 0 else \
                    np.vstack([result.states[t][l] for t in sweeping])
                # Each frame's states are weighted by its current cause, in
                # sweep 0 by the previous frame's, and on a fresh frame by
                # the cause solver's start.
                causes = [None if fresh else result.causes[t if sweep else t - 1][l]
                          for t in sweeping]
                weights = state_weights(layer.model, causes,
                                        batch.shape[0] // len(sweeping),
                                        layer.hp)
                states, _ = infer_states_batch(batch, prev, layer.model,
                                               layer.hp, weights, inits=inits)
                for t, x in zip(sweeping, np.split(states, len(sweeping))):
                    cur = result.causes[t]
                    pooled = pool_states(x, layer.hp.pool_gain)
                    if fresh:
                        cause, _ = infer_cause(pooled, layer.model, layer.hp)
                    else:
                        last = result.causes[t - 1]
                        if l == n_layers - 1:
                            preference = last[l].values
                        else:
                            upper = layers[l + 1]
                            upper_u = cur[l + 1] if cur[l + 1] is not None \
                                else last[l + 1]
                            preference = top_down_prediction(
                                upper.model, result.states[t - 1][l + 1][0],
                                upper_u, upper.hp)
                        # Fresh default init on the first sweep: zeros are
                        # absorbing, so seeding from the previous frame's
                        # cause would freeze its support across the whole
                        # sequence.
                        cause, _ = infer_cause_topdown(
                            pooled, preference, layer.model, layer.hp,
                            u_init=cur[l])
                    result.states[t][l] = x
                    cur[l] = cause
                batch = np.vstack([result.causes[t][l].values
                                   for t in sweeping])

            if sweep > 0:
                sweeping = [t for t in sweeping if not max(
                    float(np.max(np.abs(cv.values - old.values)))
                    for cv, old in zip(result.causes[t], previous[t])) < tol]
                if not sweeping:
                    break

        now = time.perf_counter()
        for t in step:
            result.per_frame_seconds[t] = (now - clock) / len(step)
        clock = now
    return result


def reconstruct_frames(frames_shape: tuple, layers, result: InferenceResult,
                       grid: tuple) -> np.ndarray:
    """Render layer-1 reconstructions of every frame from inferred states.

    Each patch is the dictionary times that patch's state, one product per
    patch, so it rounds exactly as the state solve's own reconstruction.
    _fit_frames refuses a grid or frame shape that is not layer 1's.
    """
    _fit_frames(np.zeros((0, *frames_shape)), layers[0].model.dims, grid)
    t_count = len(result.states)
    out = np.zeros((t_count,) + tuple(frames_shape))
    c = layers[0].model.dictionary
    for t in range(t_count):
        patches = _times_rows(c, result.states[t][0])
        out[t] = recompose_frame(patches, grid, tuple(frames_shape))
    return out


def save_network(layers, path):
    """Write the layer stack to a self-describing binary file.

    Layout: magic, version (u16), layer count (u16); per layer 3 dims and
    the grid's rows and cols (u32), the hyperparameters (_HP_FIELDS, f64),
    then the transition, coupling, and dictionary matrices row-major as
    little-endian f64.
    Raises ConfigError, before writing, on a stack that load_network would
    refuse: no layers, or layers that do not chain (_check_chain).
    """
    _check_chain([layer.model.dims for layer in layers], ConfigError)
    blob = bytearray(_MAGIC + struct.pack("<HH", _VERSION, len(layers)))
    for layer in layers:
        d = layer.model.dims
        blob += struct.pack("<5I", d.input_dim, d.state_dim, d.cause_dim,
                            *d.grid)
        blob += struct.pack(f"<{len(_HP_FIELDS)}d",
                            *(float(getattr(layer.hp, f)) for f in _HP_FIELDS))
        for m in (layer.model.transition, layer.model.coupling, layer.model.dictionary):
            blob += np.ascontiguousarray(m, dtype="<f8").tobytes()
    _write_file(path, bytes(blob))


def _take(buf: memoryview, offset: int, count: int) -> tuple[memoryview, int]:
    if offset + count > len(buf):
        raise FormatError("model file is truncated")
    return buf[offset:offset + count], offset + count


def load_network(path) -> list:
    """Read a stack of one or more layers from a version-4 file.

    Raises FormatError on every malformed file: a bad magic, truncation
    or trailing bytes, invalid dims, grid or hyperparameters, no layers,
    layers that do not chain (_check_chain), or another version (1-3 do
    not record the grid).  IoError when the file cannot be read.
    """
    buf = memoryview(_read_file(path))
    head, off = _take(buf, 0, 8)
    if bytes(head[:4]) != _MAGIC:
        raise FormatError("bad magic; not a model file")
    version, count = struct.unpack("<HH", head[4:])
    if version != _VERSION:
        raise FormatError(f"model file version {version} is not {_VERSION}, "
                          "the one that records the grid; retrain the model")

    layers = []
    for _ in range(count):
        raw, off = _take(buf, off, 20)
        p, k, d, rows, cols = struct.unpack("<5I", raw)
        try:
            dims = LayerDims(p, k, d, (rows, cols))
        except ValueError as exc:
            raise FormatError(f"invalid dims in model file: {exc}") from None
        raw, off = _take(buf, off, len(_HP_FIELDS) * 8)
        values = struct.unpack(f"<{len(_HP_FIELDS)}d", raw)
        try:
            hp = HyperParams(**{
                name: int(round(value)) if name in _INT_HP else value
                for name, value in zip(_HP_FIELDS, values)})
        except (ValueError, OverflowError) as exc:
            raise FormatError(f"invalid hyperparameters in model file: {exc}") from None

        mats = []
        for shape in ((k, k), (k, d), (p, k)):
            raw, off = _take(buf, off, shape[0] * shape[1] * 8)
            mats.append(np.frombuffer(raw, dtype="<f8").reshape(shape).copy())
        layers.append(Layer(LayerModel(dims, *mats), hp))
    if off != len(buf):
        raise FormatError("trailing bytes after the last layer")
    _check_chain([layer.model.dims for layer in layers], FormatError)
    return layers
