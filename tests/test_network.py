import os
import struct

import numpy as np
import pytest

from mmdpcn.causes import top_down_prediction
from mmdpcn.errors import (ConfigError, DimensionMismatch, FormatError,
                           GridMismatch, IoError)
from mmdpcn.frames import to_grayscale
from mmdpcn.cli import _bench_model
from mmdpcn.config import BenchSettings, parse_network_config
from mmdpcn.learning import LearnConfig, fit_layer, init_model, update_model
from mmdpcn.model import HyperParams, LayerDims, LayerModel
from mmdpcn.states import infer_states_batch
from mmdpcn.network import (InferenceResult, Layer, LayerSpec, NetworkConfig,
                            decompose_frame, infer_variables, load_network,
                            recompose_frame, reconstruct_frames, save_network,
                            train_network)
from mmdpcn.shapes import generate_shapes

SHAPES_CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                             "shapes2.ini")


def tiny_config(max_outer_iter=4):
    hp = HyperParams(max_inner_iter=40)
    return NetworkConfig(layers=(
        LayerSpec(dims=LayerDims(4, 6, 2, (2, 2)), hp=hp,
                  learn=LearnConfig(max_outer_iter=max_outer_iter)),
        LayerSpec(dims=LayerDims(2, 4, 1), hp=hp,
                  learn=LearnConfig(max_outer_iter=max_outer_iter)),
    ))


def random_stack(seed=0, hp=HyperParams(), grid=(2, 2)):
    rng = np.random.default_rng(seed)
    return [
        Layer(init_model(LayerDims(4, 6, 2, grid), rng), hp),
        Layer(init_model(LayerDims(2, 4, 1), rng), hp),
    ]


def test_decompose_whole_frame_is_one_patch():
    frame = np.array([[1.0, 2.0], [3.0, 4.0]])
    patches = decompose_frame(frame, (1, 1))
    assert patches.shape == (1, 4)
    assert np.array_equal(patches[0], [1.0, 2.0, 3.0, 4.0])


def test_decompose_grid_blocks_row_major():
    rng = np.random.default_rng(20)
    frame = rng.random((4, 4, 3))
    patches = decompose_frame(frame, (2, 2))
    assert patches.shape == (4, 12)
    # Patch order is row-major over blocks; pixels row-major with the
    # channel fastest.
    assert np.array_equal(patches[1], frame[0:2, 2:4].ravel())
    assert np.array_equal(patches[2], frame[2:4, 0:2].ravel())


def test_decompose_non_square_color_patch_order():
    # A round trip cannot tell a consistent transpose of rows and columns
    # from the right cut; a block read off the frame can.
    rng = np.random.default_rng(23)
    frame = rng.random((8, 6, 3))
    patches = decompose_frame(frame, (2, 3))
    assert patches.shape == (6, 24)
    assert np.array_equal(patches[4], frame[4:8, 2:4].ravel())
    # Every block against a loop over the grid, gray and color.
    for frame, (rows, cols) in ((frame, (2, 3)), (frame, (4, 1)),
                                (rng.random((6, 10)), (3, 5))):
        bh, bw = frame.shape[0] // rows, frame.shape[1] // cols
        expected = [frame[r * bh:(r + 1) * bh, c * bw:(c + 1) * bw].ravel()
                    for r in range(rows) for c in range(cols)]
        patches = decompose_frame(frame, (rows, cols))
        assert np.array_equal(patches, np.vstack(expected))
        assert np.array_equal(
            recompose_frame(patches, (rows, cols), frame.shape), frame)


def test_decompose_recompose_roundtrip():
    rng = np.random.default_rng(21)
    gray = rng.random((8, 6))
    back = recompose_frame(decompose_frame(gray, (2, 3)), (2, 3), (8, 6))
    assert np.array_equal(back, gray)
    color = rng.random((6, 4, 3))
    back = recompose_frame(decompose_frame(color, (3, 2)), (3, 2), (6, 4, 3))
    assert np.array_equal(back, color)


def test_decompose_errors():
    with pytest.raises(GridMismatch):
        decompose_frame(np.zeros((5, 4)), (2, 2))
    with pytest.raises(DimensionMismatch):
        decompose_frame(np.zeros(16), (2, 2))


def test_network_config_validation():
    hp = HyperParams()
    learn = LearnConfig()
    good = LayerSpec(dims=LayerDims(4, 6, 2, (2, 2)), hp=hp, learn=learn)
    with pytest.raises(ConfigError):
        NetworkConfig(layers=())
    with pytest.raises(ConfigError):  # chain: upper input != lower cause
        NetworkConfig(layers=(
            good, LayerSpec(dims=LayerDims(3, 5, 1), hp=hp, learn=learn)))
    with pytest.raises(ConfigError):  # upper layers take a single patch
        NetworkConfig(layers=(
            good, LayerSpec(dims=LayerDims(2, 4, 1, (1, 2)), hp=hp, learn=learn)))

    cfg = NetworkConfig(layers=(good,))
    with pytest.raises(GridMismatch):
        train_network(np.zeros((2, 5, 4)), cfg)
    with pytest.raises(ConfigError):  # 16 pixels gray, 48 colour; not 4
        train_network(np.zeros((2, 8, 8, 3)), cfg)
    with pytest.raises(ConfigError):
        train_network(np.zeros((2, 8, 8)), cfg)  # patch pixels != input dim
    with pytest.raises(ConfigError):  # a 1x2 grid cuts 8-pixel patches
        train_network(np.zeros((2, 4, 4)), NetworkConfig(layers=(
            LayerSpec(dims=LayerDims(4, 6, 2, (1, 2)), hp=hp, learn=learn),)))
    # input_dim is patch pixels times channels, so 2x2 patches of colour
    # frames take input_dim 12: such a stack trains and infers on them.
    color = LayerSpec(dims=LayerDims(12, 16, 2, (2, 2)),
                      hp=HyperParams(max_inner_iter=10),
                      learn=LearnConfig(max_outer_iter=2))
    frames = np.random.default_rng(21).random((2, 4, 4, 3))
    layers, _ = train_network(frames, NetworkConfig(layers=(color,)))
    result = infer_variables(frames, layers, (2, 2))
    assert result.states[1][0].shape == (4, 16)
    assert result.causes[1][0].values.shape == (2,)
    # Gray frames cannot fill a colour layer's patches.
    with pytest.raises(ConfigError):
        train_network(frames[..., 0], NetworkConfig(layers=(color,)))
    with pytest.raises(ConfigError):
        infer_variables(frames[..., 0], layers, (2, 2))


@pytest.mark.parametrize("size, grid", [(4, (2, 2)), (16, (8, 8))],
                         ids=["4x4x3", "16x16x3"])
def test_colour_frames_for_a_gray_model_run_as_their_luma(size, grid):
    # Layer 1 takes one-channel 2x2 patches, so a colour stack collapses
    # to Rec. 601 luma, with the bits of collapsing each frame on its own.
    hp, learn = HyperParams(max_inner_iter=20), LearnConfig(max_outer_iter=2)
    cfg = NetworkConfig(layers=(
        LayerSpec(dims=LayerDims(4, 6, 2, grid), hp=hp,
                  learn=learn),
        LayerSpec(dims=LayerDims(2, 4, 1), hp=hp, learn=learn),
    ))
    colour = np.random.default_rng(40).random((3, size, size, 3))
    gray = np.stack([to_grayscale(f) for f in colour])
    (layers, reports), (gray_layers, gray_reports) = (
        train_network(f, cfg, seed=3) for f in (colour, gray))
    for layer, gray_layer, report, gray_report in zip(
            layers, gray_layers, reports, gray_reports):
        for name in ("transition", "coupling", "dictionary"):
            assert np.array_equal(getattr(layer.model, name),
                                  getattr(gray_layer.model, name))
        assert report.energy_per_outer == gray_report.energy_per_outer
    result, gray_result = (infer_variables(f, layers, grid)
                           for f in (colour, gray))
    for t in range(3):
        for l in range(2):
            assert np.array_equal(result.states[t][l],
                                  gray_result.states[t][l])
            assert np.array_equal(result.causes[t][l].values,
                                  gray_result.causes[t][l].values)


def test_train_network_bottom_layer_matches_fit_layer():
    rng = np.random.default_rng(22)
    frames = rng.random((4, 4, 4))
    cfg = tiny_config()
    layers, reports = train_network(frames, cfg)
    assert len(layers) == 2 and len(reports) == 2

    batches = [decompose_frame(f, cfg.grid) for f in frames]
    spec = cfg.layers[0]
    model, _, report = fit_layer(batches, spec.dims, spec.hp, spec.learn)
    assert np.array_equal(layers[0].model.dictionary, model.dictionary)
    assert np.array_equal(layers[0].model.transition, model.transition)
    assert np.array_equal(layers[0].model.coupling, model.coupling)
    assert reports[0].energy_per_outer == report.energy_per_outer


def test_stacking_leaves_lower_layer_untouched():
    rng = np.random.default_rng(23)
    frames = rng.random((3, 4, 4))
    cfg2 = tiny_config()
    cfg1 = NetworkConfig(layers=cfg2.layers[:1])
    solo, _ = train_network(frames, cfg1)
    stacked, _ = train_network(frames, cfg2)
    assert np.array_equal(solo[0].model.dictionary,
                          stacked[0].model.dictionary)


def test_train_frame_shape_validation():
    cfg = tiny_config()
    with pytest.raises(DimensionMismatch):
        train_network(np.zeros((4, 4)), cfg)
    with pytest.raises(GridMismatch):
        train_network(np.zeros((2, 5, 4)), cfg)


def test_save_load_roundtrip(tmp_path):
    layers = random_stack(seed=30, grid=(1, 4))
    path = tmp_path / "net.dpcn"
    save_network(layers, path)
    back = load_network(path)
    assert len(back) == 2
    # The file keeps each layer's grid, rows before cols.
    assert [layer.model.dims.grid for layer in back] == [(1, 4), (1, 1)]
    for orig, got in zip(layers, back):
        assert got.model.dims == orig.model.dims
        assert got.hp == orig.hp
        assert np.array_equal(got.model.transition, orig.model.transition)
        assert np.array_equal(got.model.coupling, orig.model.coupling)
        assert np.array_equal(got.model.dictionary, orig.model.dictionary)
    # Serialization is canonical: saving the loaded stack is byte-identical.
    path2 = tmp_path / "net2.dpcn"
    save_network(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_every_model_carries_its_gram_matrix_and_files_omit_it(tmp_path):
    def check(model):
        c = model.dictionary
        assert np.allclose(model.gram, c.T @ c, rtol=0.0, atol=1e-12)

    layers = random_stack(seed=37)
    for layer in layers:
        check(layer.model)
    model = layers[0].model
    grads = tuple(np.ones_like(m) for m in
                  (model.transition, model.coupling, model.dictionary))
    check(update_model(model, grads, LearnConfig(), model))
    check(_bench_model(BenchSettings(patch_dim=16, state_dim=20),
                       np.random.default_rng(37)))

    path = tmp_path / "net.dpcn"
    save_network(layers, path)
    for layer in load_network(path):
        check(layer.model)
    # Version 4 layout: header, then per layer 3 dims and the grid's rows
    # and cols, 8 hyperparameters and the transition, coupling and
    # dictionary only.
    size = 8
    for layer in layers:
        p, k, d = layer.model.dictionary.shape + (layer.model.dims.cause_dim,)
        size += 20 + 8 * 8 + 8 * (k * k + k * d + p * k)
    assert path.stat().st_size == size


def test_every_model_keeps_its_matrices_on_64_byte_boundaries(tmp_path):
    def misaligned(a):
        # A float64 copy that starts 8 bytes past a 64-byte boundary.
        buf = np.empty(a.size + 16)
        start = (-buf.ctypes.data % 64) // 8 + 1
        out = buf[start:start + a.size].reshape(a.shape)
        out[...] = a
        return out

    def check(model, inputs):
        for name, given in zip(("transition", "coupling", "dictionary"), inputs):
            m = getattr(model, name)
            assert m.ctypes.data % 64 == 0 and m.flags.c_contiguous
            assert m.tobytes() == np.ascontiguousarray(given, dtype=float).tobytes()
        c = model.dictionary
        assert model.gram.ctypes.data % 64 == 0
        assert model.gram.tobytes() == (c.T @ c).tobytes()

    rng = np.random.default_rng(38)
    dims = LayerDims(4, 6, 2, (2, 2))
    inputs = (misaligned(rng.standard_normal((6, 6))),
              np.asfortranarray(rng.standard_normal((6, 2))),
              misaligned(rng.standard_normal((4, 6))))
    model = LayerModel(dims, *inputs)
    check(model, inputs)
    assert not any(np.shares_memory(m, given) for m, given in
                   zip((model.transition, model.coupling, model.dictionary), inputs))
    check(LayerModel(dims, *(m.tolist() for m in inputs)), inputs)
    # A matrix that already starts on a boundary is kept, not copied.
    kept = LayerModel(dims, model.transition, model.coupling, model.dictionary)
    assert kept.dictionary is model.dictionary

    layers = random_stack(seed=38)
    model = layers[0].model
    grads = tuple(np.ones_like(m) for m in
                  (model.transition, model.coupling, model.dictionary))
    stepped = update_model(model, grads, LearnConfig(), model)
    check(stepped, (stepped.transition, stepped.coupling, stepped.dictionary))
    path = tmp_path / "net.dpcn"
    save_network(layers, path)
    for orig, back in zip(layers, load_network(path)):
        m = orig.model
        check(back.model, (m.transition, m.coupling, m.dictionary))
    check(_bench_model(BenchSettings(patch_dim=16, state_dim=20),
                       np.random.default_rng(38)), ())


def test_load_rejects_corrupt_files(tmp_path):
    layers = random_stack(seed=31)
    path = tmp_path / "net.dpcn"
    save_network(layers, path)
    blob = path.read_bytes()

    bad = tmp_path / "bad.dpcn"
    bad.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(FormatError):
        load_network(bad)
    bad.write_bytes(blob[:4] + b"\x09\x00" + blob[6:])
    with pytest.raises(FormatError, match="version 9 is not 4"):
        load_network(bad)
    bad.write_bytes(blob[:len(blob) // 2])
    with pytest.raises(FormatError):
        load_network(bad)
    bad.write_bytes(blob + b"\x00")
    with pytest.raises(FormatError):
        load_network(bad)
    # Invalid dims: layer 1's input_dim is not below its state_dim, or its
    # grid has no rows.
    for dims in ((6, 6, 2, 2, 2), (4, 6, 2, 0, 2)):
        bad.write_bytes(blob[:8] + struct.pack("<5I", *dims) + blob[28:])
        with pytest.raises(FormatError, match="invalid dims"):
            load_network(bad)
    # Versions 1-3 do not record the grid.  A version-3 file holds four
    # dims per layer, the last the patch count; versions 1 and 2 also
    # held training-only hyperparameters, but the header alone refuses
    # them all.
    old = bytearray(blob[:8])
    off = 8
    for layer in layers:
        d = layer.model.dims
        p, k = d.input_dim, d.state_dim
        end = off + 20 + 8 * 8 + 8 * (k * k + k * d.cause_dim + p * k)
        old += struct.pack("<IIII", p, k, d.cause_dim, d.patch_count)
        old += blob[off + 20:end]
        off = end
    assert off == len(blob)
    for version in (1, 2, 3):
        old[4:6] = struct.pack("<H", version)
        bad.write_bytes(bytes(old))
        with pytest.raises(FormatError, match=f"version {version} is not 4"):
            load_network(bad)
    # A file of no layers would load as an empty stack that no command
    # can run.
    bad.write_bytes(b"DPCN" + struct.pack("<HH", 4, 0))
    with pytest.raises(FormatError, match="at least one layer"):
        load_network(bad)
    # Well-formed layers that do not chain: layer 2's input is not layer
    # 1's cause, or an upper layer takes more than one patch.  Each layer's
    # bytes are those of a one-layer file after its 8-byte header, and
    # save_network refuses the stack itself before writing a byte.
    rng = np.random.default_rng(31)

    def layer_bytes(layer):
        save_network([layer], path)
        return path.read_bytes()[8:]

    lower = Layer(init_model(LayerDims(64, 72, 16, (2, 2)), rng), HyperParams())
    for dims in (LayerDims(10, 20, 5), LayerDims(16, 20, 5, (1, 2))):
        upper = Layer(init_model(dims, rng), HyperParams())
        bad.write_bytes(b"DPCN" + struct.pack("<HH", 4, 2) + layer_bytes(lower)
                        + layer_bytes(upper))
        with pytest.raises(FormatError, match="input dim|single patch"):
            load_network(bad)
        with pytest.raises(ConfigError, match="input dim|single patch"):
            save_network([lower, upper], tmp_path / "unchained.dpcn")
    with pytest.raises(ConfigError, match="at least one layer"):
        save_network([], tmp_path / "empty.dpcn")
    assert not (tmp_path / "unchained.dpcn").exists()
    assert not (tmp_path / "empty.dpcn").exists()


def test_model_file_io_errors_are_io_errors(tmp_path):
    with pytest.raises(IoError):
        load_network(tmp_path / "missing.dpcn")
    with pytest.raises(IoError):
        save_network(random_stack(), tmp_path / "no-dir" / "net.dpcn")


def test_load_rejects_non_finite_hyperparameters(tmp_path):
    path = tmp_path / "net.dpcn"
    save_network(random_stack(seed=32), path)
    blob = path.read_bytes()
    # Layer 1's 8 hyperparameters follow the 8-byte header and its 5 u32.
    start = 8 + 20
    bad = tmp_path / "bad.dpcn"
    for values in ([float("nan")] + [0.5] * 7, [float("nan")] * 8,
                   [0.3, float("inf")] + [0.5] * 6):
        bad.write_bytes(blob[:start] + struct.pack("<8d", *values)
                        + blob[start + 64:])
        with pytest.raises(FormatError, match="hyperparameters"):
            load_network(bad)


def test_infer_variables_shapes_and_zero_frames():
    layers = random_stack(seed=32)
    frames = np.zeros((3, 4, 4))
    result = infer_variables(frames, layers, (2, 2))
    assert isinstance(result, InferenceResult)
    assert len(result.states) == len(result.causes) == 3
    assert len(result.per_frame_seconds) == 3
    for t in range(3):
        assert len(result.states[t]) == 2
        # One (patch, state) array per layer.
        for layer, states in zip(layers, result.states[t]):
            dims = layer.model.dims
            assert isinstance(states, np.ndarray)
            assert states.shape == (dims.patch_count, dims.state_dim)
        assert result.causes[t][0].values.shape == (2,)
        assert result.causes[t][1].values.shape == (1,)
        # Zeros are a fixed point of inference on blank frames.
        assert np.array_equal(result.states[t][0], np.zeros((4, 6)))
        assert np.array_equal(result.causes[t][0].values, np.zeros(2))
        assert result.per_frame_seconds[t] > 0
    # On frames that are not blank, every reconstructed patch is the
    # dictionary times that patch's state, bit for bit.
    frames = np.random.default_rng(32).random((2, 4, 4))
    result = infer_variables(frames, layers, (2, 2))
    recon = reconstruct_frames((4, 4), layers, result, (2, 2))
    c = layers[0].model.dictionary
    for t in range(2):
        states = result.states[t][0]
        assert np.any(states)
        expected = np.array([c @ x for x in states])
        got = decompose_frame(recon[t], (2, 2))
        assert got.tobytes() == expected.tobytes()


def test_infer_variables_rejects_frames_the_model_was_not_trained_for():
    rng = np.random.default_rng(38)
    hp = HyperParams()
    frames = np.zeros((2, 4, 4))
    # A layer trained on a 4x4 grid of 4-pixel patches, given a 2x2 grid
    # that also cuts these frames into 4-pixel patches, then its own grid,
    # which cuts them into 1-pixel patches.
    sixteen = [Layer(init_model(LayerDims(4, 6, 2, (4, 4)), rng), hp)]
    with pytest.raises(ConfigError, match="grid 2x2 is not the model's 4x4"):
        infer_variables(frames, sixteen, (2, 2))
    with pytest.raises(ConfigError, match="patches of length 1; layer 1 "
                                          "expects length 4"):
        infer_variables(frames, sixteen, (4, 4))
    # The right grid, the wrong patch length.
    with pytest.raises(ConfigError, match="patches of length 16; layer 1 "
                                          "expects length 4"):
        infer_variables(np.zeros((2, 8, 8)), random_stack(seed=38), (2, 2))
    with pytest.raises(ConfigError, match="at least one layer"):
        infer_variables(frames, [], (2, 2))


def test_train_and_infer_reject_misfit_frames_alike(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran before the frames were checked")

    monkeypatch.setattr("mmdpcn.network.fit_layer", no_solve)
    monkeypatch.setattr("mmdpcn.network.infer_states_batch", no_solve)
    cfg, layers = tiny_config(), random_stack(seed=39)
    for shape, error in (((4, 4), DimensionMismatch),
                         ((2, 4, 4, 3, 1), DimensionMismatch),
                         ((2, 5, 4), GridMismatch),
                         ((2, 8, 8), ConfigError),
                         ((2, 8, 8, 3), ConfigError)):
        with pytest.raises(error):
            train_network(np.zeros(shape), cfg)
        with pytest.raises(error):
            infer_variables(np.zeros(shape), layers, cfg.grid)
    # A stack that does not chain (layer 2 takes 3 values, layer 1 gives 2)
    # is refused as NetworkConfig refuses it for training.
    unchained = [layers[0], Layer(init_model(LayerDims(3, 4, 1),
                                             np.random.default_rng(39)),
                                  HyperParams())]
    with pytest.raises(ConfigError, match="layer 2 input dim 3"):
        infer_variables(np.zeros((2, 4, 4)), unchained, cfg.grid)


def test_segment_reset_matches_separate_inference():
    # A segment start severs all temporal coupling, so inferring a stitched
    # sequence with resets must reproduce the per-segment runs bit for bit.
    # A one-shot iterable of starts cuts where the same list does.
    rng = np.random.default_rng(36)
    layers = random_stack(seed=36)
    frames = rng.random((5, 4, 4))
    stitched = infer_variables(frames, layers, (2, 2),
                               segment_starts=[3])
    generated = infer_variables(frames, layers, (2, 2),
                                segment_starts=(c for c in [3]))
    first = infer_variables(frames[:3], layers, (2, 2))
    second = infer_variables(frames[3:], layers, (2, 2))
    for t in range(5):
        part = first if t < 3 else second
        s = t if t < 3 else t - 3
        for l in range(2):
            for run in (stitched, generated):
                assert np.array_equal(run.causes[t][l].values,
                                      part.causes[s][l].values)
                assert np.array_equal(run.states[t][l], part.states[s][l])


def test_uneven_segments_match_separate_inference(monkeypatch):
    # Segments of 1, 4, 1 and 2 frames run side by side and stop sweeping
    # at different sweeps; each must still equal its own separate run.
    # pool_gain=0.1 with cause_sparsity=0.03 keeps the causes from
    # collapsing to zero in one sweep, and the states from collapsing under
    # the weight state_sparsity + pool_gain*(1 + exp(-B u)) they pay.
    rng = np.random.default_rng(40)
    layers = random_stack(seed=40, hp=HyperParams(
        state_sparsity=0.2, pool_gain=0.1, cause_sparsity=0.03))
    frames = rng.random((8, 4, 4))
    starts = [1, 5, 6]
    calls = []

    def spy(patches, prev, model, hp, weights, inits=None):
        calls.append((patches.shape[0], inits is not None))
        return infer_states_batch(patches, prev, model, hp, weights,
                                  inits=inits)

    monkeypatch.setattr("mmdpcn.network.infer_states_batch", spy)
    stitched = infer_variables(frames, layers, (2, 2),
                               segment_starts=starts)
    monkeypatch.undo()
    # Some frame left the stack while another at its step swept on.
    layer1 = calls[::2]
    assert any(warm and 0 < rows < before for (before, _), (rows, warm)
               in zip(layer1, layer1[1:]))
    assert len(stitched.per_frame_seconds) == 8
    assert all(s > 0 for s in stitched.per_frame_seconds)
    for first, end in zip([0] + starts, starts + [8]):
        part = infer_variables(frames[first:end], layers, (2, 2))
        for s in range(end - first):
            for l in range(2):
                assert stitched.causes[first + s][l].values.tobytes() == \
                    part.causes[s][l].values.tobytes()
                assert stitched.states[first + s][l].tobytes() == \
                    part.states[s][l].tobytes()


def test_infer_variables_rejects_bad_segment_starts(monkeypatch):
    layers = random_stack(seed=41)
    frames = np.random.default_rng(41).random((4, 4, 4))

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran before the starts were checked")

    monkeypatch.setattr("mmdpcn.network.infer_states_batch", no_solve)
    for starts in ([-1], [4], [2, 9], [1.5], [2.0], ["2"]):
        with pytest.raises(ConfigError, match="segment start"):
            infer_variables(frames, layers, (2, 2), segment_starts=starts)
    with pytest.raises(ConfigError, match="segment start"):
        infer_variables(np.zeros((0, 4, 4)), layers, (2, 2),
                        segment_starts=[0])
    monkeypatch.undo()
    # Start 0 and repeated starts are allowed and change nothing.
    plain = infer_variables(frames, layers, (2, 2),
                            segment_starts=[2])
    repeated = infer_variables(frames, layers, (2, 2),
                               segment_starts=[0, 2, 2, np.int64(2)])
    for t in range(4):
        for l in range(2):
            assert repeated.states[t][l].tobytes() == \
                plain.states[t][l].tobytes()


def test_reconstruct_frames_shapes_and_zero_case():
    layers = random_stack(seed=34)
    frames = np.zeros((2, 4, 4))
    result = infer_variables(frames, layers, (2, 2))
    recon = reconstruct_frames((4, 4), layers, result, (2, 2))
    assert recon.shape == (2, 4, 4)
    assert np.array_equal(recon, np.zeros((2, 4, 4)))


def test_reconstruction_error_shrinks_with_training():
    rng = np.random.default_rng(35)
    frames = np.clip(rng.random((4, 4, 4)), 0.0, 1.0)
    cfg = tiny_config(max_outer_iter=8)
    layers, _ = train_network(frames, cfg)
    # Each fit starts from init_model with a fresh generator of the run's
    # seed, 0 here, so this stack is exactly the fit's starting point.
    hp = cfg.layers[0].hp
    untrained = [Layer(init_model(spec.dims, np.random.default_rng(0)), hp)
                 for spec in cfg.layers]
    got = reconstruct_frames(
        (4, 4), layers, infer_variables(frames, layers, (2, 2)),
        (2, 2))
    ref = reconstruct_frames(
        (4, 4), untrained,
        infer_variables(frames, untrained, (2, 2)), (2, 2))
    assert np.mean((got - frames) ** 2) <= np.mean((ref - frames) ** 2) + 1e-12


def test_top_down_prediction_reaches_the_layer_below_on_the_shipped_config(
        monkeypatch):
    # top_down_prediction keeps an upper state where temporal_sparsity
    # beats pool_gain*(1 + exp(-(B u)_k)).  With the shipped 0.1 against
    # 0.03 that holds wherever (B u)_k > -ln(7/3), so on a trained model
    # some prediction must carry a nonzero rendering.  This pins the
    # threshold as it stands, not the DPCN rule: the states pay the whole
    # state_weights mu_k >= 0.28, and compared against that the gate would
    # never open at 0.1.  ROADMAP item 2 leaves the choice open; if it
    # settles on mu_k, the rendering and this test go together.
    cfg = parse_network_config(SHAPES_CONFIG)
    layers, _ = train_network(generate_shapes(frames_per_shape=1, seed=1).frames,
                              cfg)
    renderings = []

    def spy(*args):
        renderings.append(top_down_prediction(*args))
        return renderings[-1]

    monkeypatch.setattr("mmdpcn.network.top_down_prediction", spy)
    infer_variables(generate_shapes(frames_per_shape=2, seed=2).frames, layers,
                    cfg.grid)
    assert renderings
    assert any(np.any(r != 0.0) for r in renderings)
