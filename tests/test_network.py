import numpy as np
import pytest

from mmdpcn.errors import (ConfigError, DimensionMismatch, FormatError,
                           GridMismatch)
from mmdpcn.cli import _bench_model
from mmdpcn.config import BenchSettings
from mmdpcn.learning import LearnConfig, fit_layer, init_model, update_model
from mmdpcn.model import HyperParams, LayerDims
from mmdpcn.network import (InferenceResult, Layer, LayerSpec, NetworkConfig,
                            decompose_frame, infer_variables, load_network,
                            recompose_frame, reconstruct_frames, save_network,
                            train_network)


def tiny_config(max_outer_iter=4, seed=0):
    hp = HyperParams(state_passes=2, cause_passes=2, max_inner_iter=40)
    return NetworkConfig(layers=(
        LayerSpec(dims=LayerDims(4, 6, 2, 4), hp=hp,
                  learn=LearnConfig(max_outer_iter=max_outer_iter, seed=seed)),
        LayerSpec(dims=LayerDims(2, 4, 1, 1), hp=hp,
                  learn=LearnConfig(max_outer_iter=max_outer_iter, seed=seed)),
    ), grid=(2, 2), channels=1)


def random_stack(seed=0):
    rng = np.random.default_rng(seed)
    hp = HyperParams()
    return [
        Layer(init_model(LayerDims(4, 6, 2, 4), rng), hp),
        Layer(init_model(LayerDims(2, 4, 1, 1), rng), hp),
    ]


def test_decompose_whole_frame_is_one_patch():
    frame = np.array([[1.0, 2.0], [3.0, 4.0]])
    batch = decompose_frame(frame, (1, 1), time_index=3)
    assert batch.time_index == 3
    assert batch.patches.shape == (1, 4)
    assert np.array_equal(batch.patches[0], [1.0, 2.0, 3.0, 4.0])


def test_decompose_grid_blocks_row_major():
    rng = np.random.default_rng(20)
    frame = rng.random((4, 4, 3))
    batch = decompose_frame(frame, (2, 2))
    assert batch.patches.shape == (4, 12)
    # Patch order is row-major over blocks; pixels row-major with the
    # channel fastest.
    assert np.array_equal(batch.patches[1], frame[0:2, 2:4].ravel())
    assert np.array_equal(batch.patches[2], frame[2:4, 0:2].ravel())


def test_decompose_recompose_roundtrip():
    rng = np.random.default_rng(21)
    gray = rng.random((8, 6))
    back = recompose_frame(decompose_frame(gray, (2, 3)).patches, (2, 3),
                           (8, 6))
    assert np.array_equal(back, gray)
    color = rng.random((6, 4, 3))
    back = recompose_frame(decompose_frame(color, (3, 2)).patches, (3, 2),
                           (6, 4, 3))
    assert np.array_equal(back, color)


def test_decompose_errors():
    with pytest.raises(GridMismatch):
        decompose_frame(np.zeros((5, 4)), (2, 2))
    with pytest.raises(DimensionMismatch):
        decompose_frame(np.zeros(16), (2, 2))


def test_network_config_validation():
    hp = HyperParams()
    learn = LearnConfig()
    good = LayerSpec(dims=LayerDims(4, 6, 2, 4), hp=hp, learn=learn)
    with pytest.raises(ConfigError):
        NetworkConfig(layers=())
    with pytest.raises(ConfigError):  # patch count vs grid
        NetworkConfig(layers=(good,), grid=(1, 2))
    with pytest.raises(ConfigError):  # chain: upper input != lower cause
        NetworkConfig(layers=(
            good, LayerSpec(dims=LayerDims(3, 5, 1, 1), hp=hp, learn=learn)))
    with pytest.raises(ConfigError):  # upper layers take a single patch
        NetworkConfig(layers=(
            good, LayerSpec(dims=LayerDims(2, 4, 1, 2), hp=hp, learn=learn)))
    with pytest.raises(ConfigError):
        NetworkConfig(layers=(good,), grid=(2, 2), channels=2)

    cfg = NetworkConfig(layers=(good,), grid=(2, 2))
    with pytest.raises(GridMismatch):
        cfg.validate_frame_shape(5, 4)
    with pytest.raises(ConfigError):
        cfg.validate_frame_shape(4, 4, channels=3)
    with pytest.raises(ConfigError):
        cfg.validate_frame_shape(8, 8)  # patch pixels != input dim


def test_train_network_bottom_layer_matches_fit_layer():
    rng = np.random.default_rng(22)
    frames = rng.random((4, 4, 4))
    cfg = tiny_config()
    layers, reports = train_network(frames, cfg)
    assert len(layers) == 2 and len(reports) == 2

    batches = [decompose_frame(f, cfg.grid, t) for t, f in enumerate(frames)]
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
    cfg1 = NetworkConfig(layers=cfg2.layers[:1], grid=cfg2.grid)
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
    layers = random_stack(seed=30)
    path = tmp_path / "net.dpcn"
    save_network(layers, path)
    back = load_network(path)
    assert len(back) == 2
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
    # Version 1 layout: header, then per layer dims, hyperparameters and the
    # transition, coupling and dictionary only.
    size = 8
    for layer in layers:
        p, k, d = layer.model.dictionary.shape + (layer.model.dims.cause_dim,)
        size += 16 + 11 * 8 + 8 * (k * k + k * d + p * k)
    assert path.stat().st_size == size


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
    with pytest.raises(FormatError):
        load_network(bad)
    bad.write_bytes(blob[:len(blob) // 2])
    with pytest.raises(FormatError):
        load_network(bad)
    bad.write_bytes(blob + b"\x00")
    with pytest.raises(FormatError):
        load_network(bad)


def test_infer_variables_shapes_and_zero_frames():
    layers = random_stack(seed=32)
    frames = np.zeros((3, 4, 4))
    result = infer_variables(frames, layers, (2, 2), sweeps=2)
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
    result = infer_variables(frames, layers, (2, 2), sweeps=2)
    recon = reconstruct_frames((4, 4), layers, result, (2, 2))
    c = layers[0].model.dictionary
    for t in range(2):
        states = result.states[t][0]
        assert np.any(states)
        expected = np.array([c @ x for x in states])
        got = decompose_frame(recon[t], (2, 2)).patches
        assert got.tobytes() == expected.tobytes()


def test_infer_variables_rejects_frames_the_model_was_not_trained_for():
    rng = np.random.default_rng(38)
    hp = HyperParams()
    frames = np.zeros((2, 4, 4))
    # A layer trained on a 4x4 grid of 4-pixel patches, given 2x2-grid
    # frames that also cut into 4-pixel patches.
    sixteen = [Layer(init_model(LayerDims(4, 6, 2, 16), rng), hp)]
    with pytest.raises(ConfigError, match="4 patches of length 4; layer 1 "
                                          "expects 16 of length 4"):
        infer_variables(frames, sixteen, (2, 2))
    # Right patch count, wrong patch length.
    with pytest.raises(ConfigError, match="4 patches of length 16; layer 1 "
                                          "expects 4 of length 4"):
        infer_variables(np.zeros((2, 8, 8)), random_stack(seed=38), (2, 2))
    with pytest.raises(ConfigError, match="at least one layer"):
        infer_variables(frames, [], (2, 2))


def test_segment_reset_matches_separate_inference():
    # A segment start severs all temporal coupling, so inferring a stitched
    # sequence with resets must reproduce the per-segment runs bit for bit.
    rng = np.random.default_rng(36)
    layers = random_stack(seed=36)
    frames = rng.random((5, 4, 4))
    stitched = infer_variables(frames, layers, (2, 2), sweeps=3,
                               segment_starts=[3])
    first = infer_variables(frames[:3], layers, (2, 2), sweeps=3)
    second = infer_variables(frames[3:], layers, (2, 2), sweeps=3)
    for t in range(5):
        part = first if t < 3 else second
        s = t if t < 3 else t - 3
        for l in range(2):
            assert np.array_equal(stitched.causes[t][l].values,
                                  part.causes[s][l].values)
            assert np.array_equal(stitched.states[t][l], part.states[s][l])


def test_reconstruct_frames_shapes_and_zero_case():
    layers = random_stack(seed=34)
    frames = np.zeros((2, 4, 4))
    result = infer_variables(frames, layers, (2, 2), sweeps=1)
    recon = reconstruct_frames((4, 4), layers, result, (2, 2))
    assert recon.shape == (2, 4, 4)
    assert np.array_equal(recon, np.zeros((2, 4, 4)))


def test_reconstruction_error_shrinks_with_training():
    rng = np.random.default_rng(35)
    frames = np.clip(rng.random((4, 4, 4)), 0.0, 1.0)
    cfg = tiny_config(max_outer_iter=8)
    layers, _ = train_network(frames, cfg)
    # Each fit starts from init_model with a fresh generator per layer, so
    # this stack is exactly the fit's starting point.
    hp = cfg.layers[0].hp
    untrained = [
        Layer(init_model(spec.dims, np.random.default_rng(spec.learn.seed)),
              hp) for spec in cfg.layers]
    got = reconstruct_frames(
        (4, 4), layers, infer_variables(frames, layers, (2, 2), sweeps=2),
        (2, 2))
    ref = reconstruct_frames(
        (4, 4), untrained,
        infer_variables(frames, untrained, (2, 2), sweeps=2), (2, 2))
    assert np.mean((got - frames) ** 2) <= np.mean((ref - frames) ** 2) + 1e-12
