import pytest

from mmdpcn.config import (BenchSettings, parse_bench_config,
                           parse_network_config)
from mmdpcn.errors import ConfigError, IoError


def write(tmp_path, text):
    path = tmp_path / "net.ini"
    path.write_text(text)
    return path


TWO_LAYER = """
[network]
grid = 2x2
channels = 1

[layer1]
input_dim = 64
state_dim = 96
cause_dim = 24
pool_gain = 1.0
seed = 5

[layer2]
state_dim = 48
cause_dim = 12
state_sparsity = 0.2
lr_c = 0.002
"""


def test_two_layer_config(tmp_path):
    cfg = parse_network_config(write(tmp_path, TWO_LAYER))
    assert cfg.grid == (2, 2)
    assert cfg.channels == 1
    assert len(cfg.layers) == 2
    bottom, top = cfg.layers

    assert bottom.dims.input_dim == 64
    assert bottom.dims.state_dim == 96
    assert bottom.dims.cause_dim == 24
    assert bottom.dims.patch_count == 4  # grid rows * cols
    assert bottom.hp.pool_gain == 1.0
    assert bottom.learn.seed == 5
    # Untouched keys keep package defaults.
    assert bottom.hp.state_sparsity == 0.3
    assert bottom.learn.lr_c == 1e-3

    # Upper layer input defaults to the cause dimension below, one patch.
    assert top.dims.input_dim == 24
    assert top.dims.patch_count == 1
    assert top.hp.state_sparsity == 0.2
    assert top.learn.lr_c == 0.002


def test_upper_layer_input_dim_must_agree(tmp_path):
    ok = TWO_LAYER.replace("[layer2]", "[layer2]\ninput_dim = 24")
    cfg = parse_network_config(write(tmp_path, ok))
    assert cfg.layers[1].dims.input_dim == 24
    bad = TWO_LAYER.replace("[layer2]", "[layer2]\ninput_dim = 25")
    with pytest.raises(ConfigError):
        parse_network_config(write(tmp_path, bad))


def test_layer1_requires_input_dim(tmp_path):
    with pytest.raises(ConfigError):
        parse_network_config(write(
            tmp_path, "[layer1]\nstate_dim = 8\ncause_dim = 2\n"))


def test_layer_sections_must_be_consecutive(tmp_path):
    text = "[layer1]\ninput_dim=4\nstate_dim=8\ncause_dim=2\n" \
           "[layer3]\nstate_dim=4\ncause_dim=1\n"
    with pytest.raises(ConfigError):
        parse_network_config(write(tmp_path, text))


def test_ten_layer_config_keeps_layer_order(tmp_path):
    # Sections sort by number: layer10 comes after layer9, not after layer1.
    text = "[network]\ngrid = 1x1\n" + "".join(
        f"[layer{i}]\nstate_dim = 20\ncause_dim = {i + 5}\n"
        for i in range(1, 11))
    text = text.replace("[layer1]\n", "[layer1]\ninput_dim = 4\n")
    cfg = parse_network_config(write(tmp_path, text))
    assert [spec.dims.input_dim for spec in cfg.layers] == [4] + list(range(6, 15))
    assert [spec.dims.cause_dim for spec in cfg.layers] == list(range(6, 16))


@pytest.mark.parametrize("name", ["layerx", "layer02"])
def test_layer_sections_must_be_numbered(tmp_path, name):
    text = "[layer1]\ninput_dim=4\nstate_dim=8\ncause_dim=2\n" \
           f"[{name}]\nstate_dim=4\ncause_dim=1\n"
    with pytest.raises(ConfigError, match="layer1..layerN"):
        parse_network_config(write(tmp_path, text))


def test_no_layers_rejected(tmp_path):
    with pytest.raises(ConfigError):
        parse_network_config(write(tmp_path, "[network]\ngrid = 1x1\n"))


def test_unknown_keys_rejected(tmp_path):
    with pytest.raises(ConfigError):
        parse_network_config(write(
            tmp_path,
            "[layer1]\ninput_dim=4\nstate_dim=8\ncause_dim=2\nwibble=1\n"))
    with pytest.raises(ConfigError):
        parse_network_config(write(
            tmp_path, "[network]\ncolour = blue\n[layer1]\n"
            "input_dim=4\nstate_dim=8\ncause_dim=2\n"))


def test_bad_values_rejected(tmp_path):
    # Non-numeric, bad grid syntax, and dimension constraint violations all
    # surface as ConfigError.
    with pytest.raises(ConfigError):
        parse_network_config(write(
            tmp_path, "[layer1]\ninput_dim=four\nstate_dim=8\ncause_dim=2\n"))
    with pytest.raises(ConfigError):
        parse_network_config(write(
            tmp_path, "[network]\ngrid = 2by2\n[layer1]\n"
            "input_dim=4\nstate_dim=8\ncause_dim=2\n"))
    with pytest.raises(ConfigError):
        parse_network_config(write(
            tmp_path, "[layer1]\ninput_dim=8\nstate_dim=4\ncause_dim=2\n"))


def test_non_finite_values_rejected(tmp_path):
    # NaN fails every range comparison, so each check must refuse it
    # itself; an infinity would pass a lower bound.
    for line in ("state_sparsity = inf", "pool_gain = nan", "lr_a = inf",
                 "inner_tol = nan", "state_passes = inf"):
        with pytest.raises(ConfigError):
            parse_network_config(write(tmp_path, TWO_LAYER + line + "\n"))
    path = tmp_path / "bench.ini"
    for line in ("step = nan", "adam_step = inf", "smooth_margin = -inf"):
        path.write_text(f"[bench]\n{line}\n")
        with pytest.raises(ConfigError):
            parse_bench_config(path)
    with pytest.raises(ConfigError):
        BenchSettings(step=float("nan"))


def test_keys_parse_to_their_field_types(tmp_path):
    counts = ("state_passes = 3\ncause_passes = 4\nmax_inner_iter = 7\n"
              "max_outer_iter = 9\n")
    cfg = parse_network_config(write(tmp_path, TWO_LAYER + counts))
    top = cfg.layers[1]
    for value in (top.hp.state_passes, top.hp.cause_passes,
                  top.hp.max_inner_iter, top.learn.max_outer_iter,
                  cfg.layers[0].learn.seed, top.dims.state_dim):
        assert type(value) is int
    assert (top.hp.state_passes, top.hp.max_inner_iter) == (3, 7)
    assert type(top.hp.state_sparsity) is float
    assert type(top.learn.lr_c) is float
    with pytest.raises(ConfigError):
        parse_network_config(write(tmp_path, TWO_LAYER + "state_passes = 2.5\n"))


def test_network_channels_must_parse(tmp_path):
    bad = TWO_LAYER.replace("channels = 1", "channels = abc")
    with pytest.raises(ConfigError, match="channels"):
        parse_network_config(write(tmp_path, bad))


def test_missing_file_is_io_error(tmp_path):
    with pytest.raises(IoError):
        parse_network_config(tmp_path / "nope.ini")


def test_reference_scale_config(tmp_path):
    # The problem sizes used throughout the experiments parse cleanly.
    text = """
[network]
grid = 2x2

[layer1]
input_dim = 256
state_dim = 300
cause_dim = 40
state_sparsity = 0.3
cause_sparsity = 0.3

[layer2]
state_dim = 100
cause_dim = 20
"""
    cfg = parse_network_config(write(tmp_path, text))
    assert cfg.layers[0].dims.state_dim == 300
    assert cfg.layers[0].dims.cause_dim == 40
    assert cfg.layers[0].hp.cause_sparsity == 0.3
    assert cfg.layers[1].dims.input_dim == 40
    assert cfg.layers[1].dims.state_dim == 100
    assert cfg.layers[1].dims.cause_dim == 20


def test_bench_defaults():
    s = BenchSettings()
    assert s.patch_dim == 256
    assert s.state_dim == 300
    assert s.state_sparsity == 0.3
    assert s.smooth_margin == 0.1
    assert s.step == 1e-2
    assert s.max_iter == 200
    assert s.patch_count == 20
    assert s.generator_sparsity == 0.05
    assert s.patches_path == ""
    assert parse_bench_config(None) == s


def test_bench_validation():
    with pytest.raises(ConfigError):
        BenchSettings(patch_dim=0)
    with pytest.raises(ConfigError):
        BenchSettings(step=0.0)
    with pytest.raises(ConfigError):
        BenchSettings(max_iter=0)
    with pytest.raises(ConfigError):
        BenchSettings(patch_count=0)
    with pytest.raises(ConfigError):
        BenchSettings(generator_sparsity=0.0)
    with pytest.raises(ConfigError):
        BenchSettings(generator_sparsity=1.5)


def test_bench_section_parsing(tmp_path):
    path = tmp_path / "bench.ini"
    path.write_text("[bench]\npatch_dim = 16\nstate_dim = 24\n"
                    "max_iter = 50\nstep = 0.02\npatches_path = pp.rten\n")
    s = parse_bench_config(path)
    # Integer fields must come back as ints; sizes feed RNG shape tuples.
    assert s.patch_dim == 16 and isinstance(s.patch_dim, int)
    assert s.state_dim == 24 and isinstance(s.state_dim, int)
    assert s.max_iter == 50 and isinstance(s.max_iter, int)
    assert s.step == 0.02
    assert s.patches_path == "pp.rten"
    # Unstated keys keep defaults.
    assert s.patch_count == 20

    path.write_text("[bench]\nwarp_factor = 9\n")
    with pytest.raises(ConfigError):
        parse_bench_config(path)

    # Every bench solve is on one patch with no previous state, so a
    # temporal weight would act on nothing and is not a bench key.
    path.write_text("[bench]\ntemporal_sparsity = 0.1\n")
    with pytest.raises(ConfigError, match="unknown key 'temporal_sparsity'"):
        parse_bench_config(path)

    # A config without a [bench] section falls back to defaults entirely.
    path.write_text("[other]\nx = 1\n")
    assert parse_bench_config(path) == BenchSettings()
