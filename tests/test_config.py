import pathlib

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

[layer1]
input_dim = 64
state_dim = 96
cause_dim = 24
pool_gain = 1.0
max_outer_iter = 5

[layer2]
state_dim = 48
cause_dim = 12
state_sparsity = 0.2
lr = 0.002
"""


def test_two_layer_config(tmp_path):
    cfg = parse_network_config(write(tmp_path, TWO_LAYER))
    assert cfg.grid == (2, 2)
    assert len(cfg.layers) == 2
    bottom, top = cfg.layers

    assert bottom.dims.input_dim == 64
    assert bottom.dims.state_dim == 96
    assert bottom.dims.cause_dim == 24
    assert bottom.dims.grid == (2, 2) and bottom.dims.patch_count == 4
    assert bottom.hp.pool_gain == 1.0
    assert bottom.learn.max_outer_iter == 5
    # Untouched keys keep package defaults.
    assert bottom.hp.state_sparsity == 0.3
    assert bottom.learn.lr == 1e-3

    # Upper layer input defaults to the cause dimension below, one patch.
    assert top.dims.input_dim == 24
    assert top.dims.grid == (1, 1) and top.dims.patch_count == 1
    assert top.hp.state_sparsity == 0.2
    assert top.learn.lr == 0.002

    # Section names take any case, as layer names always did.
    text = TWO_LAYER.replace("[network]\ngrid = 2x2", "[Network]\ngrid = 1x4")
    layers = parse_network_config(write(tmp_path, text)).layers
    assert [spec.dims.grid for spec in layers] == [(1, 4), (1, 1)]
    # Without a [network] section layer1 takes the 2x2 grid.
    text = TWO_LAYER.replace("[network]\ngrid = 2x2", "")
    assert parse_network_config(write(tmp_path, text)).grid == (2, 2)


def test_upper_layer_input_dim_must_agree(tmp_path):
    ok = TWO_LAYER.replace("[layer2]", "[layer2]\ninput_dim = 24")
    cfg = parse_network_config(write(tmp_path, ok))
    assert cfg.layers[1].dims.input_dim == 24
    bad = TWO_LAYER.replace("[layer2]", "[layer2]\ninput_dim = 25")
    with pytest.raises(ConfigError):
        parse_network_config(write(tmp_path, bad))


def test_upper_layer_input_dim_conflict_is_refused_by_network_config(tmp_path):
    # The parser derives an unstated upper input_dim but does not restate
    # the chain rule; NetworkConfig refuses a conflicting one.
    bad = TWO_LAYER.replace("[layer2]", "[layer2]\ninput_dim = 20")
    with pytest.raises(ConfigError,
                       match="layer 2 input dim 20 must equal layer 1 cause dim 24"):
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
    # Layer 1's input_dim fixes the frames' channel count (patch pixels
    # times channels), so there is no channels key.
    with pytest.raises(ConfigError, match="unknown key 'channels'"):
        parse_network_config(write(
            tmp_path, "[network]\nchannels = 1\n[layer1]\n"
            "input_dim=4\nstate_dim=8\ncause_dim=2\n"))
    # A misspelt section is refused, not skipped with its keys, and so is
    # a section given twice in different cases.
    layer1 = "[layer1]\ninput_dim=4\nstate_dim=8\ncause_dim=2\n"
    for extra, message in (("[netwrok]\ngrid = 1x4\n", "section .netwrok."),
                           ("[Layer1]\nstate_dim=8\n", "section .Layer1.")):
        with pytest.raises(ConfigError, match=message):
            parse_network_config(write(tmp_path, layer1 + extra))


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
    # Text that is not UTF-8, even in a comment, names the file.
    path = tmp_path / "latin1.ini"
    path.write_bytes(b"# caf\xff\n[layer1]\ninput_dim=4\nstate_dim=8\n"
                     b"cause_dim=2\n")
    with pytest.raises(ConfigError, match="latin1.ini"):
        parse_network_config(path)


def test_non_finite_values_rejected(tmp_path):
    # NaN fails every range comparison, so each check must refuse it
    # itself; an infinity would pass a lower bound.
    for line in ("state_sparsity = inf", "pool_gain = nan", "lr = inf",
                 "inner_tol = nan", "max_inner_iter = inf"):
        with pytest.raises(ConfigError):
            parse_network_config(write(tmp_path, TWO_LAYER + line + "\n"))
    path = tmp_path / "bench.ini"
    for line in ("state_sparsity = nan", "generator_sparsity = -inf"):
        path.write_text(f"[bench]\n{line}\n")
        with pytest.raises(ConfigError):
            parse_bench_config(path)


def test_keys_parse_to_their_field_types(tmp_path):
    counts = "input_dim = 24\nmax_inner_iter = 7\nmax_outer_iter = 9\n"
    cfg = parse_network_config(write(tmp_path, TWO_LAYER + counts))
    top = cfg.layers[1]
    for value in (top.hp.max_inner_iter, top.learn.max_outer_iter,
                  cfg.layers[0].learn.max_outer_iter, top.dims.input_dim,
                  top.dims.state_dim, top.dims.cause_dim):
        assert type(value) is int
    assert (top.hp.max_inner_iter, top.learn.max_outer_iter) == (7, 9)
    assert type(top.hp.state_sparsity) is float
    assert type(top.learn.lr) is float
    with pytest.raises(ConfigError):
        parse_network_config(write(tmp_path,
                                   TWO_LAYER + "max_inner_iter = 2.5\n"))


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
    assert s.max_iter == 200
    assert s.patch_count == 20
    assert s.generator_sparsity == 0.05
    assert parse_bench_config(None) == s
    # The shipped bench config restates the defaults.
    shipped = pathlib.Path(__file__).parent.parent / "configs" / "bench.ini"
    assert parse_bench_config(shipped) == s


def test_bench_smooth_margin_is_not_a_key(tmp_path):
    # Adam smooths |x| with a fixed margin, and every other l1 is exact, so
    # neither the bench nor a layer has a smoothing-margin key.  Adam's
    # step scale is a constant too (cli._BENCH_ADAM_STEP), and the bench's
    # patches always come from its generator, so no key names a file.  A
    # layer has one learning rate (lr), a fixed proximal weight and no seed
    # of its own either: train's --seed seeds every layer.  Its training
    # blocks run a fixed number of iterations, so it has no pass counts.
    path = tmp_path / "settings.ini"
    cases = [("bench", parse_bench_config, key)
             for key in ("smooth_margin", "adam_step", "patches_path")] + [
        ("layer1", parse_network_config, key)
        for key in ("smooth_margin", "lr_a", "lr_b", "lr_c", "theta_prox",
                    "seed", "state_passes", "cause_passes")]
    for section, parse, key in cases:
        path.write_text(f"[{section}]\n{key} = 0.1\n")
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse(path)


@pytest.mark.parametrize("network", ["[network]\ngrid = 2x2\n\n", ""],
                         ids=["with_network", "without_network"])
def test_default_section_keys_are_refused(tmp_path, network):
    # configparser merges [DEFAULT] keys into every section: with a
    # [network] section a layer key was an unknown key there, and without
    # one every layer silently took max_outer_iter = 3.
    layers = TWO_LAYER[TWO_LAYER.index("[layer1]"):]
    path = write(tmp_path,
                 "[DEFAULT]\nmax_outer_iter = 3\n\n" + network + layers)
    with pytest.raises(ConfigError, match=r"\[DEFAULT\]"):
        parse_network_config(path)


def test_bench_validation():
    with pytest.raises(ConfigError):
        BenchSettings(patch_dim=0)
    # An overcomplete code needs more states than patch pixels.
    for patch_dim in (16, 17):
        with pytest.raises(ConfigError, match="state_dim .16. must exceed "
                                              "patch_dim"):
            BenchSettings(patch_dim=patch_dim, state_dim=16)
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
                    "max_iter = 50\n")
    s = parse_bench_config(path)
    # Integer fields must come back as ints; sizes feed RNG shape tuples.
    assert s.patch_dim == 16 and isinstance(s.patch_dim, int)
    assert s.state_dim == 24 and isinstance(s.state_dim, int)
    assert s.max_iter == 50 and isinstance(s.max_iter, int)
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

    # ISTA and FISTA run at 1/L of the bench dictionary, so the step is
    # not a bench key either.
    path.write_text("[bench]\nstep = 0.01\n")
    with pytest.raises(ConfigError, match="unknown key 'step'"):
        parse_bench_config(path)

    # [bench] takes any case; a config without it falls back to defaults
    # entirely, but a section of another name, a misspelt one too, raises.
    path.write_text("[Bench]\nmax_iter = 50\n")
    assert parse_bench_config(path) == BenchSettings(max_iter=50)
    path.write_text("")
    assert parse_bench_config(path) == BenchSettings()
    for section in ("other", "bnech"):
        path.write_text(f"[{section}]\nmax_iter = 50\n")
        with pytest.raises(ConfigError, match=f"section .{section}."):
            parse_bench_config(path)
