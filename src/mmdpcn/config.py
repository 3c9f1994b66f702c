"""Settings files: key = value lines in ini sections.

A network file has an optional [network] section and one section per
layer, numbered consecutively from 1:

    [network]
    grid = 2x2
    channels = 1

    [layer1]
    input_dim = 64
    state_dim = 96
    cause_dim = 24
    pool_gain = 1.0

    [layer2]
    state_dim = 48
    cause_dim = 12

The dataclasses are the schema.  A layer section takes the fields of
LayerDims (but patch_count, which the grid sets), HyperParams and
LearnConfig, and a bench file's [bench] section those of BenchSettings;
each key parses to its field's type, and an absent key keeps the default.
input_dim is required for layer1 (patch pixels times channels) and derived
for upper layers from the cause dimension below, so stating it there is
only allowed when it agrees.  An unknown key, a value that does not parse
and a value the dataclass refuses, NaN and infinities included, all raise
ConfigError.
"""

import configparser
import dataclasses
import re

from .errors import ConfigError, IoError
from .learning import LearnConfig
from .model import HyperParams, LayerDims, _require_finite
from .network import LayerSpec, NetworkConfig


@dataclasses.dataclass(frozen=True)
class BenchSettings:
    """Benchmark problem size and solver budget.

    Every patch is an independent problem with no previous state, so the
    benchmark objective has no temporal term and no setting for one.
    patches_path empty means synthetic sparse-generative patches;
    otherwise it names a raw tensor file with one patch per row.
    step applies to the fixed-step solvers (ista/fista); adam_step is
    the adaptive solver's scale.
    """

    patch_dim: int = 256
    state_dim: int = 300
    state_sparsity: float = 0.3
    smooth_margin: float = 0.1
    step: float = 1e-2
    adam_step: float = 5.0
    max_iter: int = 200
    patch_count: int = 20
    generator_sparsity: float = 0.05
    patches_path: str = ""

    def __post_init__(self):
        _require_finite(self, ConfigError)
        if self.patch_dim < 1 or self.state_dim < 1:
            raise ConfigError("bench dimensions must be positive")
        if self.step <= 0 or self.adam_step <= 0 or self.max_iter < 1 \
                or self.patch_count < 1:
            raise ConfigError("bench step/max_iter/patch_count must be positive")
        if not (0 < self.generator_sparsity <= 1):
            raise ConfigError("generator_sparsity must lie in (0, 1]")


def _read_ini(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise IoError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return parser


def _field_types(cls, skip=()) -> dict:
    """Each settings key of a dataclass, mapped to the type it parses to."""
    return {f.name: f.type for f in dataclasses.fields(cls)
            if f.name not in skip}


# Settings a [layerN] section may give; patch_count comes from the grid.
_LAYER_KEYS = (_field_types(LayerDims, skip={"patch_count"}),
               _field_types(HyperParams), _field_types(LearnConfig))
_BENCH_KEYS = _field_types(BenchSettings)


def _convert(section: str, key: str, raw: str, kind: type):
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(
            f"[{section}] {key}: cannot parse {raw!r}") from exc


def _parse_grid(raw: str):
    m = re.fullmatch(r"\s*(\d+)\s*[xX]\s*(\d+)\s*", raw)
    if not m:
        raise ConfigError(f"grid must look like '2x2', got {raw!r}")
    rows, cols = int(m.group(1)), int(m.group(2))
    if rows < 1 or cols < 1:
        raise ConfigError("grid dimensions must be positive")
    return rows, cols


def parse_network_config(path) -> NetworkConfig:
    parser = _read_ini(path)

    grid = (2, 2)
    channels = 1
    if parser.has_section("network"):
        for key, raw in parser.items("network"):
            if key == "grid":
                grid = _parse_grid(raw)
            elif key == "channels":
                channels = _convert("network", key, raw, int)
            else:
                raise ConfigError(f"[network] unknown key {key!r}")

    # Shorter names first, so that layer10 follows layer9; a name that is
    # not layerN then fails the check below.
    layer_names = sorted((s for s in parser.sections()
                          if s.lower().startswith("layer")),
                         key=lambda s: (len(s), s.lower()))
    if not layer_names:
        raise ConfigError(f"{path}: no [layerN] sections found")
    expected = [f"layer{i}" for i in range(1, len(layer_names) + 1)]
    if [s.lower() for s in layer_names] != expected:
        raise ConfigError(
            f"layer sections must be layer1..layerN, got {layer_names}")

    specs = []
    prev_cause = None
    for idx, section in enumerate(layer_names, start=1):
        kwargs = ({}, {}, {})
        for key, raw in parser.items(section):
            for kw, types in zip(kwargs, _LAYER_KEYS):
                if key in types:
                    kw[key] = _convert(section, key, raw, types[key])
                    break
            else:
                raise ConfigError(f"[{section}] unknown key {key!r}")
        dims_kw, hp_kw, learn_kw = kwargs

        for need in ("state_dim", "cause_dim"):
            if need not in dims_kw:
                raise ConfigError(f"[{section}] missing required key {need}")
        if idx == 1:
            if "input_dim" not in dims_kw:
                raise ConfigError("[layer1] must state input_dim "
                                  "(patch pixels times channels)")
            patch_count = grid[0] * grid[1]
        else:
            if dims_kw.setdefault("input_dim", prev_cause) != prev_cause:
                raise ConfigError(
                    f"[{section}] input_dim {dims_kw['input_dim']} conflicts "
                    f"with the cause dimension {prev_cause} below")
            patch_count = 1
        prev_cause = dims_kw["cause_dim"]

        try:
            dims = LayerDims(patch_count=patch_count, **dims_kw)
            hp = HyperParams(**hp_kw)
            learn = LearnConfig(**learn_kw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"[{section}]: {exc}") from exc
        specs.append(LayerSpec(dims=dims, hp=hp, learn=learn))

    return NetworkConfig(layers=tuple(specs), grid=grid, channels=channels)


def parse_bench_config(path) -> BenchSettings:
    """Read the optional [bench] section; absent keys keep their defaults."""
    if path is None:
        return BenchSettings()
    parser = _read_ini(path)
    if not parser.has_section("bench"):
        return BenchSettings()
    kwargs = {}
    for key, raw in parser.items("bench"):
        if key not in _BENCH_KEYS:
            raise ConfigError(f"[bench] unknown key {key!r}")
        kwargs[key] = _convert("bench", key, raw, _BENCH_KEYS[key])
    return BenchSettings(**kwargs)
