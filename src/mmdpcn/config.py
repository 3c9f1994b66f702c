"""Settings files: key = value lines in ini sections.

A network file has an optional [network] section and one section per
layer, numbered consecutively from 1:

    [network]
    grid = 2x2

    [layer1]
    input_dim = 64
    state_dim = 96
    cause_dim = 24
    pool_gain = 1.0

    [layer2]
    state_dim = 48
    cause_dim = 12

The dataclasses are the schema.  [network] takes the one key grid, a
layer section 14 keys, the fields of LayerDims but grid (3),
HyperParams (8) and LearnConfig (3: lr, outer_tol, max_outer_iter; the
run's seed is a command option), and [bench] the 6 of BenchSettings;
_read_section parses each key to its type, and an absent key keeps the
default.  Section names take any case; a bench file holds only [bench].
The parser only routes keys, requires layer1's input_dim (patch pixels
times channels; one channel collapses colour frames to gray), gives
layer1 the [network] grid (2x2 when unstated) and an unstated upper
input_dim the cause dimension below; the dataclasses check the rest,
the chain too.  Text that is not UTF-8, an unknown section or key, a
value that does not parse and a value the dataclass refuses, NaN and
infinities included, all raise ConfigError.
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
    The patches are synthetic (cli._bench_patches).
    The fixed-step solvers (ista/fista) take no step setting: the bench
    dictionary is scaled to a known curvature L = ||C||^2, and they run at
    the textbook step 1/L.  Adam's scale and smoothing margin are the
    constants cli._BENCH_ADAM_STEP and baselines._ADAM_MARGIN.
    """

    patch_dim: int = 256
    state_dim: int = 300
    state_sparsity: float = 0.3
    max_iter: int = 200
    patch_count: int = 20
    generator_sparsity: float = 0.05

    def __post_init__(self):
        _require_finite(self, ConfigError)
        if self.patch_dim < 1 or self.state_dim < 1:
            raise ConfigError("bench dimensions must be positive")
        if self.patch_dim >= self.state_dim:
            raise ConfigError(f"bench state_dim ({self.state_dim}) must "
                              f"exceed patch_dim ({self.patch_dim})")
        if self.max_iter < 1 or self.patch_count < 1:
            raise ConfigError("bench max_iter/patch_count must be positive")
        if not (0 < self.generator_sparsity <= 1):
            raise ConfigError("generator_sparsity must lie in (0, 1]")


def _read_ini(path, known: str):
    """The parsed file and each section's lower-cased name mapped to its
    name as written; a name that the regex known does not match, or one
    written twice in different cases, raises ConfigError."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise IoError(f"cannot read config {path}: {exc}") from exc
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    # configparser would merge [DEFAULT] keys into every section.
    if parser.defaults():
        raise ConfigError(f"{path}: [DEFAULT] keys are not supported")
    sections = {}
    for section in parser.sections():
        name = section.lower()
        if not re.fullmatch(known, name) or name in sections:
            raise ConfigError(f"{path}: unknown or repeated section "
                              f"[{section}]")
        sections[name] = section
    return parser, sections


def _field_types(cls, skip=()) -> dict:
    """Each settings key of a dataclass, mapped to the type it parses to."""
    return {f.name: f.type for f in dataclasses.fields(cls)
            if f.name not in skip}


def _parse_grid(raw: str):
    m = re.fullmatch(r"\s*(\d+)\s*[xX]\s*(\d+)\s*", raw)
    if not m:
        raise ConfigError(f"grid must look like '2x2', got {raw!r}")
    rows, cols = int(m.group(1)), int(m.group(2))
    if rows < 1 or cols < 1:
        raise ConfigError("grid dimensions must be positive")
    return rows, cols


# The keys of each section type; layer1's grid comes from [network].
_LAYER_KEYS = (_field_types(LayerDims, skip={"grid"}),
               _field_types(HyperParams), _field_types(LearnConfig))
_BENCH_KEYS = _field_types(BenchSettings)
_NETWORK_KEYS = {"grid": _parse_grid}


def _read_section(parser, section: str | None, *schemas) -> tuple:
    """The one settings-section reader: one kwargs dict per schema, each
    key parsed by the first schema that names it (an absent section gives
    empty dicts); an unknown key or a value that does not parse raises."""
    kwargs = tuple({} for _ in schemas)
    if section is None:
        return kwargs
    for key, raw in parser.items(section):
        for kw, types in zip(kwargs, schemas):
            if key in types:
                try:
                    kw[key] = types[key](raw)
                except ConfigError:  # _parse_grid's own message
                    raise
                except ValueError as exc:
                    raise ConfigError(
                        f"[{section}] {key}: cannot parse {raw!r}") from exc
                break
        else:
            raise ConfigError(f"[{section}] unknown key {key!r}")
    return kwargs


def parse_network_config(path) -> NetworkConfig:
    parser, sections = _read_ini(path, r"network|layer.*")
    network_kw, = _read_section(parser, sections.pop("network", None),
                                _NETWORK_KEYS)

    # Shorter names first, so that layer10 follows layer9; a name that is
    # not layerN then fails the check below.
    layer_names = sorted(sections.values(), key=lambda s: (len(s), s.lower()))
    if not layer_names:
        raise ConfigError(f"{path}: no [layerN] sections found")
    expected = [f"layer{i}" for i in range(1, len(layer_names) + 1)]
    if [s.lower() for s in layer_names] != expected:
        raise ConfigError(
            f"layer sections must be layer1..layerN, got {layer_names}")

    specs = []
    for section in layer_names:
        dims_kw, hp_kw, learn_kw = _read_section(parser, section, *_LAYER_KEYS)
        for need in ("state_dim", "cause_dim"):
            if need not in dims_kw:
                raise ConfigError(f"[{section}] missing required key {need}")
        if not specs:
            if "input_dim" not in dims_kw:
                raise ConfigError("[layer1] must state input_dim "
                                  "(patch pixels times channels)")
            dims_kw["grid"] = network_kw.get("grid", (2, 2))
        else:
            dims_kw.setdefault("input_dim", specs[-1].dims.cause_dim)

        try:
            dims = LayerDims(**dims_kw)
            hp = HyperParams(**hp_kw)
            learn = LearnConfig(**learn_kw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"[{section}]: {exc}") from exc
        specs.append(LayerSpec(dims=dims, hp=hp, learn=learn))

    return NetworkConfig(layers=tuple(specs))


def parse_bench_config(path) -> BenchSettings:
    """Read the optional [bench] section; absent keys keep their defaults."""
    if path is None:
        return BenchSettings()
    parser, sections = _read_ini(path, "bench")
    kwargs, = _read_section(parser, sections.get("bench"), _BENCH_KEYS)
    return BenchSettings(**kwargs)
