"""Command-line entry point.

Subcommands: gen-shapes, bench, train, cluster, reconstruct.  Each
command returns the input paths it read, and main writes the run's
manifest.json next to its outputs once the command has succeeded; a
command that fails writes none.  Metric CSVs contain only
seed-determined numbers, so same-seed runs at the same BLAS thread count
produce byte-identical files; BLAS/LAPACK rounding in the state solves can
depend on that count, and nothing here fixes it (perfbench/ pins 1 thread).
Anything measured with a clock goes into a separate timings.csv.
"""

import argparse
import dataclasses
import datetime
import json
import os
import sys

import numpy as np

from . import __version__
from .baselines import BaselineConfig, adam_solve, fista_solve, ista_solve, \
    state_objective
from .config import BenchSettings, parse_bench_config, parse_network_config
from .errors import ConfigError, LengthMismatch
from .frames import (read_frames_dir, read_labels_csv, write_csv,
                     write_frames, write_labels_csv, write_metrics_csv)
from .linalg import aligned_zeros
from .metrics import evaluate_clustering, matching_accuracy, per_frame_mse, \
    sparsity
from .model import HyperParams, LayerDims, LayerModel
from .network import _fit_frames, infer_variables, load_network, \
    reconstruct_frames, save_network, train_network
from .shapes import generate_shapes
# perfbench/layers.py wraps infer_state and the three *_solve names here.
from .states import infer_state, infer_states_batch

_BENCH_METHODS = ("mm", "ista", "fista", "adam")


@dataclasses.dataclass
class RunManifest:
    """Provenance record written next to every command's outputs."""

    command: str
    config_path: str
    seed: int | None  # None for reconstruct, which makes no random choice
    input_paths: list
    output_dir: str
    version: str
    started_at: str
    finished_at: str

    def write(self):
        os.makedirs(self.output_dir, exist_ok=True)
        path = os.path.join(self.output_dir, "manifest.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dataclasses.asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


# ---------------------------------------------------------------------------
# gen-shapes


def cmd_gen_shapes(args) -> list:
    data = generate_shapes(frames_per_shape=args.frames_per_shape,
                           size=args.size, seed=args.seed,
                           noise_level=args.noise)
    write_frames(os.path.join(args.out, "frames"), data.frames)
    write_labels_csv(os.path.join(args.out, "labels.csv"), data.labels)
    print(f"wrote {data.frames.shape[0]} frames and labels to {args.out}")
    return []


# ---------------------------------------------------------------------------
# bench


# Synthetic problem scale.  The dictionary is scaled to the spectral
# curvature L = ||C||^2 = _BENCH_CURVATURE, by one SVD per problem
# (np.linalg.norm(dictionary, 2)), so ISTA and FISTA take the textbook step
# 1/L (Beck & Teboulle, SIAM J. Imaging Sci. 2009) and compute none.  The
# code amplitude is large enough that no method closes the remaining gap
# within the iteration budget.
_BENCH_CURVATURE = 5.0
_BENCH_SIGNAL = 150.0
# Adam adapts its per-component rates, so it takes a scale, not 1/L.
_BENCH_ADAM_STEP = 5.0


def _bench_model(settings: BenchSettings, rng) -> LayerModel:
    p, k = settings.patch_dim, settings.state_dim
    side_y = int(np.sqrt(p))
    while p % side_y:
        side_y -= 1
    side_x = p // side_y
    ys, xs = np.mgrid[0:side_y, 0:side_x].astype(float)
    # The dictionary and the transition are allocated on the model's
    # alignment, so LayerModel keeps them without a copy.
    dictionary = aligned_zeros((p, k))
    for j in range(k):
        # Localized blob atoms with a lognormal norm spread: coherent
        # overlapping supports and unequal per-atom curvature, like patch
        # dictionaries learned from images.
        cy = rng.uniform(0, side_y - 1)
        cx = rng.uniform(0, side_x - 1)
        width = rng.uniform(1.2, 2.5)
        blob = np.exp(-((ys - cy) ** 2 + (xs - cx) ** 2)
                      / (2 * width * width)).ravel()
        blob /= np.linalg.norm(blob)
        dictionary[:, j] = blob * np.exp(0.4 * rng.standard_normal())
    top = np.linalg.norm(dictionary, 2) ** 2
    dictionary *= np.sqrt(_BENCH_CURVATURE / top)
    transition = aligned_zeros((k, k))
    np.fill_diagonal(transition, 1.0)
    dims = LayerDims(p, k, 1)
    return LayerModel(dims, transition, np.ones((k, 1)), dictionary)


def _bench_patches(settings: BenchSettings, model: LayerModel, rng) -> np.ndarray:
    """The bench's one problem source: sparse y = C x_true + small noise."""
    n, k = settings.patch_count, settings.state_dim
    support = rng.random((n, k)) < settings.generator_sparsity
    x_true = _BENCH_SIGNAL * support * rng.standard_normal((n, k))
    noise = 0.05 * rng.standard_normal((n, settings.patch_dim))
    return x_true @ model.dictionary.T + noise


def _bench_hp(settings: BenchSettings) -> HyperParams:
    # inner_tol is effectively disabled so every method gets the same
    # fixed iteration budget.
    return HyperParams(state_sparsity=settings.state_sparsity,
                       inner_tol=1e-300,
                       max_inner_iter=settings.max_iter)


def run_benchmark(settings: BenchSettings, methods, seed: int):
    """Run MM, ISTA, FISTA and Adam on the same patches.

    methods must be _BENCH_METHODS, or ConfigError is raised before any
    solve; perfbench still passes it (ROADMAP.md item 7).  Each method
    solves all patches as one batch of independent rows, whose states and
    traces equal those of a solve on each patch alone.  Returns a dict per
    method with final objectives, sparsity percentages, iterations to
    reach 1% above the best final objective of the four, wall times (each
    patch an equal share of its method's batch), and the padded
    per-iteration mean objective trace.
    """
    if tuple(methods) != _BENCH_METHODS:
        raise ConfigError(f"bench runs {', '.join(_BENCH_METHODS)} in that "
                          f"order; methods {methods!r} are not those")
    rng = np.random.default_rng(seed)
    model = _bench_model(settings, rng)
    patches = _bench_patches(settings, model, rng)
    hp = _bench_hp(settings)
    # ISTA/FISTA share the fixed gradient step 1/L; Adam, being
    # learning-rate adaptive, gets its own scale.  Each lambda looks its
    # solver up in this module when it runs.
    fixed = BaselineConfig(step=1.0 / _BENCH_CURVATURE,
                           max_iter=settings.max_iter)
    adaptive = BaselineConfig(step=_BENCH_ADAM_STEP,
                              max_iter=settings.max_iter)
    weights = np.full((patches.shape[0], settings.state_dim),
                      hp.state_sparsity)
    solve = {
        "mm": lambda: infer_states_batch(patches, None, model, hp, weights),
        "ista": lambda: ista_solve(patches, model, hp, fixed),
        "fista": lambda: fista_solve(patches, model, hp, fixed),
        "adam": lambda: adam_solve(patches, model, hp, adaptive),
    }

    # (final objective, state, trace) per patch, for each method.
    runs = {}
    for m in _BENCH_METHODS:
        states, traces = solve[m]()
        runs[m] = [(state_objective(x, y, model, hp), x, trace)
                   for x, y, trace in zip(states, patches, traces)]

    # Reference objective per patch: best final value any method reached.
    refs = [min(f for f, _, _ in row) for row in zip(*runs.values())]

    def iters_to(objectives, ref):
        threshold = 1.01 * ref if ref > 0 else ref
        return next((j for j, v in enumerate(objectives) if v <= threshold),
                    settings.max_iter)

    out = {}
    for m in _BENCH_METHODS:
        finals, states, traces = zip(*runs[m])
        objs = [tr.objective_per_iter for tr in traces]
        longest = max(map(len, objs))
        out[m] = {
            "final_energy": np.array(finals),
            "sparsity": np.array([sparsity(x, hp.clamp_state) for x in states]),
            "iters_to_1pct": np.array(list(map(iters_to, objs, refs)),
                                      dtype=float),
            "wall_seconds": np.array([tr.wall_time for tr in traces]),
            "mean_trace": np.array([o + o[-1:] * (longest - len(o))
                                    for o in objs]).mean(axis=0),
        }
    return out


def _write_trace_csv(path, trace):
    write_csv(path, ("iteration", "mean_objective"),
              ((i, float(v)) for i, v in enumerate(trace)))


def cmd_bench(args) -> list:
    """Run the four state solvers (run_benchmark); write metrics.csv,
    timings.csv and each method's trace_<method>.csv."""
    results = run_benchmark(parse_bench_config(args.config), _BENCH_METHODS,
                            args.seed)

    os.makedirs(args.out, exist_ok=True)
    metric_rows, timing_rows = [], []
    for m in _BENCH_METHODS:
        r = results[m]
        for name in ("final_energy", "sparsity", "iters_to_1pct"):
            metric_rows.append((f"{m}_{name}",
                                float(np.mean(r[name])),
                                float(np.std(r[name]))))
        timing_rows.append((f"{m}_wall_seconds",
                            float(np.mean(r["wall_seconds"])),
                            float(np.std(r["wall_seconds"]))))
        _write_trace_csv(os.path.join(args.out, f"trace_{m}.csv"),
                         r["mean_trace"])
    write_metrics_csv(os.path.join(args.out, "metrics.csv"), metric_rows)
    write_metrics_csv(os.path.join(args.out, "timings.csv"), timing_rows)
    for name, value, stddev in metric_rows:
        print(f"{name}: {value:.6g} +- {stddev:.3g}")
    return []


# ---------------------------------------------------------------------------
# train


def cmd_train(args) -> list:
    cfg = parse_network_config(args.config)
    # --out names the model file; the traces, metrics and manifest go in
    # its directory, which is the manifest's output_dir.
    model_path = args.out
    if os.path.isdir(model_path):
        raise ConfigError(f"--out {model_path} is a directory; it names the "
                          "model file to write, such as fit/model.dpcn")
    out_dir = args.out = os.path.dirname(model_path) or "."

    frames = read_frames_dir(args.frames)
    layers, reports = train_network(frames, cfg, args.seed)
    os.makedirs(out_dir, exist_ok=True)
    save_network(layers, model_path)

    metric_rows = []
    timing_rows = []
    for i, report in enumerate(reports, start=1):
        _write_trace_csv(
            os.path.join(out_dir, f"train_trace_layer{i}.csv"),
            report.energy_per_outer)
        metric_rows += [
            (f"layer{i}_final_energy", report.energy_per_outer[-1], 0.0),
            (f"layer{i}_outer_iterations", float(report.outer_iterations), 0.0),
            (f"layer{i}_rejected_steps", float(report.rejected_steps), 0.0),
            (f"layer{i}_converged", float(report.converged), 0.0),
            (f"layer{i}_blocks_per_frame",
             report.blocks / (report.outer_iterations * frames.shape[0]), 0.0),
        ]
        timing_rows.append((f"layer{i}_fit_seconds", report.wall_time, 0.0))
    write_metrics_csv(os.path.join(out_dir, "metrics.csv"), metric_rows)
    write_metrics_csv(os.path.join(out_dir, "timings.csv"), timing_rows)
    print(f"trained {len(layers)} layers on {frames.shape[0]} frames; "
          f"model at {model_path}")
    return [args.frames]


# ---------------------------------------------------------------------------
# cluster


def cmd_cluster(args) -> list:
    layers = load_network(args.model)
    frames = read_frames_dir(args.frames)
    labels = read_labels_csv(args.labels)
    if len(labels) != frames.shape[0]:
        raise LengthMismatch(
            f"{len(labels)} labels for {frames.shape[0]} frames")

    # A label change marks a scene cut: consecutive frames from different
    # clips share no temporal structure, so the recurrence is reset there.
    cuts = [i for i in range(1, len(labels)) if labels[i] != labels[i - 1]]
    result = infer_variables(frames, layers, layers[0].model.dims.grid,
                             segment_starts=cuts)
    top = np.vstack([result.causes[t][-1].values
                     for t in range(frames.shape[0])])
    report = evaluate_clustering(
        top, labels, k=len(set(labels)), seed=args.seed,
        threshold=layers[-1].hp.clamp_cause,
        lct_seconds=float(np.mean(result.per_frame_seconds)))
    match_acc = matching_accuracy(labels, report.assignments)

    os.makedirs(args.out, exist_ok=True)
    write_metrics_csv(os.path.join(args.out, "metrics.csv"), [
        ("completeness_acc", report.acc, 0.0),
        ("adjusted_rand_index", report.ari, 0.0),
        ("cause_sparsity_pct", report.spa, 0.0),
        ("matching_accuracy", match_acc, 0.0),
    ])
    # Frames inferred in one step share its time equally, so this std
    # spreads over inference steps, not over frames.
    write_metrics_csv(os.path.join(args.out, "timings.csv"), [
        ("lct_seconds_per_frame", report.lct_seconds,
         float(np.std(result.per_frame_seconds))),
    ])
    write_csv(os.path.join(args.out, "assignments.csv"),
              ("frame_index", "cluster"),
              ((i, int(c)) for i, c in enumerate(report.assignments)))
    print(f"ACC {report.acc:.4f}  ARI {report.ari:.4f}  "
          f"SPA {report.spa:.2f}%  LCT {report.lct_seconds:.4f}s/frame")
    return [args.model, args.frames, args.labels]


# ---------------------------------------------------------------------------
# reconstruct


def cmd_reconstruct(args) -> list:
    layers = load_network(args.model)
    frames = read_frames_dir(args.frames)
    grid = layers[0].model.dims.grid
    # As layer 1 takes them (_fit_frames), so the MSE compares what it saw.
    frames = _fit_frames(frames, layers[0].model.dims, grid)

    result = infer_variables(frames, layers, grid)
    recon = reconstruct_frames(frames.shape[1:], layers, result, grid)
    mses = per_frame_mse(frames, recon)

    os.makedirs(args.out, exist_ok=True)
    write_frames(os.path.join(args.out, "frames"), recon)
    write_csv(os.path.join(args.out, "mse.csv"), ("frame_index", "mse"),
              ((i, float(v)) for i, v in enumerate(mses)))
    write_metrics_csv(os.path.join(args.out, "metrics.csv"), [
        ("reconstruction_mse", float(np.mean(mses)), float(np.std(mses))),
    ])
    write_metrics_csv(os.path.join(args.out, "timings.csv"), [
        ("inference_seconds_per_frame",
         float(np.mean(result.per_frame_seconds)),
         float(np.std(result.per_frame_seconds))),
    ])
    print(f"reconstructed {recon.shape[0]} frames; "
          f"mean MSE {float(np.mean(mses)):.6g}")
    return [args.model, args.frames]


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmdpcn",
        description="Hierarchical sparse coding for video: generate data, "
                    "benchmark solvers, train, cluster, reconstruct.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=None):
        p.add_argument("--seed", type=int, default=0,
                       help="seed for every random choice in this command")
        if config:
            p.add_argument("--config", required=config == "required",
                           help="configuration file (key=value sections)")

    p = sub.add_parser("gen-shapes", help="write a synthetic shape video")
    common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--frames-per-shape", type=int, default=100)
    p.add_argument("--size", type=int, default=16,
                   help="frame height and width in pixels (min 16)")
    p.add_argument("--noise", type=float, default=0.02,
                   help="pixel noise standard deviation")
    p.set_defaults(fn=cmd_gen_shapes)

    p = sub.add_parser("bench", help="compare four state solvers on one problem")
    common(p, config="optional")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("train", help="fit a layer stack on a frame directory")
    common(p, config="required")
    p.add_argument("--out", required=True,
                   help="model file to write; the traces, metrics and "
                        "manifest go in its directory")
    p.add_argument("--frames", required=True, help="directory of .pgm/.ppm frames")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("cluster", help="cluster top-layer causes and score them")
    common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--model", required=True, help="trained model file")
    p.add_argument("--frames", required=True)
    p.add_argument("--labels", required=True, help="frame_index,label CSV")
    p.set_defaults(fn=cmd_cluster)

    p = sub.add_parser("reconstruct", help="render layer-1 reconstructions")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--model", required=True)
    p.add_argument("--frames", required=True)
    p.set_defaults(fn=cmd_reconstruct)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started_at = _now()
    try:
        inputs = args.fn(args)
        RunManifest(command=args.command,
                    config_path=getattr(args, "config", None) or "",
                    seed=getattr(args, "seed", None),
                    input_paths=inputs,
                    output_dir=args.out, version=f"v{__version__}",
                    started_at=started_at, finished_at=_now()).write()
    except (ValueError, OSError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
