"""The benchmark's three seeded workloads.

Each workload has a set-up, done once per input and timed per input, and a
round: one pass of the measured pipeline over all of the run's inputs.  A
round returns its wall time, its clock readings, the deterministic outputs
that a same-seed round must reproduce exactly, and the checks that failed.

Every run covers several inputs derived from its seed, so that one unusual
input (a layer that converges early, a model that needs many sweeps) moves
a run's figures by a fraction rather than all of them.
"""

import dataclasses
import hashlib
import math
import os
import statistics
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from mmdpcn.cli import run_benchmark
from mmdpcn.config import parse_bench_config, parse_network_config
from mmdpcn.frames import (read_frames_dir, read_labels_csv, write_frames,
                           write_labels_csv)
from mmdpcn.metrics import evaluate_clustering, per_frame_mse
from mmdpcn.network import (infer_variables, load_network, reconstruct_frames,
                            save_network, train_network)
from mmdpcn.shapes import generate_shapes

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHAPES_CONFIG = os.path.join(ROOT, "configs", "shapes2.ini")
BENCH_CONFIG = os.path.join(ROOT, "configs", "bench.ini")
BENCH_METHODS = ("mm", "ista", "fista", "adam")

# Held-out clips are generated from seeds in a range that the training
# clips' seeds (seed * count + index) do not reach for any practical seed.
_HELD_OUT_SEED_BASE = 10_000_000

# fit_layer accepts a pass whose energy rose by at most this relative slack.
_ACCEPT_SLACK = 1e-9


@dataclass
class Round:
    """One pass of a workload's measured pipeline over all its inputs."""

    seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    fields: dict = field(default_factory=dict)
    samples: dict = field(default_factory=lambda: defaultdict(list))

    def attempt(self, fn, *args):
        """Run one operation; every exception counts as a failed operation."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # the benchmark reports failures, it does not stop
            self.failed += 1
            self.problems.append(traceback.format_exc())
            return None

    def check(self, ok: bool, message: str):
        if not ok:
            self.problems.append(message)


def layer_names() -> dict:
    """Map each layer's dims in shapes2.ini to its name, l1, l2, ..."""
    cfg = parse_network_config(SHAPES_CONFIG)
    return {spec.dims: f"l{i}" for i, spec in enumerate(cfg.layers, start=1)}


def tail_percentile(count: int):
    """Highest whole percentile with at least ten samples beyond it."""
    if count < 11:
        return None
    return math.floor(100.0 * (1.0 - 10.0 / count))


def item_medians(rounds, key: str) -> list:
    """Each item's median time over the rounds.

    Every round times the same items in the same order, so position k is
    one item.  A median over rounds drops the rounds that fell in a slow
    spell of the host.  Rounds with different item counts (an operation
    failed) are pooled instead.
    """
    rows = [r.samples[key] for r in rounds]
    if len({len(row) for row in rows}) != 1:
        return [s for row in rows for s in row]
    return [statistics.median(col) for col in zip(*rows)]


def _all_finite(*arrays) -> bool:
    return all(np.all(np.isfinite(np.asarray(a, dtype=float))) for a in arrays)


def _nonincreasing(values, slack: float) -> bool:
    return all(b <= a + slack * max(1.0, abs(a))
               for a, b in zip(values, values[1:]))


class Workload:
    """Common base: per-input set-up, and a round over every input.

    Subclasses set `count` (inputs per run) and `reference`, the matrix
    shape of their dominant solve (see hostspeed.py), and define
    prepare(seed, i, workdir) -> input and item(rnd, i, input).
    """

    count = 1
    reference = (64, 72)

    def setup(self, seed: int, workdir: str):
        """Prepare every input; return the inputs and each one's set-up time."""
        inputs, times = [], []
        for i in range(self.count):
            start = time.perf_counter()
            inputs.append(self.prepare(seed, i, workdir))
            times.append(time.perf_counter() - start)
        return inputs, times

    def run(self, inputs, between=None) -> Round:
        """One round over every input.

        between(), if given, is called after each input; its time is not
        counted in the round's.
        """
        rnd = Round()
        start = time.perf_counter()
        for i, inp in enumerate(inputs):
            rnd.attempt(self.item, rnd, i, inp)
            if between is not None:
                pause = time.perf_counter()
                between()
                start += time.perf_counter() - pause
        rnd.seconds = time.perf_counter() - start
        return rnd


class ShapesTrain(Workload):
    """`mmdpcn train --config configs/shapes2.ini` on short seeded clips.

    Set-up writes each clip's frames; an item reads them, trains the
    two-layer stack and saves the model.  The run's seed picks the clips;
    the learning seeds stay those of the config, as with `train`'s default
    `--seed 0`, which keeps the work per clip less seed-dependent.
    """

    name = "shapes_train"

    def __init__(self, clips: int = 16):
        self.count = clips
        self.cfg = parse_network_config(SHAPES_CONFIG)

    def prepare(self, seed: int, i: int, workdir: str):
        folder = os.path.join(workdir, f"clip{i}")
        data = generate_shapes(frames_per_shape=1, seed=seed * self.count + i)
        write_frames(os.path.join(folder, "frames"), data.frames)
        return folder

    def item(self, rnd: Round, i: int, folder: str):
        start = time.perf_counter()
        frames = read_frames_dir(os.path.join(folder, "frames"))
        layers, reports = train_network(frames, self.cfg)
        save_network(layers, os.path.join(folder, "model.dpcn"))
        rnd.samples["item_s"].append(time.perf_counter() - start)

        for l, (layer, report) in enumerate(zip(layers, reports), start=1):
            energies = report.energy_per_outer
            m = layer.model
            rnd.check(_all_finite(energies, m.transition, m.coupling,
                                  m.dictionary),
                      f"clip {i} layer {l}: non-finite energy or matrix")
            rnd.check(_nonincreasing(energies, _ACCEPT_SLACK),
                      f"clip {i} layer {l}: accepted energy rose: {energies}")
            rnd.fields[f"clip{i}.l{l}.energies"] = tuple(energies)
            rnd.fields[f"clip{i}.l{l}.passes"] = report.outer_iterations
            rnd.fields[f"clip{i}.l{l}.rejected"] = report.rejected_steps
        rnd.samples["train_energy"].append(
            sum(r.energy_per_outer[-1] for r in reports))

    def report(self, rounds) -> list:
        last = rounds[-1]
        return [
            ("train_s", statistics.fmean(item_medians(rounds, "item_s")), "s"),
            ("train_energy", statistics.fmean(last.samples["train_energy"]),
             "energy"),
        ]


class ShapesInfer(Workload):
    """`mmdpcn cluster` plus reconstruction on held-out seeded shape clips.

    Set-up trains one model per input on a short clip and writes a longer
    held-out clip from a different seed.  An item loads the model, infers
    the held-out clip with scene cuts, clusters the top-layer causes and
    reconstructs the frames from the same inference.
    """

    name = "shapes_infer"

    def __init__(self, models: int = 4, held_out_frames_per_shape: int = 6):
        self.count = models
        self.held_out_frames_per_shape = held_out_frames_per_shape
        self.cfg = parse_network_config(SHAPES_CONFIG)

    def prepare(self, seed: int, i: int, workdir: str):
        sub = seed * self.count + i
        folder = os.path.join(workdir, f"model{i}")
        train = generate_shapes(frames_per_shape=1, seed=sub)
        layers, _ = train_network(train.frames, self.cfg)
        os.makedirs(folder, exist_ok=True)
        save_network(layers, os.path.join(folder, "model.dpcn"))
        held = generate_shapes(frames_per_shape=self.held_out_frames_per_shape,
                               seed=_HELD_OUT_SEED_BASE + sub)
        write_frames(os.path.join(folder, "frames"), held.frames)
        write_labels_csv(os.path.join(folder, "labels.csv"), held.labels)
        return sub, folder

    def item(self, rnd: Round, i: int, inp):
        sub, folder = inp
        layers = load_network(os.path.join(folder, "model.dpcn"))
        frames = read_frames_dir(os.path.join(folder, "frames"))
        labels = read_labels_csv(os.path.join(folder, "labels.csv"))
        cuts = [t for t in range(1, len(labels)) if labels[t] != labels[t - 1]]

        result = infer_variables(frames, layers, self.cfg.grid,
                                 segment_starts=cuts)
        rnd.samples["item_s"].extend(result.per_frame_seconds)

        top = np.vstack([result.causes[t][-1].values
                         for t in range(frames.shape[0])])
        report = evaluate_clustering(
            top, labels, k=3, seed=sub, threshold=layers[-1].hp.clamp_cause,
            lct_seconds=float(np.mean(result.per_frame_seconds)))
        recon = reconstruct_frames(frames.shape[1:], layers, result,
                                   self.cfg.grid)
        mse = float(np.mean(per_frame_mse(frames, recon)))

        rnd.check(_all_finite(top, recon), f"model {i}: non-finite output")
        rnd.check(0.0 <= report.acc <= 1.0, f"model {i}: ACC {report.acc}")
        rnd.fields[f"model{i}.causes"] = hashlib.sha256(top.tobytes()).hexdigest()
        rnd.fields[f"model{i}.acc"] = report.acc
        rnd.fields[f"model{i}.ari"] = report.ari
        rnd.fields[f"model{i}.mse"] = mse
        rnd.samples["acc"].append(report.acc)
        rnd.samples["mse"].append(mse)

    def report(self, rounds) -> list:
        last = rounds[-1]
        frames = item_medians(rounds, "item_s")
        rows = [
            ("infer_frames_per_s", len(frames) / sum(frames), "1/s"),
            ("frame_latency_p50_s", statistics.median(frames), "s"),
        ]
        pct = tail_percentile(len(frames))
        if pct is not None:
            rows.append(("frame_latency_tail_s",
                         float(np.percentile(frames, pct)), "s"))
            rows.append(("frame_latency_tail_percentile", pct, "%"))
        rows += [
            ("frame_latency_samples", len(frames), "count"),
            ("cluster_acc", statistics.fmean(last.samples["acc"]), "fraction"),
            ("recon_mse", statistics.fmean(last.samples["mse"]), "pixel^2"),
        ]
        return rows


class SolverBench(Workload):
    """`mmdpcn bench configs/bench.ini` for mm, ista, fista and adam.

    Set-up reads the settings for each input seed; an item runs the solver
    comparison on that seed's synthetic problem.
    """

    name = "solver_bench"
    reference = (256, 300)

    def __init__(self, problems: int = 2, patch_count=None):
        self.count = problems
        self.patch_count = patch_count

    def prepare(self, seed: int, i: int, workdir: str):
        settings = parse_bench_config(BENCH_CONFIG)
        if self.patch_count is not None:
            settings = dataclasses.replace(settings,
                                           patch_count=self.patch_count)
        return seed * self.count + i, settings

    def item(self, rnd: Round, i: int, inp):
        sub, settings = inp
        results = run_benchmark(settings, BENCH_METHODS, sub)
        mm = results["mm"]
        rnd.samples["item_s"].extend(mm["wall_seconds"])
        rnd.samples["baseline_s"].extend(
            w for m in BENCH_METHODS[1:] for w in results[m]["wall_seconds"])
        rnd.samples["mm_energy"].extend(mm["final_energy"])
        rnd.samples["mm_iters_to_1pct"].extend(mm["iters_to_1pct"])

        trace = list(mm["mean_trace"])
        rnd.check(_nonincreasing(trace, 1e-12),
                  f"problem {i}: MM mean objective trace rose")
        for m in BENCH_METHODS:
            r = results[m]
            rnd.check(_all_finite(r["final_energy"], r["mean_trace"]),
                      f"problem {i}: non-finite {m} objective")
            rnd.fields[f"problem{i}.{m}.final_energy"] = tuple(r["final_energy"])
            rnd.fields[f"problem{i}.{m}.iters_to_1pct"] = tuple(r["iters_to_1pct"])

    def report(self, rounds) -> list:
        last = rounds[-1]
        mm = item_medians(rounds, "item_s")
        base = item_medians(rounds, "baseline_s")
        return [
            ("mm_patches_per_s", len(mm) / sum(mm), "1/s"),
            ("baseline_patches_per_s", len(base) / sum(base), "1/s"),
            ("mm_energy", statistics.fmean(last.samples["mm_energy"]),
             "objective"),
            ("mm_iters_to_1pct",
             statistics.fmean(last.samples["mm_iters_to_1pct"]), "iterations"),
        ]


WORKLOADS = {w.name: w for w in (ShapesTrain, ShapesInfer, SolverBench)}
