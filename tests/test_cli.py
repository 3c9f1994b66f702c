import json
import os

import numpy as np
import pytest

from mmdpcn.baselines import (BaselineConfig, adam_solve, fista_solve,
                              ista_solve, state_objective)
from mmdpcn.cli import _BENCH_ADAM_STEP, _BENCH_CURVATURE, _bench_hp, \
    _bench_model, _bench_patches, main, run_benchmark
from mmdpcn.config import BenchSettings
from mmdpcn.errors import ConfigError
from mmdpcn.frames import (format_float, read_frames_dir, read_labels_csv,
                           write_frames, write_labels_csv)
from mmdpcn.learning import _MAX_BLOCKS, init_model
from mmdpcn.metrics import evaluate_clustering, per_frame_mse, sparsity
from mmdpcn.model import HyperParams, LayerDims
from mmdpcn.network import (Layer, infer_variables, load_network,
                            reconstruct_frames, save_network)
from mmdpcn.states import infer_state

from helpers import read_metrics_csv


def run(*argv) -> int:
    return main([str(a) for a in argv])


def zero_frame_setup(tmp_path, seed=5):
    """Blank 4x4 frames, 3 labels, and a random untrained 1-layer model."""
    frames_dir = tmp_path / "frames"
    write_frames(frames_dir, np.zeros((3, 4, 4)))
    labels_path = tmp_path / "labels.csv"
    write_labels_csv(labels_path, ["diamond", "triangle", "square"])
    model_path = tmp_path / "model.dpcn"
    model = init_model(LayerDims(4, 6, 2, (2, 2)), np.random.default_rng(seed))
    save_network([Layer(model, HyperParams(max_inner_iter=40))], model_path)
    return frames_dir, labels_path, model_path


def test_gen_shapes_writes_dataset(tmp_path, capsys):
    out = tmp_path / "data"
    assert run("gen-shapes", "--out", out, "--frames-per-shape", 4,
               "--size", 16, "--noise", 0.0, "--seed", 3) == 0
    frames = read_frames_dir(out / "frames")
    assert frames.shape == (12, 16, 16)
    labels = read_labels_csv(out / "labels.csv")
    assert labels == ["diamond"] * 4 + ["triangle"] * 4 + ["square"] * 4
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "gen-shapes"
    assert manifest["seed"] == 3
    assert manifest["output_dir"] == str(out)
    assert manifest["version"].startswith("v")
    assert manifest["finished_at"] >= manifest["started_at"]
    assert "wrote 12 frames" in capsys.readouterr().out


def test_gen_shapes_seed_reproducibility(tmp_path):
    for name in ("a", "b"):
        assert run("gen-shapes", "--out", tmp_path / name,
                   "--frames-per-shape", 3, "--seed", 9) == 0
    names = sorted(os.listdir(tmp_path / "a" / "frames"))
    assert len(names) == 9
    for name in names:
        assert (tmp_path / "a" / "frames" / name).read_bytes() == \
            (tmp_path / "b" / "frames" / name).read_bytes()


def test_argparse_rejects_unknown_usage(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("gen-shapes", "--out", tmp_path, "--wibble", 3)
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        run()  # a subcommand is required
    with pytest.raises(SystemExit) as exc:  # train requires --config
        run("train", "--frames", tmp_path, "--out", tmp_path / "y")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:  # bench always runs all four
        run("bench", "--out", tmp_path / "z", "--methods", "mm")
    assert exc.value.code == 2


def test_domain_errors_exit_2(tmp_path, capsys):
    # gen-shapes validation failure inside the command, not argparse.
    assert run("gen-shapes", "--out", tmp_path / "x", "--size", 8) == 2
    assert "error:" in capsys.readouterr().err
    assert run("gen-shapes", "--out", tmp_path / "x", "--noise", "nan") == 2
    assert "noise_level" in capsys.readouterr().err
    # cluster with a version-3 model file, which does not record its grid.
    frames_dir, labels_path, model_path = zero_frame_setup(tmp_path)
    blob = bytearray(model_path.read_bytes())
    blob[4:6] = (3).to_bytes(2, "little")
    model_path.write_bytes(bytes(blob))
    assert run("cluster", "--model", model_path, "--frames", frames_dir,
               "--labels", labels_path, "--out", tmp_path / "z") == 2
    assert "version 3 is not 4, the one that records the grid" in \
        capsys.readouterr().err
    # train with --out naming a directory, not the model file.
    ini = tmp_path / "net.ini"
    ini.write_text(TINY_INI)
    assert run("train", "--config", ini, "--frames", frames_dir,
               "--out", tmp_path) == 2
    assert "is a directory" in capsys.readouterr().err


def test_train_rejects_non_finite_settings_before_solving(tmp_path, capsys,
                                                          monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr("mmdpcn.cli.train_network", no_solve)
    frames_dir, _, _ = zero_frame_setup(tmp_path)
    ini = tmp_path / "net.ini"
    ini.write_text("[layer1]\ninput_dim = 4\nstate_dim = 6\ncause_dim = 2\n"
                   "state_sparsity = inf\n")
    assert run("train", "--config", ini, "--frames", frames_dir,
               "--out", tmp_path / "m" / "model.dpcn") == 2
    assert "state_sparsity must be finite" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


BENCH_INI = """
[bench]
patch_dim = 6
state_dim = 9
max_iter = 30
patch_count = 3
generator_sparsity = 0.3
"""


METHODS = ("mm", "ista", "fista", "adam")


def test_bench_writes_split_csvs(tmp_path):
    cfg = tmp_path / "bench.ini"
    cfg.write_text(BENCH_INI)
    out = tmp_path / "run"
    assert run("bench", "--config", cfg, "--out", out, "--seed", 1) == 0
    metrics = read_metrics_csv(out / "metrics.csv")
    assert set(metrics) == {f"{m}_{name}" for m in METHODS for name in
                            ("final_energy", "sparsity", "iters_to_1pct")}
    # Some patch carries a code, so the run pins more than noise.
    assert metrics["mm_sparsity"][0] < 100
    timings = read_metrics_csv(out / "timings.csv")
    assert set(timings) == {f"{m}_wall_seconds" for m in METHODS}
    assert all(value > 0 for value, _ in timings.values())
    for method in METHODS:
        lines = (out / f"trace_{method}.csv").read_text().splitlines()
        assert lines[0] == "iteration,mean_objective"
        assert len(lines) >= 2
    assert (out / "manifest.json").exists()


def test_bench_metrics_are_bitwise_reproducible(tmp_path):
    cfg = tmp_path / "bench.ini"
    cfg.write_text(BENCH_INI)
    for name in ("r1", "r2"):
        assert run("bench", "--config", cfg, "--out", tmp_path / name,
                   "--seed", 4) == 0
    for fname in ("metrics.csv", *(f"trace_{m}.csv" for m in METHODS)):
        assert (tmp_path / "r1" / fname).read_bytes() == \
            (tmp_path / "r2" / fname).read_bytes()


BENCH_SETTINGS = BenchSettings(patch_dim=6, state_dim=9, max_iter=30,
                               patch_count=3, generator_sparsity=0.3)


def forbid_solves(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve started")

    for name in ("infer_states_batch", "ista_solve", "fista_solve",
                 "adam_solve", "_bench_model"):
        monkeypatch.setattr(f"mmdpcn.cli.{name}", no_solve)


def test_bench_rejects_unknown_method(monkeypatch):
    # Each method's iters_to_1pct is measured against the best of all
    # four, so any other set or order would change what the others report;
    # the methods are checked before any solve.
    forbid_solves(monkeypatch)
    for methods in (("mm",), ("mm", "magic"),
                    ("mm", "fista", "ista", "adam"), ()):
        with pytest.raises(ConfigError, match="bench runs mm, ista, fista"):
            run_benchmark(BENCH_SETTINGS, methods, seed=0)


def test_bench_rejects_repeated_method(monkeypatch):
    forbid_solves(monkeypatch)
    with pytest.raises(ConfigError, match="bench runs mm, ista, fista"):
        run_benchmark(BENCH_SETTINGS, METHODS + ("mm",), seed=0)


def test_run_benchmark_matches_per_patch_solves():
    # The reference solves every patch on its own.
    settings = BenchSettings(patch_dim=8, state_dim=12, max_iter=40,
                             patch_count=5, generator_sparsity=0.3)
    methods = ["mm", "ista", "fista", "adam"]
    results = run_benchmark(settings, methods, seed=3)

    rng = np.random.default_rng(3)
    model = _bench_model(settings, rng)
    patches = _bench_patches(settings, model, rng)
    hp = _bench_hp(settings)
    fixed = BaselineConfig(step=1.0 / _BENCH_CURVATURE,
                           max_iter=settings.max_iter)
    adaptive = BaselineConfig(step=_BENCH_ADAM_STEP,
                              max_iter=settings.max_iter)

    def alone(solve, cfg):
        def one(y):
            (x,), (trace,) = solve(y[None], model, hp, cfg)
            return x, trace
        return one

    solo = {"mm": lambda y: infer_state(y, None, model, hp),
            "ista": alone(ista_solve, fixed),
            "fista": alone(fista_solve, fixed),
            "adam": alone(adam_solve, adaptive)}
    runs = {m: [solo[m](y) for y in patches] for m in methods}
    finals = {m: [state_objective(x, y, model, hp)
                  for (x, _), y in zip(runs[m], patches)] for m in methods}
    refs = [min(finals[m][i] for m in methods) for i in range(len(patches))]
    for m in methods:
        r = results[m]
        assert r["final_energy"].tolist() == finals[m]
        assert r["sparsity"].tolist() == [sparsity(x, hp.clamp_state)
                                          for x, _ in runs[m]]
        objs = [trace.objective_per_iter for _, trace in runs[m]]
        iters = [next((j for j, v in enumerate(o)
                       if v <= (1.01 * ref if ref > 0 else ref)),
                      settings.max_iter) for o, ref in zip(objs, refs)]
        assert r["iters_to_1pct"].tolist() == iters
        longest = max(map(len, objs))
        padded = [o + o[-1:] * (longest - len(o)) for o in objs]
        assert np.array_equal(r["mean_trace"], np.mean(padded, axis=0))


TRAIN_INI = """
[network]
grid = 2x2

[layer1]
input_dim = 64
state_dim = 72
cause_dim = 8
max_inner_iter = 30
max_outer_iter = 2
"""


def test_train_cluster_reconstruct_pipeline(tmp_path):
    data = tmp_path / "data"
    assert run("gen-shapes", "--out", data, "--frames-per-shape", 3,
               "--noise", 0.0, "--seed", 2) == 0

    cfg = tmp_path / "net.ini"
    cfg.write_text(TRAIN_INI)
    model_path = tmp_path / "fit" / "shapes.dpcn"
    assert run("train", "--config", cfg, "--frames", data / "frames",
               "--out", model_path, "--seed", 0) == 0
    assert model_path.exists()
    fit_metrics = read_metrics_csv(tmp_path / "fit" / "metrics.csv")
    assert "layer1_final_energy" in fit_metrics
    assert "layer1_outer_iterations" in fit_metrics
    assert (tmp_path / "fit" / "train_trace_layer1.csv").exists()
    assert (tmp_path / "fit" / "timings.csv").exists()

    cl = tmp_path / "cl"
    assert run("cluster", "--model", model_path, "--frames", data / "frames",
               "--labels", data / "labels.csv", "--out", cl,
               "--seed", 0) == 0
    metrics = read_metrics_csv(cl / "metrics.csv")
    for key in ("completeness_acc", "adjusted_rand_index",
                "cause_sparsity_pct", "matching_accuracy"):
        assert key in metrics
    assignments = (cl / "assignments.csv").read_text().splitlines()
    assert assignments[0] == "frame_index,cluster"
    assert len(assignments) == 10

    rec = tmp_path / "rec"
    assert run("reconstruct", "--model", model_path, "--frames",
               data / "frames", "--out", rec) == 0
    recon = read_frames_dir(rec / "frames")
    assert recon.shape == (9, 16, 16)
    mse_lines = (rec / "mse.csv").read_text().splitlines()
    assert mse_lines[0] == "frame_index,mse"
    assert len(mse_lines) == 10
    assert "reconstruction_mse" in read_metrics_csv(rec / "metrics.csv")


def test_cluster_and_reconstruct_run_at_the_grid_the_model_records(tmp_path):
    # On 16x16 frames a 1x4 grid cuts four 64-pixel patches, as 2x2 does,
    # so only the model file can tell cluster and reconstruct the grid a
    # model was trained at.
    data = tmp_path / "data"
    assert run("gen-shapes", "--out", data, "--frames-per-shape", 2,
               "--noise", 0.0, "--seed", 2) == 0
    cfg = tmp_path / "net.ini"
    cfg.write_text(TRAIN_INI.replace("grid = 2x2", "grid = 1x4"))
    model_path = tmp_path / "fit" / "model.dpcn"
    assert run("train", "--config", cfg, "--frames", data / "frames",
               "--out", model_path) == 0
    assert run("cluster", "--model", model_path, "--frames", data / "frames",
               "--labels", data / "labels.csv", "--out", tmp_path / "cl") == 0
    assert run("reconstruct", "--model", model_path, "--frames",
               data / "frames", "--out", tmp_path / "rec") == 0

    layers = load_network(model_path)
    assert layers[0].model.dims.grid == (1, 4)
    frames = read_frames_dir(data / "frames")
    labels = read_labels_csv(data / "labels.csv")
    cuts = [t for t in range(1, len(labels)) if labels[t] != labels[t - 1]]
    top = np.vstack([causes[-1].values for causes in infer_variables(
        frames, layers, (1, 4), segment_starts=cuts).causes])
    report = evaluate_clustering(top, labels, k=3, seed=0,
                                 threshold=layers[-1].hp.clamp_cause)
    rows = (tmp_path / "cl" / "assignments.csv").read_text().splitlines()
    assert [int(row.split(",")[1]) for row in rows[1:]] == \
        report.assignments.tolist()
    result = infer_variables(frames, layers, (1, 4))
    recon = reconstruct_frames(frames.shape[1:], layers, result, (1, 4))
    assert np.array_equal(read_frames_dir(tmp_path / "rec" / "frames"),
                          np.rint(np.clip(recon, 0.0, 1.0) * 255) / 255)
    mses = per_frame_mse(frames, recon)
    assert (tmp_path / "rec" / "mse.csv").read_text().splitlines()[1:] == \
        [f"{t},{format_float(v)}" for t, v in enumerate(mses)]

    # Any other grid is refused, even one that cuts patches of the
    # model's count and length.
    with pytest.raises(ConfigError, match="grid 2x2 is not the model's 1x4"):
        infer_variables(frames, layers, (2, 2))
    with pytest.raises(ConfigError, match="grid 2x2 is not the model's 1x4"):
        reconstruct_frames(frames.shape[1:], layers, result, (2, 2))


SHAPES_INI = """
[network]
grid = 2x2

[layer1]
input_dim = 64
state_dim = 72
cause_dim = 16
state_sparsity = 0.25
pool_gain = 0.03
cause_sparsity = 0.0008
inner_tol = 1e-3
max_inner_iter = 30
max_outer_iter = 2

[layer2]
state_dim = 32
cause_dim = 12
state_sparsity = 0.25
pool_gain = 0.03
cause_sparsity = 0.002
inner_tol = 1e-3
max_inner_iter = 30
max_outer_iter = 2
"""


def test_train_metrics_are_bitwise_reproducible(tmp_path):
    # Every row of train's metrics.csv is seed-deterministic, the blocks
    # per frame and pass included; clock times go to timings.csv.
    data = tmp_path / "data"
    assert run("gen-shapes", "--out", data, "--frames-per-shape", 1,
               "--seed", 6) == 0
    cfg = tmp_path / "net.ini"
    cfg.write_text(SHAPES_INI)
    for name in ("f1", "f2"):
        assert run("train", "--config", cfg, "--frames", data / "frames",
                   "--out", tmp_path / name / "shapes.dpcn") == 0
    assert (tmp_path / "f1" / "metrics.csv").read_bytes() == \
        (tmp_path / "f2" / "metrics.csv").read_bytes()
    metrics = read_metrics_csv(tmp_path / "f1" / "metrics.csv")
    for layer in (1, 2):
        assert 1 <= metrics[f"layer{layer}_blocks_per_frame"][0] <= _MAX_BLOCKS


def test_cluster_outputs_are_bitwise_reproducible(tmp_path):
    # Three clips, so the scene cuts give three segments inferred side by
    # side; same-seed runs must write byte-identical files.  The settings
    # are configs/shapes2.ini's, under which some top-layer cause is
    # nonzero, so the identity is not that of all-zero causes.
    data = tmp_path / "data"
    assert run("gen-shapes", "--out", data, "--frames-per-shape", 3,
               "--seed", 6) == 0
    cfg = tmp_path / "net.ini"
    cfg.write_text(SHAPES_INI)
    model_path = tmp_path / "fit" / "shapes.dpcn"
    assert run("train", "--config", cfg, "--frames", data / "frames",
               "--out", model_path) == 0
    for name in ("c1", "c2"):
        assert run("cluster", "--model", model_path, "--frames",
                   data / "frames", "--labels", data / "labels.csv",
                   "--out", tmp_path / name, "--seed", 1) == 0
    for fname in ("metrics.csv", "assignments.csv"):
        assert (tmp_path / "c1" / fname).read_bytes() == \
            (tmp_path / "c2" / fname).read_bytes()
    metrics = read_metrics_csv(tmp_path / "c1" / "metrics.csv")
    assert metrics["cause_sparsity_pct"][0] < 100.0

    # cluster makes one cluster per label class: with the triangles
    # labelled as diamonds there are two classes, so at most two ids
    # (three with k = 3 on these causes).
    labels = read_labels_csv(data / "labels.csv")
    two = tmp_path / "two.csv"
    write_labels_csv(two, ["diamond" if label == "triangle" else label
                           for label in labels])
    assert run("cluster", "--model", model_path, "--frames", data / "frames",
               "--labels", two, "--out", tmp_path / "c3", "--seed", 1) == 0
    rows = (tmp_path / "c3" / "assignments.csv").read_text().splitlines()
    assert len({row.split(",")[1] for row in rows[1:]}) <= 2


def test_cluster_single_cluster_on_blank_frames(tmp_path, capsys):
    frames_dir, labels_path, model_path = zero_frame_setup(tmp_path)
    out = tmp_path / "cl"
    assert run("cluster", "--model", model_path, "--frames", frames_dir,
               "--labels", labels_path, "--out", out) == 0
    # Three label classes make k = 3, but blank frames give all-zero
    # causes, which fall in one cluster: completeness is then
    # definition-forced to 1 and the adjusted Rand index is 0.
    assignments = (out / "assignments.csv").read_text().splitlines()
    assert assignments[1:] == ["0,0", "1,0", "2,0"]
    metrics = read_metrics_csv(out / "metrics.csv")
    assert metrics["completeness_acc"][0] == 1.0
    assert metrics["adjusted_rand_index"][0] == 0.0
    assert metrics["cause_sparsity_pct"][0] == 100.0
    assert abs(metrics["matching_accuracy"][0] - 1.0 / 3.0) < 1e-12
    assert "ACC 1.0000" in capsys.readouterr().out


def test_reconstruct_blank_frames_zero_mse(tmp_path):
    # Colour frames for the one-channel model are collapsed to gray before
    # the model renders them, so both write gray frames.
    frames_dir, _, model_path = zero_frame_setup(tmp_path)
    colour_dir = tmp_path / "colour"
    write_frames(colour_dir, np.zeros((3, 4, 4, 3)))
    for frames in (frames_dir, colour_dir):
        out = tmp_path / "rec" / frames.name
        assert run("reconstruct", "--model", model_path, "--frames", frames,
                   "--out", out) == 0
        metrics = read_metrics_csv(out / "metrics.csv")
        assert metrics["reconstruction_mse"] == (0.0, 0.0)
        assert read_frames_dir(out / "frames").shape == (3, 4, 4)


TINY_INI = """
[network]
grid = 2x2

[layer1]
input_dim = 4
state_dim = 6
cause_dim = 2
max_inner_iter = 10
max_outer_iter = 1
"""


@pytest.mark.parametrize("command", ["gen-shapes", "bench", "train",
                                     "cluster", "reconstruct"])
def test_each_command_writes_its_manifest(tmp_path, command):
    frames, labels, model = zero_frame_setup(tmp_path)
    net_cfg, bench_cfg = tmp_path / "net.ini", tmp_path / "bench.ini"
    net_cfg.write_text(TINY_INI)
    bench_cfg.write_text(BENCH_INI)
    short_labels = tmp_path / "short.csv"
    write_labels_csv(short_labels, ["diamond"])
    # argv, config path, input paths, and arguments that make it fail.
    argv, config, inputs, breaks = {
        "gen-shapes": (["--frames-per-shape", 1], "", [], ["--size", 8]),
        "bench": (["--config", bench_cfg], bench_cfg, [],
                  ["--config", tmp_path / "missing.ini"]),
        "train": (["--config", net_cfg, "--frames", frames], net_cfg, [frames],
                  ["--config", tmp_path / "missing.ini"]),
        "cluster": (["--model", model, "--frames", frames, "--labels", labels],
                    "", [model, frames, labels],
                    ["--labels", short_labels]),
        "reconstruct": (["--model", model, "--frames", frames], "",
                        [model, frames], ["--frames", tmp_path / "none"]),
    }[command]
    # train's --out names the model file; the manifest goes beside it.
    leaf = "model.dpcn" if command == "train" else ""
    # reconstruct makes no random choice, so it takes no --seed and its
    # manifest records none.
    seeded = command != "reconstruct"

    out = tmp_path / "out"
    seed = ["--seed", 7] if seeded else []
    assert run(command, *argv, *seed, "--out", out / leaf) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["seed"] == (7 if seeded else None)
    assert manifest["config_path"] == str(config)
    assert manifest["input_paths"] == [str(p) for p in inputs]
    assert manifest["output_dir"] == str(out)
    assert manifest["finished_at"] >= manifest["started_at"]

    failed = tmp_path / "failed"
    failed.mkdir()
    assert run(command, *argv, *breaks, "--out", failed / leaf) == 2
    assert not (failed / "manifest.json").exists()
