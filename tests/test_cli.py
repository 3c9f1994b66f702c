import json
import os

import numpy as np
import pytest

from mmdpcn.baselines import (BaselineConfig, adam_solve, fista_solve,
                              ista_solve, state_objective)
from mmdpcn.cli import _bench_hp, _bench_model, _bench_patches, main, \
    run_benchmark
from mmdpcn.config import BenchSettings
from mmdpcn.errors import ConfigError
from mmdpcn.frames import (read_frames_dir, read_labels_csv, write_frames,
                           write_labels_csv)
from mmdpcn.learning import init_model
from mmdpcn.metrics import sparsity
from mmdpcn.model import HyperParams, LayerDims
from mmdpcn.network import Layer, save_network
from mmdpcn.states import infer_state

from io_helpers import read_metrics_csv, write_rten


def run(*argv) -> int:
    return main([str(a) for a in argv])


def zero_frame_setup(tmp_path, seed=5):
    """Blank 4x4 frames, 3 labels, and a random untrained 1-layer model."""
    frames_dir = tmp_path / "frames"
    write_frames(frames_dir, np.zeros((3, 4, 4)))
    labels_path = tmp_path / "labels.csv"
    write_labels_csv(labels_path, ["diamond", "triangle", "square"])
    model_path = tmp_path / "model.dpcn"
    model = init_model(LayerDims(4, 6, 2, 4), np.random.default_rng(seed))
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


def test_domain_errors_exit_2(tmp_path, capsys):
    # gen-shapes validation failure inside the command, not argparse.
    assert run("gen-shapes", "--out", tmp_path / "x", "--size", 8) == 2
    assert "error:" in capsys.readouterr().err
    # train without --config.
    assert run("train", "--frames", tmp_path, "--out", tmp_path / "y") == 2
    assert "error:" in capsys.readouterr().err
    # cluster with a malformed --grid.
    frames_dir, labels_path, model_path = zero_frame_setup(tmp_path)
    assert run("cluster", "--model", model_path, "--frames", frames_dir,
               "--labels", labels_path, "--out", tmp_path / "z",
               "--grid", "2by2") == 2
    assert "error:" in capsys.readouterr().err


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
               "--out", tmp_path / "m") == 2
    assert "state_sparsity must be finite" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


BENCH_INI = """
[bench]
patch_dim = 6
state_dim = 9
max_iter = 30
patch_count = 3
step = 0.02
"""


def test_bench_writes_split_csvs(tmp_path):
    cfg = tmp_path / "bench.ini"
    cfg.write_text(BENCH_INI)
    out = tmp_path / "run"
    assert run("bench", "--config", cfg, "--out", out, "--seed", 1,
               "--methods", "mm,ista") == 0
    metrics = read_metrics_csv(out / "metrics.csv")
    assert set(metrics) == {
        "mm_final_energy", "mm_sparsity", "mm_iters_to_1pct",
        "ista_final_energy", "ista_sparsity", "ista_iters_to_1pct"}
    timings = read_metrics_csv(out / "timings.csv")
    assert set(timings) == {"mm_wall_seconds", "ista_wall_seconds"}
    assert timings["mm_wall_seconds"][0] > 0
    for method in ("mm", "ista"):
        lines = (out / f"trace_{method}.csv").read_text().splitlines()
        assert lines[0] == "iteration,mean_objective"
        assert len(lines) >= 2
    assert (out / "manifest.json").exists()


def test_bench_metrics_are_bitwise_reproducible(tmp_path):
    cfg = tmp_path / "bench.ini"
    cfg.write_text(BENCH_INI)
    for name in ("r1", "r2"):
        assert run("bench", "--config", cfg, "--out", tmp_path / name,
                   "--seed", 4, "--methods", "mm,fista") == 0
    for fname in ("metrics.csv", "trace_mm.csv", "trace_fista.csv"):
        assert (tmp_path / "r1" / fname).read_bytes() == \
            (tmp_path / "r2" / fname).read_bytes()


def test_bench_rejects_unknown_method(tmp_path, capsys):
    assert run("bench", "--out", tmp_path / "x", "--methods", "mm,magic",
               "--config", "") == 2
    assert "error:" in capsys.readouterr().err


def test_bench_rejects_repeated_method(tmp_path, capsys):
    assert run("bench", "--out", tmp_path / "x", "--methods", "mm,ista,mm",
               "--config", "") == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_run_benchmark_rejects_wrong_width_patches_file(tmp_path):
    path = tmp_path / "patches.rten"
    write_rten(path, np.zeros((2, 5)))
    settings = BenchSettings(patch_dim=4, state_dim=6, max_iter=10,
                             patches_path=str(path))
    with pytest.raises(ConfigError, match="patches file"):
        run_benchmark(settings, ["mm"], seed=0)


def test_run_benchmark_rejects_patches_file_without_rows(tmp_path):
    path = tmp_path / "patches.rten"
    write_rten(path, np.zeros((0, 4)))
    settings = BenchSettings(patch_dim=4, state_dim=6, max_iter=10,
                             patches_path=str(path))
    with pytest.raises(ConfigError, match="patches file"):
        run_benchmark(settings, ["mm"], seed=0)


def test_run_benchmark_on_zero_patches(tmp_path):
    path = tmp_path / "patches.rten"
    write_rten(path, np.zeros((2, 4)))
    settings = BenchSettings(patch_dim=4, state_dim=6, max_iter=10,
                             patches_path=str(path))
    results = run_benchmark(settings, ["mm", "ista"], seed=0)
    assert results["mm"]["final_energy"].shape == (2,)
    for method in ("mm", "ista"):
        assert np.all(results[method]["final_energy"] == 0.0)
        assert np.all(results[method]["sparsity"] == 100.0)
    # ISTA starts at zero, already optimal; the reweighted solver starts at
    # its 0.1 baseline (zeros are absorbing) and collapses in one update.
    assert np.all(results["ista"]["iters_to_1pct"] == 0.0)
    assert np.all(results["mm"]["iters_to_1pct"] == 1.0)


def test_run_benchmark_matches_per_patch_solves():
    # The reference solves every patch on its own.
    settings = BenchSettings(patch_dim=8, state_dim=12, max_iter=40,
                             patch_count=5, step=0.02, generator_sparsity=0.3)
    methods = ["mm", "ista", "fista", "adam"]
    results = run_benchmark(settings, methods, seed=3)

    rng = np.random.default_rng(3)
    model = _bench_model(settings, rng)
    patches = _bench_patches(settings, model, rng)
    hp = _bench_hp(settings)
    fixed = BaselineConfig(step=settings.step, max_iter=settings.max_iter)
    adaptive = BaselineConfig(step=settings.adam_step,
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
state_passes = 2
cause_passes = 2
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
               "--k", 3, "--grid", "2x2", "--seed", 0) == 0
    metrics = read_metrics_csv(cl / "metrics.csv")
    for key in ("completeness_acc", "adjusted_rand_index",
                "cause_sparsity_pct", "matching_accuracy"):
        assert key in metrics
    assignments = (cl / "assignments.csv").read_text().splitlines()
    assert assignments[0] == "frame_index,cluster"
    assert len(assignments) == 10

    rec = tmp_path / "rec"
    assert run("reconstruct", "--model", model_path, "--frames",
               data / "frames", "--out", rec, "--grid", "2x2") == 0
    recon = read_frames_dir(rec / "frames")
    assert recon.shape == (9, 16, 16)
    mse_lines = (rec / "mse.csv").read_text().splitlines()
    assert mse_lines[0] == "frame_index,mse"
    assert len(mse_lines) == 10
    assert "reconstruction_mse" in read_metrics_csv(rec / "metrics.csv")


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
state_passes = 2
cause_passes = 2
inner_tol = 1e-3
max_inner_iter = 30
max_outer_iter = 2

[layer2]
state_dim = 32
cause_dim = 12
state_sparsity = 0.25
pool_gain = 0.03
cause_sparsity = 0.002
state_passes = 2
cause_passes = 2
inner_tol = 1e-3
max_inner_iter = 30
max_outer_iter = 2
"""


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
                   "--out", tmp_path / name, "--k", 3, "--seed", 1) == 0
    for fname in ("metrics.csv", "assignments.csv"):
        assert (tmp_path / "c1" / fname).read_bytes() == \
            (tmp_path / "c2" / fname).read_bytes()
    metrics = read_metrics_csv(tmp_path / "c1" / "metrics.csv")
    assert metrics["cause_sparsity_pct"][0] < 100.0


def test_cluster_single_cluster_on_blank_frames(tmp_path, capsys):
    frames_dir, labels_path, model_path = zero_frame_setup(tmp_path)
    out = tmp_path / "cl"
    assert run("cluster", "--model", model_path, "--frames", frames_dir,
               "--labels", labels_path, "--out", out, "--k", 1,
               "--grid", "2x2") == 0
    metrics = read_metrics_csv(out / "metrics.csv")
    # One cluster: completeness is definition-forced to 1, the adjusted
    # Rand index is 0, blank frames give all-zero causes.
    assert metrics["completeness_acc"][0] == 1.0
    assert metrics["adjusted_rand_index"][0] == 0.0
    assert metrics["cause_sparsity_pct"][0] == 100.0
    assert abs(metrics["matching_accuracy"][0] - 1.0 / 3.0) < 1e-12
    assert "ACC 1.0000" in capsys.readouterr().out


def test_reconstruct_blank_frames_zero_mse(tmp_path):
    frames_dir, _, model_path = zero_frame_setup(tmp_path)
    out = tmp_path / "rec"
    assert run("reconstruct", "--model", model_path, "--frames", frames_dir,
               "--out", out, "--grid", "2x2") == 0
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
        "bench": (["--config", bench_cfg, "--methods", "mm"], bench_cfg, [],
                  ["--methods", "magic"]),
        "train": (["--config", net_cfg, "--frames", frames], net_cfg, [frames],
                  ["--config", tmp_path / "missing.ini"]),
        "cluster": (["--model", model, "--frames", frames, "--labels", labels,
                     "--k", 1], "", [model, frames, labels],
                    ["--labels", short_labels]),
        "reconstruct": (["--model", model, "--frames", frames], "",
                        [model, frames], ["--grid", "0x0"]),
    }[command]
    # train's --out may name the model file; the manifest goes beside it.
    leaf = "model.dpcn" if command == "train" else ""

    out = tmp_path / "out"
    assert run(command, *argv, "--seed", 7, "--out", out / leaf) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["seed"] == 7
    assert manifest["config_path"] == str(config)
    assert manifest["input_paths"] == [str(p) for p in inputs]
    assert manifest["output_dir"] == str(out)
    assert manifest["finished_at"] >= manifest["started_at"]

    failed = tmp_path / "failed"
    failed.mkdir()
    assert run(command, *argv, *breaks, "--out", failed / leaf) == 2
    assert not (failed / "manifest.json").exists()
