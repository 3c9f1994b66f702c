"""Tests of the benchmark harness itself, on shrunken workloads.

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import pytest  # noqa: E402

import mmdpcn.cli  # noqa: E402
import mmdpcn.learning  # noqa: E402
import mmdpcn.network  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "shapes_train": lambda: workloads.ShapesTrain(clips=1),
    "shapes_infer": lambda: workloads.ShapesInfer(
        models=1, held_out_frames_per_shape=2),
    "solver_bench": lambda: workloads.SolverBench(problems=1, patch_count=2),
}
ENV = {"nproc": 1, "blas_threads": 1}

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def _is_count(name):
    """Per-layer metrics that must repeat exactly for a given seed."""
    return not (name.endswith("_s") or name.endswith(".s")
                or name.endswith("s_per_iter"))


def _run(name, traced):
    return run.run(name, seed=1, seconds=0, traced=traced, env=ENV,
                   workload=SMALL[name]())


@pytest.mark.parametrize("name", sorted(SMALL))
def test_smoke_run_reports_every_end_to_end_metric(name):
    result, rows, problems = _run(name, traced=False)
    assert result["correct"], problems
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "error_rate" in {row[0] for row in rows}


def test_traced_run_restores_every_wrapped_attribute():
    modules = (mmdpcn.network, mmdpcn.learning, mmdpcn.cli, workloads)
    before = [dict(vars(m)) for m in modules]
    result, _, problems = _run("shapes_infer", traced=True)
    assert result["correct"], problems
    for module, snapshot in zip(modules, before):
        for attr, value in snapshot.items():
            assert getattr(module, attr) is value, f"{module.__name__}.{attr}"


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_traced_runs_give_equal_counts(name):
    first, _, problems = _run(name, traced=True)
    second, _, _ = _run(name, traced=True)
    assert first["correct"], problems
    assert set(first["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if _is_count(k)} for r in (first, second)]
    assert counts[0] == counts[1]
    assert sum(counts[0].values()) > 0


def test_failed_output_check_marks_run_incorrect(monkeypatch):
    original = workloads.run_benchmark

    def rising_trace(*args, **kwargs):
        results = original(*args, **kwargs)
        results["mm"]["mean_trace"][-1] += 1.0
        return results

    monkeypatch.setattr(workloads, "run_benchmark", rising_trace)
    result, _, problems = _run("solver_bench", traced=False)
    assert not result["correct"]
    assert any("trace rose" in p for p in problems)


def test_exception_counts_as_failed_operation(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("solver exploded")

    monkeypatch.setattr(workloads, "run_benchmark", broken)
    result, rows, _ = _run("solver_bench", traced=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1
    assert dict((r[0], r[1]) for r in rows)["error_rate"] == 1.0


def test_span_self_time_and_restore_after_error():
    fake = types.SimpleNamespace()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    def outer(x):
        return fake.inner(x) + fake.inner(x)

    fake.inner, fake.outer = inner, outer
    with spans.SpanRecorder() as rec:
        rec.wrap(fake, "inner", "inner", lambda r: {"value": r})
        rec.wrap(fake, "outer", lambda x: f"outer.{x}")
        assert fake.outer(2) == 4
        with pytest.raises(ValueError):
            fake.outer(-1)
    assert fake.inner is inner and fake.outer is outer

    names = [s.name for s in rec.spans]
    assert names == ["outer.2", "inner", "inner", "outer.-1", "inner"]
    assert [s.parent for s in rec.spans] == [None, 0, 0, None, 3]
    assert rec.spans[1].attrs == {"value": 2}
    assert rec.spans[4].end >= rec.spans[4].start
    own = rec.self_seconds()
    assert own[0] == pytest.approx(
        rec.spans[0].seconds - rec.spans[1].seconds - rec.spans[2].seconds)
    assert own[1] == rec.spans[1].seconds


def test_command_line_names_every_workload():
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert set(run.WORKLOAD_NAMES) == {w["name"] for w in BENCH["workloads"]}


def test_tail_percentile_leaves_ten_samples_beyond():
    assert workloads.tail_percentile(10) is None
    assert workloads.tail_percentile(11) == 9
    assert workloads.tail_percentile(100) == 90
    assert workloads.tail_percentile(162) == 93


def test_fails_without_printing_a_result_outside_a_source_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solver_bench",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
