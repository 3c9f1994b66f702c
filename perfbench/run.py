"""Seeded benchmark for the mmdpcn package, run from the repository root.

    python3 perfbench/run.py --workload shapes_infer --seed 3 --seconds 20 --trace 0

Workloads: shapes_train, shapes_infer, solver_bench (see README.md).  With
--trace 0 the run measures end-to-end metrics with nothing intercepted; with
--trace 1 it runs one plain round and one traced round on the same inputs,
checks that both give identical outputs, writes the spans and reports the
per-layer metrics.  End-to-end times are scaled to nominal host speed by a
reference kernel timed during the run (hostspeed.py); the human-readable
lines, which come first, also give them as measured.  The last line of
standard output is one JSON object.  The exit code is 0 only when every
output check passed.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "perfbench", "_work")
WORKLOAD_NAMES = ("shapes_train", "shapes_infer", "solver_bench")

# One BLAS thread: the solver's matrices are at most 256 x 300, and on a
# 2-core machine two threads made the solver comparison slower and its
# timings twice as spread as one thread did.
BLAS_THREADS = 1
# A set-up cheaper than this is repeated after every measured item, so its
# samples spread over the run instead of all falling in one moment of the
# host's speed, which on a shared machine drifts by tens of percent.
RESETUP_BELOW_S = 0.5

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "NUMEXPR_NUM_THREADS")


def cap_threads() -> dict:
    """Cap BLAS/OpenMP threads; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    cap = min(BLAS_THREADS, nproc)
    for var in _THREAD_VARS:
        os.environ[var] = str(cap)
    return {"nproc": nproc, "blas_threads": cap}


def commit_id(root: str) -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def measure(workload, inputs, setup_times, seconds: float, between):
    """Untraced rounds for about `seconds`; end-to-end metrics and rounds.

    A round is started only if the last one suggests it ends in time, so a
    run does at least one round and rarely overshoots.  A round in which an
    operation failed ends the run.  between() is called after every item.
    """
    import workloads

    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(workload.run(inputs, between=between))
        elapsed = time.perf_counter() - start
        if rounds[-1].failed or elapsed + rounds[-1].seconds > seconds:
            break
    items = workloads.item_medians(rounds, "item_s")
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "round_s": (statistics.median(r.seconds for r in rounds), "s"),
        "items_per_s": (len(items) / sum(items) if items else 0.0, "1/s"),
    }
    return metrics, rounds


def trace(workload, inputs, spans_path: str, header: dict):
    """One plain and one traced round; per-layer metrics and both rounds."""
    import layers
    import spans
    import workloads

    plain = workload.run(inputs)
    with spans.SpanRecorder() as recorder:
        layers.install(recorder, workloads.layer_names())
        traced = workload.run(inputs)
    metrics = layers.per_layer_metrics(recorder,
                                       traced.seconds - plain.seconds)
    recorder.write(spans_path, header)
    return metrics, [plain, traced]


def run(workload_name: str, seed: int, seconds: float, traced: bool,
        env: dict, workload=None):
    """Set up, measure and check one workload.

    Returns the JSON result, the human-readable rows (name, value, unit)
    and the failed checks.
    """
    import hostspeed
    import workloads

    workload = workload or workloads.WORKLOADS[workload_name]()
    speed = hostspeed.HostSpeed(workload.reference)
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"{workload_name}-{seed}-{os.getpid()}")
    try:
        speed.read()
        inputs, setup_times = workload.setup(seed, workdir)
        if traced:
            path = os.path.join(WORK, f"spans-{workload_name}-seed{seed}.json")
            header = {"workload": workload_name, "seed": seed, "env": env}
            metrics, rounds = trace(workload, inputs, path, header)
        else:
            resetup = sum(setup_times) < RESETUP_BELOW_S
            spare = os.path.join(workdir, "spare")

            def between():
                if resetup:
                    setup_times.extend(workload.setup(seed, spare)[1])
                speed.read()

            metrics, rounds = measure(workload, inputs, setup_times, seconds,
                                      between)
            speed.read()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [p for r in rounds for p in r.problems]
    for k, r in enumerate(rounds[1:], start=2):
        if r.fields != rounds[0].fields:
            diff = sorted(key for key in r.fields.keys() | rounds[0].fields.keys()
                          if r.fields.get(key) != rounds[0].fields.get(key))
            problems.append(f"round {k} outputs differ from round 1: {diff}")
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)

    rows = []
    if not traced:
        factor = speed.factor()
        rows += [(f"{name}_measured", value, unit)
                 for name, (value, unit) in metrics.items()]
        rows.append(("host_speed_factor", factor, "x"))
        metrics = {
            "setup_s": (metrics["setup_s"][0] * factor, "s"),
            "round_s": (metrics["round_s"][0] * factor, "s"),
            "items_per_s": (metrics["items_per_s"][0] / factor, "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    rows = [(name, value, unit)
            for name, (value, unit) in metrics.items()] + rows
    if not traced and not failed:
        rows += workload.report(rounds)
    rows.append(("error_rate", failed / attempted, f"({failed} of {attempted})"))
    result = {
        "correct": not problems and not failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, rows, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the untraced run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = cap_threads()
    required = [os.path.join(SRC, "mmdpcn", "__init__.py"),
                os.path.join(ROOT, "configs", "shapes2.ini"),
                os.path.join(ROOT, "configs", "bench.ini")]
    missing = [p for p in required if not os.path.isfile(p)]
    if missing:
        print(f"error: not a source checkout of mmdpcn; missing {missing}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy

    env.update(python=platform.python_version(), numpy=numpy.__version__,
               commit=commit_id(ROOT), workload=args.workload, seed=args.seed,
               trace=args.trace)
    result, rows, problems = run(args.workload, args.seed, args.seconds,
                                 bool(args.trace), env)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, value, unit in rows:
        print(f"{args.workload:<13} {name:<32} {value:<14.6g} {unit}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
