"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads shapes_train,solver_bench \
        --seeds 1-10 --out perfbench/_work/spread.json

Runs are sequential, one process at a time.  For every metric the output
gives the values per seed, their median and quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread: the distance
between the quartiles as a share of the median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int):
    """One benchmark process; returns its JSON result and its env record."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(ln[len("env "):]) for ln in lines
               if ln.startswith("env "))
    return json.loads(lines[-1]), env


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the summary to this file")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    summary = {}
    for workload in args.workloads.split(","):
        per_metric = {}
        for seed in seeds:
            result, env = run_once(workload, seed, args.seconds, args.trace)
            for name, metric in result["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
        summary[workload] = {name: summarize(values)
                             for name, values in per_metric.items()}
        for name, s in summary[workload].items():
            bound = bounds.get(name)
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"{workload:<13} {name:<28} median {s['median']:<12.6g} "
                  f"spread {spread} bound {bound}", flush=True)
    if args.out:
        for key in ("workload", "seed"):
            env.pop(key)
        record = {"env": env, "seconds": args.seconds, "seeds": seeds,
                  "workloads": summary}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
