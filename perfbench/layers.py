"""Which calls the traced run intercepts, and the per-layer metrics from them.

Every wrapped attribute lives in the module that makes the call.  Solver
counts come from the SolveTrace values that the state and cause solvers
return: the network and learning loops discard them, but the wrapper at the
call site still sees them.  A state or cause "call" is one solve, so a
layer-1 state batch of four patches is four calls.
"""

import mmdpcn.cli
import mmdpcn.learning
import mmdpcn.network

import workloads


def _solve_counts(traces) -> dict:
    return {"calls": len(traces),
            "iters": sum(t.iterations for t in traces),
            "capped": sum(not t.converged for t in traces)}


def install(recorder, names: dict):
    """Wrap every traced call site.  names maps layer dims to l1, l2, ..."""

    def states(batch, prev, model, *args, **kwargs):
        return f"states.{names[model.dims]}"

    batch_counts = lambda result: _solve_counts(result[1])
    one_count = lambda result: _solve_counts([result[1]])
    net, learn, cli = mmdpcn.network, mmdpcn.learning, mmdpcn.cli

    table = [
        (net, "infer_states_batch", states, batch_counts),
        (net, "infer_cause", "causes.fresh", one_count),
        (net, "infer_cause_topdown", "causes.topdown", one_count),
        (net, "fit_layer", "learning.fit",
         lambda r: {"passes": r[2].outer_iterations,
                    "rejected": r[2].rejected_steps}),
        (learn, "infer_states_batch", states, batch_counts),
        (learn, "infer_cause", "causes.fit", one_count),
        (learn, "total_energy", "model.energy", None),
        (learn, "grad_model", "learning.grad", None),
        (learn, "update_model", "learning.update", None),
        (cli, "infer_state", "states.bench", one_count),
        (cli, "ista_solve", "baselines.ista", None),
        (cli, "fista_solve", "baselines.fista", None),
        (cli, "adam_solve", "baselines.adam", None),
        # The benchmark's own calls into the package.
        (workloads, "read_frames_dir", "frames.io", None),
        (workloads, "read_labels_csv", "frames.io", None),
        (workloads, "load_network", "frames.io", None),
        (workloads, "save_network", "frames.io", None),
        (workloads, "train_network", "network.train", None),
        (workloads, "infer_variables", "network.infer",
         lambda r: {"frames": len(r.per_frame_seconds)}),
        (workloads, "reconstruct_frames", "network.reconstruct", None),
        (workloads, "evaluate_clustering", "metrics.cluster", None),
        (workloads, "run_benchmark", "bench.run", None),
    ]
    for module, attr, name, describe in table:
        recorder.wrap(module, attr, name, describe)


def per_layer_metrics(recorder, overhead_s: float) -> dict:
    """Aggregate a traced round's spans into {metric: (value, unit)}."""
    spans = recorder.spans
    own = recorder.self_seconds()

    def seconds(name):
        return sum(s.seconds for s in spans if s.name == name)

    def count(name, key):
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

    def per_iter(name):
        iters = count(name, "iters")
        return seconds(name) / iters if iters else 0.0

    out = {}
    for name in ("states.l1", "states.l2", "causes.fit", "causes.topdown"):
        out[f"{name}.calls"] = (count(name, "calls"), "count")
        out[f"{name}.s"] = (seconds(name), "s")
        out[f"{name}.iters"] = (count(name, "iters"), "count")
        out[f"{name}.capped"] = (count(name, "capped"), "count")
    out["states.l1.s_per_iter"] = (per_iter("states.l1"), "s")
    out["states.bench.s_per_iter"] = (per_iter("states.bench"), "s")
    out["causes.fresh.calls"] = (count("causes.fresh", "calls"), "count")
    out["causes.fresh.s"] = (seconds("causes.fresh"), "s")

    infer_ids = {s.id for s in spans if s.name == "network.infer"}
    frames = count("network.infer", "frames")
    l1_batches = sum(1 for s in spans
                     if s.name == "states.l1" and s.parent in infer_ids)
    out["network.self_s"] = (sum(own[i] for i in infer_ids), "s")
    out["network.sweeps_per_frame"] = (
        l1_batches / frames if frames else 0.0, "sweeps/frame")

    out["learning.passes"] = (count("learning.fit", "passes"), "count")
    out["learning.rejected"] = (count("learning.fit", "rejected"), "count")
    out["learning.grad_s"] = (seconds("learning.grad"), "s")
    out["learning.update_s"] = (seconds("learning.update"), "s")
    out["model.energy.calls"] = (
        sum(1 for s in spans if s.name == "model.energy"), "count")
    out["model.energy.s"] = (seconds("model.energy"), "s")
    for method in ("ista", "fista", "adam"):
        out[f"baselines.{method}.s"] = (seconds(f"baselines.{method}"), "s")
    out["frames.io_s"] = (seconds("frames.io"), "s")
    out["metrics.cluster_s"] = (seconds("metrics.cluster"), "s")
    out["trace.spans"] = (len(spans), "count")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out
