"""Held-out quality of the shapes pipeline, over seeded models.

    python tools/quality.py --models 16 --seed 2
    python tools/quality.py --src ../other-checkout/src --models 16 --seed 2

Each model is trained as perfbench's shapes_infer trains its models: on the
3-frame clip of sub-seed s = seed * models + i, with configs/shapes2.ini.
It is scored on the 18-frame clip of seed 10,000,000 + s, written to disk
and read back.  The held-out clip is inferred three ways: with the
recurrence reset at every label change (label cuts), with no reset (no
cuts), and with a reset at every frame (fresh causes).  Each is clustered
into 3 groups and scored by ARI against the labels.  MSE and layer-1
nonzeros per patch come from the label-cut inference.

Training reports each layer's final accepted energy and rejected steps.
The cold energies are those of one inference pass over the training clip
under the final model, every frame starting at the solvers' defaults:
layer 1 on the clip, layer 2 on those cold layer-1 causes.

--src names the directory that holds the mmdpcn package, so two runs on
two source trees with the same --models and --seed give a paired table.
Standard output has one JSON line per model, then each figure's median
[quartiles] and mean over the models.

The state solves' bits depend on the BLAS thread count, so the script runs
at 1 thread, as perfbench does, unless the environment sets a count.
"""

import argparse
import json
import os
import statistics
import sys
import tempfile

# Before numpy loads: the thread variables perfbench/run.py caps.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG = os.path.join(ROOT, "configs", "shapes2.ini")
HELD_OUT_SEED_BASE = 10_000_000
FIGURES = ("ari_label_cuts", "ari_no_cuts", "ari_fresh", "mse",
           "l1_nonzeros_per_patch", "l1_final_energy", "l2_final_energy",
           "l1_cold_energy", "l2_cold_energy", "rejected_steps")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the mmdpcn package")
    parser.add_argument("--models", type=int, default=16)
    parser.add_argument("--seed", type=int, default=0)
    return parser.parse_args(argv)


def cold_pass(inputs, model, hp):
    """One inference pass from the default starts: energy and causes."""
    from mmdpcn.learning import infer_frame_variables

    energy, causes, prev_states = 0.0, [], None
    for patches in inputs:
        prev_states, cause, frame_energy, _ = infer_frame_variables(
            patches, prev_states, model, hp)
        energy += frame_energy
        causes.append(cause)
    return energy, causes


def score_model(sub, cfg, workdir):
    import numpy as np
    from mmdpcn.frames import read_frames_dir, write_frames
    from mmdpcn.metrics import evaluate_clustering, per_frame_mse
    from mmdpcn.network import (decompose_frame, infer_variables,
                                reconstruct_frames, train_network)
    from mmdpcn.shapes import generate_shapes

    train = generate_shapes(frames_per_shape=1, seed=sub)
    layers, reports = train_network(train.frames, cfg)
    row = {"sub_seed": sub,
           "l1_final_energy": reports[0].energy_per_outer[-1],
           "l2_final_energy": reports[-1].energy_per_outer[-1],
           "rejected_steps": sum(r.rejected_steps for r in reports)}

    inputs = [decompose_frame(f, cfg.grid) for f in train.frames]
    for name, layer in zip(("l1_cold_energy", "l2_cold_energy"), layers):
        row[name], causes = cold_pass(inputs, layer.model, layer.hp)
        inputs = [np.asarray(c.values)[None, :] for c in causes]

    held = generate_shapes(frames_per_shape=6, seed=HELD_OUT_SEED_BASE + sub)
    folder = os.path.join(workdir, f"held{sub}")
    write_frames(folder, held.frames)
    frames = read_frames_dir(folder)
    labels = held.labels
    n = frames.shape[0]
    label_cuts = [t for t in range(1, n) if labels[t] != labels[t - 1]]
    for name, cuts in (("ari_label_cuts", label_cuts), ("ari_no_cuts", []),
                       ("ari_fresh", range(1, n))):
        result = infer_variables(frames, layers, cfg.grid,
                                 segment_starts=list(cuts))
        top = np.vstack([result.causes[t][-1].values for t in range(n)])
        row[name] = evaluate_clustering(
            top, labels, k=3, seed=sub,
            threshold=layers[-1].hp.clamp_cause).ari
        if name == "ari_label_cuts":
            recon = reconstruct_frames(frames.shape[1:], layers, result,
                                       cfg.grid)
            row["mse"] = float(np.mean(per_frame_mse(frames, recon)))
            row["l1_nonzeros_per_patch"] = float(np.mean(
                [np.count_nonzero(result.states[t][0], axis=1).mean()
                 for t in range(n)]))
    return row


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") \
        if len(values) > 1 else (values[0],) * 3
    return med, q1, q3, statistics.fmean(values)


def main(argv=None):
    args = parse_args(argv)
    if args.models < 1:
        raise SystemExit("--models must be at least 1")
    sys.path.insert(0, os.path.abspath(args.src))
    from mmdpcn.config import parse_network_config

    cfg = parse_network_config(CONFIG)
    rows = []
    with tempfile.TemporaryDirectory() as workdir:
        for i in range(args.models):
            rows.append(score_model(args.seed * args.models + i, cfg, workdir))
            print(json.dumps(rows[-1]), flush=True)
    print(f"{args.models} models, sub-seeds {rows[0]['sub_seed']}-"
          f"{rows[-1]['sub_seed']}, mmdpcn from {args.src}")
    for name in FIGURES:
        med, q1, q3, mean = summary([r[name] for r in rows])
        print(f"{name:22s} {med:.6g} [{q1:.6g}, {q3:.6g}]  mean {mean:.6g}")


if __name__ == "__main__":
    main()
