"""Helpers that only the tests need.

scalar_model is the one-pixel model of the hand-computed solver cases;
read_metrics_csv parses the metrics.csv and timings.csv tables that the
CLI writes.
"""

import numpy as np

from mmdpcn.errors import FormatError
from mmdpcn.model import LayerDims, LayerModel


def scalar_model():
    # One-pixel patches with an effective scalar code: the second state
    # component has a zero dictionary column contribution and stays unused,
    # satisfying the overcompleteness requirement input_dim < state_dim.
    dims = LayerDims(input_dim=1, state_dim=2, cause_dim=1)
    return LayerModel(dims,
                      transition=np.eye(2),
                      coupling=np.array([[1.0], [0.0]]),
                      dictionary=np.array([[1.0, 0.0]]))


def read_metrics_csv(path):
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "metric,value,stddev":
        raise FormatError(f"{path}: expected 'metric,value,stddev' header")
    out = {}
    for ln in lines[1:]:
        name, value, stddev = ln.split(",")
        out[name] = (float(value), float(stddev))
    return out
