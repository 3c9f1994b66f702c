"""File writers and readers that only the tests need.

write_rten builds raw-tensor files for read_rten; read_metrics_csv parses
the metrics.csv and timings.csv tables that the CLI writes.
"""

import struct

import numpy as np

from mmdpcn.errors import FormatError
from mmdpcn.frames import _RTEN_MAGIC


def write_rten(path, array):
    arr = np.asarray(array, dtype=np.float64)
    header = _RTEN_MAGIC + struct.pack("<I", arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    with open(path, "wb") as fh:
        fh.write(header + arr.astype("<f4").tobytes())


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
