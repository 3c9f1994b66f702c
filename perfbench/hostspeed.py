"""The host's current speed, read by timing a fixed reference kernel.

On a shared machine the CPU speed available to one process drifts by tens
of percent over seconds to minutes, and by more while other tenants are
busy.  A run reads the kernel between its measured items; the median of its
readings scales the run's times to a nominal host speed, so runs made at
different moments compare.  The kernel does the kind of work the solvers
do, small matrix-vector products and elementwise updates, and calls nothing
in the package, so a change to the package cannot move it.
"""

import statistics
import time

import numpy as np

# Kernel matrix shape -> (steps per reading, nominal seconds per reading).
# A workload uses the shape of its dominant solve, because small products
# are bound by call overhead and large ones by arithmetic, and the two slow
# down differently when the host is busy.  Nominal is the reading on an
# unloaded 2-core x86-64 host with one BLAS thread; it only sets the scale.
KERNELS = {(64, 72): (3000, 0.022), (256, 300): (1000, 0.023)}


class HostSpeed:
    def __init__(self, shape: tuple):
        self._steps, self._nominal = KERNELS[shape]
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal(shape) / np.sqrt(shape[0])
        self._x = rng.standard_normal(shape[1])
        self.readings = []

    def read(self):
        """Time one pass of the kernel and keep the reading."""
        a, x = self._a, self._x.copy()
        start = time.perf_counter()
        for _ in range(self._steps):
            x = x - 0.01 * (a.T @ (a @ x))
            x = np.sign(x) * np.maximum(np.abs(x) - 1e-4, 0.0)
        self.readings.append(time.perf_counter() - start)

    def factor(self) -> float:
        """Multiply a time measured in this run by this to get nominal time."""
        return self._nominal / statistics.median(self.readings)
