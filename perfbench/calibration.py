"""Machine-speed calibration for the end-to-end timings.

On a shared 2-core box the same operation runs up to 1.5x slower for tens of
seconds at a time, as other tenants load the host.  A fixed kernel that uses
no ``transversal`` code runs between operations, outside their timing, about
every ``EVERY_S`` seconds of operation time.  Each operation's time is then
scaled by ``REFERENCE_S / local kernel time``, where the local kernel time
is the median of the nearest ``WINDOW`` kernel runs.  The scaled time is the
time the operation would have taken at the reference speed, so timings from
runs made at different load compare.

The kernel mixes the program's kinds of work: batched determinants and
singular values of small matrices, power means over cached points and over
fresh normal draws, and interpreted Python.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: operation time between two kernel runs
EVERY_S = 0.75
#: kernel runs in one local median
WINDOW = 9
#: kernel time at the reference speed: about its median on a 2-core Intel
#: Xeon (Skylake-X) VM with numpy 2.4.6 / OpenBLAS 0.3.31
REFERENCE_S = 0.035


def speed_factor(runs=3):
    """REFERENCE_S over the median of a few kernel runs made now."""
    kernel = Calibrator().kernel
    return REFERENCE_S / statistics.median(kernel() for _ in range(runs))


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(20251118)
        self.small = rng.normal(size=(4096, 4, 4))
        self.svd = rng.normal(size=(1024, 5, 5))
        self.points = rng.normal(size=(100_000, 3))
        self.dirs = rng.normal(size=(3, 8))
        self.samples = []  # (number of operations before the run, seconds)

    def kernel(self):
        """One run of the fixed kernel; returns its time in seconds."""
        t0 = time.perf_counter()
        np.linalg.det(self.small @ np.transpose(self.small, (0, 2, 1)))
        np.linalg.svd(self.svd, compute_uv=False)
        inner = np.abs(self.points @ self.dirs) ** 1.5
        float(np.sum(inner.sum(axis=1) ** (-2.0 / 3.0)))
        g = np.random.default_rng(7).normal(size=(80_000, 3))
        float(np.mean((np.abs(g @ self.dirs) ** 1.5).sum(axis=1) ** -2.0))
        acc = 0
        for i in range(20_000):
            acc += i % 7
        return time.perf_counter() - t0

    def sample(self, ops_done):
        self.samples.append((ops_done, self.kernel()))

    def factors(self, n_ops):
        """Per operation, REFERENCE_S over the local median kernel time."""
        if not self.samples:
            return [1.0] * n_ops
        positions = [p for p, _ in self.samples]
        times = [t for _, t in self.samples]
        out = []
        j = 0
        half = WINDOW // 2
        for i in range(n_ops):
            # the kernel run just before operation i, and its neighbours
            while j + 1 < len(positions) and positions[j + 1] <= i:
                j += 1
            lo = max(0, min(j - half, len(times) - WINDOW))
            out.append(REFERENCE_S / statistics.median(times[lo : lo + WINDOW]))
        return out
