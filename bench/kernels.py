"""Reference kernels: fixed work owned by the benchmark, timed between operations.

The machine the benchmark was tuned on (2 vCPUs of a shared Xeon host)
changes speed by up to 2.5x over tens of seconds, because other tenants share
its cores.  Raw wall times of one operation then spread 15-45% from one run
to the next, wider than any useful regression bound.  So each run also times
a fixed kernel twice a second, on the same core, and divides each operation's
time by the kernel's time around that moment.
A long operation pauses its clock for the kernel at checkpoints inside it
(see `Calibration.checkpoint`), so a 3 s table is divided piece by piece.
The kernels call no twodist code, so no change to the library can move them.

- `interp_kernel`: small-array numpy.polynomial calls in Python loops, the
  kind of work in lrs, bound_polys, gegenbauer and cli.
- `blas_kernel`: a Gram matrix, its eigenvalues and singular values of a
  300-point set, the kind of work in constructions.
"""
from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np
from numpy.polynomial import polynomial as npoly
from numpy.polynomial import polyutils

CAL_INTERVAL_S = 0.5
# A calibration is the median of CAL_REPEATS kernel runs, which leaves out the
# first run's cold caches after an operation.  One calibration still varies
# about 20% from the next on this machine, so an operation is divided by the
# median of the calibrations within CAL_WINDOW_S of it: steady enough, and
# still quick to follow the speed swings, which last tens of seconds.
CAL_REPEATS = 3
CAL_WINDOW_S = 2.0


def interp_kernel() -> float:
    acc = 0.0
    for i in range(200):
        a = -0.3 + i * 2e-3
        quad = npoly.polyfromroots([a, (3.0 * a - 1.0) / 2.0])
        poly = polyutils.trimcoef(npoly.polymul(quad, [a, 1.0]), 1e-12)
        work = poly.copy()
        for k in range(len(work) - 1, -1, -1):
            work[: k + 1] -= 0.5 * work[k] * np.ones(k + 1)
        acc += float(npoly.polyval(1.0, poly)) / (1.0 + abs(work[0]))
    return acc


def blas_kernel() -> float:
    x = np.random.default_rng(0).standard_normal((300, 40))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    gram = x @ x.T
    w = np.linalg.eigvalsh(gram)
    sv = np.linalg.svd(np.vstack([(gram - 0.1) * (gram + 0.2), x.T]), compute_uv=False)
    return float(w[-1] + sv[0])


KERNELS = {"table": interp_kernel, "queries": interp_kernel, "constructions": blas_kernel}


class Calibration:
    """Timeline of reference-kernel times for one run, and the clock of the
    operation in progress, split into segments at each calibration."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.times: list[float] = []
        self.values: list[float] = []
        self._segments: list[tuple[float, float]] | None = None
        self._segment_start = 0.0

    def due(self) -> bool:
        return not self.times or perf_counter() - self.times[-1] >= CAL_INTERVAL_S

    def measure(self) -> None:
        samples = []
        for _ in range(CAL_REPEATS):
            t0 = perf_counter()
            self.kernel()
            samples.append(perf_counter() - t0)
        self.times.append(perf_counter())
        self.values.append(statistics.median(samples))

    def at(self, t: float) -> float:
        """Kernel seconds around time t: the median of the calibrations within
        CAL_WINDOW_S of it, or the nearest one."""
        near = [v for u, v in zip(self.times, self.values) if abs(u - t) <= CAL_WINDOW_S]
        if not near:
            near = [min(zip(self.times, self.values), key=lambda uv: abs(uv[0] - t))[1]]
        return statistics.median(near)

    def start_op(self) -> None:
        self._segments = []
        self._segment_start = perf_counter()

    def checkpoint(self) -> None:
        """Inside an operation: when due, stop its clock, time the kernel, restart."""
        if self._segments is None or not self.due():
            return
        self._segments.append((self._segment_start, perf_counter()))
        self.measure()
        self._segment_start = perf_counter()

    def end_op(self) -> list[tuple[float, float]]:
        """The operation's (start, end) segments, calibration pauses left out."""
        segments = self._segments + [(self._segment_start, perf_counter())]
        self._segments = None
        return segments

    def cost(self, segments: list[tuple[float, float]]) -> float:
        """Operation time in kernel units: each segment over the kernel time at its middle."""
        return sum((end - start) / self.at((start + end) / 2) for start, end in segments)
