"""Machine-speed reference for the reported times.

On a machine whose CPUs are shared with other tenants, the speed one
process gets drifts by 10-30 % from one minute to the next, with no steal
time visible to the guest.  On the 2-core reference box, runs of the same
workload a few minutes apart differed by up to 28 % (interquartile range of
ten runs over their median), more than any change worth measuring.

So the benchmark also times a fixed calibration kernel, which runs no
rotogo code: before the first unit of a pass, after every
``CALIBRATE_EVERY_S`` seconds of unit time, and after the last unit.  The
run's slowness is the mean kernel time over ``NOMINAL_S``, and every
reported time is the wall time divided by it: seconds at the speed at which
the kernel takes ``NOMINAL_S``.  A faster program shows up in full, because
the kernel does not change with the program; a slower host mostly does not.

The kernel is numpy work on the shapes the planner uses (25 x 200 arrays).
Over ten runs per workload, its mean time correlated with each workload's
throughput at 0.80-0.97; a pure-Python kernel tracked the MPC workloads
far worse (0.05-0.67).  Raw wall times are printed next to the scaled ones
and kept in ``perfbench/out``.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

#: Kernel seconds at the reference speed, about its time on the reference
#: box, so that scaled times read close to wall times there.
NOMINAL_S = 0.008

#: Unit seconds between calibrations.
CALIBRATE_EVERY_S = 1.0

_VALUES = np.random.default_rng(0).normal(size=(25, 200))
_TIMES = np.arange(200)


def _kernel() -> None:
    a = _VALUES
    for _ in range(200):
        b = np.minimum(a, a[:, ::-1])
        np.maximum(b[:, 1:], b[:, :-1]).sum(axis=1)
        np.sqrt(a * a + b * b)
        np.searchsorted(_TIMES, _TIMES[::3])


def sample() -> float:
    """Median seconds of three kernel runs."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Calibration:
    """Kernel samples taken through one pass of units."""

    def __init__(self):
        self.samples = [sample()]
        self._since = 0.0

    def after_unit(self, unit_seconds: float) -> None:
        self._since += unit_seconds
        if self._since >= CALIBRATE_EVERY_S:
            self.samples.append(sample())
            self._since = 0.0

    def finish(self) -> float:
        """The pass's slowness: mean kernel seconds over NOMINAL_S."""
        if self._since > 0:
            self.samples.append(sample())
        return statistics.fmean(self.samples) / NOMINAL_S
