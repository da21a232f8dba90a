"""Machine-speed probe: scales wall times to a fixed reference speed.

On a shared virtual machine (2 vCPUs, Intel Xeon, 2.0 GHz), the same
horizon run of the same seed took anywhere from 4.9 to 7.7 s within two
minutes, with CPU time equal to wall time: the process keeps running, but
other tenants slow it down, in episodes lasting from milliseconds to minutes.  Repetition
alone cannot average that out within a run.

The probe runs a fixed calibration kernel every ``INTERVAL_S`` from a
SIGALRM handler, interleaved with the timed work in the same thread, so it
sees the slowdowns the program sees.  The kernel mixes interpreter work with
small numpy/LAPACK calls, as the program's solver does.  A timed interval
is reported as

    (wall - time spent in the kernel) * REFERENCE_KERNEL_S / mean kernel time

which is the wall time the work would take at the reference speed.  Nothing
the program does changes the kernel, so a slower program still reads slower.
Raw wall times are kept next to every scaled one.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
import scipy.linalg

INTERVAL_S = 0.05
# Mean kernel seconds at the reference speed: roughly the fast state of the
# machine described above.
REFERENCE_KERNEL_S = 1.4e-3


class SpeedProbe:
    """Context manager sampling the calibration kernel while the timed work runs."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._matrix = rng.standard_normal((40, 40)) + 40.0 * np.eye(40)
        self._lu = scipy.linalg.lu_factor(self._matrix)
        self._vector = rng.standard_normal(40)
        self._previous = None
        self.samples = []

    def kernel(self):
        """The calibration work: interpreter arithmetic, then small LAPACK solves."""
        total = 0
        for i in range(10_000):
            total += i * i
        x = self._vector
        for _ in range(25):
            x = scipy.linalg.lu_solve(self._lu, x) * 2.0
            x = x / max(1.0, float(np.linalg.norm(x)))
            x = np.maximum(x, -(self._matrix @ x))
        return total, x

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def calibrate(self, count):
        """Mean kernel seconds over ``count`` back-to-back runs."""
        self.samples = []
        for _ in range(count):
            self._sample(None, None)
        return statistics.fmean(self.samples)

    def scaled(self, wall):
        """``wall`` seconds, timed under the probe, at the reference speed.

        The kernel ran inside the timed interval, so its own time is taken
        out of ``wall`` first.
        """
        spent = sum(self.samples)
        if not self.samples:  # the work ended before the first sample
            self._sample(None, None)
        return scale(wall - spent, statistics.fmean(self.samples))


def scale(seconds, kernel_s):
    """``seconds`` measured while the kernel took ``kernel_s``, at the reference speed."""
    return seconds * REFERENCE_KERNEL_S / kernel_s
