"""Host-speed calibration: times in reference units.

The benchmark shares a 2-vCPU virtual machine whose speed shifts between
regimes every few seconds (the same code runs up to 1.9x slower; steal time
stays near 1%, so the slowdown is in execution, not in waiting). Raw times
of identical runs then spread by 17-27% between quartiles. To report a
figure that moves with satsched and not with its neighbours, a SIGALRM timer
runs a fixed calibration kernel every ``INTERVAL_S`` and records how long it
took. Each operation's time, less the time the samples inside it took, is
multiplied by ``REFERENCE_S`` times the mean of 1/duration over the samples
within one interval of the operation. Samples come evenly in time, and an
operation's time is its work over its mean speed, so the mean speed (not
the median or mean duration) is the right scale when the regime changes
during a long operation. The kernel is a masked continued-fraction loop over 512
numpy lanes, the shape of work satsched's own kernels do, so it slows down
by about as much as they do. The kernel is part of the benchmark and no
change to satsched alters it.
"""

import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.02
# kernel time that defines the reference speed (about its time on the 2-vCPU
# reference machine in its fast regime)
REFERENCE_S = 300e-6

_A = np.linspace(5.0, 50.0, 512)
_X = _A * 1.1


def kernel():
    """Ten Lentz steps of the upper-incomplete-gamma continued fraction."""
    a, x = _A, _X
    b = x + 1.0 - a
    c = np.full(a.shape[0], 1e300)
    d = 1.0 / b
    h = d.copy()
    active = np.ones(a.shape[0], dtype=bool)
    for i in range(1, 11):
        an = -float(i) * (float(i) - a)
        b2 = b + 2.0
        d2 = an * d + b2
        d2 = np.where(np.abs(d2) < 1e-300, 1e-300, d2)
        c2 = b2 + an / c
        c2 = np.where(np.abs(c2) < 1e-300, 1e-300, c2)
        d2 = 1.0 / d2
        delta = d2 * c2
        b = np.where(active, b2, b)
        d = np.where(active, d2, d)
        c = np.where(active, c2, c)
        h = np.where(active, h * delta, h)
        active &= ~(np.abs(delta - 1.0) < 1e-16)
    return h


class Speedometer:
    """Samples the calibration kernel on a timer while it runs."""

    def __init__(self):
        self.starts = []     # perf_counter at each sample's start
        self.durations = []  # each sample's duration, s
        kernel()

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self):
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _window(self, t0, t1):
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        return lo, hi

    def reference_seconds(self, t0, t1):
        """Time of [t0, t1] less the samples in it, in reference units."""
        lo, hi = self._window(t0, t1)
        own = (t1 - t0) - sum(self.durations[lo:hi])
        lo, hi = self._window(t0 - INTERVAL_S, t1 + INTERVAL_S)
        if hi == lo:
            # no sample near this span: take the nearest one
            i = min(bisect.bisect_left(self.starts, t0), len(self.starts) - 1)
            lo, hi = i, i + 1
        return own * REFERENCE_S * _mean_speed(self.durations[lo:hi])

    def factor(self):
        """REFERENCE_S times the mean speed of every sample so far."""
        return REFERENCE_S * _mean_speed(self.durations)


def _mean_speed(durations):
    return statistics.fmean(1.0 / d for d in durations)
