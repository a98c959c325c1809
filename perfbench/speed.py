"""Correcting op times for the drifting speed of a shared core.

On a machine shared with other tenants the same pure-Python work runs up to
20% faster or slower from one second to the next, which is more than the
differences the benchmark must resolve.  A :class:`Speedometer` runs a tiny
fixed piece of exact arithmetic, which does not use the package, from a
SIGALRM handler every few milliseconds while ops run.  Each sample's time
over ``REFERENCE_S`` is the core's *slowness* at that moment; an op's time
divided by the mean slowness around it is its time at reference speed.

The time the handler spends is subtracted from the op it interrupted.
``REFERENCE_S`` is the sample's time on the 2-core x86-64 machine that
measured the baseline in ``perfbench/README.md``, so times at reference
speed read as times on that machine at its typical speed.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

REFERENCE_S = 2.0e-4
INTERVAL_S = 0.005
MARGIN_S = 0.1

_POLY = {(i, j): Fraction(i - j, i + j + 1) for i in range(2) for j in range(3)}


def reference_work() -> dict:
    """Square a fixed 6-term polynomial with Fraction coefficients."""
    out = {}
    for (a, b), c in _POLY.items():
        for (d, e), f in _POLY.items():
            key = (a + d, b + e)
            out[key] = out.get(key, 0) + c * f
    return out


class Speedometer:
    """Samples the core's slowness every ``interval`` seconds while entered."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.times: list[float] = []
        self.slowness: list[float] = []
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def sample(self, *_):
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        reference_work()
        end = time.perf_counter()
        self.times.append(end)
        self.slowness.append((end - start) / REFERENCE_S)
        self.spent += end - start
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def around(self, start: float, end: float,
               margin: float = MARGIN_S) -> float:
        """Mean slowness of the samples within ``margin`` of [start, end]."""
        lo = bisect_left(self.times, start - margin)
        hi = bisect_right(self.times, end + margin)
        window = self.slowness[lo:hi] or self.slowness or [1.0]
        return statistics.fmean(window)
