"""Operation timing scaled to a reference machine speed.

The cores of the small shared machine the benchmark was built on switch,
several times a second, between a fast state and one about 1.75 times
slower, and the share of time spent slow drifts by the minute.  Over five
runs the raw time of one search question ranged over a factor of 1.49;
no run length averages that out.  The switch slows the library and a fixed
kernel alike: the same question's scaled times ranged over a factor of
1.03.

So every operation is timed in wall-clock seconds, and the kernel is timed
just before it, just after it and, unless disabled, every 50 ms while it
runs (from a SIGALRM handler, whose own time is taken out of the
operation's time).  The operation's speed is its mean kernel time over
`REFERENCE_S`; its scaled time is its raw time divided by that speed, that
is its time at the speed where the kernel takes `REFERENCE_S`.  The mean,
not the median, tracks a speed that switches between two states.  The
kernel uses no library code, so only changes to the program move scaled
times.
"""

from __future__ import annotations

import gc
import signal
from fractions import Fraction
from statistics import fmean
from time import perf_counter

import numpy as np

REFERENCE_S = 1.0e-3
PERIOD_S = 0.05

_TABLE = np.where(np.arange(66 * 64).reshape(66, 64) * 7919 % 13 < 6, -1, 1).astype(np.int8)


def kernel() -> float:
    """Seconds taken by fixed Fraction arithmetic and small-array numpy work."""
    # A collection triggered by the kernel's allocations would time the
    # program's heap, not the machine.
    collecting = gc.isenabled()
    gc.disable()
    started = perf_counter()
    total = Fraction(0)
    for i in range(1, 200):
        total += Fraction(i % 7 + 1, i)
    sums = np.zeros(66, dtype=np.int16)
    for start in range(0, 48, 2):
        candidates = sums[:, None] + _TABLE[:, start:start + 16]
        feasible = np.flatnonzero((np.abs(candidates) <= 8).all(axis=0))
        sums = candidates[:, feasible[0] if len(feasible) else 0]
    elapsed = perf_counter() - started
    if collecting:
        gc.enable()
    return elapsed


class Clock:
    """Times operations; one instance per run."""

    def __init__(self, sample_inside: bool = True):
        self.sample_inside = sample_inside
        self._inside: list[float] = []
        self._paused = 0.0

    def _on_alarm(self, signum, frame):
        started = perf_counter()
        self._inside.append(kernel())
        self._paused += perf_counter() - started

    def run(self, func):
        """Call func(); return (its result, raw seconds, scaled seconds)."""
        before = kernel()
        self._inside = []
        self._paused = 0.0
        previous = None
        if self.sample_inside:
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        started = perf_counter()
        try:
            result = func()
        finally:
            if self.sample_inside:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            elapsed = perf_counter() - started
        after = kernel()
        raw = elapsed - self._paused
        speed = fmean([before, *self._inside, after]) / REFERENCE_S
        return result, raw, raw / speed
