"""The reference probe that every benchmark time is scaled by.

Every reported time is scaled to a machine on which one probe takes
PROBE_NOMINAL_S.  The host's speed switches between states up to 2x apart
within tens of milliseconds, so each measured interval is scaled by probes
run right before and right after it: for a fixed item the raw time moved by
a quarter while its ratio to these probes held within a few percent.

This module does not import symrank, so a child interpreter can probe
itself around ``import symrank``.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter

PROBE_NOMINAL_S = 1e-3
_PROBE_ROWS = [[Fraction(r.randint(-9, 9), r.randint(1, 9)) for _ in range(6)]
               for r in [random.Random(12345)] for _ in range(6)]


def _probe_work():
    """Gauss-Jordan elimination of a fixed 6 x 6 rational matrix: the same
    kind of Fraction work as the program's, done by code that never changes."""
    a = [row[:] for row in _PROBE_ROWS]
    for c in range(6):
        p = next(r for r in range(c, 6) if a[r][c])
        a[c], a[p] = a[p], a[c]
        pivot = a[c][c]
        a[c] = [x / pivot for x in a[c]]
        for r in range(6):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return a


class Probe:
    """Bursts of reference probes, one before each measured interval and one
    after the last, and the scale factors they give."""

    def __init__(self, burst: int):
        self.burst = burst
        self.durations = []

    def run(self) -> None:
        for _ in range(self.burst):
            start = perf_counter()
            _probe_work()
            self.durations.append(perf_counter() - start)

    def scale(self, interval: int) -> float:
        """Factor to nominal time for the interval between bursts `interval`
        and `interval + 1`."""
        b = self.burst
        return PROBE_NOMINAL_S / statistics.median(
            self.durations[interval * b:(interval + 2) * b])
