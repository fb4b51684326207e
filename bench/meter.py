"""Times corrected for the speed of the machine at the moment of measuring.

On a shared host the speed of one core swings by up to half over tens of
seconds (other tenants on the same physical core), and a run cannot be
made long enough to average those swings out.  So the benchmark times a
fixed kernel, which does not touch cuntzlab, every `EVERY_S` seconds
between items, and scales each measured interval by
`NOMINAL_S / (kernel time near that interval)`.  The result is in
reference seconds: the time the work would take at the speed at which the
kernel takes `NOMINAL_S` (about its median time on the 2-core Xeon VM the
benchmark was written on, so reference and raw seconds are close there).
Raw times are kept alongside in the run record.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

EVERY_S = 0.04
WINDOW_S = 0.3
NOMINAL_S = 0.0025


def kernel():
    """Integer, dict and `Fraction` work in the interpreter."""
    total = 0
    for i in range(4000):
        total += i * i
    table = {}
    for i in range(600):
        table[(i, i + 1)] = Fraction(i, 7) + 1
    return total, table


class Meter:
    """Timings of the kernel: when each started (`at`) and how long it
    took (`kernel_s`)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.at: list = []
        self.kernel_s: list = []

    def calibrate(self):
        t = self.clock()
        kernel()
        self.at.append(t)
        self.kernel_s.append(self.clock() - t)

    def calibrate_if_due(self):
        if not self.at or self.clock() - self.at[-1] >= EVERY_S:
            self.calibrate()

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the median kernel time within WINDOW_S of the
        interval.  `calibrate_if_due` before each interval keeps one
        timing within EVERY_S of its start."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        return NOMINAL_S / statistics.median(self.kernel_s[lo:hi])
