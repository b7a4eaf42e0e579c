"""Machine-speed probe: scales measured times to a fixed reference speed.

On a shared virtual machine the same pure-Python work can take anywhere
from 1x to 2x its usual time, and that speed changes within seconds and
drifts over minutes.  Measured on a 2-core Xeon VM: 2 s of width items
ran between 1.77 s and 2.69 s, with process CPU time equal to wall time and
no steal time.  Wall times from runs a few minutes apart are then not
comparable.

The probe runs a small, fixed reference computation (`reference_work`, which
uses no widthcert code) every `PERIOD_S` seconds while a child works, on
the same CPU as the child.  It times each sample in CPU time, so the child's
time slices do not count.  A time measured over [start, end] is scaled by
``NOMINAL_S / reference time``, averaged over the samples in that interval,
which gives the time the work would take on a machine where the reference
takes `NOMINAL_S`.
"""

from __future__ import annotations

import bisect
import time
from fractions import Fraction

PERIOD_S = 0.1
# CPU time of `reference_work` that scaled times are expressed against: about
# its median on a 2-core Xeon VM with Python 3.11 (1.1 ms fast, 2 ms slow).
NOMINAL_S = 0.002


def reference_work() -> Fraction:
    """Fraction arithmetic, the same kind of work as widthcert's scalars."""
    a = Fraction(355, 113)
    s = Fraction(0)
    for i in range(1, 150):
        s = s + a * Fraction(i, 7) - Fraction(1, i)
    return s


class SpeedProbe:
    """Reference timings, as (monotonic midpoint, CPU seconds), in time order."""

    def __init__(self):
        self.times: list[float] = []
        self.costs: list[float] = []

    def sample(self) -> None:
        t0 = time.monotonic()
        c0 = time.thread_time()
        reference_work()
        cost = time.thread_time() - c0
        self.times.append((t0 + time.monotonic()) / 2)
        self.costs.append(cost)

    def factor(self, start: float, end: float) -> float:
        """NOMINAL_S / reference time over [start, end], as a mean of speeds.

        Uses the samples inside the interval, or the nearest sample on each
        side when the interval is shorter than the sampling period.
        """
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        costs = self.costs[max(lo - 1, 0):hi + 1] if lo == hi else self.costs[lo:hi]
        if not costs:
            raise ValueError("no speed samples")
        return sum(NOMINAL_S / c for c in costs) / len(costs)

    def scaled(self, start: float, end: float) -> float:
        return (end - start) * self.factor(start, end)
