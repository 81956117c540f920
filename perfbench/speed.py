"""Machine speed, sampled while the benchmark runs.

The machine this benchmark was tuned on is shared. Each of its cores
switches, every few seconds, between running at full speed and running
about 1.7 times slower, and the two cores switch independently; a round of
the same operations varied by 19% in wall time within one run. A fixed
Fraction loop timed right before and after an operation does not follow
switches during a long operation, so the probe times a short loop from a
SIGALRM handler every INTERVAL_S while operations run. Each stretch of an
operation between two samples is scaled by CAL_REF_S over the loop time
sampled at its edge, which gives the operation's time in reference seconds:
its time on a core where the loop takes CAL_REF_S. The handler's own time
is left out. This costs about 1% of the run.
"""

from __future__ import annotations

import signal
from bisect import bisect_left
from fractions import Fraction as Q
from time import perf_counter

INTERVAL_S = 0.1
CAL_REF_S = 0.001  # the loop at full speed on the reference machine


def calibration_loop() -> float:
    """Seconds one fixed Fraction loop takes right now."""
    start = perf_counter()
    total = Q(0)
    for i in range(1, 400):
        total += Q(1, i)
    return perf_counter() - start


class SpeedProbe:
    """Samples (start, loop seconds) every INTERVAL_S between start and stop."""

    def __init__(self):
        self.starts: list[float] = []
        self.loops: list[float] = []
        self.listener = None  # called with (start, end) of each sample

    def sample(self, signum=None, frame=None) -> None:
        """Take one sample now; also the SIGALRM handler."""
        start = perf_counter()
        loop = calibration_loop()
        self.starts.append(start)
        self.loops.append(loop)
        if self.listener is not None:
            self.listener(start, start + loop)

    def start(self) -> None:
        for _ in range(3):  # the first runs of the loop are slower
            calibration_loop()
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def measure(self, t0: float, t1: float) -> tuple[float, float]:
        """Wall seconds and reference seconds of [t0, t1], samples excluded."""
        i = bisect_left(self.starts, t0)
        j = bisect_left(self.starts, t1)
        if i == j:  # no sample inside: the latest one before stands for it
            loop = self.loops[max(i - 1, 0)]
            return t1 - t0, (t1 - t0) * CAL_REF_S / loop
        wall = ref = 0.0
        edge, loop = t0, self.loops[i]
        for k in range(i, j):
            wall += self.starts[k] - edge
            ref += (self.starts[k] - edge) * CAL_REF_S / loop
            edge, loop = self.starts[k] + self.loops[k], self.loops[k]
        wall += t1 - edge
        ref += (t1 - edge) * CAL_REF_S / loop
        return wall, ref
