"""Machine-speed reference for the timed run.

The test machine (2 vCPUs shared with other virtual machines) changes
speed by up to 1.5x in phases lasting seconds to minutes, which moves the
median of a 30 s run by 20-30% from run to run.  A timed run therefore
also times a fixed calibration loop every CALIBRATE_EVERY_S and reports
each timing scaled to the speed at which that loop takes its reference
time:

    reported = measured * reference / (median calibration time within
                                       WINDOW_S of the measurement)

Each workload picks the loop that slows down like its own work does:
interpreter arithmetic for the pure-Python solvers, interpreter work
plus numpy random sampling for the oracle.  No loop calls votecost, so a
change to the package moves the scaled timings exactly as it moves the
raw ones.
"""

from __future__ import annotations

import math
import statistics
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

CALIBRATE_EVERY_S = 0.1
WINDOW_S = 0.5

_VECTOR = np.arange(4000.0)


def interpreter_loop() -> float:
    s = 0.0
    for i in range(2000):
        s += math.sqrt(i) * 0.5
    for _ in range(20):
        s += float(np.dot(_VECTOR, _VECTOR))
    return s


def sampling_loop() -> float:
    rng = np.random.Generator(np.random.PCG64(12345))
    draws = rng.poisson(10.0, 2000).sum() + rng.binomial(50, 0.3, 2000).sum()
    return interpreter_loop() + float(draws)


@dataclass(frozen=True)
class Calibration:
    """A loop and a fixed reference time for it, near its standalone median
    on the machine the bounds were set on; scaled figures are the times at
    the speed where the loop takes exactly that long."""

    loop: Callable[[], float]
    reference_s: float


INTERPRETER = Calibration(interpreter_loop, 2.5e-4)
SAMPLING = Calibration(sampling_loop, 7e-4)


class SpeedLog:
    """Calibration times, and the scale factor they give for an interval."""

    def __init__(self, calibration: Calibration):
        self.calibration = calibration
        self.times: list[float] = []
        self.durations: list[float] = []

    def calibrate(self) -> None:
        self.calibration.loop()  # untimed: refills the caches the workload evicted
        t0 = perf_counter()
        self.calibration.loop()
        self.times.append(t0)
        self.durations.append(perf_counter() - t0)

    def due(self, now: float) -> bool:
        return not self.times or now - self.times[-1] >= CALIBRATE_EVERY_S

    def scale(self, t0: float, t1: float) -> float:
        """Reference time over the median calibration time around [t0, t1]."""
        lo = bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect_right(self.times, t1 + WINDOW_S)
        near = self.durations[lo:hi] or [self.durations[min(lo, len(self.durations) - 1)]]
        return self.calibration.reference_s / statistics.median(near)
