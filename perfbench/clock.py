"""Wall-clock timing corrected for the machine's speed drift.

On a shared 2-core machine the speed of one core drifts by 15-30 % over
seconds to minutes (a fixed loop timed once a second ranged from 22 to
34 ms within 30 s, and the two cores drift independently), which
swamps differences between runs. A Clock therefore runs a fixed
reference loop that does not touch dmt, mixing interpreter work and a
small float64 GEMM as dmt does, before and after every timed call, and
scales each call's wall time by REF_SECONDS over the median reference
time within WINDOW seconds of the call: the time the call would take at
the reference speed. The median over a window, rather than the two
adjacent samples, keeps one disturbed 25 ms sample from skewing a call.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

import numpy as np

REF_SECONDS = 0.025      # the reference loop at nominal speed
WINDOW = 10.0
_A = np.random.default_rng(0).standard_normal((192, 192))


def reference() -> float:
    """Wall seconds of one fixed reference loop."""
    t0 = perf_counter()
    s = 0
    for i in range(150000):
        s += i * i
    for _ in range(40):
        _A @ _A
    return perf_counter() - t0


class Lap:
    """One timed call of a Clock."""

    def __init__(self, clock: "Clock", start: float, end: float):
        self.clock = clock
        self.start = start
        self.end = end

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def seconds(self) -> float:
        """Wall seconds at the reference speed; read it once the run's
        timing is done, so the window holds the references after the call."""
        near = [d for t, d in self.clock.refs
                if self.start - WINDOW <= t <= self.end + WINDOW]
        return self.wall * REF_SECONDS / statistics.median(near)


class Clock:
    def __init__(self):
        self.refs: list = []     # (time, reference seconds)

    def reference(self):
        t = perf_counter()
        self.refs.append((t, reference()))

    def timed(self, fn, *args, **kwargs):
        """(fn's result, a Lap for the call). A full collection first, so
        garbage that earlier calls left is not collected inside this one."""
        gc.collect()
        self.reference()
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        lap = Lap(self, t0, perf_counter())
        self.reference()
        return out, lap
