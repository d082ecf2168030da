"""Machine-speed probe interleaved with the measured work.

On a shared host the speed of a CPU drifts by up to 2x within seconds, as
other tenants come and go, so raw wall times of two runs of the same code
can differ by more than any useful regression bound.  The probe runs a fixed
slice of stdlib-only work every INTERVAL_S from a SIGALRM handler, on the
same thread as the measured work (or, for work done by child processes,
between two children), and records how long each slice took.
The mean slice time over an interval, divided by REFERENCE_SLICE_S, is the
slowdown the work suffered in that interval; dividing a measured time by it
gives the time at the reference speed.  The slice does not call wahlorder,
so a change to the program never moves the probe.

`clock()` is a perf_counter that stops while a slice runs, so work is timed
without the probe's own cost.
"""

from __future__ import annotations

import signal
from time import perf_counter

INTERVAL_S = 0.025
# one slice on an idle 2-CPU Xeon (Sapphire Rapids, 2.0 GHz) under Python
# 3.11; only the ratio of two runs matters, so this merely sets the scale
REFERENCE_SLICE_S = 0.001


def _slice() -> int:
    """Tuple-keyed dict churn and small-int arithmetic, the kind of work the
    workloads do."""
    cells = {}
    acc = 0
    for i in range(1800):
        key = (i % 31, i % 17)
        cells[key] = cells.get(key, 0) + (i * 7919) % 13 - 6
        acc ^= hash(key) & 0xffff
    return acc + len(sorted(cells.items()))


class SpeedProbe:
    """With `timer`, a slice runs every INTERVAL_S inside the context;
    without it, only where the caller asks: `between()` samples
    SLICES_BETWEEN slices, for work done by child processes, which keep
    running while the parent runs a slice and would compete with it."""

    SLICES_BETWEEN = 5

    def __init__(self, timer: bool):
        self.timer = timer
        self.slices = []      # duration of each slice, in order
        self.busy = 0.0       # total time spent in slices
        self._previous = None

    def sample(self, count: int = 1):
        for _ in range(count):
            start = perf_counter()
            _slice()
            took = perf_counter() - start
            self.slices.append(took)
            self.busy += took

    def between(self):
        if not self.timer:
            self.sample(self.SLICES_BETWEEN)

    def _handler(self, signum, frame):
        self.sample()

    def __enter__(self):
        if self.timer:
            self._previous = signal.signal(signal.SIGALRM, self._handler)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
        return False

    def clock(self) -> float:
        """perf_counter without the time spent in slices."""
        return perf_counter() - self.busy

    def mark(self) -> int:
        return len(self.slices)

    def slowdown(self, first: int, last: int | None = None) -> float:
        """Mean slice time over slices[first:last] relative to the
        reference; over all slices when that interval holds none."""
        window = self.slices[first:last] or self.slices
        if not window:
            return 1.0
        return sum(window) / len(window) / REFERENCE_SLICE_S
