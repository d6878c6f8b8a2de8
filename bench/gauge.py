"""A gauge of the CPU's speed, taken while the ops run, to time them in reference seconds.

Other tenants of the shared host slow this machine's CPUs by 20-40%, in
bursts that last from milliseconds to minutes, and they slow each vCPU
on its own (two loops pinned one to each vCPU do not slow together).
Wall time and process CPU time move alike, so neither removes it.

While a ``Gauge`` is active, a timer signal every ``INTERVAL_S`` runs a
fixed reference loop in this thread, between two bytecodes of whatever
op is running, and records how long the loop took.  An op's time is
then its wall time minus the time the loop itself took during it,
divided by the mean loop time around the op, times ``REF_LOOP_S``:
the seconds the op would have taken on a CPU that runs the loop in
``REF_LOOP_S``.  The loop takes about 3% of the run.

The loop is the benchmark's own code, the same on every commit, so a
change to the program moves an op's reference time as much as its
wall time.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left
from time import perf_counter

INTERVAL_S = 0.005
LOOP_ITERATIONS = 2000
# About the loop's time on the baseline machine (2-vCPU VM, Python 3.11.7).
REF_LOOP_S = 150e-6
# An op shorter than this is judged by the loop times in a window this
# long around it, so that the window holds enough samples.
MIN_WINDOW_S = 0.25


def reference_loop() -> int:
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i % 7
    return total


class Gauge:
    """Samples the loop time while active (``with gauge:``); converts op spans."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.loop_s: list[float] = []
        self.spent = 0.0  # loop time so far; read before and after an op

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        reference_loop()
        dt = perf_counter() - t0
        self.starts.append(t0)
        self.loop_s.append(dt)
        self.spent += dt

    def __enter__(self) -> "Gauge":
        self.starts.clear()
        self.loop_s.clear()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference_s(self, start: float, end: float, spent: float) -> float:
        """Reference seconds of an op that ran from ``start`` to ``end``.

        ``spent`` is the loop time that fell inside the op.  Call this
        after the gauge has stopped, so the samples after the op exist.
        """
        lo, hi = start, end
        if hi - lo < MIN_WINDOW_S:
            mid = (lo + hi) / 2
            lo, hi = mid - MIN_WINDOW_S / 2, mid + MIN_WINDOW_S / 2
        i, j = bisect_left(self.starts, lo), bisect_left(self.starts, hi)
        loop_s = self.loop_s[i:j] or self.loop_s
        return (end - start - spent) * REF_LOOP_S / statistics.fmean(loop_s)
