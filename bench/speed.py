"""Host speed reference for scaling the benchmark's timings.

On small shared machines the CPU speed seen by one process can switch
between levels (1.6x apart, measured on a 2-vCPU cloud VM) and stay at
one level for a fraction of a second to minutes, which moves raw timings
far more than the bounds in BENCHMARK.json allow.  The benchmark
therefore times a fixed pure-Python loop while the program runs and
reports each timing scaled to the speed at which that loop takes
``NOMINAL_S``:

    scaled = measured * NOMINAL_S / (mean loop time around the measurement)

The loop runs from a timer signal every ``TICK_S`` seconds, also in the
middle of a long operation, so that the speed it sees is the speed the
operation saw; its own time is taken out of the operation's.  The loop is
the benchmark's own code, so a change to the program cannot move it.
Raw timings are kept in the result file next to the scaled ones.
"""

from __future__ import annotations

import gc
import signal
from bisect import bisect_left, bisect_right
from statistics import mean
from time import perf_counter

NOMINAL_S = 0.005
TICK_S = 0.25
# The loop allocates nothing that outlives an iteration, so neither the
# collector nor the size of the program's heap can change its time.
_ROUNDS = 15_000


def _step(word: tuple, i: int) -> tuple:
    return word[1:] + word[:1], i * 3 - 1


def _loop_seconds() -> float:
    """One run of the reference loop.  Like the program, it slices and
    concatenates tuples, makes calls and does small-integer arithmetic."""
    t0 = perf_counter()
    word, acc = (1, 2, 3, 4, 5, 6, 7), 0
    for i in range(_ROUNDS):
        word, v = _step(word, i)
        acc = (acc + v) & 0xFFFF
    return perf_counter() - t0


class Sampler:
    """Runs of the reference loop, one per tick: every ``TICK_S`` seconds
    of wall time while entered, and whenever ``tick`` is called."""

    def __init__(self):
        self.times: list[float] = []  # when each tick started, ascending
        self.loops: list[float] = []  # the loop's seconds at that tick
        self.busy_s = 0.0  # total time spent in ticks

    def tick(self, signum=None, frame=None) -> None:
        t0 = perf_counter()
        enabled = gc.isenabled()
        gc.disable()  # a collection the program is due stays the program's
        try:
            self.loops.append(_loop_seconds())
        finally:
            if enabled:
                gc.enable()
        self.times.append(t0)
        self.busy_s += perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def loop_seconds(self, start: float, end: float) -> float:
        """Mean loop time of the ticks from ``TICK_S`` before start to
        ``TICK_S`` after end."""
        lo = bisect_left(self.times, start - TICK_S)
        hi = bisect_right(self.times, end + TICK_S)
        if lo == hi:  # a late signal left a gap: the ticks just around it
            lo, hi = max(lo - 1, 0), lo + 1
        return mean(self.loops[lo:hi])


def scaled_call(fn) -> float:
    """Scaled seconds of fn(), with three ticks on each side of it."""
    _loop_seconds()  # warm the loop up in a fresh process
    sampler = Sampler()
    for _ in range(3):
        sampler.tick()
    with sampler:
        busy = sampler.busy_s
        t0 = perf_counter()
        fn()
        t1 = perf_counter()
        raw = t1 - t0 - (sampler.busy_s - busy)
    for _ in range(3):
        sampler.tick()
    return raw * NOMINAL_S / sampler.loop_seconds(t0, t1)
