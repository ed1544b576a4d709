"""Speed sampling: scale measured times to a steady reference speed of the machine.

Other tenants of the shared machine slow every process on it by up to about
2x, in phases from a fraction of a second to several minutes long; the
slowdown shows in CPU time as well as in wall time.  So while a timed block
runs, a timer signal (SIGALRM, every INTERVAL_S) runs a tiny fixed kernel,
`_tick`, and records how long it took; a few ticks also run right before and
right after the block.  The mean tick time is how slow the machine was while
the block ran, and the block's time is reported in reference seconds:

    scaled = (measured - time spent in ticks) * REFERENCE_S / mean tick time

On a quiet machine a tick takes about REFERENCE_S and the scaled time is the
measured one.  In a slow phase the block and its ticks slow down alike, so
the scaled time stays put.  The ticks call nothing of `unitals`, so a change
to the program moves the scaled time as it moves the measured one.  Ticks
take about 1 % of a block's time, which is subtracted; signal delivery adds
about 2 % more, the same on every commit.
"""

from __future__ import annotations

import signal
import time

# Seconds a tick takes on the machine the baseline was taken on (shared
# 2-core x86-64, Python 3.11.7) in a quiet phase.  Only a unit: every scaled
# time is proportional to it.
REFERENCE_S = 0.00046
INTERVAL_S = 0.05
EDGE_TICKS = 4  # ticks right before and right after a block

_TABLE = {i: i for i in range(64)}


def _tick() -> int:
    """Integer arithmetic and dict traffic, allocating nothing the garbage collector tracks."""
    table = _TABLE
    h = 0
    for i in range(1500):
        k = (i * 2654435761) & 63
        table[k] = (table[k] * 31 + i) & 0xFFFF
        h ^= table[k]
    return h


def _timed_tick() -> float:
    t0 = time.perf_counter()
    _tick()
    return time.perf_counter() - t0


def edge_ticks() -> list[float]:
    """Tick times taken now, outside any timed block."""
    return [_timed_tick() for _ in range(EDGE_TICKS)]


class Sampler:
    """Runs ticks on a timer signal between start() and stop(); one per process."""

    def __init__(self):
        self.ticks: list[float] = []
        self.spent = 0.0  # seconds spent in the signal handler

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _tick()
        t1 = time.perf_counter()
        self.ticks.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        self.ticks = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)


def scaled(measured: float, mean_tick: float) -> float:
    """A measured time (ticks already subtracted) in reference seconds, given the mean tick time around it."""
    return measured * REFERENCE_S / mean_tick
