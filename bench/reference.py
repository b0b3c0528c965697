"""A fixed reference computation, timed in bursts inside a benchmark pass.

The machine is shared and unpinned: other tenants slow identical work by up
to a factor of 2, for stretches that can outlast a whole run, and the
process CPU time slows with the wall time.  So a pass also times a fixed
computation of the benchmark's own, a small Gauss-Jordan elimination on
bare ``Fraction`` lists (the arithmetic the program spends its time in), in
a burst every ``INTERVAL_S`` seconds from a timer signal.  The program's
time between two bursts, divided by the burst time around it, is in units
of what the machine could do at that moment.  The program itself is not
changed.
"""

from __future__ import annotations

import gc
import random
import signal
from statistics import median
from time import perf_counter

from probes import fraction_rank, sparse_int_matrix

INTERVAL_S = 0.05
_ROWS = sparse_int_matrix(random.Random(0), n=10, density=0.5)


def burst():
    """The reference computation; about 1 ms."""
    return fraction_rank(_ROWS)


def in_reference_units(wall, bursts, window=2):
    """Time of one run without its bursts, in units of the burst time.

    bursts holds (start, duration) pairs in seconds from the start of the
    run, which lasted wall seconds.  The time before each burst is divided
    by the median duration of the 2 * window + 1 bursts around it, so a
    stretch that other tenants slowed is measured against bursts they
    slowed alike.
    """
    durations = [d for _, d in bursts]
    total, end = 0.0, 0.0
    for k, (start, duration) in enumerate(bursts):
        total += (start - end) / median(
            durations[max(0, k - window):k + window + 1])
        end = start + duration
    return total + (wall - end) / median(durations[-window - 1:])


class ReferenceBursts:
    """Runs and times a burst on every timer tick while installed.

    The garbage collector is off during a burst, so its time does not grow
    with the program's heap.
    """

    def __init__(self):
        self.bursts = []  # (start, duration), perf_counter seconds
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        burst()
        self.bursts.append((t0, perf_counter() - t0))
        if collecting:
            gc.enable()
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
