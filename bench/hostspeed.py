"""The speed the host gives this process, sampled while a run measures.

On a host whose cores are shared with other tenants, the same pure-Python
work can run at anywhere from 0.64x to 1.39x of its median speed from one
2-second window to the next, and the speed drifts over minutes (measured on a
2-vCPU Intel Xeon virtual machine).  No run length averages that away.  So a
fixed chunk of exact arithmetic, the kind of work waifi does, is timed every
EVERY_S seconds, during ops too, and each op's time is scaled by REFERENCE_S
over the mean chunk time around it: the result is the time the op would take
on a host where the chunk takes REFERENCE_S.  The program never runs the
chunk, so a change to the program cannot move the scale.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.005  # time of one chunk at the reference speed
EVERY_S = 0.25
MARGIN_S = 1.0  # samples this close to an op count for its speed


def chunk():
    """Time one fixed chunk of Fraction arithmetic."""
    start = perf_counter()
    total = Fraction(0)
    for i in range(1, 1500):
        total += Fraction(1, i % 97 + 1)
    return perf_counter() - start


class HostSpeed:
    def __init__(self):
        self.times = []  # when each sample started
        self.durations = []
        self.in_chunks = 0.0  # seconds spent in chunks so far

    def sample(self):
        self.times.append(perf_counter())
        duration = chunk()
        self.durations.append(duration)
        self.in_chunks += duration

    @contextlib.contextmanager
    def sampling(self):
        """Take a sample every EVERY_S seconds, in a SIGALRM handler, so that
        long ops are sampled too; callers subtract in_chunks from what they
        time."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, start=None, end=None):
        """Reference seconds per measured second, from the samples taken
        within MARGIN_S of [start, end], or from all of them.  The mean, not
        the median, because the host switches between a fast and a slow
        state and work slows with the time spent in the slow one."""
        lo, hi = 0, len(self.times)
        if start is not None:
            lo = bisect.bisect_left(self.times, start - MARGIN_S)
            hi = bisect.bisect_right(self.times, end + MARGIN_S)
        window = self.durations[lo:hi] or self.durations
        return REFERENCE_S * len(window) / sum(window)
