"""Host-speed reference: scale timings to a fixed nominal speed.

The benchmark runs on a shared host whose speed drifts by a third over
minutes, in CPU time as much as in wall time, so two runs of the same
code can differ by more than any useful regression bound.  To take that
drift out, the benchmark times a fixed pure-Python kernel (Fraction
arithmetic, tuple-keyed dict inserts, big-integer steps: the kinds of
work `sl2trace` does) on the same thread, interleaved with the work it
measures, and expresses every timing at the speed where one pass of the
kernel takes `REF_S` seconds.  The kernel is part of the benchmark, not
of the program, so a change to the program moves the scaled timings and
leaves the kernel alone.

`Probe` samples the kernel from a SIGALRM handler every `INTERVAL_S`
seconds of wall time while a timed phase runs, so a single long job is
sampled throughout, and keeps the time the samples took so that it can
be subtracted from the phase and from each job.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

REF_S = 0.001  # nominal duration of one kernel pass
INTERVAL_S = 0.05


def kernel():
    acc = Fraction(1, 3)
    memo = {}
    x = 12345678901234567
    for i in range(1, 130):
        acc = acc * Fraction(i + 1, i + 2) + Fraction(1, i)
        memo[(i, i * 7 % 13)] = acc
        x = (x * 31 + i) % (1 << 89)
    return x + sum(a * b for a, b in memo)


def time_kernel():
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scale(samples):
    """Nominal seconds per measured second over the sampled interval.

    Samples are evenly spaced in time and a sample's duration is inverse
    to the host's speed, so the mean speed over the interval is the mean
    of REF_S / sample: the harmonic mean of the durations.
    """
    return REF_S / statistics.harmonic_mean(samples)


class Probe:
    """Context manager: sample the kernel while the block runs.

    `busy` is the total time spent in samples taken inside the block;
    one sample is also taken on entry and one on exit, outside any job.
    Must be used from the main thread (signal handlers run there).
    """

    def __init__(self):
        self.samples = []
        self.busy = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        dt = time_kernel()
        self.samples.append(dt)
        self.busy += dt

    def __enter__(self):
        self.samples.append(time_kernel())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(time_kernel())

    def scale(self):
        return scale(self.samples)
