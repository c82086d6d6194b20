"""Machine speed, sampled with a fixed reference kernel while a pass runs.

On a shared host the same code runs up to 1.7x slower for tens of seconds
to minutes at a time, so raw wall times of two runs differ by more than the
changes the benchmark has to see.  The benchmark therefore times a fixed
kernel (a pure-Python loop and a few small numpy calls, the same mix as
mblab's work) about every ``EVERY_S`` seconds, and scales each operation's
time by how much slower or faster the kernel ran during and around it than
``NOMINAL_S``.  The scaled time is the time the operation would have taken
at the reference speed; the raw times are printed beside it.

The kernel is part of the benchmark, not of mblab, so no change to mblab
moves it.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

# Median kernel time on the 2-vCPU Xeon KVM guest of perfbench/BASELINE.md,
# so that scaled times read close to real seconds there.
NOMINAL_S = 0.0024
# Seconds between samples; each sample costs about 3 * NOMINAL_S.
EVERY_S = 0.25
WARMUP = 20


def kernel() -> int:
    s = 0
    for i in range(20000):
        s += i * i % 7
    a = np.arange(2000.0)
    for _ in range(20):
        a = np.sqrt(a * a + 1.0)
    return s


def sample() -> float:
    """Seconds of one kernel: the median of three back to back."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def warm_up() -> None:
    for _ in range(WARMUP):
        kernel()


class Scaler:
    """Time operations and give each the factor NOMINAL_S / (kernel time
    during and around it).

    With ``during_ops`` a SIGALRM timer samples every EVERY_S, inside
    operations too (between two bytecodes of this interpreter), and the
    time a sample takes is left out of the operation it interrupted.  For
    operations that run in child processes the samples are taken only
    between operations, once EVERY_S has gone by since the last one, so
    that the kernel never runs beside the child.

    An operation's factor uses the samples taken during it and the nearest
    one on either side.
    """

    def __init__(self, during_ops: bool) -> None:
        self.during_ops = during_ops
        self.samples: list[tuple[float, float]] = []  # (taken at, kernel seconds)
        self.ops: list[tuple[float, float]] = []  # (start, end)
        self._stolen = 0.0

    def _take(self) -> float:
        t0 = perf_counter()
        self.samples.append((t0, sample()))
        return perf_counter() - t0

    def _on_alarm(self, signum, frame) -> None:
        self._stolen += self._take()

    def __enter__(self) -> Scaler:
        warm_up()
        self._take()
        if self.during_ops:
            signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.during_ops:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._take()

    def time(self, op):
        """Run ``op()``; returns (its result, its seconds without samples)."""
        self._stolen = 0.0
        start = perf_counter()
        try:
            return op(), perf_counter() - start - self._stolen
        finally:
            self.ops.append((start, perf_counter()))
            if not self.during_ops and perf_counter() - self.samples[-1][0] >= EVERY_S:
                self._take()

    def factors(self) -> list[float]:
        """One factor per operation, after the pass has ended."""
        out = []
        times = [t for t, _ in self.samples]
        j = 0
        for start, end in self.ops:
            while j + 1 < len(times) and times[j + 1] <= start:
                j += 1
            k = j + 1
            while k < len(times) and times[k] < end:
                k += 1
            near = [s for _, s in self.samples[j : k + 1]]
            out.append(NOMINAL_S / statistics.fmean(near))
        return out
