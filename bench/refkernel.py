"""Reference kernel and the clock that normalises operation times by it.

The host this benchmark was built on changes speed by up to a factor of
two within a minute, and the process's CPU time follows its wall time, so
raw timings of the same code do not repeat.  Every timed operation is
therefore measured against a fixed reference kernel run right next to it.
The kernel shares no code with ``convexstate``.  It mixes the two kinds of
work the program does: exact ``fractions.Fraction`` elimination (the LP
solver) and small complex numpy products (the eigensolver, the see-saw and
the binding objective).

A time reported in nominal seconds is ``raw * NOMINAL_KERNEL_S / k``,
where ``k`` is the mean kernel time measured around and during the
operation: the time the operation would take on a host that runs one
kernel call in ``NOMINAL_KERNEL_S``.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from fractions import Fraction

import numpy as np

NOMINAL_KERNEL_S = 2.5e-3
"""One kernel call on the reference host (median, quiet period)."""

SAMPLE_INTERVAL_S = 0.1
"""Wall time between kernel samples taken inside a long operation."""

_RATIONAL = [[Fraction((3 * i + 5 * j) % 7 - 3, 1 + (i * j) % 5) for j in range(7)]
             for i in range(6)]
_STEP = np.array([[complex(math.cos(i + 2 * j), math.sin(3 * i - j)) for j in range(4)]
                  for i in range(4)]) / 8.0
_SHIFT = _STEP.conj().T.copy()


def reference_kernel() -> float:
    """Fixed work: Gauss-Jordan elimination of a 6 x 7 rational matrix, then
    150 steps of a 4 x 4 complex matrix recurrence.  Returns a checksum."""
    rows = [r[:] for r in _RATIONAL]
    n = len(rows)
    for c in range(n):
        piv = next(i for i in range(c, n) if rows[i][c] != 0)
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = 1 / rows[c][c]
        for i in range(n):
            if i != c and rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    m = np.eye(4, dtype=complex)
    acc = 0.0
    for _ in range(150):
        m = m @ _STEP + _SHIFT
        acc += float(np.real(np.trace(m)))
    return float(rows[0][-1]) + acc


def kernel_seconds() -> float:
    """Wall time of one reference kernel call."""
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def nominal(raw_s: float, kernel_s: float) -> float:
    """Convert a raw time into nominal seconds at the given kernel time."""
    return raw_s * NOMINAL_KERNEL_S / kernel_s


def host_kernel_s(samples: int = 15) -> float:
    """Median kernel time over back-to-back calls: one estimate of the host's
    speed right now, robust to a single preempted call."""
    return statistics.median(kernel_seconds() for _ in range(samples))


class NormalisingClock:
    """Times operations in nominal seconds.

    A kernel sample is taken right before and right after each operation,
    and every ``SAMPLE_INTERVAL_S`` of wall time while it runs (from a
    SIGALRM handler, so the operation pauses for it).  The samples taken
    inside are subtracted from the operation's wall time, and the mean of
    all its samples sets the host speed the operation ran at.

    ``on_sample(start, end)``, when set, is told about each sample taken
    inside an operation, so that a tracer can discount it from the span it
    landed in.
    """

    def __init__(self):
        self.on_sample = None
        self._inner: list[float] = []

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_kernel()
        end = time.perf_counter()
        self._inner.append(end - start)
        if self.on_sample is not None:
            self.on_sample(start, end)

    def measure(self, fn):
        """Run ``fn()``; return (result, raw seconds, nominal seconds)."""
        before = kernel_seconds()
        self._inner = []
        previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            end = time.perf_counter()
            signal.signal(signal.SIGALRM, previous)
        after = kernel_seconds()
        inner = self._inner
        raw = end - start - sum(inner)
        speed = statistics.fmean([before, after, *inner])
        return result, raw, nominal(raw, speed)
