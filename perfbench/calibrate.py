"""Machine-speed calibration: a fixed kernel timed between operations.

The benchmark shares its host with other tenants, and their load moves
this machine's speed by 20-50% for seconds at a time: NumPy-heavy code
slows most.  A run therefore times a fixed kernel of its own (NumPy array
work plus a pure-Python dictionary loop, no ``repro`` code) between its
operations, and every operation's time is divided by the host scale
around the moment it ended: the median kernel time near that moment over
:data:`REFERENCE_S`.  A reported time is thus the time the operation
would have taken on the reference machine in its reference state; the
raw times stay in the run's record.

No change to the repository can move the kernel, so the scale divides out
the host and nothing else.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: Median sample (s) on the reference machine: a 2-vCPU Intel Xeon VM at
#: 2.0 GHz, Python 3.11, NumPy 2.4, measured on a quiet host.
REFERENCE_S = 0.85e-3

#: Kernel samples within this many seconds of an operation set its scale;
#: when fewer than ``_MIN_NEAR`` fall inside, the nearest ones do.
WINDOW_S = 1.0
_MIN_NEAR = 5
REPEATS = 3

_MATRIX = np.random.default_rng(1996).random((4096, 16))


def kernel() -> float:
    """The fixed calibration work (under 1 ms on the reference machine)."""
    a = _MATRIX
    mask = a > 0.5
    total = float((a * mask).sum(axis=1).max()) + float(np.sort(a[:, 0]).sum())
    table: dict = {}
    for i in range(3000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
    return total + len(table)


class Calibrator:
    """Times :func:`kernel` at most once per ``every_s`` seconds.

    ``samples`` holds ``(perf_counter at the end, seconds)`` pairs in time
    order.
    """

    def __init__(self, every_s: float = 0.2) -> None:
        self.every_s = every_s
        self.samples: list[tuple[float, float]] = []
        self._next = 0.0

    def tick(self) -> None:
        """Time the kernel, unless it ran less than ``every_s`` ago."""
        if time.perf_counter() >= self._next:
            self.sample(1)

    def sample(self, count: int) -> None:
        """Take ``count`` samples now.

        A sample is the fastest of ``REPEATS`` back-to-back kernel runs:
        the first run after an operation pays for caches that operation
        evicted, which says nothing about the host.
        """
        for _ in range(count):
            best = float("inf")
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                kernel()
                best = min(best, time.perf_counter() - t0)
            self.samples.append((time.perf_counter(), best))
        self._next = time.perf_counter() + self.every_s

    def scale(self) -> float:
        """The whole run's median kernel time over :data:`REFERENCE_S`."""
        return statistics.median(dt for _, dt in self.samples) / REFERENCE_S

    def scale_at(self, t: float) -> float:
        """The host scale around ``t`` (>1: the host ran slow then)."""
        stamps = [stamp for stamp, _ in self.samples]
        lo = bisect.bisect_left(stamps, t - WINDOW_S)
        hi = bisect.bisect_right(stamps, t + WINDOW_S)
        near = self.samples[lo:hi]
        if len(near) < _MIN_NEAR:
            near = sorted(self.samples, key=lambda s: abs(s[0] - t))[:_MIN_NEAR]
        return statistics.median(dt for _, dt in near) / REFERENCE_S

    def at_reference(self, timed: list[tuple[float, float]]) -> list[tuple[float, float]]:
        """``(end, seconds)`` operation times divided by the scale around ``end``."""
        return [(t, dt / self.scale_at(t)) for t, dt in timed]
