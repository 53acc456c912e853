"""Background-load (availability) processes.

The paper's testbed machines were *non-dedicated*: other users' work made
their deliverable CPU and network capacity vary over time (§3.2).  We model
this as an **availability process**: a function of simulated time returning
the fraction of a resource's nominal capacity deliverable to the scheduled
application, piecewise-constant over fixed *epochs*.

Availability is the quantity the real Network Weather Service measured and
forecast, so modelling it directly keeps the measurement→forecast→schedule
pipeline faithful.

All processes are driven by :class:`repro.util.rng.RngStream`, making every
trace reproducible, and are *lazy*: epoch values are generated on first
access and cached, so two queries of the same instant agree.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.util.rng import RngStream
from repro.util.validation import check_fraction, check_positive

__all__ = [
    "LoadProcess",
    "ConstantLoad",
    "AR1Load",
    "MarkovLoad",
    "SpikeLoad",
    "CompositeLoad",
    "TraceLoad",
    "epoch_cached",
]


def epoch_cached(load: "LoadProcess") -> bool:
    """True if ``load``'s availability is served from the frozen epoch cache.

    Cached processes are deterministic functions of the epoch index, so
    their values can be materialised in bulk once and indexed forever
    (:meth:`LoadProcess.availability_array`).  Mutable processes —
    :class:`IntervalLoad`, :class:`DynamicCompositeLoad`, or any subclass
    that overrides :meth:`LoadProcess.availability` — must be queried live
    at the exact instants the reference code would query them.
    """
    return type(load).availability is LoadProcess.availability


class LoadProcess:
    """Base class: piecewise-constant availability over epochs of ``dt`` seconds.

    Subclasses implement :meth:`_generate` which produces the availability
    for epoch ``k`` given epoch ``k-1`` (Markovian structure).  Values are
    cached so the process is a deterministic function of time.
    """

    def __init__(self, dt: float = 10.0) -> None:
        self.dt = check_positive("dt", dt)
        self._cache: list[float] = []
        self._export = np.empty(0)

    # -- subclass interface ------------------------------------------------
    def _generate(self, k: int, prev: float | None) -> float:
        """Availability for epoch ``k`` (``prev`` is epoch ``k-1`` or None)."""
        raise NotImplementedError

    def _generate_many(self, k0: int, count: int, prev: float | None) -> list[float]:
        """Availability for epochs ``k0 .. k0+count-1`` in one pass.

        The default chains :meth:`_generate`; stochastic subclasses override
        it to draw their random numbers in one batched call (bit-identical
        to the sequential draws, since the generators consume the stream in
        the same order).
        """
        values = []
        for i in range(count):
            prev = self._generate(k0 + i, prev)
            values.append(prev)
        return values

    # -- public API ----------------------------------------------------------
    def epoch_of(self, t: float) -> int:
        """Index of the epoch containing time ``t`` (t<0 clamps to 0)."""
        return max(0, int(math.floor(t / self.dt)))

    def availability(self, t: float) -> float:
        """Deliverable fraction of nominal capacity at time ``t``, in [0, 1]."""
        k = self.epoch_of(t)
        self._fill_to(k)
        return self._cache[k]

    def availability_many(self, times: Sequence[float]) -> list[float]:
        """:meth:`availability` at each of ``times``, in one pass.

        An :func:`epoch_cached` process fills its cache once, up to the
        latest epoch asked for, and reads each instant's epoch from it —
        the values the scalar queries would return, since epochs are
        generated in order either way.  A mutable process answers instant
        by instant.
        """
        if not epoch_cached(self):
            availability = self.availability
            return [availability(t) for t in times]
        epoch_of = self.epoch_of
        epochs = [epoch_of(t) for t in times]
        if not epochs:
            return []
        self._fill_to(max(epochs))
        cache = self._cache
        return [cache[k] for k in epochs]

    def mean_availability(self, t0: float, t1: float) -> float:
        """Time-average availability over ``[t0, t1]``.

        Exact for the piecewise-constant model (weighted by overlap).
        """
        if t1 < t0:
            raise ValueError("t1 must be >= t0")
        if t1 == t0:
            return self.availability(t0)
        k0, k1 = self.epoch_of(t0), self.epoch_of(t1)
        self._fill_to(k1)
        total = 0.0
        for k in range(k0, k1 + 1):
            lo = max(t0, k * self.dt)
            hi = min(t1, (k + 1) * self.dt)
            if hi > lo:
                total += self._cache[k] * (hi - lo)
        return total / (t1 - t0)

    def sample(self, n: int, t0: float = 0.0) -> list[float]:
        """The availability of ``n`` consecutive epochs starting at ``t0``."""
        k0 = self.epoch_of(t0)
        self._fill_to(k0 + n - 1)
        return self._cache[k0 : k0 + n]

    def availability_array(self, n: int) -> np.ndarray:
        """Bulk-materialise epochs ``[0, n)`` as a float64 array.

        This is the array-export hook the vectorised executor compiles its
        capacity and bandwidth tables from.  The values come from the same
        epoch cache :meth:`availability` serves, so a bulk materialisation
        and a sequence of scalar queries see bit-identical numbers.  Only
        meaningful for :func:`epoch_cached` processes — mutable processes
        do not use the cache and raise from their ``_generate``.

        Returns a **read-only view** of a persistent export buffer, so a
        grown executor re-reading a table it already exported pays no
        list-to-array conversion.  Epoch values are append-only, which is
        what keeps old views valid.
        """
        check_positive("n", n)
        if self._export.shape[0] < n:
            self._fill_to(n - 1)
            arr = np.asarray(self._cache, dtype=np.float64)
            arr.setflags(write=False)
            self._export = arr
        return self._export[:n]

    def _fill_to(self, k: int) -> None:
        cache = self._cache
        missing = k + 1 - len(cache)
        if missing <= 0:
            return
        if missing > 1:
            prev = cache[-1] if cache else None
            values = self._generate_many(len(cache), missing, prev)
            arr = np.asarray(values, dtype=np.float64)
            if not np.all((arr >= 0.0) & (arr <= 1.0)):
                for value in values:  # re-check scalar-wise for the message
                    check_fraction("availability", value)
            cache.extend(arr.tolist())
            return
        while len(cache) <= k:
            prev = cache[-1] if cache else None
            value = check_fraction("availability", self._generate(len(cache), prev))
            cache.append(value)


class ConstantLoad(LoadProcess):
    """Fixed availability — models a dedicated resource (``level=1``) or a
    statically shared one."""

    def __init__(self, level: float = 1.0, dt: float = 10.0) -> None:
        super().__init__(dt)
        self.level = check_fraction("level", level)

    def _generate(self, k: int, prev: float | None) -> float:
        return self.level

    def _generate_many(self, k0: int, count: int, prev: float | None) -> list[float]:
        return [self.level] * count


class AR1Load(LoadProcess):
    """First-order autoregressive availability.

    ``a_k = mean + phi * (a_{k-1} - mean) + noise`` clipped to ``[floor, 1]``.
    AR(1) is the canonical model for Unix host load and the process family
    the real NWS forecasters were designed around: it is *predictable*
    short-term, which is precisely what application-level scheduling
    exploits.
    """

    def __init__(
        self,
        mean: float = 0.6,
        phi: float = 0.9,
        sigma: float = 0.08,
        floor: float = 0.02,
        dt: float = 10.0,
        rng: RngStream | None = None,
    ) -> None:
        super().__init__(dt)
        self.mean = check_fraction("mean", mean)
        if not (0.0 <= phi < 1.0):
            raise ValueError(f"phi must be in [0, 1), got {phi}")
        self.phi = phi
        self.sigma = check_positive("sigma", sigma)
        self.floor = check_fraction("floor", floor)
        self.rng = rng if rng is not None else RngStream(0, "ar1")

    def _generate(self, k: int, prev: float | None) -> float:
        if prev is None:
            prev = self.mean
        value = self.mean + self.phi * (prev - self.mean) + self.rng.normal(0.0, self.sigma)
        return min(1.0, max(self.floor, value))

    def _generate_many(self, k0: int, count: int, prev: float | None) -> list[float]:
        noise = self.rng.generator.normal(0.0, self.sigma, count).tolist()
        mean, phi, floor = self.mean, self.phi, self.floor
        x = mean if prev is None else prev
        values = []
        for eps in noise:
            x = mean + phi * (x - mean) + eps
            x = min(1.0, max(floor, x))
            values.append(x)
        return values


class MarkovLoad(LoadProcess):
    """Two-state (busy/idle) Markov-modulated availability.

    Models a host where an interfering job arrives and departs: availability
    is ``idle_level`` in the idle state and ``busy_level`` when a competitor
    runs.  Transition probabilities are per epoch.
    """

    def __init__(
        self,
        idle_level: float = 0.95,
        busy_level: float = 0.25,
        p_busy: float = 0.1,
        p_idle: float = 0.3,
        dt: float = 10.0,
        rng: RngStream | None = None,
        start_busy: bool = False,
    ) -> None:
        super().__init__(dt)
        self.idle_level = check_fraction("idle_level", idle_level)
        self.busy_level = check_fraction("busy_level", busy_level)
        self.p_busy = check_fraction("p_busy", p_busy)
        self.p_idle = check_fraction("p_idle", p_idle)
        self.rng = rng if rng is not None else RngStream(0, "markov")
        self._busy = bool(start_busy)

    def _generate(self, k: int, prev: float | None) -> float:
        if self._busy:
            if self.rng.uniform() < self.p_idle:
                self._busy = False
        else:
            if self.rng.uniform() < self.p_busy:
                self._busy = True
        return self.busy_level if self._busy else self.idle_level

    def _generate_many(self, k0: int, count: int, prev: float | None) -> list[float]:
        draws = self.rng.generator.uniform(0.0, 1.0, count).tolist()
        busy = self._busy
        p_idle, p_busy = self.p_idle, self.p_busy
        busy_level, idle_level = self.busy_level, self.idle_level
        values = []
        for u in draws:
            if busy:
                if u < p_idle:
                    busy = False
            else:
                if u < p_busy:
                    busy = True
            values.append(busy_level if busy else idle_level)
        self._busy = busy
        return values


class SpikeLoad(LoadProcess):
    """Mostly-idle availability with occasional deep spikes of load.

    Each epoch is ``base`` availability except with probability ``p_spike``
    it drops to ``spike_level`` for a geometric number of epochs.  Models
    cron jobs, compile bursts, etc. — the *unpredictable* disturbances that
    degrade any forecast-driven schedule.
    """

    def __init__(
        self,
        base: float = 0.95,
        spike_level: float = 0.1,
        p_spike: float = 0.05,
        p_recover: float = 0.5,
        dt: float = 10.0,
        rng: RngStream | None = None,
    ) -> None:
        super().__init__(dt)
        self.base = check_fraction("base", base)
        self.spike_level = check_fraction("spike_level", spike_level)
        self.p_spike = check_fraction("p_spike", p_spike)
        self.p_recover = check_fraction("p_recover", p_recover)
        self.rng = rng if rng is not None else RngStream(0, "spike")
        self._in_spike = False

    def _generate(self, k: int, prev: float | None) -> float:
        if self._in_spike:
            if self.rng.uniform() < self.p_recover:
                self._in_spike = False
        else:
            if self.rng.uniform() < self.p_spike:
                self._in_spike = True
        return self.spike_level if self._in_spike else self.base

    def _generate_many(self, k0: int, count: int, prev: float | None) -> list[float]:
        draws = self.rng.generator.uniform(0.0, 1.0, count).tolist()
        in_spike = self._in_spike
        p_recover, p_spike = self.p_recover, self.p_spike
        spike_level, base = self.spike_level, self.base
        values = []
        for u in draws:
            if in_spike:
                if u < p_recover:
                    in_spike = False
            else:
                if u < p_spike:
                    in_spike = True
            values.append(spike_level if in_spike else base)
        self._in_spike = in_spike
        return values


class CompositeLoad(LoadProcess):
    """Product of component availabilities.

    Two independent sources of interference multiply: a host that delivers
    60% because of a competitor and 90% because of OS daemons delivers 54%.
    Component processes may have different epoch lengths; the composite is
    sampled on its own ``dt`` grid.
    """

    def __init__(self, components: Sequence[LoadProcess], dt: float = 10.0) -> None:
        super().__init__(dt)
        if not components:
            raise ValueError("CompositeLoad needs at least one component")
        self.components = list(components)

    def _generate(self, k: int, prev: float | None) -> float:
        t = (k + 0.5) * self.dt
        value = 1.0
        for comp in self.components:
            value *= comp.availability(t)
        return value


class IntervalLoad(LoadProcess):
    """Scheduled occupancy: full availability except during busy intervals.

    Other metacomputer applications are "experienced by an individual
    application in terms of the dynamically varying performance capability
    of ... resources" (§3).  ``IntervalLoad`` is how a *scheduled* job
    appears to everyone else: :meth:`occupy` marks a window during which
    the resource delivers only ``level`` of itself.  Overlapping intervals
    multiply (two competitors each halving the machine leave a quarter).

    Unlike the stochastic processes, this one is mutable and uncached.
    """

    def __init__(self, dt: float = 10.0) -> None:
        super().__init__(dt)
        self._intervals: list[tuple[float, float, float]] = []

    def occupy(self, start: float, end: float, level: float) -> None:
        """Mark ``[start, end)`` as busy: availability multiplied by ``level``."""
        if end <= start:
            raise ValueError(f"empty interval [{start}, {end})")
        check_fraction("level", level)
        self._intervals.append((float(start), float(end), float(level)))

    def clear(self) -> None:
        """Remove all occupancy."""
        self._intervals.clear()

    @property
    def intervals(self) -> list[tuple[float, float, float]]:
        """Registered (start, end, level) windows."""
        return list(self._intervals)

    def availability(self, t: float) -> float:  # uncached by design
        value = 1.0
        for start, end, level in self._intervals:
            if start <= t < end:
                value *= level
        return value

    def mean_availability(self, t0: float, t1: float) -> float:
        if t1 < t0:
            raise ValueError("t1 must be >= t0")
        if t1 == t0:
            return self.availability(t0)
        # Integrate over the breakpoints of the piecewise-constant product.
        points = {t0, t1}
        for start, end, _ in self._intervals:
            if t0 < start < t1:
                points.add(start)
            if t0 < end < t1:
                points.add(end)
        cuts = sorted(points)
        total = 0.0
        for lo, hi in zip(cuts, cuts[1:]):
            total += self.availability(lo) * (hi - lo)
        return total / (t1 - t0)

    def _generate(self, k: int, prev: float | None) -> float:  # pragma: no cover
        raise AssertionError("IntervalLoad does not use the epoch cache")


class DynamicCompositeLoad(LoadProcess):
    """Uncached product of component availabilities.

    :class:`CompositeLoad` caches per epoch, which is correct for frozen
    stochastic components but wrong when a component is *mutable* (an
    :class:`IntervalLoad` receiving new occupancy as jobs are scheduled).
    This variant recomputes on every query; use it to overlay scheduled
    application load on a host's background load.
    """

    def __init__(self, components: Sequence[LoadProcess], dt: float = 10.0) -> None:
        super().__init__(dt)
        if not components:
            raise ValueError("DynamicCompositeLoad needs at least one component")
        self.components = list(components)

    def availability(self, t: float) -> float:
        value = 1.0
        for comp in self.components:
            value *= comp.availability(t)
        return value

    def mean_availability(self, t0: float, t1: float) -> float:
        if t1 < t0:
            raise ValueError("t1 must be >= t0")
        if t1 == t0:
            return self.availability(t0)
        # Sample on the epoch grid (components may have structure finer
        # than dt only via IntervalLoad breakpoints; dt/4 sampling keeps
        # the estimate close without enumerating every component's cuts).
        step = self.dt / 4.0
        total = 0.0
        t = t0
        while t < t1:
            hi = min(t + step, t1)
            total += self.availability(t) * (hi - t)
            t = hi
        return total / (t1 - t0)

    def _generate(self, k: int, prev: float | None) -> float:  # pragma: no cover
        raise AssertionError("DynamicCompositeLoad does not use the epoch cache")


class TraceLoad(LoadProcess):
    """Playback of an explicit availability trace.

    The trace repeats cyclically past its end; useful for unit tests (fully
    scripted conditions) and for replaying measured traces.
    """

    def __init__(self, trace: Sequence[float], dt: float = 10.0) -> None:
        super().__init__(dt)
        if len(trace) == 0:
            raise ValueError("trace must be non-empty")
        self.trace = [check_fraction("trace value", v) for v in trace]

    def _generate(self, k: int, prev: float | None) -> float:
        return self.trace[k % len(self.trace)]

    def _generate_many(self, k0: int, count: int, prev: float | None) -> list[float]:
        trace, period = self.trace, len(self.trace)
        return [trace[(k0 + i) % period] for i in range(count)]
