"""Sensors: periodic measurement of simulated resources.

The real NWS ran lightweight probes — a CPU sensor reading load averages
and an active network probe timing small transfers.  Here sensors read the
simulator's ground truth and add measurement noise, then feed an
:class:`~repro.nws.ensemble.AdaptiveEnsemble` per metric.

Sensors are *pull-driven*: ``advance_to(t)`` takes all measurements due up
to time ``t``.  This keeps the NWS usable both from plain experiment loops
and from :class:`~repro.sim.engine.Simulator` processes.

Every sensor also keeps a bounded *forecast history*: each sample's time
and the forecast the ensemble reported right after it.  Queries answer
from the newest recorded sample at or before the sensor's clock, so the
clock can move back (``rewind_to``) and forward again over recorded
samples without measuring anything twice — a rewound sensor answers
exactly as a fresh one built from the same seed and advanced straight to
that instant, because measurement noise is drawn once per sample, in
sample order.  The history keeps as many samples as the sensor's
:class:`~repro.nws.series.TimeSeries` does (its ``maxlen``); a rewind
behind the oldest retained sample raises ``ValueError``.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right

from repro.nws.ensemble import AdaptiveEnsemble, Forecast
from repro.nws.series import TimeSeries
from repro.sim.host import Host
from repro.sim.link import Link
from repro.util.rng import RngStream
from repro.util.validation import check_nonnegative, check_positive

__all__ = ["CpuSensor", "LinkSensor"]


class _PeriodicSensor:
    """Shared machinery: fixed-period sampling with clock state.

    ``series`` and ``ensemble`` hold the measurements and forecaster state
    at the sampling frontier (the newest sample ever taken), not at the
    clock: after :meth:`rewind_to` they still describe the frontier, and
    only :meth:`forecast` and :attr:`ready` follow the clock.
    """

    def __init__(self, name: str, period: float, noise_std: float, rng: RngStream) -> None:
        check_positive("period", period)
        check_nonnegative("noise_std", noise_std)
        self.name = name
        self.period = float(period)
        self.noise_std = float(noise_std)
        self.rng = rng
        self.series = TimeSeries(name)
        self.ensemble = AdaptiveEnsemble()
        self._next_sample = 0.0
        # Forecast history, one entry per sample in parallel arrays: the
        # sample time, then the ensemble's forecast after it (value, error
        # estimate, index of the winning member).  Entries past the
        # retention bound are dropped in chunks; ``_dropped`` counts them,
        # so entry ``i`` is sample number ``_dropped + i``.
        self._retain = self.series.maxlen
        self._times = array("d")
        self._values = array("d")
        self._errors = array("d")
        self._methods = array("B")
        self._dropped = 0
        # The clock: index of the newest entry at or before it (-1 = none).
        self._at = -1
        self._current: Forecast | None = None

    def _measure(self, t: float) -> float:
        raise NotImplementedError

    def advance_to(self, t: float) -> int:
        """Move the clock forward to ``t``, measuring every sample due in
        ``(frontier, t]``; returns how many were measured.

        Recorded samples between the clock and the frontier are crossed
        without measuring.  A ``t`` behind the clock leaves it in place.
        """
        times = self._times
        at = bisect_right(times, t, self._at + 1) - 1
        if at > self._at:
            self._at = at
            self._current = None
        if at < len(times) - 1:
            return 0
        taken = 0
        ensemble = self.ensemble
        while self._next_sample <= t:
            ts = self._next_sample
            value = self._measure(ts)
            self.series.append(ts, value)
            ensemble.update(value)
            times.append(ts)
            self._values.append(ensemble.best_value)
            self._errors.append(ensemble.best_error)
            self._methods.append(ensemble.best_index)
            self._next_sample += self.period
            taken += 1
        if taken:
            if len(times) >= 2 * self._retain:
                self._trim()
            self._at = len(times) - 1
            self._current = None
        return taken

    def _trim(self) -> None:
        """Drop the entries beyond the retention bound (amortised)."""
        drop = len(self._times) - self._retain
        for column in (self._times, self._values, self._errors, self._methods):
            del column[:drop]
        self._dropped += drop

    @property
    def history_start(self) -> float:
        """The earliest instant :meth:`rewind_to` can serve.

        0.0 while every sample is retained (the first is taken at 0.0);
        once older samples fall out of the history, the time of the oldest
        retained one.
        """
        oldest = len(self._times) - self._retain
        return self._times[oldest] if oldest >= 0 else 0.0

    def rewind_to(self, t: float) -> None:
        """Move the clock back to ``t`` (at most the clock) over the history.

        Raises ``ValueError`` when ``t`` lies behind :attr:`history_start`
        (the answer would need a sample that is no longer retained).
        """
        start = self.history_start
        if not t >= start:
            raise ValueError(
                f"{self.name}: cannot rewind to {t}: the history starts at "
                f"{start}"
            )
        at = bisect_right(self._times, t, 0, self._at + 1) - 1
        if at != self._at:
            self._at = at
            self._current = None

    def forecast(self) -> Forecast:
        """The one-step-ahead forecast after the newest sample at or
        before the clock."""
        current = self._current
        if current is None:
            i = self._at
            if i < 0:
                raise RuntimeError(f"{self.name}: forecast requested before any sample")
            current = self._current = Forecast(
                value=self._values[i],
                error=self._errors[i],
                method=self.ensemble.members[self._methods[i]].name,
                observations=self._dropped + i + 1,
            )
        return current

    @property
    def ready(self) -> bool:
        """True once a measurement at or before the clock exists."""
        return self._at >= 0


class CpuSensor(_PeriodicSensor):
    """Measures a host's CPU availability.

    Noise models the jitter of load-average probes; measurements are clipped
    to [0, 1] like real availability fractions.
    """

    def __init__(
        self,
        host: Host,
        period: float = 10.0,
        noise_std: float = 0.02,
        rng: RngStream | None = None,
    ) -> None:
        super().__init__(
            name=f"cpu:{host.name}",
            period=period,
            noise_std=noise_std,
            rng=rng if rng is not None else RngStream(0, f"cpu:{host.name}"),
        )
        self.host = host

    def _measure(self, t: float) -> float:
        value = self.host.availability(t) + self.rng.normal(0.0, self.noise_std)
        return min(1.0, max(0.0, value))


class LinkSensor(_PeriodicSensor):
    """Measures a link's deliverable-bandwidth *fraction* (availability).

    Probing the fraction rather than absolute bytes/s lets one forecast
    serve every path through the link: the path forecast recombines each
    link's predicted fraction with its nominal bandwidth.
    """

    def __init__(
        self,
        link: Link,
        period: float = 15.0,
        noise_std: float = 0.03,
        rng: RngStream | None = None,
    ) -> None:
        super().__init__(
            name=f"net:{link.name}",
            period=period,
            noise_std=noise_std,
            rng=rng if rng is not None else RngStream(0, f"net:{link.name}"),
        )
        self.link = link
        # The nominal (availability == 1) bandwidth is static per flow
        # count; recomputing it per forecast query was a hot-path cost.
        self._nominal_cache: dict[int, float] = {}

    def _measure(self, t: float) -> float:
        value = self.link.load.availability(t) + self.rng.normal(0.0, self.noise_std)
        return min(1.0, max(0.0, value))

    def forecast_bandwidth(self, flows: int = 1) -> float:
        """Predicted deliverable bytes/s for one of ``flows`` concurrent flows."""
        fraction = min(1.0, max(0.0, self.forecast().value))
        # Reuse the link's own composition of nominal bandwidth, MAC
        # efficiency and flow sharing by probing it with availability == 1
        # and scaling by the forecast fraction.
        nominal = self._nominal_cache.get(flows)
        if nominal is None:
            nominal = self.link.deliverable_bandwidth(t=0.0, flows=flows) / max(
                self.link.load.availability(0.0), 1e-12
            )
            self._nominal_cache[flows] = nominal
        return nominal * fraction
