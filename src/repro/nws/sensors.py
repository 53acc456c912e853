"""Sensors: periodic measurement of simulated resources.

The real NWS ran lightweight probes — a CPU sensor reading load averages
and an active network probe timing small transfers.  Here sensors read the
simulator's ground truth and add measurement noise, then feed an
:class:`~repro.nws.ensemble.AdaptiveEnsemble` per metric.

Sensors are *pull-driven*: ``advance_to(t)`` takes all measurements due up
to time ``t``.  This keeps the NWS usable both from plain experiment loops
and from :class:`~repro.sim.engine.Simulator` processes.  The due samples
are one block: their instants come from the same running sum of periods,
the ground truth from one :meth:`~repro.sim.load.LoadProcess.availability_many`
read, the noise from one draw of as many normals, and the ensemble folds
them in one :meth:`~repro.nws.ensemble.AdaptiveEnsemble.update_many` call.
Every sample's reading, forecast and error estimate is bit-identical to
measuring and folding the samples one at a time, so how the clock's moves
split the samples into blocks never changes an answer.

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
from repro.sim.load import LoadProcess
from repro.util.rng import RngStream
from repro.util.validation import check_finite, check_nonnegative, check_positive

__all__ = ["CpuSensor", "LinkSensor"]


class _PeriodicSensor:
    """Shared machinery: fixed-period sampling with clock state.

    ``series`` and ``ensemble`` hold the measurements and forecaster state
    at the sampling frontier (the newest sample ever taken), not at the
    clock: after :meth:`rewind_to` they still describe the frontier, and
    only :meth:`forecast` and :attr:`ready` follow the clock.
    """

    def __init__(self, name: str, period: float, noise_std: float, rng: RngStream) -> None:
        self.name = name
        self.period = check_finite("period", check_positive("period", period))
        self.noise_std = check_finite(
            "noise_std", check_nonnegative("noise_std", noise_std)
        )
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

    def _load(self) -> LoadProcess:
        """The availability process of the measured resource."""
        raise NotImplementedError

    def _measure(self, due: list[float]) -> list[float]:
        """Noisy readings of the availability at each instant of ``due``,
        clipped to [0, 1] like real availability fractions.

        The noise is one draw of ``len(due)`` normals: the values, in
        order, that ``len(due)`` scalar draws would give.
        """
        truth = self._load().availability_many(due)
        noise = self.rng.generator.normal(0.0, self.noise_std, len(due)).tolist()
        return [min(1.0, max(0.0, a + e)) for a, e in zip(truth, noise)]

    def advance_to(self, t: float) -> int:
        """Move the clock forward to ``t``, measuring every sample due in
        ``(frontier, t]``; returns how many were measured.

        The due samples are measured in one pass and folded into the
        ensemble as one block.  Recorded samples between the clock and the
        frontier are crossed without measuring.  A ``t`` behind the clock
        leaves it in place.
        """
        times = self._times
        at = bisect_right(times, t, self._at + 1) - 1
        if at > self._at:
            self._at = at
            self._current = None
        if at < len(times) - 1:
            return 0
        # The due instants as a running sum of periods (not k * period), so
        # every split of the samples into blocks gives the same instants.
        due = []
        ts, period = self._next_sample, self.period
        while ts <= t:
            due.append(ts)
            ts += period
        if not due:
            return 0
        values = self._measure(due)
        best_values, best_errors, best_indices = self.ensemble.update_many(values)
        self.series.extend(due, values)
        times.extend(due)
        self._values.extend(best_values)
        self._errors.extend(best_errors)
        self._methods.extend(best_indices)
        self._next_sample = ts
        if len(times) >= 2 * self._retain:
            self._trim()
        self._at = len(times) - 1
        self._current = None
        return len(due)

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

    def _load(self) -> LoadProcess:
        return self.host.load


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

    def _load(self) -> LoadProcess:
        return self.link.load

    def forecast_bandwidth(self, flows: int = 1) -> float:
        """Predicted deliverable bytes/s for one of ``flows`` concurrent flows."""
        fraction = min(1.0, max(0.0, self.forecast().value))
        return self.nominal_bandwidth(flows) * fraction

    def nominal_bandwidth(self, flows: int = 1) -> float:
        """The link's bytes/s for one of ``flows`` concurrent flows at full
        availability: what a forecast fraction scales, and the answer
        before the first sample."""
        nominal = self._nominal_cache.get(flows)
        if nominal is None:
            link = self.link
            probe = link.load.availability(0.0)
            if probe > 0.0:
                # The link's own composition of nominal bandwidth, MAC
                # efficiency and flow sharing, probed at t = 0 and scaled
                # back to full availability (recorded answers pin this
                # form, which can sit an ulp off the direct one).
                nominal = link.deliverable_bandwidth(0.0, flows) / probe
            else:
                # A link idle at t = 0 carries no scale to probe.
                nominal = link.bandwidth_at(1.0, flows)
            self._nominal_cache[flows] = nominal
        return nominal
