"""Sensors: periodic measurement of simulated resources.

The real NWS ran lightweight probes — a CPU sensor reading load averages
and an active network probe timing small transfers.  Here sensors read the
simulator's ground truth and add measurement noise, then feed an
:class:`~repro.nws.ensemble.AdaptiveEnsemble` per metric.

Sensors are *pull-driven*: ``advance_to(t)`` takes all measurements due up
to time ``t``.  This keeps the NWS usable both from plain experiment loops
and from :class:`~repro.sim.engine.Simulator` processes.
"""

from __future__ import annotations

from repro.nws.ensemble import AdaptiveEnsemble, Forecast
from repro.nws.series import TimeSeries
from repro.sim.host import Host
from repro.sim.link import Link
from repro.util.rng import RngStream
from repro.util.validation import check_nonnegative, check_positive

__all__ = ["CpuSensor", "LinkSensor"]


class _PeriodicSensor:
    """Shared machinery: fixed-period sampling with clock state."""

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

    def _measure(self, t: float) -> float:
        raise NotImplementedError

    def advance_to(self, t: float) -> int:
        """Take every measurement due in ``(last, t]``; returns how many."""
        taken = 0
        while self._next_sample <= t:
            ts = self._next_sample
            value = self._measure(ts)
            self.series.append(ts, value)
            self.ensemble.update(value)
            self._next_sample += self.period
            taken += 1
        return taken

    def forecast(self) -> Forecast:
        """Current one-step-ahead forecast for this metric."""
        return self.ensemble.forecast()

    @property
    def ready(self) -> bool:
        """True once at least one measurement has been taken."""
        return len(self.series) > 0


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
