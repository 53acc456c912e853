"""The Network Weather Service facade.

One object owning a sensor per host and per link of a testbed.  Experiment
loops call :meth:`advance_to` as simulated time passes; AppLeS subsystems
query :meth:`cpu_forecast`, :meth:`path_bandwidth_forecast` and
:meth:`path_latency` when planning.  Until a sensor has data, queries fall
back to *nominal* values — exactly the degradation mode of a real system
whose monitors have not warmed up.

The clock can also move back: :meth:`rewind_to` returns every sensor to
the newest sample of its bounded forecast history at or before the
instant (see :mod:`repro.nws.sensors`), so a rewound service answers
every query exactly as a fresh one built from the same seeds and
advanced straight there, without measuring any sample twice.  A rewind
behind the retained history (the sensors' ``series.maxlen`` samples)
raises ``ValueError``; the caller then rebuilds from seeds.
"""

from __future__ import annotations

from repro.nws.ensemble import NOMINAL_FORECAST, Forecast
from repro.nws.sensors import CpuSensor, LinkSensor
from repro.obs.trace import get_tracer
from repro.sim.testbeds import Testbed
from repro.sim.topology import Topology
from repro.util.rng import RngStream
from repro.util.validation import check_finite, check_nonnegative

__all__ = ["NetworkWeatherService"]


class NetworkWeatherService:
    """Sensors + forecasts for every resource in a topology.

    Parameters
    ----------
    topology:
        The metacomputer to monitor.
    cpu_period / net_period:
        Sensor sampling periods in simulated seconds.
    noise_std:
        Measurement noise for both sensor kinds.
    seed:
        Seed for measurement-noise streams.
    """

    def __init__(
        self,
        topology: Topology,
        cpu_period: float = 10.0,
        net_period: float = 15.0,
        noise_std: float = 0.02,
        seed: int = 7,
    ) -> None:
        self.topology = topology
        rng = RngStream(seed, "nws")
        self.cpu_sensors: dict[str, CpuSensor] = {
            name: CpuSensor(host, period=cpu_period, noise_std=noise_std,
                            rng=rng.child(f"cpu:{name}"))
            for name, host in topology.hosts.items()
        }
        self.link_sensors: dict[str, LinkSensor] = {
            name: LinkSensor(link, period=net_period, noise_std=noise_std,
                             rng=rng.child(f"net:{name}"))
            for name, link in topology.links.items()
        }
        self.now = 0.0
        # Monotone counter bumped on every advance_to() and rewind_to();
        # snapshot holders (repro.nws.snapshot) use it to detect that their
        # view went stale.
        self.epoch = 0
        # Between clock moves every sensor's state is frozen, so forecast
        # queries are pure; planners issue thousands of them per schedule.
        # Caches are invalidated whenever the clock moves.
        self._cpu_cache: dict[str, Forecast] = {}
        self._path_bw_cache: dict[tuple[str, str, int], float] = {}
        self._latency_cache: dict[tuple[str, str], float] = {}

    @classmethod
    def for_testbed(cls, testbed: Testbed, **kwargs) -> "NetworkWeatherService":
        """Construct a service monitoring every resource of ``testbed``."""
        return cls(testbed.topology, **kwargs)

    # -- time ----------------------------------------------------------------
    def advance_to(self, t: float) -> None:
        """Take all sensor measurements due up to simulated time ``t``.

        After a :meth:`rewind_to`, samples already recorded are crossed
        without measuring; only those beyond the newest one are taken.
        """
        check_finite("t", check_nonnegative("t", t))
        if t < self.now:
            raise ValueError(f"cannot advance backwards: {t} < {self.now}")
        tracer = get_tracer()
        with tracer.span(
            "nws.advance", layer="nws", t=self.now,
            sensors=len(self.cpu_sensors) + len(self.link_sensors),
        ) as span:
            samples = 0
            for sensor in self._sensors():
                samples += sensor.advance_to(t)
            if tracer.enabled:
                span.set_end(t)
                span.attrs["samples"] = samples
                tracer.metrics.counter("nws.advances").inc()
                tracer.metrics.counter("nws.samples").inc(samples)
        self._move(t)

    def rewind_to(self, t: float) -> None:
        """Move the clock back to ``t`` (``0 <= t <= now``) over the history.

        Every query then answers as a fresh service built from the same
        seeds and advanced straight to ``t``.  Raises ``ValueError`` —
        leaving every sensor and the clock untouched — when ``t`` is not
        finite, lies outside ``[0, now]``, or precedes some sensor's
        retained history.
        """
        check_finite("t", check_nonnegative("t", t))
        if t > self.now:
            raise ValueError(f"cannot rewind forwards: {t} > {self.now}")
        sensors = self._sensors()
        # Check every sensor before moving any: a refused rewind is a no-op.
        start = max((s.history_start for s in sensors), default=0.0)
        if t < start:
            raise ValueError(
                f"cannot rewind to {t}: the retained forecast history "
                f"starts at {start}"
            )
        for sensor in sensors:
            sensor.rewind_to(t)
        self._move(t)

    def _sensors(self) -> list[CpuSensor | LinkSensor]:
        return [*self.cpu_sensors.values(), *self.link_sensors.values()]

    def _move(self, t: float) -> None:
        self.now = t
        self.epoch += 1
        self._cpu_cache.clear()
        self._path_bw_cache.clear()

    def warmup(self, duration: float) -> None:
        """Advance sensors by ``duration`` (typically before the first schedule)."""
        self.advance_to(self.now + check_nonnegative("duration", duration))

    # -- queries ------------------------------------------------------------
    def cpu_forecast(self, host: str) -> Forecast:
        """Forecast availability fraction for ``host``.

        Falls back to a nominal (availability 1.0, infinite-uncertainty-free)
        forecast if the sensor has no data yet.
        """
        tracer = get_tracer()
        cached = self._cpu_cache.get(host)
        if cached is not None:
            if tracer.enabled:
                tracer.metrics.counter("nws.cpu_cache_hits").inc()
            return cached
        if tracer.enabled:
            tracer.metrics.counter("nws.cpu_cache_misses").inc()
        sensor = self._cpu(host)
        if not sensor.ready:
            result = NOMINAL_FORECAST
        else:
            result = sensor.forecast()
        self._cpu_cache[host] = result
        return result

    def effective_speed_forecast(self, host: str) -> float:
        """Predicted deliverable MFLOP/s of ``host`` (memory effects excluded)."""
        h = self.topology.host(host)
        return h.speed_mflops * max(0.0, min(1.0, self.cpu_forecast(host).value))

    def link_forecast(self, link: str) -> Forecast:
        """Forecast deliverable-bandwidth fraction for one link."""
        try:
            sensor = self.link_sensors[link]
        except KeyError:
            raise KeyError(f"no sensor for link {link!r}") from None
        if not sensor.ready:
            return NOMINAL_FORECAST
        return sensor.forecast()

    def path_bandwidth_forecast(self, a: str, b: str, flows: int = 1) -> float:
        """Predicted bottleneck bytes/s between hosts ``a`` and ``b``."""
        tracer = get_tracer()
        cached = self._path_bw_cache.get((a, b, flows))
        if cached is not None:
            if tracer.enabled:
                tracer.metrics.counter("nws.bandwidth_cache_hits").inc()
            return cached
        if tracer.enabled:
            tracer.metrics.counter("nws.bandwidth_cache_misses").inc()
        links = self.topology.route(a, b)
        if not links:
            result = float("inf")
        else:
            result = min(
                [self.link_bandwidth_forecast(link.name, flows) for link in links]
            )
        self._path_bw_cache[(a, b, flows)] = result
        return result

    def link_bandwidth_forecast(self, link: str, flows: int = 1) -> float:
        """Predicted bytes/s of one link for one of ``flows`` flows: its
        sensor's forecast, or the nominal bandwidth (full availability)
        before the sensor's first sample."""
        sensor = self.link_sensors[link]
        if sensor.ready:
            return sensor.forecast_bandwidth(flows)
        return sensor.nominal_bandwidth(flows)

    def path_latency(self, a: str, b: str) -> float:
        """Route latency (static; the 1996 NWS forecast latency too, but the
        testbed experiments here are bandwidth-dominated)."""
        cached = self._latency_cache.get((a, b))
        if cached is not None:
            return cached
        result = self.topology.path_latency(a, b)
        self._latency_cache[(a, b)] = result
        return result

    def transfer_time_forecast(self, a: str, b: str, nbytes: float, flows: int = 1) -> float:
        """Predicted seconds to move ``nbytes`` from ``a`` to ``b``."""
        check_nonnegative("nbytes", nbytes)
        if a == b:
            return 0.0
        bw = self.path_bandwidth_forecast(a, b, flows)
        if bw <= 0.0:
            return float("inf")
        return self.path_latency(a, b) + nbytes / bw

    def _cpu(self, host: str) -> CpuSensor:
        try:
            return self.cpu_sensors[host]
        except KeyError:
            raise KeyError(f"no sensor for host {host!r}") from None
