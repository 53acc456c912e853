"""Resource descriptors and the resource pool.

The AppLeS subsystems never touch simulator internals directly; they see a
:class:`ResourcePool` — the set of machines the user could possibly use,
with static descriptions (:class:`MachineInfo`) and dynamic queries routed
through the Network Weather Service when one is attached.  This mirrors the
paper's point that "the resources that will be required by an application
define its *system*" (§3.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.sim.link import Link
from repro.sim.topology import Topology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (nws imports core)
    from repro.nws.service import NetworkWeatherService

__all__ = ["MachineInfo", "ResourcePool"]


@dataclass(frozen=True)
class MachineInfo:
    """Static description of one candidate machine."""

    name: str
    speed_mflops: float
    memory_available_mb: float
    site: str
    arch: str
    dedicated: bool
    capabilities: frozenset[str]


class ResourcePool:
    """The machines and network available to one application.

    Parameters
    ----------
    topology:
        The metacomputer (simulated here; a deployment would wrap Globus or
        Legion resource queries behind the same interface).
    nws:
        Optional Network Weather Service.  Without it, dynamic queries fall
        back to nominal values — the information regime of a purely static
        scheduler, which the ablation benchmarks exploit.
    """

    def __init__(self, topology: Topology, nws: NetworkWeatherService | None = None) -> None:
        self.topology = topology
        self.nws = nws

    # -- static information ---------------------------------------------------
    def machine_names(self) -> list[str]:
        """All machine names, in registration order."""
        return list(self.topology.hosts)

    def machine_info(self, name: str) -> MachineInfo:
        """Static descriptor for one machine."""
        host = self.topology.host(name)
        return MachineInfo(
            name=host.name,
            speed_mflops=host.speed_mflops,
            memory_available_mb=host.memory.available_mb,
            site=host.site,
            arch=host.arch,
            dedicated=host.dedicated,
            capabilities=host.capabilities,
        )

    def machines(self) -> list[MachineInfo]:
        """Descriptors for every machine."""
        return [self.machine_info(n) for n in self.machine_names()]

    # -- dynamic information --------------------------------------------------
    def predicted_speed(self, name: str) -> float:
        """Forecast deliverable MFLOP/s (nominal when no NWS is attached)."""
        host = self.topology.host(name)
        if self.nws is None:
            return host.speed_mflops
        return self.nws.effective_speed_forecast(name)

    def predicted_availability(self, name: str) -> float:
        """Forecast availability fraction (1.0 when no NWS is attached)."""
        self.topology.host(name)  # validate
        if self.nws is None:
            return 1.0
        return max(0.0, min(1.0, self.nws.cpu_forecast(name).value))

    def predicted_availability_error(self, name: str) -> float:
        """RMS error estimate of the availability forecast (0.0 without NWS).

        This is the NWS ensemble's own running accuracy for the resource —
        the "short-term, accurate predictions" qualifier of §3.2 made
        quantitative.  Schedulers use it to discount volatile machines.
        """
        self.topology.host(name)  # validate
        if self.nws is None:
            return 0.0
        return max(0.0, self.nws.cpu_forecast(name).error)

    def predicted_speed_conservative(self, name: str, sigmas: float = 1.0) -> float:
        """Deliverable MFLOP/s at a pessimistic availability quantile.

        ``forecast - sigmas * error``, floored at a small positive fraction
        so a usable machine never vanishes outright.  A barrier-synchronised
        code pays for every dip of every member, so allocating at the mean
        forecast systematically under-provisions; allocating at a
        pessimistic quantile makes the balanced step time robust.
        """
        if sigmas < 0:
            raise ValueError(f"sigmas must be >= 0, got {sigmas}")
        host = self.topology.host(name)
        avail = self.predicted_availability(name)
        err = self.predicted_availability_error(name)
        pessimistic = max(avail - sigmas * err, 0.05 * avail)
        return host.speed_mflops * pessimistic

    def predicted_bandwidth(self, a: str, b: str) -> float:
        """Forecast bottleneck bytes/s between two machines: the minimum
        of :meth:`predicted_link_bandwidth` along the route.

        Nominal path bandwidth (availability 1) when no NWS is attached.
        """
        if a == b:
            return float("inf")
        if self.nws is not None:
            return self.nws.path_bandwidth_forecast(a, b)
        links = self.topology.route(a, b)
        if not links:
            return float("inf")
        return min([self.predicted_link_bandwidth(link) for link in links])

    def predicted_link_bandwidth(self, link: Link) -> float:
        """Forecast bytes/s of one link for one flow.

        The NWS's link forecast, or without one the link's bandwidth
        probed at t = 0 and scaled back to full availability.  Pair tables
        (:meth:`~repro.nws.snapshot.ForecastSnapshot.transfer_matrix`)
        take the minimum of these along each route, so a subclass that
        predicts bandwidth differently overrides this method.
        """
        if self.nws is not None:
            return self.nws.link_bandwidth_forecast(link.name)
        avail = max(link.load.availability(0.0), 1e-12)
        return link.deliverable_bandwidth(0.0) / avail

    def predicted_transfer_time(self, a: str, b: str, nbytes: float) -> float:
        """Forecast seconds to move ``nbytes`` between two machines."""
        if a == b or nbytes <= 0:
            return 0.0
        bw = self.predicted_bandwidth(a, b)
        if bw <= 0.0:
            return float("inf")
        return self.topology.path_latency(a, b) + nbytes / bw

    def snapshot(self, machines: list[str] | None = None):
        """A frozen, memoising view of every forecast at this instant.

        Returns a :class:`repro.nws.snapshot.ForecastSnapshot`: bit-identical
        to querying this pool directly, but one capture shared across the
        thousands of candidate evaluations of a scheduling decision.
        """
        from repro.nws.snapshot import ForecastSnapshot  # local: nws imports core

        return ForecastSnapshot(self, machines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        nws = "with NWS" if self.nws is not None else "no NWS"
        return f"ResourcePool({len(self.machine_names())} machines, {nws})"
