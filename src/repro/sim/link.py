"""Network links and shared segments.

The Figure 2 testbed mixes three kinds of interconnect:

- shared 10 Mbit/s Ethernet segments inside the PCL (Suns on one segment,
  RS6000s on another),
- a non-dedicated 100 Mbit/s FDDI ring at SDSC,
- a routed gateway between the PCL and SDSC.

A :class:`Link` is a point-to-point pipe; a :class:`SharedSegment` is a
broadcast medium whose bandwidth is divided among concurrent flows.  Both
carry an availability process modelling competing traffic, mirroring how
the NWS measured *deliverable* bandwidth rather than nominal capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sim.load import ConstantLoad, LoadProcess
from repro.util.validation import check_nonnegative, check_positive

__all__ = ["Link", "SharedSegment", "MBIT", "MBYTE"]

#: Bytes per megabit — link speeds are quoted in Mbit/s, transfers in bytes.
MBIT = 1_000_000 / 8
#: Bytes per megabyte (decimal, matching bandwidth conventions).
MBYTE = 1_000_000


@dataclass
class Link:
    """A point-to-point network link.

    Parameters
    ----------
    name:
        Unique identifier.
    bandwidth_mbit:
        Nominal bandwidth in Mbit/s.
    latency_s:
        One-way message latency in seconds.
    load:
        Availability process for competing traffic (1.0 = dedicated).
    """

    name: str
    bandwidth_mbit: float
    latency_s: float = 0.001
    load: LoadProcess = field(default_factory=ConstantLoad)

    def __post_init__(self) -> None:
        check_positive("bandwidth_mbit", self.bandwidth_mbit)
        check_nonnegative("latency_s", self.latency_s)
        if not self.name:
            raise ValueError("link name must be non-empty")
        # Grown per-flow bandwidth-table exports (valid only for
        # epoch-cached loads, which are append-only).
        self._bw_tables: dict[int, np.ndarray] = {}

    def deliverable_bandwidth(self, t: float, flows: int = 1) -> float:
        """Deliverable bytes/s at time ``t`` for one of ``flows`` concurrent flows."""
        return self.bandwidth_at(self.load.availability(t), flows)

    def bandwidth_at(self, availability: float, flows: int = 1) -> float:
        """Bytes/s for one of ``flows`` concurrent flows while the link
        delivers ``availability`` of its nominal capacity."""
        if flows < 1:
            raise ValueError(f"flows must be >= 1, got {flows}")
        return self.bandwidth_mbit * MBIT * availability / flows

    def transfer_time(self, nbytes: float, t: float = 0.0, flows: int = 1) -> float:
        """Seconds to move ``nbytes`` across this link at time ``t``.

        Latency is charged once per transfer (the applications in this
        reproduction exchange few large messages per step, so per-packet
        latency is folded into the bandwidth term).
        """
        nbytes = check_nonnegative("nbytes", nbytes)
        bw = self.deliverable_bandwidth(t, flows)
        if bw <= 0.0:
            return float("inf")
        return self.latency_s + nbytes / bw

    def bandwidth_table(self, n: int, flows: int = 1) -> np.ndarray:
        """Per-epoch deliverable bytes/s for epochs ``[0, n)``.

        Array-export hook for the vectorised executor: element ``k`` is
        exactly :meth:`deliverable_bandwidth` at any instant inside epoch
        ``k`` — the scalar expression applied elementwise in the same
        operation order, so tables are bit-identical to live queries.
        Only valid for :func:`~repro.sim.load.epoch_cached` loads.

        Returns a **read-only view** of a per-flow export buffer grown
        geometrically: repeated deepening pays the elementwise product
        once per doubling.  The longer table is the same elementwise
        expression, hence bit-identical on its prefix.
        """
        if flows < 1:
            raise ValueError(f"flows must be >= 1, got {flows}")
        cached = self._bw_tables.get(flows)
        if cached is None or cached.shape[0] < n:
            n_new = max(n, 2 * cached.shape[0]) if cached is not None else n
            table = (
                self.bandwidth_mbit * MBIT * self.load.availability_array(n_new) / flows
            )
            table.setflags(write=False)
            cached = table
            self._bw_tables[flows] = cached
        return cached[:n]

    @property
    def is_shared(self) -> bool:
        """Point-to-point links are not broadcast media."""
        return False


@dataclass
class SharedSegment(Link):
    """A broadcast medium (Ethernet segment, FDDI ring).

    All attached hosts contend for the same wire, so the per-flow bandwidth
    shrinks with the number of simultaneous transfers *on the segment*, not
    just on one path.  ``mac_efficiency`` models protocol overhead (CSMA/CD
    back-off on Ethernet ≈ 0.7–0.9 of nominal; token-passing FDDI ≈ 0.9+).
    """

    mac_efficiency: float = 0.85

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (0.0 < self.mac_efficiency <= 1.0):
            raise ValueError(
                f"mac_efficiency must be in (0, 1], got {self.mac_efficiency}"
            )

    def bandwidth_at(self, availability: float, flows: int = 1) -> float:
        """Per-flow bytes/s including MAC overhead."""
        return super().bandwidth_at(availability, flows) * self.mac_efficiency

    def bandwidth_table(self, n: int, flows: int = 1) -> np.ndarray:
        """Per-epoch per-flow deliverable bytes/s including MAC overhead."""
        return super().bandwidth_table(n, flows) * self.mac_efficiency

    @property
    def is_shared(self) -> bool:
        return True
