"""Forecast snapshots: one immutable NWS query per scheduling instant.

The Coordinator blueprint evaluates hundreds to thousands of candidate
resource sets per decision, and every candidate evaluation re-asks the
same questions — what is machine *m*'s deliverable speed, how long does a
border exchange between *a* and *b* take?  Between ``advance_to`` calls
the Network Weather Service's answers are pure, so the decision loop can
take **one** snapshot of every machine forecast up front and share it
across all candidate evaluations instead of re-deriving per candidate.

:class:`ForecastSnapshot` is exactly that: a frozen, memoising view over a
:class:`~repro.core.resources.ResourcePool` at a single simulated instant.
Machine quantities (speed, availability, forecast error) are captured
eagerly; pairwise quantities (bandwidth, transfer time) and derived
quantities (conservative speeds at a given sigma) are memoised on first
use.  The snapshot answers the pool's read interface under the pool's
own names (``predicted_speed``, ``predicted_transfer_time``,
``machine_names``, ``topology``, ``snapshot`` ...), so planners and
selectors read forecasts through
:attr:`~repro.core.infopool.InformationPool.forecasts` — the decision's
snapshot inside a decision scope, the pool outside one — without
knowing which of the two they hold.  Array consumers — the Resource
Selector's candidate order, the strip planner's batch inputs — read
whole pair tables (:meth:`ForecastSnapshot.transfer_matrix`): one
vector of per-link bandwidth forecasts, taken once, min-reduced through
the topology's cached route table, then one read-only transfer-time
table per name order and message size, for any pool machines.  The
snapshot is the one home of every other value derived from the pool
state (:meth:`ForecastSnapshot.derived`): the locality order, feasible
machines, candidate sets, strip batch inputs, plan continuations, the
service's answers and the machines' descriptors live exactly as long as
it does, and none refers back to it, so reference counting frees it.

Every value is obtained by calling the pool's own prediction interface,
or by repeating its arithmetic elementwise, so a snapshot is
*bit-identical* to issuing the underlying queries directly — it is a
cache, never an approximation.  That property is what lets the
fast scheduling path (see :mod:`repro.core.coordinator`) promise decisions
identical to the reference implementation.

Snapshots do not follow time: if the NWS advances after the snapshot was
taken, :attr:`ForecastSnapshot.stale` turns true and the holder should
take a new one.  The Coordinator takes one snapshot per ``schedule()``
call; the always-on scheduling service keeps one while it is fresh.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Hashable, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports nws)
    from repro.core.resources import MachineInfo, ResourcePool

__all__ = ["ForecastSnapshot"]


class ForecastSnapshot:
    """A frozen view of all machine/link forecasts at one instant.

    Parameters
    ----------
    pool:
        The resource pool to snapshot.  Works with or without an attached
        NWS (without one, the captured values are the nominal fallbacks,
        mirroring the pool's own behaviour).
    machines:
        Machine names to capture eagerly; defaults to every machine in the
        pool.
    """

    __slots__ = (
        "pool",
        "taken_at",
        "machines",
        "speed",
        "availability",
        "availability_error",
        "_epoch",
        "_conservative",
        "_bandwidth",
        "_transfer",
        "_link_bandwidths",
        "_matrices",
        "_derived",
    )

    def __init__(self, pool: "ResourcePool", machines: Sequence[str] | None = None) -> None:
        self.pool = pool
        names = list(machines) if machines is not None else pool.machine_names()
        self.machines = tuple(names)
        nws = pool.nws
        self.taken_at = float(nws.now) if nws is not None else 0.0
        self._epoch = nws.epoch if nws is not None else 0
        # Eager capture: one pass over every machine forecast.
        self.speed = {n: pool.predicted_speed(n) for n in names}
        self.availability = {n: pool.predicted_availability(n) for n in names}
        self.availability_error = {
            n: pool.predicted_availability_error(n) for n in names
        }
        # Lazy memos for derived and pairwise quantities.
        self._conservative: dict[tuple[str, float], float] = {}
        self._bandwidth: dict[tuple[str, str], float] = {}
        self._transfer: dict[tuple[str, str, float], float] = {}
        # Pair tables (see transfer_matrix): one per-link bandwidth vector,
        # then one read-only table per (name order, nbytes).
        self._link_bandwidths: np.ndarray | None = None
        self._matrices: dict[tuple[tuple[str, ...], float], np.ndarray] = {}
        self._derived: dict[Hashable, Any] = {}

    # -- freshness ------------------------------------------------------------
    @property
    def stale(self) -> bool:
        """True when the NWS has advanced past the snapshot instant."""
        nws = self.pool.nws
        if nws is None:
            return False
        return nws.epoch != self._epoch or nws.now != self.taken_at

    # -- the pool's read interface ---------------------------------------------
    @property
    def topology(self):
        """The pool's topology (static: routes, latencies, hosts)."""
        return self.pool.topology

    def machine_names(self) -> list[str]:
        """:meth:`ResourcePool.machine_names`."""
        return self.pool.machine_names()

    def snapshot(self, machines: Sequence[str] | None = None) -> "ForecastSnapshot":
        """This snapshot: a frozen view is its own snapshot, whatever
        ``machines`` asks for (its pair tables serve any pool machine)."""
        return self

    # -- machine quantities: the eager captures ---------------------------------
    # A machine the snapshot did not capture gets the pool's own answer, as
    # the pairwise memos serve any pool machine.
    def predicted_speed(self, name: str) -> float:
        """Captured :meth:`ResourcePool.predicted_speed`."""
        value = self.speed.get(name)
        return self.pool.predicted_speed(name) if value is None else value

    def predicted_availability(self, name: str) -> float:
        """Captured :meth:`ResourcePool.predicted_availability`."""
        value = self.availability.get(name)
        return self.pool.predicted_availability(name) if value is None else value

    def predicted_availability_error(self, name: str) -> float:
        """Captured :meth:`ResourcePool.predicted_availability_error`."""
        value = self.availability_error.get(name)
        return self.pool.predicted_availability_error(name) if value is None else value

    # -- memoised derived and pairwise quantities ------------------------------
    def predicted_speed_conservative(self, name: str, sigmas: float = 1.0) -> float:
        """Memoised :meth:`ResourcePool.predicted_speed_conservative`."""
        key = (name, sigmas)
        value = self._conservative.get(key)
        if value is None:
            value = self.pool.predicted_speed_conservative(name, sigmas)
            self._conservative[key] = value
        return value

    def predicted_bandwidth(self, a: str, b: str) -> float:
        """Memoised :meth:`ResourcePool.predicted_bandwidth`."""
        key = (a, b)
        value = self._bandwidth.get(key)
        if value is None:
            value = self.pool.predicted_bandwidth(a, b)
            self._bandwidth[key] = value
        return value

    def predicted_transfer_time(self, a: str, b: str, nbytes: float) -> float:
        """Memoised :meth:`ResourcePool.predicted_transfer_time`."""
        key = (a, b, nbytes)
        value = self._transfer.get(key)
        if value is None:
            value = self.pool.predicted_transfer_time(a, b, nbytes)
            self._transfer[key] = value
        return value

    def transfer_matrix(self, names: Sequence[str], nbytes: float) -> np.ndarray:
        """Read-only ``(n, n)`` table of :meth:`predicted_transfer_time`
        over ``names``.

        Entry ``[i, j]`` is ``self.predicted_transfer_time(names[i],
        names[j], nbytes)`` bit for bit: ``0.0`` on the diagonal and for
        ``nbytes <= 0``, ``inf`` across a dead link (bandwidth ``<= 0``),
        otherwise path latency plus ``nbytes`` over the bandwidth — the
        same two IEEE operations, elementwise.  Each path bandwidth is the
        minimum, which is exact, of the per-link forecasts
        (:meth:`~repro.core.resources.ResourcePool.predicted_link_bandwidth`
        of every link, taken once per snapshot) along the route, gathered
        through the topology's route table
        (:meth:`~repro.sim.topology.Topology.route_table`, static and
        cached per name order), which also holds the latencies.  Every
        ``(names, nbytes)`` table is memoised, so a repeated call returns
        the same array.  Like the pairwise queries, it serves any pool
        machine.
        """
        key = (tuple(names), nbytes)
        table = self._matrices.get(key)
        if table is None:
            n = len(key[0])
            if nbytes <= 0:
                table = np.zeros((n, n))
            else:
                per_link = self._link_bandwidths
                if per_link is None:
                    # Every link in topology order, then inf for the route
                    # table's padding: no link, no bottleneck.
                    bandwidth = self.pool.predicted_link_bandwidth
                    links = self.pool.topology.links.values()
                    per_link = self._link_bandwidths = np.array(
                        [*map(bandwidth, links), np.inf]
                    )
                routes, latency = self.pool.topology.route_table(key[0])
                bw = per_link[routes].min(axis=2, initial=np.inf)
                dead = bw <= 0.0
                # An empty route, all padding: a machine and itself.
                local = (routes == len(per_link) - 1).all(axis=2)
                table = latency + nbytes / np.where(dead | local, 1.0, bw)
                table[dead] = np.inf
                table[local] = 0.0
            table.flags.writeable = False
            self._matrices[key] = table
        return table

    def derived(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """``build()``, computed on the first call with ``key`` and memoised.

        For values that are pure functions of the pool state this snapshot
        describes (the strip planner's locality order, say): like the pair
        tables, they are then shared by every decision scope and every
        configuration that reads the snapshot.  Callers namespace their
        keys, name everything else ``build`` reads by value, and memoise
        nothing that holds the snapshot.
        """
        try:
            return self._derived[key]
        except KeyError:
            value = self._derived[key] = build()
            return value

    def machine_info(self, name: str) -> "MachineInfo":
        """Memoised :meth:`ResourcePool.machine_info`: descriptors are
        static, so each is built once per snapshot, into one table shared
        by every decision scope and configuration that reads it."""
        table = self.derived("machine-info", dict)
        info = table.get(name)
        if info is None:
            info = table[name] = self.pool.machine_info(name)
        return info

    def export_forecasts(self) -> dict[str, dict[str, float]]:
        """The eagerly-captured machine forecasts as plain serialisable data.

        ``{machine: {"availability": ..., "availability_error": ...,
        "speed": ...}}`` — exactly the floats the pool's prediction
        interface returned at the snapshot instant.  The scheduling arena
        freezes these into instance files so a standalone verifier can
        re-derive conservative speeds without a live NWS; round-tripping
        through JSON preserves them bit-for-bit (``repr``-based shortest
        round-trip).
        """
        return {
            name: {
                "availability": self.availability[name],
                "availability_error": self.availability_error[name],
                "speed": self.speed[name],
            }
            for name in self.machines
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ForecastSnapshot({len(self.machines)} machines at "
            f"t={self.taken_at}{', stale' if self.stale else ''})"
        )
