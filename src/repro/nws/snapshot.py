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
latency and one bandwidth table over the captured machines (widened on
demand for any other pool machine), taken once, then one read-only
transfer-time table per name order and message size.  Other values that
are pure functions of the pool state, such as the strip planner's
locality order, are memoised by key (:meth:`ForecastSnapshot.derived`),
and so are the machines' static descriptors
(:meth:`ForecastSnapshot.machine_info`).

Every value is obtained by calling the pool's own prediction interface,
or by repeating its arithmetic elementwise, so a snapshot is
*bit-identical* to issuing the underlying queries directly — it is a
cache, never an approximation.  That property is what lets the
fast scheduling path (see :mod:`repro.core.coordinator`) promise decisions
identical to the reference implementation.

Snapshots do not follow time: if the NWS advances after the snapshot was
taken, :attr:`ForecastSnapshot.stale` turns true and the holder should
take a new one.  The Coordinator takes one snapshot per ``schedule()``
call, which is the intended lifetime.
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
        "_index",
        "_links",
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
        self._bandwidth: dict[tuple[str, str, int], float] = {}
        self._transfer: dict[tuple[str, str, float, int], float] = {}
        # Pair tables (see transfer_matrix): latency and bandwidth over
        # ``machines`` (and any name asked for later), then one read-only
        # table per (name order, nbytes).
        self._index = {n: i for i, n in enumerate(self.machines)}
        self._links: tuple[np.ndarray, np.ndarray] | None = None
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
        ``machines`` asks for (its link tables widen for any pool machine
        it did not capture)."""
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

    def predicted_bandwidth(self, a: str, b: str, flows: int = 1) -> float:
        """Memoised :meth:`ResourcePool.predicted_bandwidth`."""
        key = (a, b, flows)
        value = self._bandwidth.get(key)
        if value is None:
            value = self.pool.predicted_bandwidth(a, b, flows)
            self._bandwidth[key] = value
        return value

    def predicted_transfer_time(
        self, a: str, b: str, nbytes: float, flows: int = 1
    ) -> float:
        """Memoised :meth:`ResourcePool.predicted_transfer_time`."""
        key = (a, b, nbytes, flows)
        value = self._transfer.get(key)
        if value is None:
            value = self.pool.predicted_transfer_time(a, b, nbytes, flows)
            self._transfer[key] = value
        return value

    def transfer_matrix(self, names: Sequence[str], nbytes: float) -> np.ndarray:
        """Read-only ``(n, n)`` table of :meth:`predicted_transfer_time`
        over ``names``.

        Entry ``[i, j]`` is ``self.predicted_transfer_time(names[i],
        names[j], nbytes)`` bit for bit: ``0.0`` on the diagonal and for
        ``nbytes <= 0``, ``inf`` across a dead link (bandwidth ``<= 0``),
        otherwise path latency plus ``nbytes`` over the bandwidth — the
        same two IEEE operations, elementwise.  One latency and one
        bandwidth table over :attr:`machines` are taken on first use and
        every ``(names, nbytes)`` table is gathered from them and
        memoised, so a repeated call returns the same array and every
        pair is queried once per snapshot, whatever the name order.  Like
        the pairwise queries, it serves any pool machine: a name the
        snapshot did not capture widens the link tables.
        """
        key = (tuple(names), nbytes)
        table = self._matrices.get(key)
        if table is None:
            n = len(key[0])
            if nbytes <= 0:
                table = np.zeros((n, n))
            else:
                latency, bandwidth = self._link_tables(key[0])
                idx = [self._index[name] for name in key[0]]
                sub = np.ix_(idx, idx)
                bw = bandwidth[sub]
                dead = bw <= 0.0
                same = np.equal.outer(idx, idx)
                table = latency[sub] + nbytes / np.where(dead | same, 1.0, bw)
                table[dead] = np.inf
                table[same] = 0.0
            table.flags.writeable = False
            self._matrices[key] = table
        return table

    def derived(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """``build()``, computed on the first call with ``key`` and memoised.

        For values that are pure functions of the pool state this snapshot
        describes (the strip planner's locality order, say): like the pair
        tables, they are then shared by every decision scope and every
        configuration that reads the snapshot.  Callers namespace their
        keys.
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

    def _link_tables(self, names: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """Path latency and :meth:`predicted_bandwidth` between every
        indexed pair.

        The index starts as :attr:`machines`; ``names`` outside it are
        appended and the tables rebuilt over the wider index.
        """
        missing = [name for name in dict.fromkeys(names) if name not in self._index]
        if self._links is None or missing:
            everyone = [*self._index, *missing]
            n = len(everyone)
            latency = np.zeros((n, n))
            bandwidth = np.full((n, n), np.inf)
            path_latency = self.pool.topology.path_latency
            for i, a in enumerate(everyone):
                for j, b in enumerate(everyone):
                    if i != j:
                        bw = bandwidth[i, j] = self.predicted_bandwidth(a, b)
                        if bw > 0.0:
                            latency[i, j] = path_latency(a, b)
            self._index = {name: i for i, name in enumerate(everyone)}
            self._links = (latency, bandwidth)
        return self._links

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
