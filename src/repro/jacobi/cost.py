"""The paper's Jacobi2D cost model (§5):

    ``T_i = A_i * P_i + C_i``

where ``T_i`` is the time for machine *i* to compute its region, ``A_i``
the area of the region, ``P_i`` the time to compute a single point
locally, and ``C_i`` the time to send and receive its strip borders.

:class:`StripCostModel` evaluates the model from whatever information
source the scheduler has: NWS forecasts (the AppLeS agent), nominal
capability (the compile-time baselines), or instantaneous simulator truth
(oracle ablations).  Keeping one implementation parameterised by the
information source makes the ablation benchmarks an apples-to-apples
comparison of *information*, not of code paths.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.resources import ResourcePool
from repro.jacobi.grid import JacobiProblem
from repro.jacobi.partition import StripPartition

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.nws.snapshot import ForecastSnapshot

__all__ = [
    "strip_comm_seconds",
    "StripCostModel",
    "batched_neighbor_comm_costs",
]


def strip_comm_seconds(
    pool: ResourcePool,
    order: Sequence[str],
    problem: JacobiProblem,
) -> list[float]:
    """Predicted border-exchange seconds ``C_i`` for machines in strip order.

    Machine *i* exchanges a full border row each way with each neighbour in
    the strip ordering (1 border at the ends, 2 inside).  Bandwidths come
    from the pool's prediction interface, so the same function serves both
    NWS-informed and nominal planners.
    """
    order = list(order)
    exchange = problem.border_exchange_bytes()
    costs = []
    for idx, machine in enumerate(order):
        c = 0.0
        for nbr_idx in (idx - 1, idx + 1):
            if 0 <= nbr_idx < len(order):
                c += pool.predicted_transfer_time(machine, order[nbr_idx], exchange)
        costs.append(c)
    return costs


class StripCostModel:
    """Evaluate ``T_i = A_i * P_i + C_i`` for strip partitions.

    Parameters
    ----------
    pool:
        Information source.  With an NWS attached, ``P_i`` and ``C_i`` use
        forecasts; without one, they use nominal capability.
    problem:
        The Jacobi2D instance.
    account_memory:
        When True, a machine whose area spills its real memory has its
        ``P_i`` inflated by the host paging model — used to *predict* the
        cost of memory-oblivious schedules.
    snapshot:
        Optional :class:`~repro.nws.snapshot.ForecastSnapshot` taken from
        the same pool.  When set, forecast queries (conservative speeds,
        transfer times) go through the snapshot's memo instead of the pool
        — bit-identical values, shared across the candidate evaluations of
        one scheduling decision.
    """

    def __init__(
        self,
        pool: ResourcePool,
        problem: JacobiProblem,
        account_memory: bool = True,
        conservatism_sigmas: float = 1.0,
        sync_overhead_s: float | None = None,
        snapshot: "ForecastSnapshot | None" = None,
    ) -> None:
        self.pool = pool
        self.problem = problem
        self.account_memory = account_memory
        self.snapshot = snapshot
        # Per-machine memos, valid only while the pool is frozen at one
        # scheduling instant — which is exactly when a snapshot is set.
        # Without a snapshot every query goes to the pool (a fresh model
        # per plan() call).
        self._rate_memo: dict[str, float] = {}
        self._ptime_memo: dict[str, float] = {}
        if conservatism_sigmas < 0:
            raise ValueError("conservatism_sigmas must be >= 0")
        self.conservatism_sigmas = conservatism_sigmas
        # Per-machine per-iteration runtime overhead (KeLP region setup,
        # barrier arrival); defaults to the problem's figure so the model
        # predicts what the runtime actually charges.
        self.sync_overhead_s = (
            problem.sync_overhead_s if sync_overhead_s is None else sync_overhead_s
        )
        if self.sync_overhead_s < 0:
            raise ValueError("sync_overhead_s must be >= 0")

    # -- forecast access (snapshot memo when available) -------------------
    def _conservative_speed(self, machine: str) -> float:
        if self.snapshot is not None:
            return self.snapshot.conservative_speed(machine, self.conservatism_sigmas)
        return self.pool.predicted_speed_conservative(machine, self.conservatism_sigmas)

    def _transfer_time(self, a: str, b: str, nbytes: float) -> float:
        if self.snapshot is not None:
            return self.snapshot.transfer_time(a, b, nbytes)
        return self.pool.predicted_transfer_time(a, b, nbytes)

    # -- model terms ------------------------------------------------------
    def point_rate(self, machine: str) -> float:
        """``1 / P_i``: predicted points/second for ``machine`` (in-core).

        Uses the conservative (error-discounted) speed: a barrier step
        waits for every member, so members are budgeted at a pessimistic
        availability quantile rather than the mean forecast.
        """
        if self.snapshot is not None:
            rate = self._rate_memo.get(machine)
            if rate is None:
                speed = self._conservative_speed(machine)
                rate = 0.0 if speed <= 0.0 else speed / self.problem.flop_per_point
                self._rate_memo[machine] = rate
            return rate
        speed = self._conservative_speed(machine)
        if speed <= 0.0:
            return 0.0
        return speed / self.problem.flop_per_point

    def point_time(self, machine: str, area: float = 0.0) -> float:
        """``P_i``: predicted seconds/point, optionally memory-adjusted."""
        if self.snapshot is not None:
            p = self._ptime_memo.get(machine)
            if p is None:
                rate = self.point_rate(machine)
                p = float("inf") if rate <= 0.0 else 1.0 / rate
                self._ptime_memo[machine] = p
        else:
            rate = self.point_rate(machine)
            if rate <= 0.0:
                return float("inf")
            p = 1.0 / rate
        if self.account_memory and area > 0.0 and p != float("inf"):
            host = self.pool.topology.host(machine)
            p *= host.memory.slowdown(self.problem.footprint_mb(area))
        return p

    def capacity_points(self, machine: str) -> float:
        """Points that fit in ``machine``'s available real memory (the
        snapshot's shared descriptor when there is one)."""
        source = self.pool if self.snapshot is None else self.snapshot
        info = source.machine_info(machine)
        return info.memory_available_mb * 1e6 / self.problem.bytes_per_point

    def comm_costs(self, order: Sequence[str]) -> list[float]:
        """``C_i`` per machine for the given strip order.

        Includes the per-participant sync overhead, so growing the machine
        set has a cost the balancer can weigh against the added rate.
        """
        order = list(order)
        exchange = self.problem.border_exchange_bytes()
        # Bind the transfer lookup once: in the candidate loop this runs
        # tens of thousands of times and the per-call indirection shows.
        transfer = (
            self.snapshot.transfer_time
            if self.snapshot is not None
            else self.pool.predicted_transfer_time
        )
        costs = []
        for idx, machine in enumerate(order):
            c = 0.0
            for nbr_idx in (idx - 1, idx + 1):
                if 0 <= nbr_idx < len(order):
                    c += transfer(machine, order[nbr_idx], exchange)
            costs.append(c)
        return [c + self.sync_overhead_s for c in costs]

    # -- whole-partition predictions --------------------------------------
    def machine_time(self, partition: StripPartition, machine: str) -> float:
        """``T_i`` for one machine of a concrete partition."""
        area = float(partition.area(machine))
        order = partition.machines
        idx = order.index(machine)
        exchange = self.problem.border_exchange_bytes()
        c = 0.0
        for nbr_idx in (idx - 1, idx + 1):
            if 0 <= nbr_idx < len(order):
                c += self._transfer_time(machine, order[nbr_idx], exchange)
        return area * self.point_time(machine, area) + c + self.sync_overhead_s

    def step_time(self, partition: StripPartition) -> float:
        """Predicted sweep time: ``max_i T_i``.

        Computes every ``T_i`` in one pass over the strips — same
        arithmetic as :meth:`machine_time`, without its per-call index and
        strip lookups (which are linear scans, quadratic over the set).
        """
        strips = partition.strips
        k = len(strips)
        n = partition.n
        exchange = self.problem.border_exchange_bytes()
        transfer = (
            self.snapshot.transfer_time
            if self.snapshot is not None
            else self.pool.predicted_transfer_time
        )
        times = []
        for idx, strip in enumerate(strips):
            machine = strip.machine
            area = float(strip.row_count * n)
            c = 0.0
            if idx > 0:
                c += transfer(machine, strips[idx - 1].machine, exchange)
            if idx + 1 < k:
                c += transfer(machine, strips[idx + 1].machine, exchange)
            times.append(area * self.point_time(machine, area) + c + self.sync_overhead_s)
        return max(times)

    def execution_time(self, partition: StripPartition) -> float:
        """Predicted total time: step time × iterations."""
        return self.step_time(partition) * self.problem.iterations

    # -- batched kernels ---------------------------------------------------
    def comm_cost_matrix(self, names: Sequence[str]) -> np.ndarray:
        """``(n, n)`` matrix of one-border transfer seconds between machines.

        Entry ``[i, j]`` is exactly ``self._transfer_time(names[i],
        names[j], exchange)`` — the term :meth:`comm_costs` charges for a
        strip neighbour — so any neighbour cost a scalar plan would compute
        can be *gathered* from this matrix instead of re-queried: the
        batched evaluation core of the scheduling service indexes it with
        the neighbour structure of thousands of candidate strip orders at
        once.  Dead links appear as ``inf``, mirroring the scalar path.
        The diagonal is zero; a machine is never its own strip neighbour.

        The matrix is the read-only
        :meth:`~repro.nws.snapshot.ForecastSnapshot.transfer_matrix` of the
        model's snapshot, shared by the strip planner's batch inputs
        across every configuration at that pool state (copy
        before mutating); a model without one reads a fresh snapshot of
        the pool, which by the snapshot's contract holds the same values.
        """
        snapshot = self.snapshot
        if snapshot is None:
            snapshot = self.pool.snapshot(list(names))
        return snapshot.transfer_matrix(names, self.problem.border_exchange_bytes())


def batched_neighbor_comm_costs(
    pair: np.ndarray,
    order_idx: np.ndarray,
    counts: np.ndarray,
    sync_overhead_s: float | np.ndarray,
    row_pair: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``C_i`` for every member of every candidate strip order at once.

    Parameters
    ----------
    pair:
        ``(n, n)`` transfer matrix (:meth:`StripCostModel.comm_cost_matrix`), or a
        ``(J, n, n)`` stack of them when rows mix requests with different
        exchange volumes — select per row with ``row_pair``.
    order_idx:
        ``(m, w)`` machine indices in strip order per row, ``w`` at least
        the widest member count; slots at and beyond ``counts[i]`` are
        padding (any valid index).
    counts:
        ``(m,)`` member count per row.
    sync_overhead_s:
        Per-participant sync overhead added to every member cost — scalar
        or ``(m,)`` per row.
    row_pair:
        ``(m,)`` index into the first axis of a 3-D ``pair``; ignored for
        a single matrix.

    Returns ``(costs, transfers)``, both ``(m, w)`` in strip order.
    ``transfers`` is each member's neighbour border exchange without the
    sync overhead (``0.0`` at padding slots) — the ``C_i`` term a step-time
    prediction adds to ``A_i * P_i`` before the sync.  ``costs`` adds the
    sync overhead, with ``inf`` at padding slots so downstream sorts push
    them past every real member.  Member values are bit-identical to
    :meth:`StripCostModel.comm_costs`: the predecessor transfer is added
    before the successor transfer, and ends of the strip add ``0.0``
    exactly.  Each of the ``w - 1`` links between neighbouring slots is
    gathered once per direction, by flat index into ``pair``.
    """
    order_idx = np.asarray(order_idx)
    m, w = order_idx.shape
    n = pair.shape[-1]
    counts = np.asarray(counts)
    slots = np.arange(w)[None, :]
    valid = slots < counts[:, None]
    # Flat index of each slot's row of the pair table.
    if pair.ndim == 3:
        if row_pair is None:
            raise ValueError("row_pair is required with a (J, n, n) pair stack")
        row = (np.asarray(row_pair, dtype=np.intp)[:, None] * n + order_idx) * n
    else:
        row = order_idx.astype(np.intp) * n
    flat = pair.reshape(-1)
    # Link j joins slots j and j + 1; it exists when both are members.
    link = slots[:, :-1] < (counts[:, None] - 1)
    transfers = np.zeros((m, w))
    # Slot j + 1's predecessor term, then slot j's successor term.
    transfers[:, 1:] = np.where(link, flat[row[:, 1:] + order_idx[:, :-1]], 0.0)
    transfers[:, :-1] += np.where(link, flat[row[:, :-1] + order_idx[:, 1:]], 0.0)
    costs = transfers + np.asarray(sync_overhead_s, dtype=float).reshape(-1, 1)
    costs[~valid] = np.inf
    return costs, transfers
