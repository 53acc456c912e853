"""The Jacobi2D AppLeS agent and its compile-time rivals.

Four planners, matching the schedulers compared in Figures 3–6:

- :class:`JacobiPlanner` — the AppLeS strip planner: time-balanced areas
  from NWS forecasts, memory-capacity aware, locality-ordered strips.
  "AppLeS seeks to balance time directly using dynamic and more precise
  information about CPU speed, current and predicted machine and network
  loads ..., memory availability, etc." (§5)
- :class:`StaticStripPlanner` — the Figure 4 baseline: non-uniform strips
  from *nominal* CPU speed and bandwidth, fixed at compile time.
- :class:`UniformStripPlanner` — equal strips (the naive hand schedule).
- :class:`BlockedPlanner` — the HPF Uniform/Blocked baseline: equal 2-D
  tiles over all machines, no dynamic information, no memory model.

All planners emit :class:`~repro.core.schedule.Schedule` objects whose
metadata carries the concrete partition geometry, so the runtime can both
execute the numerics and charge simulated time.
"""

from __future__ import annotations

import contextlib
import os
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from repro.core.coordinator import AppLeSAgent
from repro.core.infopool import InformationPool
from repro.core.planner import (
    balance_divisible_work,
    balance_divisible_work_batched,
    balance_prefix_exact_batched,
    sorted_waterfill,
)
from repro.core.resources import ResourcePool
from repro.core.schedule import Allocation, Schedule
from repro.core.selector import CandidateSets, ResourceSelector
from repro.core.userspec import UserSpecification
from repro.jacobi.cost import StripCostModel, batched_neighbor_comm_costs
from repro.jacobi.grid import JacobiProblem, jacobi_hat
from repro.jacobi.partition import (
    BlockPartition,
    StripPartition,
    apples_strip,
    batched_largest_remainder_rows,
    blocked_partition,
    generalized_block_partition,
    nonuniform_strip,
    uniform_strip,
)
from repro.nws.service import NetworkWeatherService
from repro.obs.trace import get_tracer
from repro.runner import usable_cpus
from repro.sim.testbeds import Testbed

__all__ = [
    "locality_order",
    "batched_locality_orders",
    "ApplesBlockedPlanner",
    "PreferencePlanner",
    "JacobiPlanner",
    "StaticStripPlanner",
    "UniformStripPlanner",
    "BlockedPlanner",
    "StripBatchInputs",
    "StripBatchEvaluation",
    "evaluate_strip_batch",
    "make_jacobi_agent",
    "schedule_from_strip_partition",
]

# Planner-internal iteration bound (membership can change at most once per
# machine).
_MAX_REPLAN = 32


def locality_order(pool: ResourcePool, machines: Sequence[str]) -> list[str]:
    """Order machines so strip neighbours are network-close.

    Grouping by ``(site, arch, name)`` places machines sharing a segment
    next to each other in every canned testbed, minimising the number of
    borders that cross slow links — the strip-ordering half of the
    application-specific locality notion of §3.3.  ``pool`` may also be
    a :class:`~repro.nws.snapshot.ForecastSnapshot` of the pool.
    """
    return sorted(
        machines,
        key=lambda m: (
            pool.machine_info(m).site,
            pool.machine_info(m).arch,
            m,
        ),
    )


def batched_locality_orders(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Strip orders for many candidate sets at once.

    ``masks`` is a boolean ``(m, n)`` matrix over a machine universe
    *already sorted by locality rank* (``locality_order`` of the full
    pool).  Because the locality key is a strict total order, the strip
    order of any subset is simply its members in ascending rank — so
    listing each row's members left to right recovers, for every row at
    once, exactly what :func:`locality_order` returns for that row's
    member set.

    Returns ``(order_idx, counts)``: ``order_idx[i, j]`` is the rank-space
    machine index of row ``i``'s ``j``-th strip member.  The order is only
    as wide as the widest member set, ``counts.max()``; slots at and beyond
    ``counts[i]`` are padding and hold 0.
    """
    masks = np.asarray(masks, dtype=bool)
    if masks.ndim != 2:
        raise ValueError("masks must be (m, n)")
    counts = masks.sum(axis=1)
    slots = np.arange(counts.max(initial=0)) < counts[:, None]
    # Row-major order visits each row's members in ascending rank, the
    # order in which that row's strip slots fill.
    order_idx = np.zeros(slots.shape, dtype=np.intp)
    order_idx[slots] = np.nonzero(masks)[1]
    return order_idx, counts


def _pool_locality(info: InformationPool) -> tuple[tuple[str, ...], dict[str, int]]:
    """The pool's machines in locality order, and each machine's rank in it.

    The order reads only static ``site``/``arch``/``name``, so inside a
    decision it is sorted once per forecast snapshot, from the snapshot's
    descriptors, as the pair table is: every decision scope and
    configuration at that pool state shares it.  Outside a decision it is
    sorted afresh.
    """
    forecasts = info.forecasts
    names = tuple(forecasts.machine_names())

    def build() -> tuple[tuple[str, ...], dict[str, int]]:
        order = tuple(locality_order(forecasts, names))
        return order, {m: i for i, m in enumerate(order)}

    return info.derived(("locality-order", names), build)


def _locality_ranked(info: InformationPool, machines: list[str]) -> list[str]:
    """``locality_order`` by the pool's shared locality rank.

    The locality key is a *total* order over the pool, so sorting a subset
    by the full-pool rank yields exactly ``locality_order``'s result while
    avoiding two ``machine_info`` constructions per comparison.  Outside a
    decision, where the oracle re-reads the pool, this is the seed's
    direct sort.
    """
    if info.forecasts is info.pool:
        return locality_order(info.pool, machines)
    _, rank = _pool_locality(info)
    return sorted(machines, key=rank.__getitem__)


def _availability_risk(machines: Sequence[str], info: InformationPool) -> float:
    """Worst relative availability-forecast error across ``machines``.

    A barrier step is the max over members, so a set's volatility exposure
    is its worst member's ``error / availability`` (see
    :func:`_member_risks`), and 0.0 for a set with no available member.
    """
    return max([0.0, *_member_risks(machines, info)])


def _member_risks(names: Sequence[str], info: InformationPool) -> list[float]:
    """Per-machine relative availability-forecast error (vector form).

    The per-member terms of :func:`_availability_risk`: a set's risk is the
    max over its members, so the min over any superset's members is an
    admissible lower bound on the risk of whatever subset a planner keeps.
    """
    forecasts = info.forecasts
    risks = []
    for m in names:
        avail = forecasts.predicted_availability(m)
        err = forecasts.predicted_availability_error(m)
        risks.append(err / max(avail, 0.05) if avail > 0 else 0.0)
    return risks


def schedule_from_strip_partition(
    partition: StripPartition,
    problem: JacobiProblem,
    model: StripCostModel,
    decomposition: str,
) -> Schedule:
    """Wrap a concrete strip partition as a Schedule (prediction from ``model``)."""
    exchange = problem.border_exchange_bytes()
    strips = partition.strips
    allocations = []
    for idx, strip in enumerate(strips):
        # Direct index arithmetic instead of partition.neighbors(), whose
        # name lookup is a linear scan (quadratic over the set).
        comm = {}
        if idx > 0:
            comm[strips[idx - 1].machine] = exchange
        if idx + 1 < len(strips):
            comm[strips[idx + 1].machine] = exchange
        area = strip.row_count * partition.n
        allocations.append(
            Allocation(
                machine=strip.machine,
                task="sweep",
                work_units=float(area),
                footprint_mb=problem.footprint_mb(area),
                comm_bytes=comm,
            )
        )
    return Schedule(
        allocations=allocations,
        predicted_time=model.execution_time(partition),
        decomposition=decomposition,
        metadata={"partition": partition, "problem": problem},
    )


class JacobiPlanner:
    """The AppLeS Jacobi2D strip planner (§5 blueprint step 2).

    For a candidate resource set: order machines by locality, predict each
    machine's point rate (NWS availability × nominal speed) and border
    cost, then balance *time* across the set, honouring real-memory
    capacities.  Machines that the balance drops (their border cost
    exceeds the balanced step time) are removed and the plan re-derived —
    the planner performs fine-grained resource selection of its own, which
    is why AppLeS sometimes schedules on a strict subset of a candidate
    set.
    """

    def __init__(
        self,
        problem: JacobiProblem,
        account_memory: bool = True,
        conservatism_sigmas: float = 1.0,
        risk_aversion: float = 2.0,
    ) -> None:
        self.problem = problem
        self.account_memory = account_memory
        if conservatism_sigmas < 0 or risk_aversion < 0:
            raise ValueError("conservatism_sigmas and risk_aversion must be >= 0")
        # How many forecast-error sigmas to discount each machine's rate by
        # when sizing its share (robust allocation) ...
        self.conservatism_sigmas = conservatism_sigmas
        # ... and how strongly candidate schedules are penalised for using
        # volatile machines when *predicting* their time (robust selection).
        # A barrier step is the max over members, so a set's exposure is its
        # worst member's relative forecast error.
        self.risk_aversion = risk_aversion

    def _key(self) -> tuple:
        """This planner's value: the key of its memos on the snapshot,
        which outlive it (an ``id`` could be recycled) and which equal
        planners share."""
        return (
            type(self), self.problem, self.account_memory,
            self.conservatism_sigmas, self.risk_aversion,
        )

    def _model(self, info: InformationPool) -> StripCostModel:
        """The cost model over ``info.forecasts``.  It derives nothing on
        construction and holds the snapshot, so it is built per call:
        memoised on the snapshot, it would be a reference cycle."""
        return StripCostModel(
            info.forecasts, self.problem, self.account_memory,
            conservatism_sigmas=self.conservatism_sigmas,
        )

    def lower_bounds(
        self, candidate_sets: Sequence[Sequence[str]], info: InformationPool
    ) -> np.ndarray:
        """Admissible predicted-time lower bound per candidate set.

        The planner may keep any non-empty subset of a candidate set, so
        the bound is the minimum of two relaxations that together cover
        every kept subset:

        * **Singleton**: a kept set of size 1 pays ``U / rate + sync`` per
          iteration, times that machine's exact risk multiplier (memory
          slowdown ``>= 1`` is dropped).  Bound: min over members.
        * **Multi-machine**: a kept set of size >= 2 gives every member at
          least one strip neighbour *inside the candidate set*, so each
          member's fixed cost is at least ``sync`` plus its cheapest border
          exchange with any other member.  The uncapacitated water-fill
          with those floor costs is monotone under supersets and
          cost-lowering, so it never exceeds the kept subset's true
          balanced time; the risk multiplier is bounded below by the
          minimum member risk.

        Each relaxation only lowers the value, so the bound never exceeds
        the true predicted time and pruning on it cannot change the
        Coordinator's choice.  The routine is the batched kernel's
        (:func:`_strip_bounds`): a batched decision reads the same floats
        from ``StripBatchEvaluation.bounds`` instead of calling this.
        """
        inputs = self.batch_inputs(info)
        masks = CandidateSets.of(candidate_sets, inputs.rank_names).masks_over(
            inputs.rank_names
        )
        member = masks & (inputs.rates > 0.0)
        order, cnt = batched_locality_orders(member)
        return _strip_bounds(
            member, order, cnt, np.zeros(len(member), dtype=np.int64),
            _ClassTables.stack([inputs]),
        )

    def plan(self, resource_set: Sequence[str], info: InformationPool) -> Schedule | None:
        model = self._model(info)
        order = _locality_ranked(info, list(resource_set))
        order = [m for m in order if model.point_rate(m) > 0.0]
        if not order:
            return None
        total = float(self.problem.total_points)

        # Plan-continuation memo: from a given machine order onward, plan()
        # is a deterministic function of that order and this planner's
        # value alone — many candidate sets drop members and converge onto
        # the same ordered subset, so their continuations are shared (a
        # fresh table per call outside a decision scope).
        memo = info.derived(("jacobi-plan", self._key()), dict)
        visited: list[tuple[str, ...]] = []

        def _finish(schedule: Schedule | None) -> Schedule | None:
            for key_order in visited:
                memo[key_order] = schedule
            return schedule

        for _ in range(_MAX_REPLAN):
            key = tuple(order)
            if key in memo:
                hit = memo[key]
                if visited:  # propagate to the orders that led here
                    _finish(hit)
                if hit is None:
                    return None
                # Fresh object per evaluation (value-identical): rows in
                # decision.evaluations must not alias one another.
                return replace(hit)
            visited.append(key)
            rates = [model.point_rate(m) for m in order]
            costs = model.comm_costs(order)
            # A machine reachable only over a dead link shows an infinite
            # border cost; drop it and re-derive (its neighbours' costs
            # change) rather than letting the balance collapse.
            if any(c == float("inf") for c in costs):
                if len(order) == 1:
                    return _finish(None)
                worst = max(range(len(order)), key=lambda i: costs[i])
                order.pop(worst)
                continue
            caps = (
                [model.capacity_points(m) for m in order]
                if self.account_memory
                else None
            )
            result = balance_divisible_work(rates, costs, total, caps)
            if result is None:
                return _finish(None)
            kept = [m for m, a in zip(order, result.allocations) if a > 0.0]
            if not kept:
                return _finish(None)
            if kept == order:
                areas = result.allocations
                break
            order = kept  # membership changed; neighbour costs change too
        else:  # pragma: no cover - structurally bounded
            raise RuntimeError("Jacobi planner failed to converge")

        max_rows = (
            [int(model.capacity_points(m) // self.problem.n) for m in order]
            if self.account_memory
            else None
        )
        partition = apples_strip(self.problem.n, order, areas, max_rows)
        schedule = schedule_from_strip_partition(
            partition, self.problem, model, "apples-strip"
        )
        risk = _availability_risk(partition.machines, info)
        schedule.predicted_time *= 1.0 + self.risk_aversion * risk
        _finish(schedule)
        return schedule

    def batch_planner(self, info: InformationPool) -> "JacobiPlanner":
        """Opt in to the one-shot batched sweep: the strip planner batches
        itself (see :func:`repro.core.sweep.resolve_batch_planner`)."""
        return self

    def batch_inputs(self, info: InformationPool) -> "StripBatchInputs":
        """Rank-space arrays for :func:`evaluate_strip_batch`.

        Captures everything :meth:`plan` reads per candidate — point
        rates, memory capacities, the pairwise border-transfer matrix,
        member risks — in locality-rank order, so batched candidate masks
        can be evaluated without any per-candidate queries.  Values come
        from the same cost model over the same forecasts the scalar path
        reads, so they are the *same floats*.  The bundle is memoised per
        planner value (:meth:`InformationPool.derived`): every
        configuration with an equal planner at one pool state shares it.
        """

        def build() -> StripBatchInputs:
            model = self._model(info)
            rank_names, _ = _pool_locality(info)
            position = {m: i for i, m in enumerate(info.forecasts.machine_names())}
            caps = (
                np.array([model.capacity_points(m) for m in rank_names])
                if self.account_memory
                else None
            )
            return StripBatchInputs(
                rank_names=rank_names,
                pool_positions=np.array([position[m] for m in rank_names]),
                rates=np.array([model.point_rate(m) for m in rank_names]),
                caps=caps,
                avail_mb=np.array(
                    [info.machine_info(m).memory_available_mb for m in rank_names]
                ),
                pair=model.comm_cost_matrix(rank_names),
                sync_overhead_s=model.sync_overhead_s,
                total_points=float(self.problem.total_points),
                grid_n=self.problem.n,
                bytes_per_point=float(self.problem.bytes_per_point),
                iterations=self.problem.iterations,
                risk_aversion=self.risk_aversion,
                risks=np.asarray(_member_risks(rank_names, info)),
                account_memory=self.account_memory,
            )

        return info.derived(("jacobi-batch-inputs", self._key()), build)


@dataclass(frozen=True)
class StripBatchInputs:
    """One request's strip-planning ingredients in locality-rank space.

    Produced by :meth:`JacobiPlanner.batch_inputs`; consumed (possibly
    stacked with other requests') by :func:`evaluate_strip_batch`.
    """

    rank_names: tuple[str, ...]
    # (n,) each machine's position in the pool's machine_names(): the
    # order in which the pruning bound's water-fill adds tied members.
    pool_positions: np.ndarray
    rates: np.ndarray  # (n,) points/s per machine, 0 = unusable
    caps: np.ndarray | None  # (n,) capacity points, None when memory-blind
    avail_mb: np.ndarray  # (n,) real memory available per machine
    pair: np.ndarray  # (n, n) one-border transfer seconds
    sync_overhead_s: float
    total_points: float
    grid_n: int
    bytes_per_point: float
    iterations: int
    risk_aversion: float
    risks: np.ndarray  # (n,) member availability risks
    account_memory: bool


@dataclass(frozen=True)
class StripBatchEvaluation:
    """Per-candidate outcomes of one job inside :func:`evaluate_strip_batch`.

    ``predicted`` is only meaningful where ``feasible & ~fallback``; rows
    flagged ``fallback`` must be answered by the scalar planner (the
    batched core refuses to approximate them), and infeasible rows mirror
    ``plan() is None``.  ``bounds`` holds every row's
    :meth:`JacobiPlanner.lower_bounds`, whatever its outcome.
    """

    feasible: np.ndarray  # (m,) plan produces a schedule
    fallback: np.ndarray  # (m,) answer with the scalar planner
    predicted: np.ndarray  # (m,) risk-adjusted predicted time
    kept: np.ndarray  # (m, n) final member mask, rank space
    bounds: np.ndarray  # (m,) predicted-time lower bound of the row's set

    def rows(self, index: slice | np.ndarray) -> "StripBatchEvaluation":
        """The outcomes of the rows ``index`` selects: views for a slice,
        copies for an index array."""
        return StripBatchEvaluation(
            self.feasible[index], self.fallback[index],
            self.predicted[index], self.kept[index], self.bounds[index],
        )


# Structural bound on batched re-plan passes: membership shrinks by at
# least one machine per pass per row, matching the scalar _MAX_REPLAN.
_MAX_BATCH_PASSES = _MAX_REPLAN
# Cells (rows times their widest member set) per block of a fixpoint pass:
# two blocks in flight keep their float64 temporaries cache-sized.
_BLOCK_CELLS = 2**14
# (pid, executor) of the block helper thread: a forked child has no thread.
_helper: tuple[int, ThreadPoolExecutor] | None = None
# Row structures of recent candidate spaces, least recently used first; one
# OrderedDict operation is atomic under the GIL, so no lock (none held at fork).
_structures: OrderedDict = OrderedDict()
_STRUCTURES_KEPT = 4


def evaluate_strip_batch(
    jobs: Sequence[tuple[StripBatchInputs, np.ndarray]],
) -> list[StripBatchEvaluation]:
    """Evaluate the candidate sets of many scheduling requests at once.

    ``jobs`` pairs each request's :class:`StripBatchInputs` with its
    ``(m_j, n)`` rank-space candidate masks.  Jobs whose inputs agree bit
    for bit on every field the memory-blind plan reads form one
    *arithmetic class* (:meth:`_ClassTables.of`), so each distinct (class,
    usable-member set) row is planned once: a repeated row takes the first
    one's outcome and bound from pass 0, and a row that shrinks continues
    into any row of its class (:func:`_fixpoint`).  The distinct rows are
    driven through NumPy replicas of the scalar plan pipeline — locality
    orders, neighbour comm costs, the drop/re-balance fixpoint,
    largest-remainder integerisation, and the risk-adjusted step-time
    prediction.  Each fixpoint pass runs in width-ordered blocks of at most
    ``_BLOCK_CELLS`` cells (rows times their widest member set), taken in
    turn by the caller and at most one helper thread, while continuation
    spans the call.  A block works in strip-order arrays only as wide as
    its widest set, gathers every row's neighbour transfers once, and
    finalises the rows that converge in it straight from those arrays.
    The first pass, before any member is dropped, also bounds every row
    from its arrays (:func:`_strip_bounds`).

    What depends on the usable-member matrix and row classes alone — the
    distinct rows, continuation lookup, first-pass blocks and strip orders
    — is the candidate space's row structure (:func:`_structure`), built
    once per space and read back by later calls, which run only the
    arithmetic forecasts change.  All-distinct rows skip the gather.

    Memory capacity only vetoes: it changes no float of a plan it does not
    stop, so each class runs memory-blind, and its memory-accounting
    variant's checks — allocations over a cap in any pass, integer rows
    over a row cap or outside real memory at the end — flag rows, OR-ed
    along continuation chains.  A memory-accounting job's flagged row is
    surrendered (``fallback``, no schedule, its own bound kept).  Traced,
    ``apples.rows_computed`` counts the distinct rows and
    ``apples.rows_shared`` the others, ``apples.blocks`` the blocks and
    ``apples.helper_blocks`` those the helper thread ran, and each call
    counts ``apples.structures_built`` or ``apples.structure_hits``.

    Bit-identity contract: every number produced for a row either equals
    the scalar ``JacobiPlanner.plan`` result for that candidate set
    exactly, or the row is flagged ``fallback`` and carries no number at
    all; every row's bound is the name-space bound's float, tie order
    included.  The vector code only takes arithmetic paths whose float
    semantics match the scalar code operation-for-operation (documented
    inline); every input class it cannot certify — reference water-fill
    fallbacks, binding capacities, paging slowdowns, apportionment
    overshoot — is surrendered to the scalar planner rather than
    approximated.
    """
    if not jobs:
        return []
    n = len(jobs[0][0].rank_names)
    for j, (inputs, masks) in enumerate(jobs):
        if np.ndim(masks) != 2:
            raise ValueError(
                f"job {j}: candidate masks must be 2-D, got shape {np.shape(masks)}"
            )
        if len(inputs.rank_names) != n or masks.shape[1] != n:
            raise ValueError("all jobs must share one machine universe size")

    class_of, tables = _ClassTables.of([inputs for inputs, _ in jobs])
    sizes = [len(masks) for _, masks in jobs]
    job_of = np.repeat(np.arange(len(jobs)), sizes)
    row_class = class_of[job_of]
    # The scalar plan first filters members predicted to deliver nothing.
    member = np.concatenate([np.asarray(masks, dtype=bool) for _, masks in jobs])
    member &= (tables.rates > 0.0)[row_class]
    space, built = _structure(member, row_class, len(tables.sync))
    if space.first is not None:
        member, row_class = member[space.first], row_class[space.first]
    distinct = len(member)
    plans = StripBatchEvaluation(
        feasible=np.zeros(distinct, dtype=bool),
        fallback=np.zeros(distinct, dtype=bool),
        predicted=np.full(distinct, np.inf),
        kept=np.zeros((distinct, n), dtype=bool),
        bounds=np.full(distinct, np.inf),
    )
    veto = np.zeros(distinct, dtype=bool)
    _fixpoint(member, row_class, space, tables, plans, veto)
    tracer = get_tracer()
    if tracer.enabled:
        tracer.metrics.counter("apples.rows_computed").inc(distinct)
        tracer.metrics.counter("apples.rows_shared").inc(len(job_of) - distinct)
        reuse = "apples.structures_built" if built else "apples.structure_hits"
        tracer.metrics.counter(reuse).inc()

    out = plans if space.share is None else plans.rows(space.share)
    veto = veto if space.share is None else veto[space.share]
    memory = np.array([inputs.account_memory for inputs, _ in jobs])
    vetoed = np.nonzero(memory[job_of] & veto)[0]
    out.feasible[vetoed] = out.kept[vetoed] = False
    out.fallback[vetoed] = True
    out.predicted[vetoed] = np.inf
    stops = np.cumsum(sizes)
    return [out.rows(slice(stop - size, stop)) for stop, size in zip(stops, sizes)]


class _ClassTables(NamedTuple):
    """The arithmetic classes of one :func:`evaluate_strip_batch` call,
    stacked per field.

    Per-machine tables are ``(C, n)`` in rank space, read by the flat index
    ``cls * n + machine``; ``pair`` is ``(C, n, n)``; ``floors`` (row
    ``cls * n + machine``) and ``extremes`` (rows ``2 * cls`` and ``2 * cls
    + 1``) are :meth:`subset_minima` tables; the rest are ``(C,)``.
    ``caps``, ``max_rows``, ``avail`` and ``bytes_per_point`` are the
    class's memory-accounting variant, read only by the veto: ``inf``
    capacity and memory (NaN row caps) where the class has none.
    """

    rates: np.ndarray
    caps: np.ndarray
    max_rows: np.ndarray  # caps // grid, NaN where caps is inf
    avail: np.ndarray
    risks: np.ndarray
    pair: np.ndarray
    sync: np.ndarray
    total: np.ndarray
    grid: np.ndarray
    bytes_per_point: np.ndarray
    iters: np.ndarray
    risk_aversion: np.ndarray
    pool_pos: np.ndarray
    floors: np.ndarray  # border exchange with another member
    extremes: np.ndarray  # singleton relaxation; member risk

    @classmethod
    def of(cls, inputs: Sequence[StripBatchInputs]) -> tuple[np.ndarray, "_ClassTables"]:
        """Each job's class, and the classes' tables.

        Jobs share their arithmetic when rates, pair, risks, pool
        positions, sync, total, risk aversion, grid and iterations agree
        bit for bit.  A memory-blind job joins the class of the first
        memory-accounting job with its arithmetic; a memory-accounting job
        whose capacity inputs differ from that job's opens a class of its
        own, so each class has at most one memory-accounting variant.
        """

        def arithmetic(i: StripBatchInputs) -> tuple:
            scalars = np.array([i.sync_overhead_s, i.total_points, i.risk_aversion])
            arrays = (i.rates, i.pair, i.risks, i.pool_positions, scalars)
            return (*(a.tobytes() for a in arrays), i.grid_n, i.iterations)

        def capacity(i: StripBatchInputs) -> tuple | None:
            if not i.account_memory:
                return None
            caps = b"" if i.caps is None else i.caps.tobytes()
            return caps, i.avail_mb.tobytes(), i.bytes_per_point

        arith = [arithmetic(i) for i in inputs]
        variant: dict = {}
        for a, i in zip(arith, inputs):
            if i.account_memory:
                variant.setdefault(a, capacity(i))
        keys = [(a, capacity(i) or variant.get(a)) for a, i in zip(arith, inputs)]
        # Any member serves the arithmetic; a memory-accounting one also
        # carries the class's variant.
        reps: dict = {}
        for k, i in zip(keys, inputs):
            if i.account_memory or k not in reps:
                reps[k] = i
        index = {k: c for c, k in enumerate(reps)}
        return np.array([index[k] for k in keys]), cls.stack(list(reps.values()))

    @classmethod
    def stack(cls, inputs: Sequence[StripBatchInputs]) -> "_ClassTables":
        """One class per input, memory-accounting inputs carrying their
        variant."""
        n = len(inputs[0].rank_names)
        roomy = np.full(n, np.inf)
        caps = np.stack([
            i.caps if i.account_memory and i.caps is not None else roomy
            for i in inputs
        ])
        grid = np.array([i.grid_n for i in inputs], dtype=np.int64)
        with np.errstate(invalid="ignore"):  # inf caps without a variant
            max_rows = np.floor_divide(caps, grid[:, None].astype(float))
        rates = np.stack([i.rates for i in inputs])
        risks = np.stack([i.risks for i in inputs])
        pair = np.stack([i.pair for i in inputs])
        sync = np.array([i.sync_overhead_s for i in inputs])
        total = np.array([i.total_points for i in inputs])
        iters = np.array([float(i.iterations) for i in inputs])
        risk_aversion = np.array([i.risk_aversion for i in inputs])
        other = pair.copy()
        other[:, np.arange(n), np.arange(n)] = np.inf  # never its own neighbour
        with np.errstate(divide="ignore"):  # never a member at rate 0
            single = (total[:, None] / rates + sync[:, None]) * iters[:, None]
        single *= 1.0 + risk_aversion[:, None] * risks
        classes = len(inputs)
        extremes = np.stack([single, risks], axis=1).reshape(2 * classes, n)
        minima = cls.subset_minima(
            np.concatenate([other.reshape(classes * n, n), extremes])
        )
        return cls(
            rates=rates,
            caps=caps,
            max_rows=max_rows,
            avail=np.stack(
                [i.avail_mb if i.account_memory else roomy for i in inputs]
            ),
            risks=risks,
            pair=pair,
            sync=sync,
            total=total,
            grid=grid,
            bytes_per_point=np.array([i.bytes_per_point for i in inputs]),
            iters=iters,
            risk_aversion=risk_aversion,
            pool_pos=np.stack([i.pool_positions for i in inputs]),
            floors=minima[:classes * n],
            extremes=minima[classes * n:],
        )

    @staticmethod
    def subset_minima(values: np.ndarray) -> np.ndarray:
        """``(..., n)`` per-machine values to ``(..., 256 * ceil(n / 8))``:
        column ``256 * c + v`` holds the minimum of ``values[..., 8 * c +
        b]`` over the bits ``b`` set in byte value ``v`` (``inf`` for none).
        Over the bytes of a little-endian packed member mask, the minimum
        of the looked-up entries is the minimum over the members — exactly,
        as a minimum never rounds."""
        *lead, n = values.shape
        chunks = -(-n // 8)
        padded = np.full((*lead, chunks * 8), np.inf)
        padded[..., :n] = values
        padded = padded.reshape(*lead, chunks, 8)
        table = np.empty((*lead, chunks, 256))
        table[..., 0] = np.inf
        for bit in range(8):
            low = 1 << bit
            np.minimum(
                table[..., :low], padded[..., bit, None], out=table[..., low:2 * low]
            )
        return table.reshape(*lead, chunks * 256)


class _RowStructure(NamedTuple):
    """A candidate space's read-only row structure (:func:`_structure`):
    each distinct row's ``first`` row and each row's distinct row
    (``share``), both ``None`` when the rows are all distinct (in job
    order); the distinct rows' sorted keys (``starts``) and the distinct row
    of each (``at``); and the first pass's ``blocks``, ``(rows, (order,
    cnt))`` each, strip orders and member counts in their narrowest dtype."""

    first: np.ndarray | None
    share: np.ndarray | None
    starts: np.ndarray
    at: np.ndarray
    blocks: tuple


def _structure(member, class_of, classes):
    """The row structure of the space with usable members ``member`` and
    row classes ``class_of``, and whether this call built it.  Built once
    and kept in ``_structures`` under the full matrix, class vector and
    ``_BLOCK_CELLS``, each entry inserted only once complete."""
    key = (_BLOCK_CELLS, member.shape, np.packbits(member).tobytes(), class_of.tobytes())
    if (space := _structures.get(key)) is not None:
        with contextlib.suppress(KeyError):  # evicted by another thread since
            _structures.move_to_end(key)
        return space, False
    starts, first, share = np.unique(
        _member_keys(member, class_of, classes), return_index=True, return_inverse=True
    )
    if len(first) == len(member):
        at, first, share = first, None, None
    else:
        at, member = np.arange(len(first)), member[first]
    small = np.min_scalar_type(member.shape[1])
    arrays, blocks = [a for a in (first, share, starts, at) if a is not None], []
    for rows in _pass_blocks(np.arange(len(member)), member):
        orders = tuple(a.astype(small) for a in batched_locality_orders(member[rows]))
        blocks.append((rows, orders))
        arrays += rows, *orders
    for array in arrays:
        array.flags.writeable = False
    space = _structures[key] = _RowStructure(first, share, starts, at, tuple(blocks))
    with contextlib.suppress(KeyError):  # another thread evicted the last one
        while len(_structures) > _STRUCTURES_KEPT:
            _structures.popitem(last=False)
    return space, True


def _member_keys(member: np.ndarray, class_of: np.ndarray, classes: int) -> np.ndarray:
    """One key per row, from its class (of ``classes``) and member bits:
    sorted once per candidate space for its row structure, then searched by
    continuation.  Equal keys mean the same class and member set.  A key is
    one integer, the class above the member bits, where both fit in 63 bits
    (every pool here); wider universes keep fixed-width byte strings.
    """
    n = member.shape[1]
    if n + (classes - 1).bit_length() <= 63:
        return member @ (1 << np.arange(n, dtype=np.int64)) | class_of << n
    cls = class_of.astype(">u8").view(np.uint8).reshape(-1, 8)
    key = np.ascontiguousarray(
        np.concatenate([cls, np.packbits(member, axis=1)], axis=1)
    )
    return key.view(np.dtype((np.void, key.shape[1]))).ravel()


def _select(keep: np.ndarray, *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The rows ``keep`` marks of each array — the arrays themselves, not
    copies, when it marks every row."""
    if keep.all():
        return arrays
    idx = np.nonzero(keep)[0]
    return tuple(a[idx] for a in arrays)


def _fixpoint(member, class_of, space, tables, out, veto):
    """The memory-blind drop/re-balance fixpoint of the distinct rows of
    :func:`evaluate_strip_batch`, outcomes written to ``out`` and ``veto``.

    The rows are distinct (class, usable-member set) pairs and ``space``
    their row structure.  Batch plan continuation: from a given member set
    onward, a row's fixpoint depends on that set and its class alone —
    the scalar planner's ``("jacobi-plan", ...)`` continuation memo,
    applied across rows and jobs.  A row whose members shrink (balance
    drop or dead-link drop) to the starting member set of another row of
    its class anywhere in the call stops iterating and takes that row's
    final outcome and veto; the passes the other row needs count toward
    ``_MAX_BATCH_PASSES`` exactly as the passes they replace.  On
    exhaustive candidate spaces every shrunk set is some row's start, so
    the fixpoint ends after one pass.

    Each pass sends its pending rows through :func:`_strip_pass` in the
    blocks of :func:`_pass_blocks`, taken in turn by the caller and at most
    one helper thread (:func:`_self_schedule`).  A block settles its rows
    at its own width and hands back the ones that converged, with the
    strip-order arrays they converged in; its other temporaries are freed
    when it returns, before :func:`_finalise` writes those rows' outcomes.
    A block writes only its own rows' state and reads no other block's, so
    neither the blocks nor their interleaving change an outcome.
    Surrendered rows are flagged in ``out.fallback``, rows the class's
    memory variant vetoes in ``veto``.  The first pass reads its blocks and
    strip orders from ``space``, built once per candidate space.
    """
    m = len(member)
    tracer = get_tracer()
    pending = np.ones(m, dtype=bool)
    # The pass in which each row stopped iterating; a continued row also
    # names the row whose outcome it takes.
    stopped = np.zeros(m, dtype=np.int64)
    continues = np.full(m, -1, dtype=np.int64)

    def continue_shrunk(grows):
        """Rows ``grows`` just shrank; those whose member set now starts
        another row stop iterating and continue as that row."""
        keys = _member_keys(member[grows], class_of[grows], len(tables.sync))
        pos = np.minimum(np.searchsorted(space.starts, keys), m - 1)
        hit = space.starts[pos] == keys
        continues[grows[hit]] = space.at[pos[hit]]
        pending[grows[hit]] = False

    def run(block):
        converged = _strip_pass(
            *block, member, class_of, tables, pending, out.fallback, veto,
            continue_shrunk, out.bounds,
        )
        if converged is not None:
            _finalise(*converged, member, tables, out, veto)

    for npass in range(1, _MAX_BATCH_PASSES + 1):
        rows = np.nonzero(pending)[0]
        if rows.size == 0:
            break
        stopped[rows] = npass
        blocks = space.blocks if npass == 1 else [(b, None) for b in _pass_blocks(rows, member)]
        helped = _self_schedule(run, blocks)
        if tracer.enabled:
            tracer.metrics.counter("apples.blocks").inc(len(blocks))
            tracer.metrics.counter("apples.helper_blocks").inc(helped)
    else:
        # Rows still pending after the structural bound: let the scalar
        # planner raise (or converge) exactly as solo would.
        out.fallback[pending] = True

    # Follow each continuation chain to the row that finished, adding up
    # the passes the chain stands for and OR-ing the vetoes along it.
    crows = np.nonzero(continues >= 0)[0]
    if crows.size == 0:
        return
    final = continues[crows]
    passes = stopped[crows].copy()
    vetoed = veto[crows].copy()
    while True:
        further = continues[final]
        chained = further >= 0
        if not chained.any():
            break
        passes[chained] += stopped[final[chained]]
        vetoed[chained] |= veto[final[chained]]
        final[chained] = further[chained]
    passes += stopped[final]
    veto[crows] = vetoed | veto[final]
    within = passes <= _MAX_BATCH_PASSES
    src, dst = final[within], crows[within]
    for outcome in (out.feasible, out.fallback, out.predicted, out.kept):
        outcome[dst] = outcome[src]
    # Past the structural bound the row would still have been pending.
    out.fallback[crows[~within]] = True


def _pass_blocks(rows, member):
    """A pass's pending ``rows`` as blocks: one, in row order, if they fit;
    else ordered by member count (stable) and cut into blocks of at most
    ``_BLOCK_CELLS`` cells, counted at each block's widest set."""
    width = np.count_nonzero(member[rows], axis=1)
    if rows.size * width.max(initial=0) <= _BLOCK_CELLS:
        return [rows]
    # In a small integer type the counts sort stably by radix sort.
    by_width = np.argsort(width.astype(np.min_scalar_type(member.shape[1])), kind="stable")
    rows, width = rows[by_width], width[by_width]
    blocks = []
    while rows.size:
        # A block's cells grow with each row, its last row being its widest.
        window = width[:_BLOCK_CELLS // max(width[0], 1)]
        cells = np.arange(1, window.size + 1) * window
        take = max(1, int(np.searchsorted(cells, _BLOCK_CELLS, side="right")))
        blocks.append(rows[:take])
        rows, width = rows[take:], width[take:]
    return blocks


def _self_schedule(run, blocks):
    """``run`` each block, taken from one shared cursor by the caller and,
    given two blocks and two usable CPUs, the helper thread; returns how
    many the helper ran.  After a block raises no block starts, and the
    error is raised once every started block has finished."""
    global _helper
    cursor = iter(blocks)  # one next() at a time, under the GIL

    def drain():
        ran = 0
        try:
            for block in cursor:
                run(block)
                ran += 1
        except BaseException:
            list(cursor)  # leave no block to start
            raise
        return ran

    if len(blocks) < 2 or usable_cpus() < 2:
        drain()
        return 0
    if _helper is None or _helper[0] != os.getpid():
        _helper = os.getpid(), ThreadPoolExecutor(1, "strip-kernel-helper")
    task = _helper[1].submit(drain)
    try:
        drain()
    finally:
        if not task.cancel():
            task.exception()  # a started helper finishes its block first
    return 0 if task.cancelled() else task.result()


def _strip_pass(
    rows, orders, member, class_of, tables, pending, fallback, veto,
    continue_shrunk, bounds,
):
    """One drop/re-balance pass over a block of pending ``rows``.

    Works in strip-order arrays only as wide as the widest member set
    among ``rows``.  Rows that empty, hit a dead link, surrender or shrink
    are settled here (``pending``, ``fallback`` and the rank-space
    ``member`` matrix updated in place), and balanced rows over a cap of
    their class's memory variant are flagged in ``veto``.  The first pass
    takes ``rows``' stored strip ``orders`` and writes every row's bound to
    ``bounds``; a later one (``orders`` ``None``) derives its orders.  Returns
    the rows that converged, as ``(rows, cls, cn, counts, valid, rates,
    transfers, areas)`` in strip order — ``cn`` is each slot's flat
    ``class * n + machine`` index into the class tables — or ``None``
    when none did.
    """
    n = member.shape[1]
    cls = class_of[rows]
    members = member[rows]
    if orders is None:
        order, cnt = batched_locality_orders(members)
    else:
        order, cnt = (a.astype(np.intp) for a in orders)
        bounds[rows] = _strip_bounds(members, order, cnt, cls, tables)
    del members
    # Rows whose member list emptied: plan() returns None.
    empty = cnt == 0
    pending[rows[empty]] = False
    if empty.all():
        return None
    valid = np.arange(order.shape[1]) < cnt[:, None]
    costs, transfers = batched_neighbor_comm_costs(
        tables.pair, order, cnt, tables.sync[cls], row_pair=cls
    )

    # Dead links: drop the single worst-cost member and re-derive, or
    # give up on a singleton — exactly the scalar branch.
    dead = (np.isinf(costs) & valid).any(axis=1)
    if dead.any():
        single = dead & (cnt == 1)
        pending[rows[single]] = False  # plan() returns None
        mrows = np.nonzero(dead & ~single)[0]
        if mrows.size:
            # First occurrence of the maximum — Python's max() tie-break.
            worst = np.argmax(costs[mrows], axis=1)
            member[rows[mrows], order[mrows, worst]] = False
            continue_shrunk(rows[mrows])
        # Dropping leaves the row pending for the next pass.

    bal = ~(dead | empty)
    if not bal.any():
        return None
    rows, cls, order, cnt, valid, costs, transfers = _select(
        bal, rows, cls, order, cnt, valid, costs, transfers
    )
    cn = cls[:, None] * n + order
    rates = np.take(tables.rates, cn)
    rates[~valid] = 0.0
    res = balance_prefix_exact_batched(rates, costs, tables.total[cls])
    del costs

    # Binding capacities send the scalar path to the reference loop: a
    # veto for the memory variant, while the blind plan goes on.
    veto[rows] |= (
        res.active & (res.allocations > np.take(tables.caps, cn) + 1e-9)
    ).any(axis=1)
    surrender = res.needs_reference
    fallback[rows[surrender]] = True
    pending[rows[surrender]] = False

    kept = res.active & (res.allocations > 0.0)
    settled = ~surrender
    none_kept = settled & ~kept.any(axis=1)
    pending[rows[none_kept]] = False  # plan() returns None
    dropped = valid & ~kept
    converged = settled & ~none_kept & ~dropped.any(axis=1)

    # Non-converged rows shrink to their kept members and re-derive.
    shrink = settled & ~none_kept & ~converged
    if shrink.any():
        r, s = np.nonzero(dropped & shrink[:, None])
        member[rows[r], order[r, s]] = False
        continue_shrunk(rows[shrink])

    if not converged.any():
        return None
    pending[rows[converged]] = False
    return _select(
        converged, rows, cls, cn, cnt, valid, rates, transfers, res.allocations
    )


def _strip_bounds(member, order, cnt, cls, tables):
    """:meth:`JacobiPlanner.lower_bounds` of rows with usable-member masks
    ``member`` and strip orders ``order``/``cnt``, each at its own width.

    Minima over a row's members come from the
    :meth:`_ClassTables.subset_minima` tables.  The water-fill takes the
    floor costs by cost and then by pool position — the order of the
    stable sort over ``machine_names()`` the bound was defined with, so
    tied members add up to the same float.
    Padding slots cost ``inf`` at rate ``0.0``: they sort last, add 0.0.
    """
    m, w = order.shape
    n = member.shape[1]
    pad = np.arange(w) >= cnt[:, None]
    cn = cls[:, None] * n + order
    # Each byte of the member mask, offset to its 256 table columns (a
    # float product of 0/1 and small powers of two is exact).
    bit = np.arange(n)
    weights = np.zeros((n, -(-n // 8)))
    weights[bit, bit // 8] = 2.0 ** (bit % 8)
    cols = (member @ weights).astype(np.intp)[:, None, :]
    cols += 256 * np.arange(weights.shape[1])

    def least(table, rows):
        """Per row and slot, the minimum over the row's members."""
        base = rows * table.shape[-1]
        out = np.take(table, base + cols[..., 0])
        for c in range(1, cols.shape[-1]):
            np.minimum(out, np.take(table, base + cols[..., c]), out=out)
        return out

    costs = least(tables.floors, cn)
    costs += tables.sync[cls][:, None]
    np.copyto(costs, np.inf, where=pad)
    rates = np.take(tables.rates, cn)
    np.copyto(rates, 0.0, where=pad)
    by_cost = np.lexsort((np.take(tables.pool_pos, cn), costs), axis=1)
    by_cost += w * np.arange(m)[:, None]
    makespans = sorted_waterfill(
        np.take(costs, by_cost), np.take(rates, by_cost), tables.total[cls][:, None]
    )
    single, min_risk = least(tables.extremes, 2 * cls[:, None] + np.arange(2)).T
    min_risk[np.isinf(min_risk)] = 0.0
    multi = makespans * tables.iters[cls] * (
        1.0 + tables.risk_aversion[cls] * min_risk
    )
    return np.minimum(single, multi)


def _finalise(
    rows, cls, cn, cnt, valid, rates, transfers, areas, member, tables, out,
    veto,
):
    """Integerise rows that converged in one pass and predict their
    risk-adjusted times, from that pass's strip-order arrays.

    A converged row keeps every member, so its strip order, rates and
    neighbour transfers are the pass's, and its kept set is its member set.
    ``rates`` is overwritten with the point times.  The memory variant's
    row-cap and paging-fit checks flag rows in ``veto``.
    """
    grid = tables.grid[cls]
    rows_int, exact = batched_largest_remainder_rows(grid, areas, cnt)
    # Row caps (the integer image of memory capacity): the scalar path runs
    # an order-dependent overflow shift when a cap binds — veto those.
    unfit = rows_int > np.take(tables.max_rows, cn)

    area_pts = (rows_int * grid[:, None]).astype(float)
    del rows_int
    # Paging: rows_int <= max_rows makes every strip fit in real memory, so
    # the scalar slowdown factor is exactly 1.0 — but certify the fits
    # check itself (footprint <= available) rather than assume it.
    foot_mb = area_pts * tables.bytes_per_point[cls][:, None] / 1e6
    unfit |= foot_mb > np.take(tables.avail, cn)
    del foot_mb
    veto[rows] |= (valid & unfit).any(axis=1)

    # T_i = A_i * P_i + C_i + sync, StripCostModel.step_time's terms in
    # its order.  P_i = 1 / rate at member slots only; padding keeps 0.0,
    # as 1 / inf would.
    point_time = np.divide(1.0, rates, out=rates, where=valid)
    times = area_pts
    times *= point_time
    times += transfers
    times += tables.sync[cls][:, None]
    step = np.max(times, axis=1, where=valid, initial=-np.inf)
    pred = step * tables.iters[cls]
    risk = np.max(np.take(tables.risks, cn), axis=1, where=valid, initial=0.0)
    pred = pred * (1.0 + tables.risk_aversion[cls] * risk)

    gd = rows[exact]
    out.feasible[gd] = True
    out.predicted[gd] = pred[exact]
    out.kept[gd] = member[gd]
    out.fallback[rows[~exact]] = True


class _NominalMixin:
    """Shared helper: a nominal (NWS-free) view of the same topology.

    The compile-time baselines must not see dynamic information even when
    the experiment's Information Pool carries an NWS; they re-wrap the
    topology without it.
    """

    @staticmethod
    def nominal_pool(info: InformationPool) -> ResourcePool:
        return ResourcePool(info.pool.topology, nws=None)


class StaticStripPlanner(_NominalMixin):
    """The Figure 4 baseline: non-uniform strips from nominal capability.

    Strip heights proportional to nominal MFLOP/s ("parameterized by
    (non-uniform) CPU speeds and bandwidth for the workstation network",
    §5); all machines of the resource set participate; computed once at
    compile time, blind to load, contention and memory.
    """

    def __init__(self, problem: JacobiProblem) -> None:
        self.problem = problem

    def plan(self, resource_set: Sequence[str], info: InformationPool) -> Schedule | None:
        nominal = self.nominal_pool(info)
        model = StripCostModel(nominal, self.problem, account_memory=False)
        order = locality_order(nominal, list(resource_set))
        if not order:
            return None
        weights = [nominal.machine_info(m).speed_mflops for m in order]
        partition = nonuniform_strip(self.problem.n, order, weights)
        return schedule_from_strip_partition(partition, self.problem, model, "static-strip")


class UniformStripPlanner(_NominalMixin):
    """Equal strips over all machines of the set — the naive hand schedule."""

    def __init__(self, problem: JacobiProblem) -> None:
        self.problem = problem

    def plan(self, resource_set: Sequence[str], info: InformationPool) -> Schedule | None:
        nominal = self.nominal_pool(info)
        model = StripCostModel(nominal, self.problem, account_memory=False)
        order = locality_order(nominal, list(resource_set))
        if not order:
            return None
        if len(order) > self.problem.n:
            return None
        partition = uniform_strip(self.problem.n, order)
        return schedule_from_strip_partition(partition, self.problem, model, "uniform-strip")


class BlockedPlanner(_NominalMixin):
    """The HPF Uniform/Blocked baseline (Figures 5 and 6).

    Equal 2-D tiles over every machine in the set; "a reasonable choice for
    the user who is trying to optimize the performance of Jacobi2D at
    compile time" — and exactly the schedule that spills memory in
    Figure 6, because HPF's distribution directives carry no memory model.
    """

    def __init__(self, problem: JacobiProblem) -> None:
        self.problem = problem

    def plan(self, resource_set: Sequence[str], info: InformationPool) -> Schedule | None:
        nominal = self.nominal_pool(info)
        order = locality_order(nominal, list(resource_set))
        if not order:
            return None
        if len(order) > self.problem.n:
            return None
        partition = blocked_partition(self.problem.n, order)
        predicted = self._predict(partition, nominal)
        allocations = self._allocations(partition)
        return Schedule(
            allocations=allocations,
            predicted_time=predicted,
            decomposition="hpf-blocked",
            metadata={"partition": partition, "problem": self.problem},
        )

    def _allocations(self, partition: BlockPartition) -> list[Allocation]:
        out = []
        per_point = self.problem.border_bytes_per_point
        for i in range(partition.pr):
            for j in range(partition.pc):
                blk = partition.block_at(i, j)
                comm: dict[str, float] = {}
                for nbr in partition.neighbors(i, j):
                    shared = (
                        blk.col_count
                        if nbr.row_start != blk.row_start
                        else blk.row_count
                    )
                    comm[nbr.machine] = comm.get(nbr.machine, 0.0) + 2.0 * shared * per_point
                out.append(
                    Allocation(
                        machine=blk.machine,
                        task="sweep",
                        work_units=float(blk.area),
                        footprint_mb=self.problem.footprint_mb(blk.area),
                        comm_bytes=comm,
                    )
                )
        return out

    def _predict(self, partition: BlockPartition, nominal: ResourcePool) -> float:
        """Nominal prediction: max over tiles of compute + border time."""
        per_point = self.problem.border_bytes_per_point
        worst = 0.0
        for i in range(partition.pr):
            for j in range(partition.pc):
                blk = partition.block_at(i, j)
                speed = nominal.machine_info(blk.machine).speed_mflops
                compute = (
                    blk.area * self.problem.flop_per_point / speed if speed > 0 else float("inf")
                )
                comm = 0.0
                for nbr in partition.neighbors(i, j):
                    shared = (
                        blk.col_count if nbr.row_start != blk.row_start else blk.row_count
                    )
                    comm += nominal.predicted_transfer_time(
                        blk.machine, nbr.machine, 2.0 * shared * per_point
                    )
                worst = max(worst, compute + comm + self.problem.sync_overhead_s)
        return worst * self.problem.iterations


class ApplesBlockedPlanner(BlockedPlanner):
    """AppLeS planning over *generalised* block decompositions.

    The paper's user "specified that only strip decompositions should be
    considered during the planning of the schedule" because non-strip
    predictions were considered too non-linear (§5).  This planner is the
    deferred alternative: a heterogeneous block distribution whose tile
    areas track NWS-forecast deliverable rates, predicted with the same
    per-tile ``area·P + C`` model.  The decomposition ablation compares it
    against the strip planner.
    """

    def __init__(
        self,
        problem: JacobiProblem,
        conservatism_sigmas: float = 1.0,
        risk_aversion: float = 2.0,
    ) -> None:
        super().__init__(problem)
        if conservatism_sigmas < 0 or risk_aversion < 0:
            raise ValueError("conservatism_sigmas and risk_aversion must be >= 0")
        self.conservatism_sigmas = conservatism_sigmas
        self.risk_aversion = risk_aversion

    def lower_bounds(
        self, candidate_sets: Sequence[Sequence[str]], info: InformationPool
    ) -> np.ndarray:
        """Admissible predicted-time lower bound per candidate set.

        The generalised block partition covers the whole grid, so its worst
        tile time is at least the ideal fractional time balance with every
        per-tile cost relaxed down to the sync overhead; the risk
        multiplier is at least ``1 + risk_aversion × min member risk``.
        Same argument as the strip planner's.
        """
        forecasts = info.forecasts
        names = forecasts.machine_names()
        rates = np.array(
            [
                forecasts.predicted_speed_conservative(n, self.conservatism_sigmas)
                / self.problem.flop_per_point
                for n in names
            ]
        )
        usable = rates > 0.0
        members = CandidateSets.of(candidate_sets, names).masks_over(names)
        mask = members & usable[None, :]
        safe_rates = np.where(usable, rates, 1.0)
        sync = np.full(len(names), self.problem.sync_overhead_s)
        makespans = balance_divisible_work_batched(
            safe_rates, sync, float(self.problem.total_points), mask
        )
        risks = np.asarray(_member_risks(names, info))
        min_risk = np.where(mask, risks, np.inf).min(axis=1)
        min_risk = np.where(np.isfinite(min_risk), min_risk, 0.0)
        return (
            makespans
            * self.problem.iterations
            * (1.0 + self.risk_aversion * min_risk)
        )

    def plan(self, resource_set: Sequence[str], info: InformationPool) -> Schedule | None:
        machines = _locality_ranked(info, list(resource_set))
        rates = [
            info.forecasts.predicted_speed_conservative(m, self.conservatism_sigmas)
            for m in machines
        ]
        usable = [(m, r) for m, r in zip(machines, rates) if r > 0.0]
        if not usable:
            return None
        machines = [m for m, _ in usable]
        rates = [r for _, r in usable]
        if len(machines) > self.problem.n:
            return None
        partition = generalized_block_partition(self.problem.n, machines, rates)
        predicted = self._predict_dynamic(partition, info)
        predicted *= 1.0 + self.risk_aversion * _availability_risk(machines, info)
        return Schedule(
            allocations=self._allocations(partition),
            predicted_time=predicted,
            decomposition="apples-blocked",
            metadata={"partition": partition, "problem": self.problem},
        )

    def _predict_dynamic(self, partition: BlockPartition, info: InformationPool) -> float:
        """Per-tile ``area·P_i + C_i`` with forecast rates and bandwidths."""
        forecasts = info.forecasts
        per_point = self.problem.border_bytes_per_point
        worst = 0.0
        for i in range(partition.pr):
            for j in range(partition.pc):
                blk = partition.block_at(i, j)
                speed = forecasts.predicted_speed_conservative(
                    blk.machine, self.conservatism_sigmas
                )
                if speed <= 0:
                    return float("inf")
                compute = blk.area * self.problem.flop_per_point / speed
                comm = 0.0
                for nbr in partition.neighbors(i, j):
                    shared = (
                        blk.col_count if nbr.row_start != blk.row_start else blk.row_count
                    )
                    comm += forecasts.predicted_transfer_time(
                        blk.machine, nbr.machine, 2.0 * shared * per_point
                    )
                worst = max(worst, compute + comm + self.problem.sync_overhead_s)
        return worst * self.problem.iterations


class PreferencePlanner:
    """Dispatch on the User Specification's decomposition preference.

    The paper's user "specified that only strip decompositions should be
    considered" (§5) — the preference lives in the User Specification and
    the Planner honours it.  With several admissible families, each is
    planned and the best-predicted schedule wins.
    """

    def __init__(self, planners: dict[str, "Planner"]) -> None:  # noqa: F821
        if not planners:
            raise ValueError("need at least one family planner")
        self.planners = dict(planners)

    def _active_planners(self, info: InformationPool) -> list["Planner"]:  # noqa: F821
        families = info.userspec.decomposition_preference or tuple(self.planners)
        return [
            self.planners[family] for family in families if family in self.planners
        ]

    def batch_planner(self, info: InformationPool) -> "Planner | None":  # noqa: F821
        """The single active family's batch planner, when there is one.

        With several active families the dispatcher's predicted time is a
        min across them, which the one-shot batched sweep cannot replay —
        so only a lone batch-capable family opts the configuration in.
        """
        active = self._active_planners(info)
        if len(active) != 1:
            return None
        hook = getattr(active[0], "batch_planner", None)
        return hook(info) if hook is not None else None

    def lower_bounds(
        self, candidate_sets: Sequence[Sequence[str]], info: InformationPool
    ) -> np.ndarray | None:
        """Element-wise minimum of the active families' bounds.

        The dispatcher's predicted time is the min over families, so the
        min of admissible per-family bounds is itself admissible.  If any
        active family lacks bounds, pruning is disabled entirely (None).
        """
        bounds: np.ndarray | None = None
        planners = self._active_planners(info)
        if not planners:
            return None
        for planner in planners:
            fn = getattr(planner, "lower_bounds", None)
            if fn is None:
                return None
            family_bounds = np.asarray(fn(candidate_sets, info), dtype=float)
            bounds = (
                family_bounds
                if bounds is None
                else np.minimum(bounds, family_bounds)
            )
        return bounds

    def plan(self, resource_set: Sequence[str], info: InformationPool) -> Schedule | None:
        best: Schedule | None = None
        for planner in self._active_planners(info):
            sched = planner.plan(resource_set, info)
            if sched is None:
                continue
            if best is None or sched.predicted_time < best.predicted_time:
                best = sched
        return best


def make_jacobi_agent(
    testbed: Testbed,
    problem: JacobiProblem,
    nws: NetworkWeatherService | None = None,
    userspec: UserSpecification | None = None,
    selector: ResourceSelector | None = None,
    account_memory: bool = True,
) -> AppLeSAgent:
    """Assemble the complete Jacobi2D AppLeS agent for a testbed.

    The User Specification's ``decomposition_preference`` selects the
    planning family: the default ``("strip",)`` reproduces the paper's
    §5 restriction; ``("strip", "blocked")`` lets the agent weigh the
    generalised-block planner as well.  With ``nws=None`` the agent plans
    from nominal information only — the information ablation of the
    benchmarks.
    """
    pool = ResourcePool(testbed.topology, nws)
    info = InformationPool(
        pool=pool,
        hat=jacobi_hat(problem),
        userspec=userspec if userspec is not None else UserSpecification(),
    )
    families = {
        "strip": JacobiPlanner(problem, account_memory=account_memory),
        "blocked": ApplesBlockedPlanner(problem),
    }
    unknown = [f for f in info.userspec.decomposition_preference
               if f not in families]
    if unknown:
        raise ValueError(
            f"unknown decomposition preference(s) {unknown}; "
            f"available: {sorted(families)}"
        )
    planner = PreferencePlanner(families)
    info.register_model("jacobi-strip-cost", StripCostModel(pool, problem, account_memory))
    return AppLeSAgent(info, planner=planner, selector=selector)
