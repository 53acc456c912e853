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
from repro.core.selector import ResourceSelector, member_masks_over
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

    if info.decision_cache is None:
        return build()
    return forecasts.derived(("locality-order", names), build)


def _locality_ranked(info: InformationPool, machines: list[str]) -> list[str]:
    """``locality_order`` by the pool's shared locality rank.

    The locality key is a *total* order over the pool, so sorting a subset
    by the full-pool rank yields exactly ``locality_order``'s result while
    avoiding two ``machine_info`` constructions per comparison.  Outside a
    decision (or for machines outside the pool) this falls back to the
    direct sort.
    """
    if info.decision_cache is None:
        return locality_order(info.forecasts, machines)
    _, rank = _pool_locality(info)
    try:
        return sorted(machines, key=rank.__getitem__)
    except KeyError:
        return locality_order(info.forecasts, machines)


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

    def _model(self, info: InformationPool) -> StripCostModel:
        """The cost model over ``info.forecasts`` — memoised per decision.

        Outside a decision (:meth:`AppLeSAgent.schedule_reference`) a
        fresh model over the pool is built per call, matching the seed
        implementation exactly.
        """
        cache = info.decision_cache
        key = ("jacobi-model", id(self))
        model = cache.memo.get(key) if cache is not None else None
        if model is None:
            model = StripCostModel(
                info.forecasts, self.problem, self.account_memory,
                conservatism_sigmas=self.conservatism_sigmas,
            )
            if cache is not None:
                cache.memo[key] = model
        return model

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
        masks = member_masks_over(candidate_sets, inputs.rank_names)
        member = masks & (inputs.rates > 0.0)
        order, cnt = batched_locality_orders(member)
        return _strip_bounds(
            member, order, cnt, np.zeros(len(member), dtype=np.int64),
            _JobTables.stack([inputs]),
        )

    def plan(self, resource_set: Sequence[str], info: InformationPool) -> Schedule | None:
        model = self._model(info)
        order = _locality_ranked(info, list(resource_set))
        order = [m for m in order if model.point_rate(m) > 0.0]
        if not order:
            return None
        total = float(self.problem.total_points)

        # Plan-continuation memo: from a given machine order onward, plan()
        # is a deterministic function of that order alone — many candidate
        # sets drop members and converge onto the same ordered subset, so
        # their continuations (and final schedules) are shared.  Only valid
        # while the pool is frozen, i.e. inside a decision.
        cache = info.decision_cache
        memo = cache.memo if cache is not None else None
        visited: list[tuple[str, ...]] = []

        def _finish(schedule: Schedule | None) -> Schedule | None:
            if memo is not None:
                for key_order in visited:
                    memo[("jacobi-plan", id(self), key_order)] = schedule
            return schedule

        for _ in range(_MAX_REPLAN):
            if memo is not None:
                key = ("jacobi-plan", id(self), tuple(order))
                if key in memo:
                    hit = memo[key]
                    if visited:  # propagate to the orders that led here
                        _finish(hit)
                    if hit is None:
                        return None
                    # Fresh object per evaluation (value-identical): rows in
                    # decision.evaluations must not alias one another.
                    return replace(hit)
                visited.append(tuple(order))
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
        member risks — once per (planner, decision), in locality-rank
        order so batched candidate masks can be evaluated without any
        per-candidate queries.  Values come from the same decision-scoped
        model (over the same snapshot) the scalar path uses, so they are
        the *same floats*; inside a decision the whole bundle is memoised, so
        repeated stagings at one pool state (the daemon's reuse layer)
        rebuild nothing.
        """
        cache = info.decision_cache
        key = ("jacobi-batch-inputs", id(self))
        if cache is not None:
            memo = cache.memo.get(key)
            if memo is not None:
                return memo
        model = self._model(info)
        rank_names, _ = _pool_locality(info)
        position = {m: i for i, m in enumerate(info.forecasts.machine_names())}
        rates = np.array([model.point_rate(m) for m in rank_names])
        caps = (
            np.array([model.capacity_points(m) for m in rank_names])
            if self.account_memory
            else None
        )
        avail_mb = np.array(
            [info.machine_info(m).memory_available_mb for m in rank_names]
        )
        inputs = StripBatchInputs(
            planner=self,
            rank_names=rank_names,
            pool_positions=np.array([position[m] for m in rank_names]),
            rates=rates,
            caps=caps,
            avail_mb=avail_mb,
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
        if cache is not None:
            cache.memo[key] = inputs
        return inputs


@dataclass(frozen=True)
class StripBatchInputs:
    """One request's strip-planning ingredients in locality-rank space.

    Produced by :meth:`JacobiPlanner.batch_inputs`; consumed (possibly
    stacked with other requests') by :func:`evaluate_strip_batch`.
    """

    planner: "JacobiPlanner"
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

    def rows(self, span: slice) -> "StripBatchEvaluation":
        """The outcomes of the rows in ``span``, as views."""
        return StripBatchEvaluation(
            self.feasible[span], self.fallback[span],
            self.predicted[span], self.kept[span], self.bounds[span],
        )


# Structural bound on batched re-plan passes: membership shrinks by at
# least one machine per pass per row, matching the scalar _MAX_REPLAN.
_MAX_BATCH_PASSES = _MAX_REPLAN


def evaluate_strip_batch(
    jobs: Sequence[tuple[StripBatchInputs, np.ndarray]],
    chunk_rows: int = 32768,
) -> list[StripBatchEvaluation]:
    """Evaluate the candidate sets of many scheduling requests at once.

    ``jobs`` pairs each request's :class:`StripBatchInputs` with its
    ``(m_j, n)`` rank-space candidate masks.  All rows of all jobs are
    stacked into one index space and driven through NumPy replicas of the
    scalar plan pipeline — locality orders, neighbour comm costs, the
    drop/re-balance fixpoint, largest-remainder integerisation, and the
    risk-adjusted step-time prediction — in chunks of ``chunk_rows``
    (at least 1) to bound peak memory.  Each fixpoint pass works in
    strip-order arrays only as wide as the widest member set among its
    rows, gathers every row's neighbour transfers once, and finalises the
    rows that converge in it straight from those arrays.  The first pass,
    before any member is dropped, also bounds every row from its arrays
    (:func:`_strip_bounds`).

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
    if chunk_rows < 1:
        raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows!r}")
    if not jobs:
        return []
    n = len(jobs[0][0].rank_names)
    for inputs, masks in jobs:
        if len(inputs.rank_names) != n or masks.shape[1] != n:
            raise ValueError("all jobs must share one machine universe size")

    tables = _JobTables.stack([inputs for inputs, _ in jobs])
    all_masks = np.concatenate(
        [np.asarray(masks, dtype=bool) for _, masks in jobs]
    )
    job_of = np.concatenate(
        [
            np.full(len(masks), j, dtype=np.int64)
            for j, (_, masks) in enumerate(jobs)
        ]
    )

    total_rows = all_masks.shape[0]
    out = StripBatchEvaluation(
        feasible=np.zeros(total_rows, dtype=bool),
        fallback=np.zeros(total_rows, dtype=bool),
        predicted=np.full(total_rows, np.inf),
        kept=np.zeros((total_rows, n), dtype=bool),
        bounds=np.full(total_rows, np.inf),
    )
    for lo in range(0, total_rows, chunk_rows):
        chunk = slice(lo, lo + chunk_rows)
        _evaluate_chunk(all_masks[chunk], job_of[chunk], tables, out.rows(chunk))

    stops = np.cumsum([len(masks) for _, masks in jobs])
    return [out.rows(slice(stop - len(masks), stop))
            for stop, (_, masks) in zip(stops, jobs)]


class _JobTables(NamedTuple):
    """The jobs of one :func:`evaluate_strip_batch` call, stacked per field.

    Per-machine tables are ``(J, n)`` in rank space, read by the flat index
    ``job * n + machine``; ``pair`` is ``(J, n, n)``; ``floors`` (row
    ``job * n + machine``) and ``extremes`` (rows ``2 * job`` and ``2 * job
    + 1``) are :meth:`subset_minima` tables; the rest are ``(J,)``.
    """

    rates: np.ndarray
    caps: np.ndarray  # inf for memory-blind jobs
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
    memory: np.ndarray
    pool_pos: np.ndarray
    floors: np.ndarray  # border exchange with another member
    extremes: np.ndarray  # singleton relaxation; member risk

    @classmethod
    def stack(cls, inputs: Sequence[StripBatchInputs]) -> "_JobTables":
        n = len(inputs[0].rank_names)
        caps = np.stack(
            [i.caps if i.caps is not None else np.full(n, np.inf) for i in inputs]
        )
        grid = np.array([i.grid_n for i in inputs], dtype=np.int64)
        with np.errstate(invalid="ignore"):  # inf caps on memory-blind jobs
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
        jobs = len(inputs)
        extremes = np.stack([single, risks], axis=1).reshape(2 * jobs, n)
        minima = cls.subset_minima(
            np.concatenate([other.reshape(jobs * n, n), extremes])
        )
        return cls(
            rates=rates,
            caps=caps,
            max_rows=max_rows,
            avail=np.stack([i.avail_mb for i in inputs]),
            risks=risks,
            pair=pair,
            sync=sync,
            total=total,
            grid=grid,
            bytes_per_point=np.array([i.bytes_per_point for i in inputs]),
            iters=iters,
            risk_aversion=risk_aversion,
            memory=np.array([i.account_memory for i in inputs]),
            pool_pos=np.stack([i.pool_positions for i in inputs]),
            floors=minima[:jobs * n],
            extremes=minima[jobs * n:],
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


def _member_keys(member: np.ndarray, job_of: np.ndarray) -> np.ndarray:
    """One opaque key per row: its job and its packed membership bits.

    Equal keys mean the same job and the same member set, for any universe
    size; the keys sort and compare as fixed-width byte strings.
    """
    job = job_of.astype(">u8").view(np.uint8).reshape(-1, 8)
    key = np.ascontiguousarray(
        np.concatenate([job, np.packbits(member, axis=1)], axis=1)
    )
    return key.view(np.dtype((np.void, key.shape[1]))).ravel()


def _select(keep: np.ndarray, *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The rows ``keep`` marks of each array — the arrays themselves, not
    copies, when it marks every row."""
    if keep.all():
        return arrays
    idx = np.nonzero(keep)[0]
    return tuple(a[idx] for a in arrays)


def _evaluate_chunk(masks, job_of, tables, out):
    """One chunk of :func:`evaluate_strip_batch` (results written to ``out``)."""
    stopped, continues = _fixpoint(masks, job_of, tables, out)

    # Follow each continuation chain to the row that finished, adding up
    # the passes the chain stands for.
    crows = np.nonzero(continues >= 0)[0]
    if crows.size == 0:
        return
    final = continues[crows]
    passes = stopped[crows].copy()
    while True:
        further = continues[final]
        chained = further >= 0
        if not chained.any():
            break
        passes[chained] += stopped[final[chained]]
        final[chained] = further[chained]
    passes += stopped[final]
    within = passes <= _MAX_BATCH_PASSES
    src, dst = final[within], crows[within]
    for outcome in (out.feasible, out.fallback, out.predicted, out.kept):
        outcome[dst] = outcome[src]
    # Past the structural bound the row would still have been pending.
    out.fallback[crows[~within]] = True


def _fixpoint(masks, job_of, tables, out):
    """The drop/re-balance fixpoint of one chunk of rows.

    Batch plan continuation: from a given member set onward, a row's
    fixpoint depends on that set alone — the scalar planner's
    ``("jacobi-plan", ...)`` continuation memo, applied across rows.  A row
    whose members shrink (balance drop or dead-link drop) to the starting
    member set of another row of the same job in this chunk stops
    iterating and takes that row's final outcome; the passes the other row
    needs count toward ``_MAX_BATCH_PASSES`` exactly as the passes they
    replace.  On exhaustive candidate spaces every shrunk set is some row's
    start, so the fixpoint ends after one pass.

    Each pass (:func:`_strip_pass`) settles its rows at its own width and
    hands back the ones that converged, with the strip-order arrays they
    converged in; its other temporaries are freed when it returns, before
    :func:`_finalise` writes those rows' outcomes.  Returns ``(stopped,
    continues)``: the pass in which each row stopped iterating, and the
    row each continued row takes its outcome from (``-1`` for none).
    Surrendered rows are flagged in ``out.fallback``.
    """
    m = masks.shape[0]
    # The scalar plan first filters members predicted to deliver nothing.
    member = masks & (tables.rates > 0.0)[job_of]
    starts = _member_keys(member, job_of)
    by_start = np.argsort(starts, kind="stable")
    sorted_starts = starts[by_start]
    del starts

    pending = np.ones(m, dtype=bool)
    # The pass in which each row stopped iterating; a continued row also
    # names the row whose outcome it takes.
    stopped = np.zeros(m, dtype=np.int64)
    continues = np.full(m, -1, dtype=np.int64)

    def continue_shrunk(grows):
        """Rows ``grows`` just shrank; those whose member set now starts
        another row stop iterating and continue as that row."""
        keys = _member_keys(member[grows], job_of[grows])
        pos = np.minimum(np.searchsorted(sorted_starts, keys), m - 1)
        hit = sorted_starts[pos] == keys
        continues[grows[hit]] = by_start[pos[hit]]
        pending[grows[hit]] = False

    for npass in range(1, _MAX_BATCH_PASSES + 1):
        rows = np.nonzero(pending)[0]
        if rows.size == 0:
            break
        stopped[rows] = npass
        converged = _strip_pass(
            rows, member, job_of, tables, pending, out.fallback, continue_shrunk,
            out.bounds if npass == 1 else None,
        )
        if converged is not None:
            _finalise(*converged, member, tables, out)
    else:
        # Rows still pending after the structural bound: let the scalar
        # planner raise (or converge) exactly as solo would.
        out.fallback[pending] = True
        pending[:] = False

    return stopped, continues


def _strip_pass(
    rows, member, job_of, tables, pending, fallback, continue_shrunk, bounds
):
    """One drop/re-balance pass over the pending ``rows`` of a chunk.

    Works in strip-order arrays only as wide as the widest member set
    among ``rows``.  Rows that empty, hit a dead link, surrender or shrink
    are settled here (``pending``, ``fallback`` and the rank-space
    ``member`` matrix updated in place); the first pass also writes every
    row's bound to ``bounds`` (``None`` later).  Returns the rows that
    converged, as ``(rows, jobs, jn, counts, valid, rates, transfers,
    areas)`` in strip order — ``jn`` is each slot's flat ``job * n +
    machine`` index into the job tables — or ``None`` when none did.
    """
    n = member.shape[1]
    jobs = job_of[rows]
    members = member[rows]
    order, cnt = batched_locality_orders(members)
    if bounds is not None:
        bounds[rows] = _strip_bounds(members, order, cnt, jobs, tables)
    del members
    # Rows whose member list emptied: plan() returns None.
    empty = cnt == 0
    pending[rows[empty]] = False
    if empty.all():
        return None
    valid = np.arange(order.shape[1]) < cnt[:, None]
    costs, transfers = batched_neighbor_comm_costs(
        tables.pair, order, cnt, tables.sync[jobs], row_pair=jobs
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
    rows, jobs, order, cnt, valid, costs, transfers = _select(
        bal, rows, jobs, order, cnt, valid, costs, transfers
    )
    jn = jobs[:, None] * n + order
    rates = np.take(tables.rates, jn)
    rates[~valid] = 0.0
    res = balance_prefix_exact_batched(rates, costs, tables.total[jobs])
    del costs

    # Binding capacities send the scalar path to the reference loop.
    over_cap = (
        res.active & (res.allocations > np.take(tables.caps, jn) + 1e-9)
    ).any(axis=1) & tables.memory[jobs]
    surrender = res.needs_reference | over_cap
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
        converged, rows, jobs, jn, cnt, valid, rates, transfers, res.allocations
    )


def _strip_bounds(member, order, cnt, jobs, tables):
    """:meth:`JacobiPlanner.lower_bounds` of rows with usable-member masks
    ``member`` and strip orders ``order``/``cnt``, each at its own width.

    Minima over a row's members come from the :meth:`_JobTables.subset_minima`
    tables.  The water-fill takes the floor costs by cost and then by pool
    position — the order of the stable sort over ``machine_names()`` the
    bound was defined with, so tied members add up to the same float.
    Padding slots cost ``inf`` at rate ``0.0``: they sort last, add 0.0.
    """
    m, w = order.shape
    n = member.shape[1]
    pad = np.arange(w) >= cnt[:, None]
    jn = jobs[:, None] * n + order
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

    costs = least(tables.floors, jn)
    costs += tables.sync[jobs][:, None]
    np.copyto(costs, np.inf, where=pad)
    rates = np.take(tables.rates, jn)
    np.copyto(rates, 0.0, where=pad)
    by_cost = np.lexsort((np.take(tables.pool_pos, jn), costs), axis=1)
    by_cost += w * np.arange(m)[:, None]
    makespans = sorted_waterfill(
        np.take(costs, by_cost), np.take(rates, by_cost), tables.total[jobs][:, None]
    )
    single, min_risk = least(tables.extremes, 2 * jobs[:, None] + np.arange(2)).T
    min_risk[np.isinf(min_risk)] = 0.0
    multi = makespans * tables.iters[jobs] * (
        1.0 + tables.risk_aversion[jobs] * min_risk
    )
    return np.minimum(single, multi)


def _finalise(
    rows, jobs, jn, cnt, valid, rates, transfers, areas, member, tables, out
):
    """Integerise rows that converged in one pass and predict their
    risk-adjusted times, from that pass's strip-order arrays.

    A converged row keeps every member, so its strip order, rates and
    neighbour transfers are the pass's, and its kept set is its member set.
    ``rates`` is overwritten with the point times.
    """
    grid = tables.grid[jobs]
    rows_int, exact = batched_largest_remainder_rows(grid, areas, cnt)
    bad = ~exact
    # Row caps (the integer image of memory capacity): the scalar path runs
    # an order-dependent overflow shift when a cap binds — surrender those.
    mem = tables.memory[jobs]
    bad |= mem & (valid & (rows_int > np.take(tables.max_rows, jn))).any(axis=1)

    area_pts = (rows_int * grid[:, None]).astype(float)
    del rows_int
    # Paging: rows_int <= max_rows makes every strip fit in real memory, so
    # the scalar slowdown factor is exactly 1.0 — but certify the fits
    # check itself (footprint <= available) rather than assume it.
    foot_mb = area_pts * tables.bytes_per_point[jobs][:, None] / 1e6
    bad |= mem & (valid & (foot_mb > np.take(tables.avail, jn))).any(axis=1)
    del foot_mb

    # T_i = A_i * P_i + C_i + sync, StripCostModel.step_time's terms in
    # its order.  P_i = 1 / rate at member slots only; padding keeps 0.0,
    # as 1 / inf would.
    point_time = np.divide(1.0, rates, out=rates, where=valid)
    times = area_pts
    times *= point_time
    times += transfers
    times += tables.sync[jobs][:, None]
    step = np.max(times, axis=1, where=valid, initial=-np.inf)
    pred = step * tables.iters[jobs]
    risk = np.max(np.take(tables.risks, jn), axis=1, where=valid, initial=0.0)
    pred = pred * (1.0 + tables.risk_aversion[jobs] * risk)

    good = ~bad
    gd = rows[good]
    out.feasible[gd] = True
    out.predicted[gd] = pred[good]
    out.kept[gd] = member[gd]
    out.fallback[rows[bad]] = True


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
        mask = member_masks_over(candidate_sets, names) & usable[None, :]
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
