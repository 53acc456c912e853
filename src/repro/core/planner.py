"""Planners: resource set → candidate schedule.

"The Planner generates a description of a resource-dependent schedule from
a given resource combination" (§4.1).  Each application ships its own
planner; this module provides the protocol plus the workhorse they share:
:func:`balance_divisible_work`, which balances *time* (not work) across
heterogeneous machines — the essence of the AppLeS Jacobi2D partitioner
("AppLeS seeks to balance time directly", §5).

The balancing problem: machines ``i`` process work at predicted rate
``r_i`` (units/second) and pay a fixed per-step cost ``c_i`` (seconds,
typically communication).  Find non-negative allocations ``A_i`` summing to
``U`` that minimise ``max_i (A_i / r_i + c_i)``.  At the optimum every
machine with ``A_i > 0`` finishes at the same instant ``T``, so
``A_i = r_i (T - c_i)``; machines whose fixed cost exceeds ``T`` get
nothing (dropping them is *resource selection falling out of planning*).
Capacity limits (real memory) clamp allocations and the remainder
re-balances over the rest.

:func:`balance_divisible_work` runs the seed's iterative drop/re-balance
loop (:func:`_balance_reference`); inside a decision the strip planner's
plan-continuation memo leaves it one call per plan.
:func:`balance_prefix_exact_batched` is the one **closed-form
water-filling** pass, for many rows at once: it finds each row's final
active set in one scan over the sorted fixed-cost breakpoints, then
computes the terminating arithmetic with exactly the loop's summation
order, so every row it certifies is bit-identical to the loop; rows it
cannot certify (breakpoint ties beyond float resolution) are flagged for
the scalar planner.

:func:`balance_divisible_work_batched` water-fills **many** candidate
machine sets over one shared machine universe in a single NumPy call —
the vector engine behind the blocked and divisible planners' pruning
bounds; :func:`sorted_waterfill`, its prefix selection, also serves the
strip planner's bounds inside the batched strip kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Protocol, Sequence

import math

import numpy as np

from repro.core.infopool import InformationPool
from repro.core.schedule import Schedule
from repro.core.selector import member_masks_over
from repro.util.validation import check_positive

__all__ = [
    "Planner",
    "BalanceResult",
    "ExactBatchBalance",
    "balance_divisible_work",
    "balance_divisible_work_batched",
    "balance_prefix_exact_batched",
    "sorted_waterfill",
    "fractional_time_floor",
    "ordered_sum",
    "TimeBalancedPlanner",
]


def ordered_sum(values: Iterable[float]) -> float:
    """``values`` added left to right in plain float arithmetic.

    The summation the batched kernels mirror with a left-to-right
    ``np.cumsum``.  An explicit loop rather than ``sum()``: since Python
    3.12, ``sum()`` of floats is compensated and can round differently.
    """
    total = 0.0
    for value in values:
        total += value
    return total


class Planner(Protocol):
    """Protocol all application planners implement.

    Planners may additionally offer an *optional* fast-path hook the
    Coordinator probes for (see :mod:`repro.core.coordinator`):
    ``lower_bounds(candidate_sets, info) -> Sequence[float]``, an
    admissible (never over-estimating) lower bound on the predicted time
    of the best schedule this planner could produce on each candidate set,
    computed vectorized for the whole list at once.
    """

    def plan(self, resource_set: Sequence[str], info: InformationPool) -> Schedule | None:
        """Produce a candidate schedule for ``resource_set``.

        Returns None when no feasible schedule exists on this set (e.g. a
        required task has no implementation on any member architecture).
        """
        ...


@dataclass(frozen=True)
class BalanceResult:
    """Outcome of :func:`balance_divisible_work`.

    Attributes
    ----------
    allocations:
        Work units per input machine (0.0 for dropped machines), aligned
        with the input order.
    makespan:
        The common finish time ``T`` of the loaded machines.
    dropped:
        Indices whose fixed cost made them useless at the optimum.
    saturated:
        Indices clamped at their capacity.
    """

    allocations: list[float]
    makespan: float
    dropped: tuple[int, ...]
    saturated: tuple[int, ...]


def balance_divisible_work(
    rates: Sequence[float],
    fixed_costs: Sequence[float],
    total_units: float,
    capacities: Sequence[float] | None = None,
) -> BalanceResult | None:
    """Time-balance ``total_units`` of divisible work across machines.

    Parameters
    ----------
    rates:
        Predicted processing rates ``r_i`` in units/second (must be finite
        and > 0; a machine predicted to deliver nothing should be excluded
        upstream).
    fixed_costs:
        Per-step fixed costs ``c_i`` in seconds (communication, startup);
        ``inf`` drops the machine, NaN is rejected.
    total_units:
        Work to distribute, ``U > 0``.
    capacities:
        Optional per-machine maximum units (e.g. what fits in real memory).
        ``None`` entries mean unbounded.

    Returns
    -------
    BalanceResult, or None when the capacities cannot hold ``U``.
    """
    n = len(rates)
    if n == 0:
        return None
    if len(fixed_costs) != n:
        raise ValueError("rates and fixed_costs length mismatch")
    check_positive("total_units", total_units)
    rates = [float(r) for r in rates]
    fixed_costs = [float(c) for c in fixed_costs]
    for i, r in enumerate(rates):
        if not 0 < r < math.inf:
            raise ValueError(f"rate[{i}] must be finite and > 0, got {r}")
        if not fixed_costs[i] >= 0:
            raise ValueError(f"fixed_costs[{i}] must be >= 0, got {fixed_costs[i]}")
    caps = [None] * n if capacities is None else [
        None if c is None else float(c) for c in capacities
    ]
    return _balance_reference(rates, fixed_costs, float(total_units), caps)


def fractional_time_floor(
    rates: Sequence[float],
    fixed_costs: Sequence[float],
    total_units: float,
) -> float:
    """Uncapacitated fractional balanced time for one machine set.

    The makespan of :func:`balance_divisible_work` with capacities relaxed
    away: an admissible floor on the per-step time of *any* schedule a
    time-balancing planner could produce on these machines.  The scheduling
    arena reports it next to each instance's best verified objective, so a
    regret table separates "the search missed a better set" from "the
    partition itself is near its fractional optimum".  Machines predicted
    to deliver nothing must be excluded by the caller, mirroring the
    planners.  Returns ``inf`` when no machine can be loaded.
    """
    result = balance_divisible_work(rates, fixed_costs, total_units)
    return float("inf") if result is None else result.makespan


def _balance_reference(
    rates: list[float],
    fixed_costs: list[float],
    total_units: float,
    caps: list[float | None],
) -> BalanceResult | None:
    """The seed drop/re-balance loop (inputs pre-validated).

    The scalar balance, and the oracle of the batched closed form.
    ``active`` is kept as an *ascending* index list: the summation order
    of ``rate_sum`` and ``weighted_cost`` is part of the reference
    contract — :func:`balance_prefix_exact_batched` replicates it to
    return bit-identical floats.
    """
    n = len(rates)
    alloc = [0.0] * n
    active = list(range(n))
    saturated: set[int] = set()
    remaining = total_units

    # Each pass either drops a machine, saturates a machine, or terminates;
    # at most 2n passes.
    for _ in range(2 * n + 1):
        if not active:
            return None  # capacity exhausted before all work placed
        rate_sum = ordered_sum(rates[i] for i in active)
        weighted_cost = ordered_sum(rates[i] * fixed_costs[i] for i in active)
        t = (remaining + weighted_cost) / rate_sum
        # Drop machines whose fixed cost alone exceeds the balanced time.
        useless = [i for i in active if fixed_costs[i] >= t]
        if useless:
            # Drop only the single worst offender per pass: removing one can
            # change T for the rest.
            worst = max(useless, key=lambda i: fixed_costs[i])
            active.remove(worst)
            continue
        trial = {i: rates[i] * (t - fixed_costs[i]) for i in active}
        over = [
            i for i in active
            if caps[i] is not None and trial[i] > caps[i] + 1e-9  # type: ignore[operator]
        ]
        if over:
            # Saturate the most-over machine and re-balance the remainder.
            worst = max(over, key=lambda i: trial[i] - caps[i])  # type: ignore[operator]
            alloc[worst] = float(caps[worst])  # type: ignore[arg-type]
            remaining -= alloc[worst]
            saturated.add(worst)
            active.remove(worst)
            if remaining <= 1e-12:
                # Capacities consumed everything; ensure nothing negative.
                remaining = 0.0
                break
            continue
        for i in active:
            alloc[i] = trial[i]
        remaining = 0.0
        break
    else:  # pragma: no cover - loop bound is structural
        raise RuntimeError("balance_divisible_work failed to converge")

    if remaining > 1e-9:
        return None

    dropped = tuple(
        i for i in range(n) if alloc[i] == 0.0 and i not in saturated
    )
    makespan = max(
        (alloc[i] / rates[i] + fixed_costs[i]) for i in range(n) if alloc[i] > 0
    ) if any(a > 0 for a in alloc) else 0.0
    return BalanceResult(
        allocations=alloc,
        makespan=makespan,
        dropped=dropped,
        saturated=tuple(sorted(saturated)),
    )


def balance_divisible_work_batched(
    rates: Sequence[float] | np.ndarray,
    fixed_costs: Sequence[float] | np.ndarray,
    total_units: float,
    members: np.ndarray | Sequence[Sequence[bool]] | None = None,
) -> np.ndarray:
    """Water-fill many candidate sets over one machine universe at once.

    Solves, for every row mask ``S`` of ``members``, the uncapacitated
    time-balance ``min max_{i in S', A_i > 0} (A_i / r_i + c_i)`` with the
    drop semantics of :func:`balance_divisible_work` — one vectorized
    NumPy pass (sort by cost, cumulative sums, prefix selection) instead of
    one solver call per set.  This is the engine behind the blocked and
    divisible planners' pruning bounds: thousands of candidate resource
    sets bounded in a single call.

    Returns the balanced step time per candidate set, shape ``(m,)``
    (``inf`` for sets with no usable member) — the bounds read nothing
    else, so allocations are never formed.

    Parameters
    ----------
    rates / fixed_costs:
        The machine universe, ``(n,)`` each (rates > 0, costs >= 0 for
        every machine that appears in any set; masked-out entries may
        hold placeholders).  A member whose cost is ``inf`` is treated as
        unusable in that set.
    total_units:
        Work to distribute per set, ``U > 0``.
    members:
        Boolean matrix ``(m, n)``; ``None`` balances the full universe as
        a single set.

    Capacities are deliberately unsupported: the batched form exists for
    bounds and sweeps, where ignoring capacities keeps the result a valid
    lower bound (capacities only increase the optimum).
    """
    r = np.asarray(rates, dtype=float)
    c = np.asarray(fixed_costs, dtype=float)
    if r.ndim != 1 or c.shape != r.shape:
        raise ValueError("rates and fixed_costs must both be (n,) over the universe")
    n = r.shape[0]
    if members is None:
        mask = np.ones((1, n), dtype=bool)
    else:
        mask = np.asarray(members, dtype=bool)
        if mask.ndim != 2 or mask.shape[1] != n:
            raise ValueError(f"members must have shape (m, {n})")
    if not total_units > 0:
        raise ValueError("total_units must be > 0")
    if np.any((r <= 0) & mask):
        raise ValueError("every machine used by a set needs rate > 0")
    if np.any((c < 0) & mask):
        raise ValueError("every machine used by a set needs fixed cost >= 0")

    # Masked-out machines sort last (infinite cost) and contribute nothing.
    cm = np.where(mask, c, np.inf)
    rm = np.where(mask, r, 0.0)
    order = np.argsort(cm, axis=1, kind="stable")
    return sorted_waterfill(
        np.take_along_axis(cm, order, axis=1),
        np.take_along_axis(rm, order, axis=1),
        float(total_units),
    )


def sorted_waterfill(
    costs: np.ndarray, rates: np.ndarray, totals: float | np.ndarray
) -> np.ndarray:
    """:func:`balance_divisible_work_batched`'s balanced time per row of
    ``(m, w)`` slots already sorted by cost (rates add up in slot order, so
    the caller fixes the order of equal costs); ``inf``-cost slots never
    join a prefix, ``totals`` broadcasts against ``(m, 1)``."""
    # Running column sums: the left-to-right additions of a row-wise
    # cumsum, without its per-row loop over narrow rows.
    t_prefix = np.empty(costs.shape)
    k = np.zeros(costs.shape[0], dtype=np.intp)  # consistent prefixes per row
    cum_r = np.zeros(costs.shape[0])
    cum_rc = np.zeros(costs.shape[0])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(costs.shape[1]):
            # Past the first inf cost the sums turn inf or NaN (0 * inf),
            # but no prefix reaching there is consistent, so none is read.
            cum_r += rates[:, j]
            cum_rc += rates[:, j] * costs[:, j]
            column = t_prefix[:, j:j + 1]
            np.divide(totals + cum_rc[:, None], cum_r[:, None], out=column)
            k += costs[:, j] < column[:, 0]

    makespans = np.full(costs.shape[0], np.inf)
    rows = np.nonzero(k > 0)[0]
    makespans[rows] = t_prefix[rows, k[rows] - 1]
    return makespans


@dataclass(frozen=True)
class ExactBatchBalance:
    """Outcome of :func:`balance_prefix_exact_batched`.

    Attributes
    ----------
    makespans:
        Balanced time ``T`` per row (``nan`` for rows flagged
        ``needs_reference``).
    allocations:
        ``r_i (T - c_i)`` per (row, slot); zero outside the active set.
    active:
        Boolean mask of the certified active prefix per row.
    needs_reference:
        Rows the closed form could not certify (empty prefix, drop
        predicate disagrees at the final ``T``) — the caller must answer
        them with the scalar reference solver to stay bit-identical.
    """

    makespans: np.ndarray
    allocations: np.ndarray
    active: np.ndarray
    needs_reference: np.ndarray


def balance_prefix_exact_batched(
    rates: np.ndarray,
    fixed_costs: np.ndarray,
    total_units: np.ndarray,
) -> ExactBatchBalance:
    """The uncapacitated :func:`_balance_reference` loop, row-wise, in
    closed form.

    Unlike :func:`balance_divisible_work_batched` (a *bound*: relaxed drop
    semantics good enough for pruning), this kernel reproduces the loop on
    every row it does not flag ``needs_reference``: the loop's fixpoint
    keeps exactly the members whose fixed cost is below the final
    balanced time ``T`` (each drop lowers ``T``, so drop order never
    changes membership), and with costs sorted ascending the candidate
    active sets are prefixes whose consistency predicate ``c_k < T(prefix
    k)`` is prefix-monotone.  So one stable cost sort and one cumulative
    scan, breaking at the first inconsistent prefix, find the active set;
    the terminating arithmetic then runs in the loop's ascending-slot
    summation order, and the loop's drop predicate is certified at the
    final ``T`` in both directions.  Rows that fail a certification
    (float-boundary ties) are flagged ``needs_reference`` instead of being
    approximated — the scheduling service answers those rows with the
    scalar planner, so a batched answer is *never* an approximation.

    Parameters
    ----------
    rates / fixed_costs:
        ``(m, n)`` slot arrays.  Empty slots carry rate ``0`` and cost
        ``inf`` and sort past every real member; real members need finite
        cost and positive rate (callers handle infinite-cost members by
        dropping them *before* balancing, as the Jacobi planner does).
    total_units:
        ``(m,)`` work totals, ``> 0``.

    On every certified row ``i`` the allocations and the active set equal
    the loop's on row ``i``'s members exactly, and the makespan is the
    loop's terminating ``T``: sums run left to right like the loop's, and
    padding slots only ever add ``0.0``, which is exact in IEEE floats.
    """
    r = np.asarray(rates, dtype=float)
    c = np.asarray(fixed_costs, dtype=float)
    totals = np.asarray(total_units, dtype=float)
    if r.ndim != 2 or c.shape != r.shape:
        raise ValueError("rates and fixed_costs must both be (m, n)")
    if totals.shape != (r.shape[0],):
        raise ValueError("total_units must be (m,)")
    if np.any(np.isnan(r)) or np.any(np.isnan(c)):
        raise ValueError("rates and fixed_costs must not contain NaN")
    if np.any(~(totals > 0)):
        raise ValueError("total_units must be > 0 for every row")
    m, n = r.shape
    member = np.isfinite(c)
    if np.any(member & ~(r > 0)):
        raise ValueError("every member slot needs rate > 0")
    if np.any(member & (c < 0)):
        raise ValueError("every member slot needs fixed cost >= 0")

    order = np.argsort(c, axis=1, kind="stable")
    cs = np.take_along_axis(c, order, axis=1)
    rs = np.take_along_axis(r, order, axis=1)
    cum_r = np.cumsum(rs, axis=1)
    cum_rc = np.cumsum(rs * np.where(np.isfinite(cs), cs, 0.0), axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t_prefix = (totals[:, None] + cum_rc) / cum_r
    ok = (cum_r > 0.0) & (cs < t_prefix)
    # Break at the first inconsistent prefix rather than counting all
    # consistent prefixes; the certification below checks the one found.
    k = np.where(ok.all(axis=1), n, np.argmin(ok, axis=1))
    del cs, rs, cum_r, cum_rc, t_prefix, ok  # the sort is spent

    needs_reference = k == 0  # degenerate floats; the reference loop decides

    active = np.zeros_like(member)
    np.put_along_axis(active, order, np.arange(n)[None, :] < k[:, None], axis=1)
    del order

    # Terminating arithmetic in the reference's ascending-slot order:
    # running column sums, the same left-to-right additions as the scalar
    # loop.  Inactive slots add an exact 0.0.
    rate_terms = np.where(active, r, 0.0)
    cost_terms = np.where(active, c, 0.0)
    cost_terms *= rate_terms
    rate_sum = rate_terms[:, 0].copy()
    weighted_cost = cost_terms[:, 0].copy()
    for j in range(1, n):
        rate_sum += rate_terms[:, j]
        weighted_cost += cost_terms[:, j]
    del cost_terms
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (totals + weighted_cost) / rate_sum

    # Certify the reference drop predicate at the final T (both directions);
    # disagreement means float-boundary ties — the reference loop decides.
    t_col = t[:, None]
    with np.errstate(invalid="ignore"):
        cert_active = active & (c >= t_col)
        cert_rest = member & ~active & (c < t_col)
    needs_reference |= cert_active.any(axis=1) | cert_rest.any(axis=1)
    del cert_active, cert_rest

    # r_i (T - c_i) on the active slots, 0.0 elsewhere and on rows the
    # reference loop must answer.
    with np.errstate(invalid="ignore"):
        allocations = np.where(active, c, 0.0)
        np.subtract(t_col, allocations, out=allocations)
        allocations *= rate_terms
    allocations[~active | needs_reference[:, None]] = 0.0
    return ExactBatchBalance(
        makespans=np.where(needs_reference, np.nan, t),
        allocations=allocations,
        active=active & ~needs_reference[:, None],
        needs_reference=needs_reference,
    )


class TimeBalancedPlanner:
    """Generic planner for single-task divisible (data-parallel) applications.

    Rates come from the Information Pool's dynamic speed forecasts scaled by
    the task's per-architecture efficiency; fixed costs default to zero
    (no coupling).  Applications with real communication structure subclass
    or wrap this — see :class:`repro.jacobi.apples.JacobiPlanner`.
    """

    def __init__(self, task_name: str | None = None) -> None:
        self.task_name = task_name

    def _task(self, info: InformationPool):
        return (
            info.hat.task(self.task_name)
            if self.task_name is not None
            else info.hat.tasks[0]
        )

    def _rate(self, name: str, task, info: InformationPool) -> float:
        """Units/second for one machine (0.0 when unusable)."""
        eff = task.efficiency_on(info.machine_info(name).arch)
        if eff <= 0.0:
            return 0.0
        speed = info.forecasts.predicted_speed(name) * eff
        if speed <= 0.0 or task.flop_per_unit <= 0.0:
            return 0.0
        return speed / task.flop_per_unit

    def lower_bounds(
        self, candidate_sets: Sequence[Sequence[str]], info: InformationPool
    ) -> np.ndarray:
        """Admissible predicted-time lower bound per candidate set.

        The ideal zero-fixed-cost time balance ``U / sum(rates)`` times the
        iteration count — capacities and any real fixed costs only raise
        the true optimum, so the Coordinator may prune candidate sets whose
        bound cannot beat the incumbent without changing the decision.
        """
        task = self._task(info)
        names = info.forecasts.machine_names()
        rates = np.array([self._rate(name, task, info) for name in names])
        usable = rates > 0.0
        mask = member_masks_over(candidate_sets, names) & usable[None, :]
        safe_rates = np.where(usable, rates, 1.0)
        total = info.hat.structure.total_units
        makespans = balance_divisible_work_batched(
            safe_rates, np.zeros_like(safe_rates), total, mask
        )
        return makespans * info.hat.structure.iterations

    def plan(self, resource_set: Sequence[str], info: InformationPool) -> Schedule | None:
        from repro.core.schedule import Allocation  # local to avoid cycle at import

        machines = list(resource_set)
        if not machines:
            return None
        task = self._task(info)
        rates: list[float] = []
        usable: list[str] = []
        caps: list[float | None] = []
        for name in machines:
            rate = self._rate(name, task, info)
            if rate <= 0.0:
                continue
            rates.append(rate)
            usable.append(name)
            if task.bytes_per_unit > 0:
                m = info.machine_info(name)
                caps.append(m.memory_available_mb * 1e6 / task.bytes_per_unit)
            else:
                caps.append(None)
        if not usable:
            return None
        total = info.hat.structure.total_units
        result = balance_divisible_work(rates, [0.0] * len(usable), total, caps)
        if result is None:
            return None
        allocations = [
            Allocation(
                machine=name,
                task=task.name,
                work_units=units,
                footprint_mb=units * task.bytes_per_unit / 1e6,
            )
            for name, units in zip(usable, result.allocations)
            if units > 0.0
        ]
        if not allocations:
            return None
        predicted = result.makespan * info.hat.structure.iterations
        return Schedule(
            allocations=allocations,
            predicted_time=predicted,
            decomposition="divisible",
            metadata={"per_step_time": result.makespan},
        )
