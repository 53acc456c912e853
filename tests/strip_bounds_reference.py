"""The name-space strip bound: the oracle for the kernel's pruning bounds.

The strip planner's admissible lower bounds are computed inside
:func:`repro.jacobi.apples.evaluate_strip_batch`, from the first
fixpoint pass's strip-order arrays (``StripBatchEvaluation.bounds``), and
:meth:`~repro.jacobi.apples.JacobiPlanner.lower_bounds` calls the same
routine.  This module keeps the implementation they replaced, unchanged:
one ``(m, n)`` membership matrix over the pool's machine names, the
singleton relaxation as a masked minimum, each member's floor cost from
an ``(m, n, n)`` nearest-member cube, and the multi-machine water-fill
over per-set cost rows (the two-dimensional form
:func:`~repro.core.planner.balance_divisible_work_batched` had), whose
stable sort adds members of equal floor cost in pool order.  The kernel
must reproduce it bit for bit (``tests/test_service_properties.py``,
``tests/test_preference_planner.py``).  Its membership matrix comes from
:func:`member_masks_over`, the name-lookup scatter that
``CandidateSets.masks_over`` replaced in ``src`` and is held to
(``tests/test_candidate_order.py``).
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Sequence

import numpy as np

from repro.core.infopool import InformationPool
from repro.jacobi.apples import JacobiPlanner, StripBatchInputs, _member_risks


def member_masks_over(
    candidate_sets: Sequence[Sequence[str]], names: Sequence[str]
) -> np.ndarray:
    """``(m, n)`` membership matrix of ``candidate_sets`` over ``names``,
    by name lookup: the oracle for ``CandidateSets.masks_over``.

    Unknown machine names are simply absent from the mask.
    """
    index = {m: j for j, m in enumerate(names)}
    m_sets = len(candidate_sets)
    masks = np.zeros((m_sets, len(names)), dtype=bool)
    lens = np.fromiter(map(len, candidate_sets), dtype=np.int64, count=m_sets)
    total = int(lens.sum())
    if total == 0:
        return masks
    rows = np.repeat(np.arange(m_sets), lens)
    cols = np.fromiter(
        map(index.get, chain.from_iterable(candidate_sets), repeat(-1)),
        dtype=np.int64,
        count=total,
    )
    known = cols >= 0
    masks[rows[known], cols[known]] = True
    return masks


def name_space_bounds(
    rates: np.ndarray,
    pair: np.ndarray,
    risks: np.ndarray,
    sync: float,
    total: float,
    iters: int,
    risk_aversion: float,
    member_mask: np.ndarray,
) -> np.ndarray:
    """The strip bound of every row of ``member_mask``, all arrays over
    the pool's machines in ``machine_names()`` order."""
    n = len(rates)
    usable = rates > 0.0
    mask = np.asarray(member_mask, dtype=bool) & usable[None, :]
    safe_rates = np.where(usable, rates, 1.0)

    # Singleton relaxation (exact per-machine risk).
    with np.errstate(divide="ignore"):
        single = (total / np.where(usable, rates, np.inf) + sync) * iters
    single *= 1.0 + risk_aversion * risks
    single_lb = np.where(mask, single[None, :], np.inf).min(axis=1)

    # Multi-machine relaxation: per-set per-member border-cost floors.  Only
    # member columns are read below (mask excludes unusable machines), so
    # the diagonal is the single entry that differs from a neighbour cost —
    # a machine is never its own strip neighbour, and an inf diagonal keeps
    # singleton members on the singleton relaxation.
    pair = pair.copy()
    np.fill_diagonal(pair, np.inf)
    # floors[i, m] = min border exchange from m to any other member of set
    # i (inf for singleton members): the first member of set i along m's
    # neighbours sorted by exchange cost.
    nearest = np.argsort(pair, axis=1, kind="stable")
    first = np.argmax(mask[:, nearest], axis=2)
    floors = np.take_along_axis(pair, nearest, axis=1)[np.arange(n), first]
    costs = sync + floors
    makespans = _water_fill(safe_rates, costs, total, mask)
    min_risk = np.where(mask, risks, np.inf).min(axis=1)
    min_risk = np.where(np.isfinite(min_risk), min_risk, 0.0)
    multi_lb = makespans * iters * (1.0 + risk_aversion * min_risk)
    return np.minimum(single_lb, multi_lb)


def _water_fill(
    rates: np.ndarray, costs: np.ndarray, total: float, mask: np.ndarray
) -> np.ndarray:
    """Uncapacitated balanced time of each set: members sorted by cost
    (stable, so ties in universe order), the longest consistent prefix."""
    cm = np.where(mask, costs, np.inf)
    rm = np.where(mask, rates[None, :], 0.0)
    order = np.argsort(cm, axis=1, kind="stable")
    cs = np.take_along_axis(cm, order, axis=1)
    rs = np.take_along_axis(rm, order, axis=1)
    cum_r = np.cumsum(rs, axis=1)
    cum_rc = np.cumsum(rs * np.where(np.isfinite(cs), cs, 0.0), axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t_prefix = (np.array([[total]]) + cum_rc) / cum_r
    k = np.count_nonzero(cs < t_prefix, axis=1)
    makespans = np.full(mask.shape[0], np.inf)
    rows = np.nonzero(k > 0)[0]
    makespans[rows] = t_prefix[rows, k[rows] - 1]
    return makespans


def planner_bounds(
    planner: JacobiPlanner,
    candidate_sets: Sequence[Sequence[str]],
    info: InformationPool,
) -> np.ndarray:
    """``JacobiPlanner.lower_bounds`` as it read the pool, name by name."""
    model = planner._model(info)
    names = info.pool.machine_names()
    return name_space_bounds(
        np.array([model.point_rate(nm) for nm in names]),
        model.comm_cost_matrix(names),
        np.asarray(_member_risks(names, info)),
        model.sync_overhead_s,
        float(planner.problem.total_points),
        planner.problem.iterations,
        planner.risk_aversion,
        member_masks_over(candidate_sets, names),
    )


def inputs_bounds(inputs: StripBatchInputs, masks: np.ndarray) -> np.ndarray:
    """The bound of every row of rank-space ``masks``, recomputed in name
    space: rank space permuted back to pool order by the inputs'
    ``pool_positions``."""
    pool = np.argsort(inputs.pool_positions)  # pool slot -> rank index
    return name_space_bounds(
        inputs.rates[pool],
        inputs.pair[np.ix_(pool, pool)],
        inputs.risks[pool],
        inputs.sync_overhead_s,
        inputs.total_points,
        inputs.iterations,
        inputs.risk_aversion,
        np.asarray(masks, dtype=bool)[:, pool],
    )
