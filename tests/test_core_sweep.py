"""The canonical sweep (:mod:`repro.core.sweep`): unit contracts, a
differential property against a per-row reference replay, and the
cross-entry-point pin.

``replay_sweep`` is the one implementation of the seeded-incumbent,
epsilon-margin-pruning candidate sweep; the Coordinator's solo
``schedule()`` (scalar and vectorised) and the scheduling service's
batched ``_sweep`` all replay it.  The unit tests pin its control flow —
seed choice, evaluation order, the pruning predicate, tie-breaking — the
Hypothesis property holds its prefix-min scan equal to the row-by-row
loop it replaced (kept below as :func:`reference_replay`), and the
integration test pins that both entry points report the *identical*
:class:`PruningStats` for the same decision, which is the whole point of
deduplicating the loop.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.coordinator as coordinator
from repro.core.sweep import (
    PRUNE_RELATIVE_EPS,
    PruningStats,
    SweepResult,
    replay_sweep,
)
from repro.jacobi.apples import make_jacobi_agent
from repro.jacobi.grid import JacobiProblem
from repro.nws import NetworkWeatherService
from repro.service import DecisionRequest, SchedulingService
from repro.sim import sdsc_pcl_testbed

INF = float("inf")
NAN = float("nan")


def reference_replay(count, bounds, objective, on_incumbent=None):
    """The per-row sweep: the test oracle for :func:`replay_sweep`.

    ``objective(idx)`` is called once per evaluated row, in evaluation
    order (the seed first, then index order, pruned rows skipped).
    """
    best_obj = INF
    best_idx = -1
    seed_idx = -1
    pruned = [False] * count
    if bounds is not None and count > 1:
        seed_idx = min(range(count), key=bounds.__getitem__)
        obj = objective(seed_idx)
        if obj < INF:
            best_obj, best_idx = obj, seed_idx
            if on_incumbent is not None:
                on_incumbent(seed_idx, obj, True)
    for idx in range(count):
        if idx == seed_idx:
            continue
        if bounds is not None:
            lb = bounds[idx]
            if best_obj < INF and lb >= best_obj * (1.0 + PRUNE_RELATIVE_EPS):
                pruned[idx] = True
                continue
        obj = objective(idx)
        if obj < best_obj or (obj == best_obj and idx < best_idx):
            best_obj, best_idx = obj, idx
            if on_incumbent is not None:
                on_incumbent(idx, obj, False)
    return SweepResult(
        best_idx=best_idx, best_objective=best_obj, seed_idx=seed_idx,
        pruned=tuple(pruned),
    )


def _lazy_sweep(objectives, bounds=None, on_incumbent=None):
    """:func:`replay_sweep` with every row lazy; also returns the order in
    which rows were resolved (the evaluation order)."""
    order = []

    def resolve(idx):
        order.append(idx)
        return objectives[idx]

    count = len(objectives)
    result = replay_sweep(
        None if bounds is None else np.asarray(bounds, dtype=float),
        np.full(count, -INF),  # never read: every row is lazy
        np.ones(count, dtype=bool),
        resolve,
        on_incumbent,
    )
    return result, order


def _eager_sweep(bounds, objectives, on_incumbent=None):
    """:func:`replay_sweep` with no lazy row: nothing is ever resolved."""

    def resolve(idx):
        raise AssertionError(f"row {idx} is not lazy")

    objectives = np.asarray(objectives, dtype=float)
    return replay_sweep(
        np.asarray(bounds, dtype=float), objectives,
        np.zeros(len(objectives), dtype=bool), resolve, on_incumbent,
    )


# -- replay_sweep control flow --------------------------------------------
class TestReplaySweep:
    def test_unbounded_sweep_is_the_reference_loop(self):
        objectives = [4.0, 2.0, 3.0, 2.5]
        incumbents = []
        result, order = _lazy_sweep(
            objectives, None,
            lambda idx, obj, seeded: incumbents.append((idx, obj, seeded)),
        )
        assert order == [0, 1, 2, 3]  # no bounds: strict candidate order
        assert result.best_idx == 1
        assert result.best_objective == 2.0
        assert result.seed_idx == -1
        assert result.pruned == (False,) * 4
        assert incumbents == [(0, 4.0, False), (1, 2.0, False)]

    def test_seed_candidate_evaluated_first(self):
        objectives = [4.0, 3.0, 2.0]
        bounds = [3.0, 2.0, 1.0]  # smallest bound at index 2
        incumbents = []
        result, order = _lazy_sweep(
            objectives, bounds,
            lambda idx, obj, seeded: incumbents.append((idx, obj, seeded)),
        )
        assert order[0] == 2
        assert incumbents[0] == (2, 2.0, True)  # only the seed is flagged
        assert result.seed_idx == 2
        assert result.best_idx == 2

    def test_pruning_requires_clear_relative_margin(self):
        # Seed (index 0) sets the incumbent at 10.0.  Index 1's bound sits
        # exactly on the epsilon margin (pruned); index 2's bound equals
        # the incumbent (NOT pruned: could be an exact tie).
        bounds = [0.0, 10.0 * (1.0 + PRUNE_RELATIVE_EPS), 10.0]
        objectives = [10.0, 99.0, 12.0]
        result, order = _lazy_sweep(objectives, bounds)
        assert result.pruned == (False, True, False)
        assert 1 not in order  # pruned candidates are never evaluated
        assert result.best_idx == 0

    def test_ties_go_to_the_earliest_index(self):
        # The seed evaluates index 1 first; index 0 then ties its
        # objective and must take the incumbent (reference first-minimum).
        bounds = [2.0, 1.0]
        objectives = [5.0, 5.0]
        result, order = _lazy_sweep(objectives, bounds)
        assert order == [1, 0]
        assert result.best_idx == 0
        assert result.best_objective == 5.0

    def test_all_infeasible_reports_no_winner(self):
        incumbents = []
        result, _ = _lazy_sweep(
            [INF, INF, INF], [1.0, 2.0, 3.0],
            lambda idx, obj, seeded: incumbents.append(idx),
        )
        assert result.best_idx == -1
        assert result.best_objective == INF
        assert incumbents == []  # an infinite objective is never an incumbent
        assert result.pruned == (False,) * 3  # no finite incumbent, no pruning

    def test_single_candidate_never_seeds(self):
        result, order = _lazy_sweep([7.0], [1.0])
        assert result.seed_idx == -1
        assert order == [0]
        assert result.best_idx == 0

    def test_stats_account_for_every_candidate(self):
        result = SweepResult(
            best_idx=0, best_objective=1.0, seed_idx=0,
            pruned=(False, True, True, False),
        )
        stats = result.stats(bounded=True)
        assert stats == PruningStats(candidates=4, planned=2, pruned=2, bounded=True)
        assert stats.planned + stats.pruned == stats.candidates
        assert stats.pruned_fraction == 0.5

    def test_resolved_rows_are_written_back(self):
        objectives = np.array([3.0, -INF, 1.0, -INF])
        lazy = np.array([False, True, False, True])
        values = {1: 2.0, 3: 0.5}
        result = replay_sweep(
            None, objectives, lazy, values.__getitem__,
        )
        assert result.best_idx == 3
        assert objectives.tolist() == [3.0, 2.0, 1.0, 0.5]

    def test_answers_are_python_floats(self):
        incumbents = []
        result = _eager_sweep(
            [2.0, 1.0, 3.0], [4.0, 5.0, 3.0],
            lambda idx, obj, seeded: incumbents.append(obj),
        )
        assert type(result.best_objective) is float
        assert all(type(obj) is float for obj in incumbents)

    def test_inadmissible_bound_replays_the_stretch(self):
        # Seed 1 sets the incumbent at 5.0; row 2's bound (9.0) prunes it
        # although its objective (1.0) is lower — the per-row sweep never
        # sees it, so neither may the prefix-min scan.
        bounds = [6.0, 0.5, 9.0, 0.5]
        objectives = [6.0, 5.0, 1.0, 4.0]
        result = _eager_sweep(bounds, objectives)
        assert result == reference_replay(4, bounds, objectives.__getitem__)
        assert result.pruned == (True, False, True, False)
        assert result.best_idx == 3


# -- the prefix-min scan against the per-row reference ---------------------
VALUES = st.sampled_from([0.0, 1.0, 2.0, 2.0, 3.5, 7.0, INF])


@st.composite
def sweep_cases(draw):
    """Bounds, objectives and a lazy mask, with the awkward cases forced in:
    ties to the seed at lower indices, infeasible rows, lazy rows at the
    seed and at both ends, and inadmissible bounds (``lb > obj``)."""
    count = draw(st.integers(min_value=1, max_value=40))
    objectives = draw(st.lists(
        st.one_of(VALUES, st.floats(min_value=0.0, max_value=10.0)),
        min_size=count, max_size=count,
    ))
    bounds = None
    if draw(st.integers(0, 4)):
        bounds = []
        for obj in objectives:
            kind = draw(st.sampled_from(
                ["below", "below", "equal", "margin", "above", "inf", "nan"]
            ))
            if kind == "below":
                bounds.append(obj * draw(st.floats(0.0, 1.0)))
            elif kind == "equal":
                bounds.append(obj)
            elif kind == "margin":
                bounds.append(obj * (1.0 + PRUNE_RELATIVE_EPS))
            elif kind == "above":  # inadmissible
                bounds.append(obj * 1.5 + draw(st.floats(0.0, 5.0)))
            elif kind == "inf":
                bounds.append(INF)
            else:
                bounds.append(NAN)
        if count > 1 and draw(st.booleans()):
            seed = draw(st.integers(1, count - 1))
            bounds[seed] = -1.0
            for idx in draw(st.lists(st.integers(0, seed - 1), max_size=3)):
                objectives[idx] = objectives[seed]
    lazy = draw(st.lists(st.booleans(), min_size=count, max_size=count))
    for where in draw(st.sets(st.sampled_from(["seed", "first", "last"]))):
        if where == "first":
            lazy[0] = True
        elif where == "last":
            lazy[-1] = True
        elif bounds is not None:
            lazy[min(range(count), key=bounds.__getitem__)] = True
    return bounds, objectives, lazy


@given(case=sweep_cases())
@settings(max_examples=400, deadline=None)
def test_prefix_min_scan_equals_per_row_replay(case):
    bounds, objectives, lazy = case
    count = len(objectives)

    expected_events, expected_resolved = [], []

    def objective(idx):
        if lazy[idx]:
            expected_resolved.append(idx)
        return objectives[idx]

    expected = reference_replay(
        count, bounds, objective,
        lambda *event: expected_events.append(event),
    )

    events, resolved = [], []

    def resolve(idx):
        resolved.append(idx)
        return objectives[idx]

    values = np.array([-INF if z else obj for z, obj in zip(lazy, objectives)])
    result = replay_sweep(
        None if bounds is None else np.array(bounds),
        values, np.array(lazy), resolve,
        lambda *event: events.append(event),
    )
    assert result == expected
    assert result.pruned == expected.pruned
    assert events == expected_events
    assert resolved == expected_resolved


# -- the cross-entry-point pin --------------------------------------------
AT = 420.0


def test_pruning_stats_identical_across_entry_points(monkeypatch):
    """Coordinator ``schedule()`` (vectorised, and the bounded scalar loop
    planners without a batch surface take) and service ``decide()`` replay
    the same sweep, so the same decision yields the *identical*
    PruningStats."""
    problem = JacobiProblem(n=600, iterations=20)

    testbed = sdsc_pcl_testbed(seed=1996)
    nws = NetworkWeatherService.for_testbed(testbed, seed=7)
    service = SchedulingService(testbed, nws)
    (answer,) = service.decide([DecisionRequest(problem=problem, at=AT)])

    solo_bed = sdsc_pcl_testbed(seed=1996)
    solo_nws = NetworkWeatherService.for_testbed(solo_bed, seed=7)
    solo_nws.advance_to(AT)
    agent = make_jacobi_agent(solo_bed, problem, nws=solo_nws)
    vectorised = agent.schedule()
    # No batch planner: the same agent answers through the scalar loop.
    monkeypatch.setattr(coordinator, "resolve_batch_planner", lambda *args: None)
    scalar = agent.schedule()
    assert vectorised.vectorised and not scalar.vectorised

    for decision in (vectorised, scalar):
        assert answer.pruning == decision.pruning
        assert answer.best_objective == decision.best_objective
        assert answer.predicted_time == decision.best.predicted_time
        assert answer.machines == tuple(decision.best.resource_set)


def test_pruning_stats_is_one_class():
    """The coordinator re-exports the sweep module's PruningStats — one
    dataclass, not two replicas that happen to compare equal."""
    from repro.core.coordinator import PruningStats as coordinator_stats

    assert coordinator_stats is PruningStats


def test_sweep_matches_brute_force_minimum():
    """Whatever the bounds, the sweep's winner equals the brute-force
    first minimum over all objectives (bounds are admissible here)."""
    objectives = [3.0, 1.5, 2.0, 1.5, 9.0]
    bounds = [obj * 0.9 for obj in objectives]  # admissible by construction
    result = _eager_sweep(bounds, objectives)
    best = min(objectives)
    assert result.best_objective == best
    assert result.best_idx == objectives.index(best)
    for idx, skipped in enumerate(result.pruned):
        if skipped:
            assert bounds[idx] >= best * (1.0 + PRUNE_RELATIVE_EPS)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
