"""Regression tests for per-request decision scoping and pool-state memos.

The bug class under guard: a value derived from one pool state answering
a decision at another.  Rates, plans, batch inputs and locality orders
derived for a decision at ``t1`` must never answer a decision at ``t2``.
Every such value is memoised on its pool state's
:class:`~repro.nws.snapshot.ForecastSnapshot` through
:meth:`~repro.core.infopool.InformationPool.derived`; a ``decision_scope``
pins one snapshot, refuses a stale one, and restores any enclosing
scope's snapshot on exit.  Configurations with equal selector, filter or
planner values at one pool state share what they derive, and a stale
pool state is freed by reference counting, not left for the cyclic
collector (the pool-state lifetime guard).
"""

from __future__ import annotations

import gc
from collections import Counter
from dataclasses import replace
from unittest import mock

import pytest

import repro.core.resources as resources
import repro.jacobi.apples as apples
from repro.core.coordinator import PruningStats
from repro.core.hat import (
    CommunicationCharacteristics,
    HeterogeneousApplicationTemplate,
    StructureInfo,
    TaskCharacteristics,
)
from repro.core.infopool import InformationPool
from repro.core.planner import TimeBalancedPlanner
from repro.core.selector import LocalitySelector, ResourceSelector, SeededSelector
from repro.core.userspec import UserSpecification
from repro.jacobi.apples import make_jacobi_agent
from repro.jacobi.grid import JacobiProblem
from repro.nile.analysis import HistogramAnalysis
from repro.nile.apples import make_nile_agent
from repro.nile.events import PASS2, EventBatch
from repro.nile.storage import TAPE, StoredDataset
from repro.nws import NetworkWeatherService
from repro.nws.snapshot import ForecastSnapshot
from repro.react.apples import make_react_agent
from repro.react.tasks import ReactProblem
from repro.service import DecisionRequest, SchedulingService, ServiceAnswer
from repro.sim import casa_testbed, nile_testbed, sdsc_pcl_testbed


def _world(tb_seed=1996, nws_seed=7):
    testbed = sdsc_pcl_testbed(seed=tb_seed)
    nws = NetworkWeatherService.for_testbed(testbed, seed=nws_seed)
    return testbed, nws


def _schedule(agent, fast):
    """The production decision, or the oracle (no decision scope at all)."""
    return agent.schedule() if fast else agent.schedule_reference()


def _reference_decide(testbed, nws, requests):
    """The service's oracle: solo ``schedule_reference()`` per request."""
    answers = []
    for r in requests:
        if r.at > nws.now:
            nws.advance_to(r.at)
        agent = make_jacobi_agent(
            testbed, r.problem, nws,
            userspec=r.userspec, account_memory=r.account_memory,
        )
        answers.append(
            ServiceAnswer.from_decision(agent.schedule_reference(), at=r.at)
        )
    return answers


def _fingerprint(decision):
    best = decision.best
    return (
        best.resource_set,
        best.predicted_time,
        decision.best_objective,
        [a.work_units for a in best.allocations],
    )


@pytest.mark.parametrize("fast", [True, False], ids=["fastpath", "reference"])
def test_back_to_back_decisions_see_fresh_information(fast):
    """One agent, two instants: the second decision must equal what a
    brand-new agent decides at that instant (no stale memo reuse)."""
    problem = JacobiProblem(n=900, iterations=60)
    testbed, nws = _world()
    agent = make_jacobi_agent(testbed, problem, nws)
    nws.advance_to(300.0)
    first = _schedule(agent, fast)
    nws.advance_to(1500.0)  # load has moved on
    second = _schedule(agent, fast)

    # Fresh worlds, fresh agents — the memoryless oracle.
    testbed2, nws2 = _world()
    nws2.advance_to(300.0)
    solo_first = _schedule(make_jacobi_agent(testbed2, problem, nws2), fast)
    nws2.advance_to(1500.0)
    solo_second = _schedule(make_jacobi_agent(testbed2, problem, nws2), fast)

    assert _fingerprint(first) == _fingerprint(solo_first)
    assert _fingerprint(second) == _fingerprint(solo_second)
    # The two instants genuinely differ — otherwise this test proves nothing.
    assert first.best.predicted_time != second.best.predicted_time


@pytest.mark.parametrize("fast", [True, False], ids=["fastpath", "reference"])
def test_service_batches_at_two_instants_match_fresh_worlds(fast):
    """The same service answering two instants back-to-back must agree
    with two single-instant services built from scratch (the ``reference``
    arm answers through the oracle loop instead of the service)."""
    problem = JacobiProblem(n=900, iterations=60)

    def _answers(batches):
        testbed, nws = _world()
        service = SchedulingService(testbed, nws)
        out = []
        for at in batches:
            requests = [DecisionRequest(problem=problem, at=at)]
            if fast:
                out.extend(service.decide(requests))
            else:
                out.extend(_reference_decide(testbed, nws, requests))
        return out

    combined = _answers([300.0, 1500.0])
    alone_early = _answers([300.0])
    alone_late = _answers([1500.0])
    for got, want in zip(combined, alone_early + alone_late):
        assert got.machines == want.machines
        assert got.predicted_time == want.predicted_time
        assert got.best_objective == want.best_objective


def test_configurations_at_one_pool_state_share_one_locality_order():
    """The strip planner's locality order reads only static host data, so
    every configuration of a batch at one instant reads one order, sorted
    once through the shared forecast snapshot; answers are unchanged."""
    requests = [
        DecisionRequest(
            problem=JacobiProblem(n=n, iterations=20),
            account_memory=memory,
            at=300.0,
        )
        for n in (600, 900)
        for memory in (True, False)
    ]
    testbed, nws = _world()
    with mock.patch.object(
        apples, "locality_order", wraps=apples.locality_order
    ) as order:
        got = SchedulingService(testbed, nws).decide(requests)
    assert order.call_count == 1
    want = _reference_decide(*_world(), requests)
    for g, w in zip(got, want, strict=True):
        assert g.machines == w.machines
        assert g.predicted_time == w.predicted_time
        assert g.best_objective == w.best_objective


def test_configurations_at_one_pool_state_share_machine_descriptors():
    """Machine descriptors are static, so every configuration of a batch
    at one instant — the selector's filter, the locality order, the batch
    inputs' memory and the cost models' capacities — reads one table
    through the shared forecast snapshot: each machine's ``MachineInfo``
    is built at most once per pool state, across reused calls too, and
    the answers are unchanged."""
    requests = [
        DecisionRequest(
            problem=JacobiProblem(n=n, iterations=20),
            account_memory=memory,
            at=300.0,
        )
        for n in (600, 900)
        for memory in (True, False)
    ]
    later = [replace(r, at=330.0) for r in requests]
    testbed, nws = _world()
    service = SchedulingService(testbed, nws, reuse=True)
    with mock.patch.object(
        resources, "MachineInfo", wraps=resources.MachineInfo
    ) as built:
        got = service.decide(requests)
        first = Counter(call.kwargs["name"] for call in built.call_args_list)
        assert sorted(first) == sorted(testbed.topology.hosts)
        assert set(first.values()) == {1}
        got += service.decide(requests[:2])  # answered at the same state
        got += service.decide(later)  # the NWS advanced: a new state
        per_machine = Counter(call.kwargs["name"] for call in built.call_args_list)
    assert set(per_machine.values()) == {2}
    want = _reference_decide(*_world(), requests + requests[:2] + later)
    for g, w in zip(got, want, strict=True):
        assert g.machines == w.machines
        assert g.predicted_time == w.predicted_time
        assert g.best_objective == w.best_objective


def _info(testbed, nws):
    problem = JacobiProblem(n=600, iterations=10)
    return make_jacobi_agent(testbed, problem, nws).info


def test_stale_snapshot_rejected():
    testbed, nws = _world()
    info = _info(testbed, nws)
    nws.advance_to(100.0)
    snapshot = info.pool.snapshot()
    nws.advance_to(200.0)  # epoch moves; the snapshot's floats are history
    entered = []
    with pytest.raises(ValueError, match="stale"):
        with info.decision_scope(snapshot):
            entered.append(True)
    assert not entered
    assert info.forecasts is info.pool


def test_decision_scope_drops_cache_and_restores_outer():
    testbed, nws = _world()
    info = _info(testbed, nws)
    built = []

    def probe(value):
        return lambda: built.append(value) or value

    assert info.forecasts is info.pool
    with info.decision_scope() as outer:
        assert info.forecasts is outer
        assert info.derived(("probe",), probe("outer")) == "outer"
        with info.decision_scope() as inner:
            assert inner is not outer
            assert info.forecasts is inner
            # Nothing derived on the outer snapshot is seen on the inner one.
            assert info.derived(("probe",), probe("inner")) == "inner"
        # The enclosing decision's snapshot comes back untouched.
        assert info.forecasts is outer
    assert info.forecasts is info.pool
    with info.decision_scope(outer):
        assert info.derived(("probe",), probe("again")) == "outer"
    assert built == ["outer", "inner"]


def test_decision_scope_restores_on_error():
    testbed, nws = _world()
    info = _info(testbed, nws)
    with info.decision_scope() as outer:
        with pytest.raises(RuntimeError, match="boom"):
            with info.decision_scope():
                raise RuntimeError("boom")
        assert info.forecasts is outer
    assert info.forecasts is info.pool


def _read_from_the_scope(info, ask):
    """``ask()`` unpatched outside any scope, then inside a scope on a
    snapshot taken before ``ResourcePool.predicted_speed`` starts to
    raise: a reader that went to the pool inside a decision fails."""
    want = ask()
    assert want  # a non-empty answer, so the comparison below means something
    assert info.forecasts is info.pool
    with info.decision_scope(info.pool.snapshot()) as snapshot:
        with mock.patch.object(
            resources.ResourcePool, "predicted_speed",
            side_effect=AssertionError("pool read inside a decision scope"),
        ):
            assert info.forecasts is snapshot
            got = ask()
    assert info.forecasts is info.pool
    assert got == want


def test_readers_take_forecasts_from_the_decision_scope():
    """Selectors and planners read every forecast through
    ``info.forecasts``, which inside a decision scope is the scope's
    snapshot and outside one the pool."""
    testbed, nws = _world()
    nws.advance_to(300.0)
    info = _info(testbed, nws)
    for selector in (
        ResourceSelector(regime="greedy"), SeededSelector(), LocalitySelector(),
    ):
        _read_from_the_scope(info, lambda: selector.candidate_sets(info))

    hat = HeterogeneousApplicationTemplate(
        name="toy", paradigm="data-parallel",
        tasks=(TaskCharacteristics("work", flop_per_unit=1e-3, bytes_per_unit=8.0),),
        communication=CommunicationCharacteristics(),
        structure=StructureInfo(total_units=1e6, iterations=1),
    )
    divisible = InformationPool(pool=info.pool, hat=hat)
    planner = TimeBalancedPlanner()
    names = info.pool.machine_names()
    sets = [tuple(names[:k]) for k in range(1, len(names) + 1)]
    _read_from_the_scope(
        divisible, lambda: [planner.plan(rset, divisible) for rset in sets]
    )
    _read_from_the_scope(
        divisible, lambda: planner.lower_bounds(sets, divisible).tolist()
    )

    casa = casa_testbed()
    react = make_react_agent(
        casa, ReactProblem(), NetworkWeatherService.for_testbed(casa, seed=7)
    )
    _read_from_the_scope(
        react.info, lambda: react.planner.plan(("c90", "paragon"), react.info)
    )

    bed = nile_testbed(seed=1996)
    dataset = StoredDataset(
        "run4", EventBatch(500_000, PASS2, seed=3), TAPE, host="site0-alpha0"
    )
    nile = make_nile_agent(
        bed, dataset, HistogramAnalysis(),
        NetworkWeatherService.for_testbed(bed, seed=7),
    )
    hosts = tuple(nile.info.pool.machine_names())
    _read_from_the_scope(nile.info, lambda: nile.planner.plan(hosts, nile.info))


# -- one enumeration per pool state and key ----------------------------------
def _variant(info, **userspec):
    """``info``'s pool and HAT under another User Specification."""
    return InformationPool(
        pool=info.pool, hat=info.hat, userspec=UserSpecification(**userspec)
    )


def test_equal_selectors_share_one_enumeration_at_one_snapshot():
    """Agents build their own selectors, so sharing is keyed on the
    selector's value: two fresh, equal selectors — in two configurations'
    scopes over one snapshot — get the same object; outside a scope every
    call enumerates afresh."""
    testbed, nws = _world()
    nws.advance_to(300.0)
    info = _info(testbed, nws)
    other = make_jacobi_agent(testbed, JacobiProblem(n=900, iterations=30), nws).info
    snapshot = info.pool.snapshot()
    with info.decision_scope(snapshot):
        shared = ResourceSelector().candidate_sets(info)
        assert ResourceSelector().candidate_sets(info) is shared
        masks = shared.masks_over(apples._pool_locality(info)[0])
    with other.decision_scope(snapshot):
        assert ResourceSelector().candidate_sets(other) is shared
        assert shared.masks_over(apples._pool_locality(other)[0]) is masks
    unshared = ResourceSelector().candidate_sets(info)
    assert unshared == shared and unshared is not shared
    assert ResourceSelector().candidate_sets(info) is not unshared


def test_a_different_key_gets_its_own_enumeration():
    """Cap, regime, ``max_sets``, coupling and the feasible machines are
    all part of the key; each variant equals its unshared enumeration."""
    testbed, nws = _world()
    nws.advance_to(300.0)
    info = _info(testbed, nws)
    names = info.pool.machine_names()
    hat = info.hat
    coupled = InformationPool(
        pool=info.pool,
        hat=replace(hat, communication=replace(
            hat.communication,
            bytes_per_border_unit=2 * hat.communication.bytes_per_border_unit,
        )),
    )
    variants = [
        (ResourceSelector(), _variant(info, max_machines=3)),
        (ResourceSelector(regime="greedy"), info),
        (ResourceSelector(max_sets=100), info),
        (ResourceSelector(), coupled),
        (ResourceSelector(), _variant(info, accessible_machines=frozenset(names[:5]))),
    ]
    snapshot = info.pool.snapshot()
    with info.decision_scope(snapshot):
        base = ResourceSelector().candidate_sets(info)
    seen = [base]
    for selector, variant in variants:
        with variant.decision_scope(snapshot):
            sets = selector.candidate_sets(variant)
            assert selector.candidate_sets(variant) is sets
        assert all(sets is not earlier for earlier in seen)
        assert sets == selector.candidate_sets(variant)
        seen.append(sets)


def test_an_observed_winner_changes_the_key():
    """A ``SeededSelector`` remembers winners; after ``observe()`` its next
    enumeration inside the same scope is a new one, equal to the unshared
    enumeration of the same state."""
    testbed, nws = _world()
    nws.advance_to(300.0)
    info = _info(testbed, nws)
    selector = SeededSelector()
    with info.decision_scope():
        before = selector.candidate_sets(info)
        selector.observe(before[-1], PruningStats(10, 2, 8, bounded=True))
        after = selector.candidate_sets(info)
        assert after is not before
        assert selector.candidate_sets(info) is after
    assert after == selector.candidate_sets(info)
    assert after != before


def test_feasible_machines_filter_once_per_pool_state_and_filter():
    """Inside a scope, equal User Specification filters and HATs at one
    pool state share one feasible tuple, so ``permits`` runs once per
    machine; a different filter or HAT gets its own tuple, equal to its
    unshared one; outside a scope every call filters afresh."""
    testbed, nws = _world()
    nws.advance_to(300.0)
    info = _info(testbed, nws)
    names = info.pool.machine_names()
    arch = info.pool.machine_info(names[0]).arch
    hat = info.hat
    one_arch = InformationPool(
        pool=info.pool,
        hat=replace(hat, tasks=tuple(
            replace(t, implementations={arch: 1.0}) for t in hat.tasks
        )),
    )
    snapshot = info.pool.snapshot()
    selector = ResourceSelector()
    with mock.patch.object(
        UserSpecification, "permits", autospec=True,
        side_effect=UserSpecification.permits,
    ) as permits:
        for twin in (info, _variant(info)):
            with twin.decision_scope(snapshot):
                assert selector.feasible_machines(twin) == list(names)
        assert permits.call_count == len(names)
        for variant in (_variant(info, excluded_machines=frozenset(names[:1])),
                        one_arch):
            permits.reset_mock()
            with variant.decision_scope(snapshot):
                shared = selector.feasible_machines(variant)
                assert ResourceSelector().feasible_machines(variant) == shared
            assert permits.call_count == len(names)
            assert shared == selector.feasible_machines(variant)
            assert shared != list(names)
        permits.reset_mock()
        selector.feasible_machines(info)
        selector.feasible_machines(info)
        assert permits.call_count == 2 * len(names)


# -- one home for pool-state memos --------------------------------------------
def test_equal_planner_values_share_batch_inputs_at_one_snapshot():
    """Planners key their memos by value: at one pool state, configurations
    that differ only in ``max_machines`` build ``StripBatchInputs`` once,
    equal to each one's unshared build; a different memory policy or
    problem builds its own; outside a scope every call builds."""
    testbed, nws = _world()
    nws.advance_to(300.0)
    problem = JacobiProblem(n=600, iterations=10)

    def agent(p=problem, memory=True, cap=None):
        return make_jacobi_agent(
            testbed, p, nws, userspec=UserSpecification(max_machines=cap),
            account_memory=memory,
        )

    def strip(a):
        return a.planner.batch_planner(a.info)

    snapshot = resources.ResourcePool(testbed.topology, nws).snapshot()
    with mock.patch.object(
        apples, "StripBatchInputs", wraps=apples.StripBatchInputs
    ) as built:
        twins = [agent(cap=cap) for cap in (None, 3, 5)]
        shared = []
        for twin in twins:
            with twin.info.decision_scope(snapshot):
                shared.append(twin.stage(twin.candidate_sets()).job[0])
        assert built.call_count == 1
        assert all(inputs is shared[0] for inputs in shared)
        for other in (agent(memory=False), agent(p=JacobiProblem(n=900, iterations=10))):
            with other.info.decision_scope(snapshot):
                assert strip(other).batch_inputs(other.info) is not shared[0]
        assert built.call_count == 3
        with twins[1].info.decision_scope(snapshot):
            alone = strip(twins[1]).batch_inputs(twins[1].info)
        assert alone is shared[0] and built.call_count == 3
        unshared = [strip(t).batch_inputs(t.info) for t in twins]
        assert built.call_count == 6
    for inputs in unshared:
        assert inputs is not shared[0]
        assert inputs.rank_names == shared[0].rank_names
        for name in ("rates", "caps", "avail_mb", "pair", "risks"):
            assert getattr(inputs, name).tobytes() == getattr(shared[0], name).tobytes()


def test_stale_pool_states_are_freed_by_reference_counting():
    """The pool-state lifetime guard: nothing memoised on a snapshot may
    refer back to it, so with the cyclic collector off a reusing service
    that decides at several instants keeps exactly one snapshot alive."""
    testbed, nws = _world()
    requests = [
        DecisionRequest(
            problem=JacobiProblem(n=n, iterations=20),
            userspec=UserSpecification(max_machines=cap),
            account_memory=memory,
        )
        for n in (600, 900)
        for memory in (True, False)
        for cap in (None, 3)
    ]
    service = SchedulingService(testbed, nws, reuse=True)
    enabled = gc.isenabled()
    gc.disable()
    try:
        for at in (300.0, 330.0, 360.0, 390.0):
            service.decide([replace(r, at=at) for r in requests])
        alive = [
            o for o in gc.get_objects()
            if isinstance(o, ForecastSnapshot) and o.pool.nws is nws
        ]
    finally:
        if enabled:
            gc.enable()
    assert len(alive) == 1
    assert not alive[0].stale
