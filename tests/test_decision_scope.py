"""Regression tests for per-request decision scoping.

The bug class under guard: a :class:`~repro.core.infopool.DecisionCache`
surviving from one service request into the next.  Rates, cost models and
locality orders memoised for a decision at ``t1`` must never answer a
decision at ``t2`` — the fix gives every request an explicit
``decision_scope`` whose cache is dropped (and any enclosing scope's cache
restored) on exit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from unittest import mock

import pytest

import repro.core.resources as resources
import repro.jacobi.apples as apples
from repro.core.hat import (
    CommunicationCharacteristics,
    HeterogeneousApplicationTemplate,
    StructureInfo,
    TaskCharacteristics,
)
from repro.core.infopool import InformationPool
from repro.core.planner import TimeBalancedPlanner
from repro.core.selector import LocalitySelector, ResourceSelector, SeededSelector
from repro.jacobi.apples import make_jacobi_agent
from repro.jacobi.grid import JacobiProblem
from repro.nile.analysis import HistogramAnalysis
from repro.nile.apples import make_nile_agent
from repro.nile.events import PASS2, EventBatch
from repro.nile.storage import TAPE, StoredDataset
from repro.nws import NetworkWeatherService
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
    with pytest.raises(ValueError, match="stale"):
        info.begin_decision(snapshot)


def test_decision_scope_drops_cache_and_restores_outer():
    testbed, nws = _world()
    info = _info(testbed, nws)

    assert info.decision_cache is None
    with info.decision_scope() as outer:
        outer.memo["k"] = "outer-value"
        with info.decision_scope() as inner:
            assert info.decision_cache is inner
            assert "k" not in inner.memo  # fresh memo per scope
            inner.memo["k"] = "inner-value"
        # The enclosing decision's cache comes back untouched.
        assert info.decision_cache is outer
        assert info.decision_cache.memo["k"] == "outer-value"
    assert info.decision_cache is None


def test_decision_scope_restores_on_error():
    testbed, nws = _world()
    info = _info(testbed, nws)
    with pytest.raises(RuntimeError, match="boom"):
        with info.decision_scope():
            raise RuntimeError("boom")
    assert info.decision_cache is None


def _read_from_the_scope(info, ask):
    """``ask()`` unpatched outside any scope, then inside a scope on a
    snapshot taken before ``ResourcePool.predicted_speed`` starts to
    raise: a reader that went to the pool inside a decision fails."""
    want = ask()
    assert want  # a non-empty answer, so the comparison below means something
    assert info.forecasts is info.pool
    with info.decision_scope(info.pool.snapshot()) as cache:
        with mock.patch.object(
            resources.ResourcePool, "predicted_speed",
            side_effect=AssertionError("pool read inside a decision scope"),
        ):
            assert info.forecasts is cache.snapshot
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
