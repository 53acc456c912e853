"""Differential harness: batched service ≡ sequential solo agents.

The :class:`~repro.service.SchedulingService` promises every answer
bit-identical to what the request's own agent would decide alone at the
same instant.  These tests build two value-identical worlds per case —
one answered through the service, one through a plain loop of solo agent
decisions — and compare the decisions float for float: chosen machines,
strip row counts, predicted/objective values and work units.

Two solo loops serve as the comparison: ``AppLeSAgent.schedule()``, whose
candidate-search statistics (evaluation count after pruning) the service
must also reproduce, and the decision oracle
``AppLeSAgent.schedule_reference()`` — the unpruned scalar loop with no
decision scope.  Batch contents are mixed on purpose: several problem
sizes, user specifications (including a different metric and a machine
cap), memory-blind requests, and duplicated configurations that exercise
the service's dedup.  A request weighing two decomposition families does
not batch: its sweep plans every row it does not prune.  Mixed batches
that carry one check that route against both solo loops, and a traced
batch checks that every configuration emits the same ``core.decision``
span as a solo decision.
"""

from __future__ import annotations

import pytest

from repro.core.userspec import UserSpecification
from repro.jacobi.apples import make_jacobi_agent
from repro.jacobi.grid import JacobiProblem
from repro.nws import NetworkWeatherService
from repro.obs.trace import tracing
from repro.service import DecisionRequest, SchedulingService, ServiceAnswer
from repro.sim import casa_testbed, nile_testbed, sdsc_pcl_testbed, sdsc_pcl_with_sp2

SEEDS = [(1996, 7), (2023, 11), (5, 97)]  # (testbed seed, NWS seed)

TESTBED_BUILDERS = {
    "sdsc_pcl": sdsc_pcl_testbed,
    "sdsc_pcl_sp2": sdsc_pcl_with_sp2,
    "casa": casa_testbed,
    "nile": nile_testbed,
}

AT = 420.0


def _userspec(k: int) -> UserSpecification:
    """Deterministic userspec variety: default, capped, priced."""
    variant = k % 3
    if variant == 0:
        return UserSpecification()
    if variant == 1:
        return UserSpecification(max_machines=3)
    return UserSpecification(
        performance_metric="cost",
        cost_per_cpu_second={"alpha1": 0.02, "sparc1": 0.01, "c90": 1.5},
    )


def _requests(batch: int) -> list[DecisionRequest]:
    """A mixed batch: sizes, specs, and memory policies all vary; every
    4th request repeats request 0's configuration (dedup coverage)."""
    reqs = []
    for k in range(batch):
        if k % 4 == 3:
            reqs.append(reqs[0])
            continue
        reqs.append(
            DecisionRequest(
                problem=JacobiProblem(n=600 + 100 * (k % 3), iterations=40 + k),
                userspec=_userspec(k),
                account_memory=(k % 5 != 2),
                at=AT,
            )
        )
    return reqs


def _service_answers(name, tb_seed, nws_seed, requests):
    builder = TESTBED_BUILDERS[name]
    testbed = builder(seed=tb_seed)
    nws = NetworkWeatherService.for_testbed(testbed, seed=nws_seed)
    return SchedulingService(testbed, nws).decide(requests)


def _solo_decisions(name, tb_seed, nws_seed, requests, reference=False):
    builder = TESTBED_BUILDERS[name]
    testbed = builder(seed=tb_seed)
    nws = NetworkWeatherService.for_testbed(testbed, seed=nws_seed)
    decisions = []
    for at in sorted({r.at for r in requests}):
        nws.advance_to(at)
        for r in requests:
            if r.at != at:
                continue
            agent = make_jacobi_agent(
                testbed, r.problem, nws,
                userspec=r.userspec, account_memory=r.account_memory,
            )
            decisions.append(
                agent.schedule_reference() if reference else agent.schedule()
            )
    return decisions


def _strip_rows(schedule):
    partition = schedule.metadata.get("partition")
    strips = getattr(partition, "strips", None)
    if strips is None:
        return None
    return [(s.machine, s.row_start, s.row_count) for s in strips]


def _assert_identical(answer: ServiceAnswer, decision, stats=True) -> None:
    assert answer.machines == decision.best.resource_set
    assert answer.predicted_time == decision.best.predicted_time  # bitwise
    assert answer.best_objective == decision.best_objective
    assert answer.metric == decision.metric
    if stats:
        # Evaluation count after pruning, and the full search statistics.
        assert answer.pruning == decision.pruning
        assert answer.evaluations_planned == decision.pruning.planned
    else:
        # The oracle prunes nothing but searches the same candidate space.
        assert not decision.pruning.bounded
        assert answer.pruning.candidates == decision.pruning.planned
    assert _strip_rows(answer.best) == _strip_rows(decision.best)
    assert [a.work_units for a in answer.best.allocations] == [
        a.work_units for a in decision.best.allocations
    ]


def _run_case(name, tb_seed, nws_seed, batch, reference=False):
    requests = _requests(batch)
    answers = _service_answers(name, tb_seed, nws_seed, requests)
    decisions = _solo_decisions(name, tb_seed, nws_seed, requests, reference)
    assert len(answers) == len(decisions) == batch
    for answer, decision in zip(answers, decisions):
        _assert_identical(answer, decision, stats=not reference)


# -- solo schedule(): full testbed × seed matrix, batch sizes per cost ---
@pytest.mark.parametrize("seeds", SEEDS, ids=lambda s: f"seed{s[0]}")
@pytest.mark.parametrize("batch", [1, 2, 7])
@pytest.mark.parametrize("name", ["sdsc_pcl", "sdsc_pcl_sp2", "casa"])
def test_fast_small_testbeds(name, batch, seeds):
    _run_case(name, seeds[0], seeds[1], batch)


@pytest.mark.parametrize("seeds", SEEDS, ids=lambda s: f"seed{s[0]}")
@pytest.mark.parametrize("batch", [1, 2])
def test_fast_nile(batch, seeds):
    _run_case("nile", seeds[0], seeds[1], batch)


@pytest.mark.parametrize("name", ["sdsc_pcl", "casa"])
def test_fast_batch64(name):
    _run_case(name, *SEEDS[0], batch=64)


def test_fast_nile_batch7():
    _run_case("nile", *SEEDS[1], batch=7)


@pytest.mark.slow
def test_fast_nile_batch64():
    """The acceptance-scenario shape: 64 requests on the 12-machine pool."""
    _run_case("nile", *SEEDS[0], batch=64)


# -- the decision oracle: schedule_reference() answers must match too ----
@pytest.mark.parametrize("batch", [1, 2, 7])
@pytest.mark.parametrize("name", ["sdsc_pcl", "casa"])
def test_reference_small_testbeds(name, batch):
    _run_case(name, *SEEDS[0], batch=batch, reference=True)


def test_reference_sp2():
    _run_case("sdsc_pcl_sp2", *SEEDS[2], batch=2, reference=True)


def test_reference_nile():
    _run_case("nile", *SEEDS[0], batch=2, reference=True)


def test_reference_batch64_casa():
    _run_case("casa", *SEEDS[1], batch=64, reference=True)


# -- cross-path: the service vs the sequential oracle loop ----------------
@pytest.mark.parametrize("name", ["sdsc_pcl", "casa"])
def test_fast_vs_reference_service(name):
    requests = _requests(5)
    fast = _service_answers(name, *SEEDS[0], requests)
    ref = _solo_decisions(name, *SEEDS[0], requests, reference=True)
    for a, b in zip(fast, ref):
        assert a.machines == b.best.resource_set
        assert a.predicted_time == b.best.predicted_time
        assert a.best_objective == b.best_objective
        assert _strip_rows(a.best) == _strip_rows(b.best)


# -- multiple decision instants in one submission ------------------------
def test_two_instants_one_batch():
    early = [r for r in _requests(3)]
    late = [
        DecisionRequest(
            problem=r.problem, userspec=r.userspec,
            account_memory=r.account_memory, at=AT + 180.0,
        )
        for r in _requests(3)
    ]
    requests = [early[0], late[0], early[1], late[1], early[2], late[2]]
    answers = _service_answers("sdsc_pcl", *SEEDS[0], requests)
    decisions = _solo_decisions("sdsc_pcl", *SEEDS[0], requests)
    # _solo_decisions orders by instant; realign to request order.
    order = sorted(range(len(requests)), key=lambda i: requests[i].at)
    by_request = dict(zip(order, decisions))
    for i, answer in enumerate(answers):
        _assert_identical(answer, by_request[i])
    assert [a.at for a in answers] == [r.at for r in requests]


def test_past_instant_rejected():
    testbed = sdsc_pcl_testbed(seed=1996)
    nws = NetworkWeatherService.for_testbed(testbed, seed=7)
    nws.advance_to(500.0)
    service = SchedulingService(testbed, nws)
    with pytest.raises(ValueError):
        service.decide([DecisionRequest(problem=JacobiProblem(n=600, iterations=10), at=100.0)])


# -- configurations that do not batch ------------------------------------
TWO_FAMILIES = UserSpecification(decomposition_preference=("strip", "blocked"))


def _with_two_families(batch: int) -> list[DecisionRequest]:
    """A mixed batch plus one request the batched evaluation cannot take."""
    return _requests(batch) + [
        DecisionRequest(
            problem=JacobiProblem(n=700, iterations=30),
            userspec=TWO_FAMILIES,
            at=AT,
        )
    ]


@pytest.mark.parametrize("name", list(TESTBED_BUILDERS))
def test_two_family_config_in_mixed_batch(name):
    """The request that does not batch, decided among ones that do,
    matches solo ``schedule()`` and the oracle float for float."""
    requests = _with_two_families(3)
    answers = _service_answers(name, *SEEDS[1], requests)
    for reference in (False, True):
        decisions = _solo_decisions(name, *SEEDS[1], requests, reference)
        for answer, decision in zip(answers, decisions, strict=True):
            _assert_identical(answer, decision, stats=not reference)


# -- a service decision traces like a solo one ---------------------------
SPAN_ATTRS = ("candidates", "bounded", "metric", "planned", "pruned",
              "best_objective")


def _decision_traces(records):
    """Per ``core.decision`` span: its outcome attributes and incumbents."""
    traces = []
    for span in records:
        if span["kind"] != "span" or span["name"] != "core.decision":
            continue
        incumbents = [
            (r["fields"]["idx"], r["fields"]["objective"],
             r["fields"].get("seeded", False))
            for r in records
            if r["kind"] == "event" and r["name"] == "core.incumbent"
            and r["span"] == span["id"]
        ]
        traces.append(({k: span["attrs"][k] for k in SPAN_ATTRS}, incumbents))
    return traces


def test_service_decision_traces_like_solo():
    """Every configuration of a traced service batch, batched or not,
    yields the ``core.decision`` span a traced solo ``schedule()`` of the
    same request yields: same outcome attributes, same incumbent events."""
    problem = JacobiProblem(n=600, iterations=40)
    specs = [_userspec(0), _userspec(1), _userspec(2), TWO_FAMILIES]
    requests = [DecisionRequest(problem=problem, userspec=s, at=AT) for s in specs]
    with tracing() as tr:
        _service_answers("sdsc_pcl", *SEEDS[0], requests)
    batched = _decision_traces(tr.records())
    solo = []
    for request in requests:
        with tracing() as tr:
            _solo_decisions("sdsc_pcl", *SEEDS[0], [request])
        solo += _decision_traces(tr.records())
    assert len(batched) == len(requests)
    assert batched == solo
    # The two-family request did not batch, yet its sweep was bounded.
    assert batched[-1][0]["bounded"] and batched[-1][1]
