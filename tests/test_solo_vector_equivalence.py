"""Differential suite: batched solo decision ≡ unbatched decision ≡ oracle.

A solo ``schedule()`` whose configuration batches evaluates every
candidate set in one ``evaluate_strip_batch`` call before
``AppLeSAgent.decide`` sweeps them; that batch claims to change *nothing
observable* about the decision.  These tests run each arm explicitly over
agents sharing one world, so all three read the same forecasts —
``reference`` (:meth:`AppLeSAgent.schedule_reference`, the decision
oracle), ``scalar`` (``schedule()`` with
``repro.core.coordinator.resolve_batch_planner`` patched to find no batch
planner, so ``AppLeSAgent.stage`` stages no batch job and the bounded
sweep plans every row it reaches, as for planners without a batch surface
in production) and ``vector`` (plain ``schedule()``) — and assert
bit-identity:

- winner resource set, allocations, predicted time, objective — across
  all three arms (the reference loop is the ground truth);
- evaluation order (the ``core.incumbent`` event sequence), pruned rows,
  per-row objectives and bounds, and :class:`PruningStats` — between the
  two bounded arms, which share the seeded sweep (the reference loop is
  unbounded by design);
- the vector arm really was batched (``decision.vectorised``) and the
  scalar arm really was not.

A Hypothesis property drives random pools, seeds, problem shapes and user
specifications through the same oracle.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.coordinator as coordinator
from repro.core.resources import ResourcePool
from repro.core.userspec import UserSpecification
from repro.jacobi.apples import make_jacobi_agent
from repro.jacobi.grid import JacobiProblem
from repro.nws import NetworkWeatherService
from repro.obs.trace import tracing
from repro.sim import casa_testbed, nile_testbed, sdsc_pcl_testbed

BUILDERS = {
    "sdsc_pcl": sdsc_pcl_testbed,
    "casa": casa_testbed,
}



def _decide(testbed, nws, problem, arm, userspec=None, account_memory=True):
    """One decision on the named arm: reference, scalar or vector."""
    agent = make_jacobi_agent(
        testbed, problem, nws=nws, userspec=userspec,
        account_memory=account_memory,
    )
    with pytest.MonkeyPatch.context() as mp, tracing() as tr:
        if arm == "reference":
            decision = agent.schedule_reference()
        else:
            if arm == "scalar":
                mp.setattr(
                    coordinator, "resolve_batch_planner", lambda *args: None
                )
            decision = agent.schedule()
    incumbents = [
        (r["fields"]["idx"], r["fields"]["objective"],
         r["fields"].get("seeded", False))
        for r in tr.records()
        if r["kind"] == "event" and r["name"] == "core.incumbent"
    ]
    return decision, incumbents


def _winner(decision):
    return (
        decision.best.resource_set,
        tuple((a.machine, a.work_units, a.footprint_mb)
              for a in decision.best.allocations),
        decision.best.predicted_time,
        decision.best_objective,
        decision.candidates_considered,
    )


def _pruned_rows(decision):
    return tuple(ev.pruned for ev in decision.evaluations)


def _row_scores(decision):
    """Per-candidate objective and bound, as the rows report them."""
    return [(ev.objective, ev.lower_bound) for ev in decision.evaluations]


def _assert_equivalent(testbed, nws, problem, userspec=None, account_memory=True):
    ref, _ = _decide(testbed, nws, problem, "reference", userspec, account_memory)
    scalar, scalar_inc = _decide(
        testbed, nws, problem, "scalar", userspec, account_memory
    )
    vector, vector_inc = _decide(
        testbed, nws, problem, "vector", userspec, account_memory
    )

    # The reference loop is the oracle for the *decision*.
    assert _winner(scalar) == _winner(ref)
    assert _winner(vector) == _winner(ref)
    assert not ref.vectorised and not scalar.vectorised

    # The two bounded arms replay the identical seeded sweep: same
    # incumbent (evaluation) order, same pruned rows, same statistics.
    assert vector_inc == scalar_inc
    assert _pruned_rows(vector) == _pruned_rows(scalar)
    assert vector.pruning == scalar.pruning
    # Array scoring equals the Schedule-based objective, row for row.
    assert _row_scores(vector) == _row_scores(scalar)
    return ref, scalar, vector


@settings(
    max_examples=8, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    bed_name=st.sampled_from(sorted(BUILDERS)),
    tb_seed=st.integers(min_value=1, max_value=2**16),
    nws_seed=st.integers(min_value=1, max_value=2**16),
    n=st.sampled_from([500, 800, 1100]),
    iterations=st.integers(min_value=10, max_value=60),
    max_machines=st.one_of(st.none(), st.integers(min_value=2, max_value=6)),
    account_memory=st.booleans(),
    cost_metric=st.booleans(),
)
def test_property_random_pools_and_specs(
    bed_name, tb_seed, nws_seed, n, iterations, max_machines, account_memory,
    cost_metric,
):
    testbed = BUILDERS[bed_name](seed=tb_seed)
    nws = NetworkWeatherService.for_testbed(testbed, seed=nws_seed)
    nws.warmup(600.0)
    problem = JacobiProblem(n=n, iterations=iterations)
    spec = {} if max_machines is None else {"max_machines": max_machines}
    if cost_metric:  # unequal rates, one machine left free
        names = ResourcePool(testbed.topology).machine_names()
        spec.update(
            performance_metric="cost",
            cost_per_cpu_second={m: 0.013 * (k + 1) for k, m in enumerate(names[1:])},
        )
    userspec = UserSpecification(**spec)
    _, _, vector = _assert_equivalent(
        testbed, nws, problem, userspec, account_memory
    )
    # Strip-only configurations always batch: the vector arm must have
    # actually exercised the tensor path, or this suite tests nothing.
    assert vector.vectorised


def test_exhaustive_twelve_machine_pool():
    """The headline pool: nile's 4095-candidate exhaustive sweep."""
    testbed = nile_testbed(seed=1996)
    nws = NetworkWeatherService.for_testbed(testbed, seed=7)
    nws.warmup(600.0)
    _, _, vector = _assert_equivalent(
        testbed, nws, JacobiProblem(n=1000, iterations=40)
    )
    assert vector.vectorised
    assert vector.candidates_considered == 2**12 - 1


def test_incumbent_stream_seeds_exactly_once():
    testbed = sdsc_pcl_testbed(seed=1996)
    nws = NetworkWeatherService.for_testbed(testbed, seed=7)
    nws.warmup(600.0)
    _, incumbents = _decide(
        testbed, nws, JacobiProblem(n=600, iterations=20), "vector"
    )
    assert incumbents, "a feasible decision must announce incumbents"
    assert incumbents[0][2] is True  # the warm start
    assert all(seeded is False for _, _, seeded in incumbents[1:])
    objectives = [obj for _, obj, _ in incumbents]
    assert objectives == sorted(objectives, reverse=True)


def test_multi_family_configuration_declines_to_vectorise():
    """With both decomposition families active the dispatcher cannot name
    a single batch planner, so ``schedule()`` falls back to the scalar
    sweep — and the decision is still bit-identical to the reference."""
    testbed = sdsc_pcl_testbed(seed=1996)
    nws = NetworkWeatherService.for_testbed(testbed, seed=7)
    nws.warmup(600.0)
    problem = JacobiProblem(n=600, iterations=20)
    spec = UserSpecification(decomposition_preference=("strip", "blocked"))

    ref, _ = _decide(testbed, nws, problem, "reference", spec)
    vector, _ = _decide(testbed, nws, problem, "vector", spec)
    assert not vector.vectorised
    assert _winner(vector) == _winner(ref)


def test_vector_rows_expose_winner_schedule():
    """`evaluations` rows from the tensor path keep the explain() contract:
    the winner row holds the materialised schedule, pruned rows hold
    their bound, and certified rows carry a finite objective.  The rows
    are built from the sweep's arrays on first read and then cached."""
    testbed = sdsc_pcl_testbed(seed=1996)
    nws = NetworkWeatherService.for_testbed(testbed, seed=7)
    nws.warmup(600.0)
    decision, _ = _decide(
        testbed, nws, JacobiProblem(n=600, iterations=20), "vector"
    )
    assert decision.vectorised
    assert callable(decision.rows)  # nothing built until first read
    rows = decision.evaluations
    assert decision.evaluations is rows  # built once, same rows every read
    assert len(rows) == decision.pruning.candidates
    winners = [ev for ev in rows if ev.schedule is decision.best]
    assert len(winners) == 1
    assert winners[0].objective == decision.best_objective
    for ev in rows:
        if ev.pruned:
            assert ev.lower_bound is not None
            assert ev.schedule is None
        elif ev is not winners[0]:
            assert ev.feasible == (ev.objective < float("inf"))
    assert "pruned by lower bound" in decision.explain()


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
