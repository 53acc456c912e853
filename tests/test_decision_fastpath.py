"""Decision-path equivalence: ``schedule()`` ≡ ``schedule_reference()``.

The production decision (forecast snapshot + memoised cost models +
candidate pruning + batched evaluation) must leave the Coordinator's
decision **bit-identical** to the oracle — the unpruned scalar loop with
no decision scope — with the same winning resource set, same allocations
and same predicted time, on every canned testbed and across seeds.  These
tests build one testbed + NWS and call both methods on agents over it, so
both read the exact same forecast values and any divergence is the
decision path's fault.
"""

from __future__ import annotations

import pytest

from repro.jacobi.apples import make_jacobi_agent
from repro.jacobi.grid import JacobiProblem
from repro.nws import NetworkWeatherService
from repro.sim import casa_testbed, nile_testbed, sdsc_pcl_testbed, sdsc_pcl_with_sp2

SEEDS = [(1996, 7), (2023, 11), (5, 97)]  # (testbed seed, NWS seed)

TESTBED_BUILDERS = {
    "sdsc_pcl": sdsc_pcl_testbed,
    "sdsc_pcl_sp2": sdsc_pcl_with_sp2,
    "casa": casa_testbed,
    "nile": nile_testbed,
}


def _decide(testbed, nws, problem, fast, **kwargs):
    """One production decision (``fast``) or one oracle decision."""
    agent = make_jacobi_agent(testbed, problem, nws=nws, **kwargs)
    return agent.schedule() if fast else agent.schedule_reference()


def _alloc_rows(schedule):
    return [
        (a.machine, a.work_units, a.footprint_mb) for a in schedule.allocations
    ]


@pytest.mark.parametrize("bed_name", sorted(TESTBED_BUILDERS))
@pytest.mark.parametrize("tb_seed,nws_seed", SEEDS)
def test_decision_bit_identical(bed_name, tb_seed, nws_seed):
    builder = TESTBED_BUILDERS[bed_name]
    testbed = builder(seed=tb_seed)
    nws = NetworkWeatherService.for_testbed(testbed, seed=nws_seed)
    nws.warmup(600.0)
    problem = JacobiProblem(n=600, iterations=40)

    ref = _decide(testbed, nws, problem, fast=False)
    fast = _decide(testbed, nws, problem, fast=True)

    assert fast.best.resource_set == ref.best.resource_set
    assert _alloc_rows(fast.best) == _alloc_rows(ref.best)
    assert fast.best.predicted_time == ref.best.predicted_time
    assert fast.best_objective == ref.best_objective
    # Pruned rows still count: the candidate space is identical.
    assert fast.candidates_considered == ref.candidates_considered


def test_pruning_never_claims_the_winner(testbed, warmed_nws):
    """Every pruned candidate's lower bound genuinely exceeds the winner."""
    problem = JacobiProblem(n=600, iterations=40)
    decision = _decide(testbed, warmed_nws, problem, fast=True)
    assert decision.pruning is not None
    assert decision.pruning.bounded
    for ev in decision.evaluations:
        if ev.pruned:
            assert ev.lower_bound is not None
            assert ev.lower_bound > decision.best_objective
            assert ev.schedule is None


def test_pruning_stats_account_for_every_candidate(testbed, warmed_nws):
    problem = JacobiProblem(n=600, iterations=40)
    decision = _decide(testbed, warmed_nws, problem, fast=True)
    stats = decision.pruning
    assert stats.candidates == decision.candidates_considered == 2 ** 8 - 1
    assert stats.planned + stats.pruned == stats.candidates
    assert stats.planned == sum(1 for e in decision.evaluations if not e.pruned)
    assert 0.0 <= stats.pruned_fraction <= 1.0


def test_pruning_actually_prunes_on_sdsc(testbed, warmed_nws):
    """The bound is tight enough to skip a real share of the 255 sets.

    Not a performance assertion — just a guard that the machinery is live
    (a bound that never fires would silently degrade to exhaustive scans).
    """
    problem = JacobiProblem(n=600, iterations=40)
    decision = _decide(testbed, warmed_nws, problem, fast=True)
    assert decision.pruning.pruned > 0


def test_explain_mentions_pruning(testbed, warmed_nws):
    problem = JacobiProblem(n=600, iterations=40)
    decision = _decide(testbed, warmed_nws, problem, fast=True)
    text = decision.explain()
    assert "pruned by lower bound" in text


def test_reference_path_reports_unbounded_stats(testbed, warmed_nws):
    """The reference loop reports stats too, with pruning disabled."""
    problem = JacobiProblem(n=600, iterations=40)
    decision = _decide(testbed, warmed_nws, problem, fast=False)
    assert decision.pruning is not None
    assert not decision.pruning.bounded
    assert decision.pruning.pruned == 0
    assert decision.pruning.planned == decision.candidates_considered


def test_decision_scope_closed_after_schedule(testbed, warmed_nws):
    """schedule() closes its decision scope (no leaked snapshot)."""
    problem = JacobiProblem(n=600, iterations=40)
    agent = make_jacobi_agent(testbed, problem, nws=warmed_nws)
    agent.schedule()
    assert agent.info.forecasts is agent.info.pool


def test_blocked_preference_equivalent(testbed, warmed_nws):
    """Equivalence holds with the generalised-block family in play too."""
    from repro.core.userspec import UserSpecification

    problem = JacobiProblem(n=600, iterations=40)
    spec = UserSpecification(decomposition_preference=("strip", "blocked"))

    ref = _decide(testbed, warmed_nws, problem, fast=False, userspec=spec)
    fast = _decide(testbed, warmed_nws, problem, fast=True, userspec=spec)
    assert fast.best.resource_set == ref.best.resource_set
    assert _alloc_rows(fast.best) == _alloc_rows(ref.best)
    assert fast.best.predicted_time == ref.best.predicted_time
