"""Tests for the Monte-Carlo acceptance ensemble sweep."""

from __future__ import annotations

import pytest

from repro.montecarlo import (
    MonteCarloProblem,
    run_acceptance_ensemble,
    true_acceptance,
)
from repro.sim.execution import WorkAssignment, simulate_iterations_reference
from repro.sim.testbeds import synthetic_metacomputer
from repro.util.rng import derive_seed

PROBLEM = MonteCarloProblem(samples=40_000, seed=3)


class TestAcceptanceEnsemble:
    def test_reproducible(self):
        a = run_acceptance_ensemble(PROBLEM, 5, seed=11)
        b = run_acceptance_ensemble(PROBLEM, 5, seed=11)
        assert a.replicas == b.replicas
        assert a.acceptance_ci == b.acceptance_ci
        assert a.elapsed_ci == b.elapsed_ci

    def test_converges_to_true_acceptance(self):
        ens = run_acceptance_ensemble(PROBLEM, 8, seed=11)
        truth = true_acceptance()
        assert ens.acceptance_ci.lo <= truth <= ens.acceptance_ci.hi
        # Each replica individually lands within a loose window too.
        for rep in ens.replicas:
            assert abs(rep.result.acceptance - truth) < 0.02

    def test_replicas_have_independent_worlds(self):
        ens = run_acceptance_ensemble(PROBLEM, 5, seed=11)
        elapsed = {rep.elapsed_s for rep in ens.replicas}
        assert len(elapsed) > 1  # different testbeds → different timings
        assert all(rep.elapsed_s > 0.0 for rep in ens.replicas)

    def test_partition_invariance(self):
        """Computing any index split concatenates to the full sweep."""
        full = run_acceptance_ensemble(PROBLEM, 6, seed=11)
        head = run_acceptance_ensemble(PROBLEM, 6, seed=11, indices=[0, 1])
        tail = run_acceptance_ensemble(PROBLEM, 6, seed=11, indices=[2, 3, 4, 5])
        assert head.replicas + tail.replicas == full.replicas

    def test_fast_and_reference_modes_agree(self):
        """Each replica's ensemble-pass timing equals the reference
        executor run solo over the same world and shares."""
        ens = run_acceptance_ensemble(PROBLEM, 4, seed=11)
        for rep in ens.replicas:
            testbed = synthetic_metacomputer(
                8, seed=derive_seed(11, "mc-ensemble", rep.index)
            )
            assignments = [
                WorkAssignment(host=name, work_mflop=count * PROBLEM.flop_per_sample)
                for name, count in rep.shares.items()
            ]
            ref = simulate_iterations_reference(testbed.topology, assignments, 1)
            assert rep.elapsed_s == ref.total_time

    def test_table_renders(self):
        ens = run_acceptance_ensemble(PROBLEM, 3, seed=11)
        text = ens.table().render()
        assert "MC acceptance ensemble" in text
        assert "mean" in text

    def test_bad_replicas_rejected(self):
        with pytest.raises(ValueError):
            run_acceptance_ensemble(PROBLEM, 0)

    def test_shares_cover_all_samples(self):
        ens = run_acceptance_ensemble(PROBLEM, 3, seed=11)
        for rep in ens.replicas:
            assert sum(rep.shares.values()) == PROBLEM.samples
            assert rep.result.thrown == PROBLEM.samples
