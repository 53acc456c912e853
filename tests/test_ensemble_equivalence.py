"""Differential proof that the ensemble tensor backend is bit-identical.

Every replica of an :class:`repro.sim.execution_ensemble.EnsembleExecution`
pass must reproduce :func:`repro.sim.execution.simulate_iterations_reference`
run *solo* — ``total_time``, every entry of ``iteration_times`` and every
value of ``host_busy_time`` — regardless of its batch-mates, start time or
load regime.
"""

from __future__ import annotations

import pytest

from repro.sim.execution import WorkAssignment, simulate_iterations_reference
from repro.sim.execution_ensemble import (
    EnsembleExecution,
    ReplicaSpec,
    ensemble_summary,
    replicated,
    ring_assignments,
    run_ensemble,
)
from repro.sim.jobs import make_injectable
from repro.sim.testbeds import (
    casa_testbed,
    nile_testbed,
    sdsc_pcl_testbed,
    sdsc_pcl_with_sp2,
    synthetic_metacomputer,
)

BUILDERS = {
    "casa": casa_testbed,
    "nile": nile_testbed,
    "sdsc_pcl": sdsc_pcl_testbed,
    "sdsc_pcl_sp2": sdsc_pcl_with_sp2,
    "synthetic": lambda seed: synthetic_metacomputer(16, seed=seed),
}

SEEDS = [1, 7, 42]
REGIMES = (0.5, 1.0, 3.0)


def _spec(builder_key: str, seed: int, regime: float, t0: float) -> ReplicaSpec:
    testbed = BUILDERS[builder_key](seed=seed)
    return ReplicaSpec(
        testbed.topology,
        ring_assignments(
            testbed, work_mflop=40.0 * regime, comm_bytes=200_000.0 * regime
        ),
        t0=t0,
    )


def _assert_identical(got, ref):
    assert got.total_time == ref.total_time
    assert got.iteration_times == ref.iteration_times
    assert got.host_busy_time == ref.host_busy_time


def _assert_all_match_reference(specs, results, iterations):
    assert len(results) == len(specs)
    for spec, got in zip(specs, results):
        ref = simulate_iterations_reference(
            spec.topology, spec.assignments,
            iterations if spec.iterations is None else spec.iterations,
            spec.t0,
        )
        _assert_identical(got, ref)


@pytest.mark.parametrize("builder_key", sorted(BUILDERS))
def test_mixed_regime_batch_bit_identical(builder_key):
    """Seeds × load regimes of one testbed family, one ensemble pass."""
    specs = [
        _spec(builder_key, seed, regime, t0=2.5)
        for seed in SEEDS
        for regime in REGIMES
    ]
    _assert_all_match_reference(specs, run_ensemble(specs, 15), 15)


def test_cross_testbed_batch_bit_identical():
    """Heterogeneous topologies (different dts, sizes) in one batch."""
    specs = [_spec(key, 7, 1.0, t0=0.0) for key in sorted(BUILDERS)]
    _assert_all_match_reference(specs, run_ensemble(specs, 12), 12)


def test_staggered_start_times_bit_identical():
    """Replicas at different simulated instants advance independently."""
    specs = [_spec("sdsc_pcl", 3, 1.0, t0=137.0 * i) for i in range(5)]
    _assert_all_match_reference(specs, run_ensemble(specs, 10), 10)


def test_result_independent_of_batch_mates():
    """A replica's floats cannot depend on what else is in the batch."""
    target = _spec("nile", 11, 1.0, t0=5.0)
    solo = run_ensemble([target], 10)[0]
    crowd = [_spec("casa", s, r, t0=50.0 * s) for s in SEEDS for r in REGIMES]
    batched = run_ensemble(crowd + [target], 10)[-1]
    _assert_identical(batched, solo)


def test_mutable_load_replica_surrenders_in_mixed_batch():
    """An injector-mutated replica surrenders; the batch stays correct."""
    def mutated():
        testbed = sdsc_pcl_testbed(seed=9)
        injectors = make_injectable(testbed)
        for injector in injectors.values():
            injector.occupy(10.0, 300.0, 0.5)
        return testbed

    tb = mutated()
    specs = [
        _spec("sdsc_pcl", 1, 1.0, t0=1.5),
        ReplicaSpec(tb.topology, ring_assignments(tb), t0=1.5),
        _spec("sdsc_pcl", 42, 2.0, t0=1.5),
    ]
    ex = EnsembleExecution(specs, 20)
    assert ex.compile_report["surrendered"] == 1
    assert ex.surrender_reasons == {1: "mutable-host-load"}
    _assert_all_match_reference(specs, ex.run(), 20)


def test_shared_world_tables_dedupe():
    """Assignment-only variants of one world share their table rows.

    Rows are keyed on host/link identity plus footprint/flow content, so
    six variants of one eight-host ring compile eight rate rows, not 48 —
    and every replica still matches the reference loop exactly.
    """
    testbed = synthetic_metacomputer(8, seed=5)
    specs = [
        ReplicaSpec(
            testbed.topology,
            ring_assignments(testbed, work_mflop=8.0 * (1.0 + 0.05 * j)),
        )
        for j in range(6)
    ]
    ex = EnsembleExecution(specs, 10)
    report = ex.compile_report
    assert report["entries"] == 48
    assert report["rate_rows"] == 8
    assert report["pairs"] < report["pair_refs"]
    _assert_all_match_reference(specs, ex.run(), 10)


def test_heterogeneous_iterations_surrender():
    """A per-replica iteration override cannot ride the lock-step tensors."""
    specs = [
        _spec("casa", 1, 1.0, t0=0.0),
        ReplicaSpec(
            BUILDERS["casa"](seed=2).topology,
            ring_assignments(BUILDERS["casa"](seed=2)),
            iterations=4,
        ),
    ]
    ex = EnsembleExecution(specs, 10)
    assert ex.surrender_reasons == {1: "heterogeneous-iterations"}
    results = ex.run()
    assert len(results[0].iteration_times) == 10
    assert len(results[1].iteration_times) == 4
    _assert_all_match_reference(specs, results, 10)


def test_long_horizon_tensor_growth():
    """Work heavy enough to force repeated table doubling stays identical."""
    def heavy(seed):
        testbed = sdsc_pcl_testbed(seed=seed)
        hosts = sorted(testbed.topology.hosts)
        return ReplicaSpec(
            testbed.topology,
            [WorkAssignment(h, 4000.0, {}) for h in hosts],
        )

    specs = [heavy(3), heavy(5)]
    _assert_all_match_reference(specs, run_ensemble(specs, 8), 8)


def test_replicated_deterministic_and_seed_split():
    """replicated() worlds depend only on (seed, regime, replica) coords."""
    a = replicated(3, n_hosts=6, seed=1996, regimes=(1.0, 2.0))
    b = replicated(3, n_hosts=6, seed=1996, regimes=(1.0, 2.0))
    assert len(a) == len(b) == 6
    res_a = run_ensemble(a, 8)
    res_b = run_ensemble(b, 8)
    for x, y in zip(res_a, res_b):
        _assert_identical(x, y)
    # Distinct replica coordinates produce distinct worlds.
    assert res_a[0].total_time != res_a[1].total_time


def test_ensemble_summary_metrics():
    specs = replicated(4, n_hosts=6, seed=3)
    summary = ensemble_summary(run_ensemble(specs, 8))
    assert set(summary) == {"total_time", "mean_iteration_time", "efficiency"}
    for ci in summary.values():
        assert ci.n == 4
        assert ci.lo <= ci.mean <= ci.hi


class TestValidation:
    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one replica"):
            EnsembleExecution([], 5)

    def test_bad_iterations_rejected(self):
        spec = _spec("casa", 1, 1.0, t0=0.0)
        with pytest.raises(ValueError):
            run_ensemble([spec], 0)

    def test_invalid_assignment_named(self):
        testbed = casa_testbed(seed=1)
        spec = ReplicaSpec(testbed.topology, [WorkAssignment("ghost", 10.0)])
        with pytest.raises(ValueError, match="'ghost'.*not in the topology"):
            EnsembleExecution([spec], 5)
