"""Differential proof that the vectorised executor is bit-identical.

:class:`repro.sim.execution_fast.CompiledExecution` must reproduce
:func:`repro.sim.execution.simulate_iterations_reference` *float-for-float*
— ``total_time``, every entry of ``iteration_times`` and every value of
``host_busy_time`` — across every canned testbed, multiple seeds and
multiple allocation shapes.  The reference loop is the oracle for the
ensemble executor too (``tests/test_ensemble_equivalence.py``); all three
executors also fail identically once the simulated clock stops being
finite.
"""

from __future__ import annotations

import pytest

from repro.sim.execution import (
    IterationResult,
    WorkAssignment,
    simulate_iterations,
    simulate_iterations_reference,
)
from repro.sim.execution_ensemble import ReplicaSpec, run_ensemble
from repro.sim.execution_fast import CompiledExecution
from repro.sim.jobs import make_injectable
from repro.sim.load import ConstantLoad
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
    "synthetic": lambda seed: synthetic_metacomputer(24, seed=seed),
}

SEEDS = [1, 7, 42]


def _ring(hosts: list[str]) -> list[WorkAssignment]:
    """Neighbour exchange with uneven work and footprints."""
    n = len(hosts)
    return [
        WorkAssignment(
            h, 40.0 + 11.0 * i,
            {hosts[(i + 1) % n]: 250_000.0, hosts[(i - 1) % n]: 125_000.0},
            footprint_mb=6.0 * i, overhead_s=0.001,
        )
        for i, h in enumerate(hosts)
    ]


def _star(hosts: list[str]) -> list[WorkAssignment]:
    """Hub-and-spoke: everyone talks to the first host; hub does no work."""
    hub = hosts[0]
    out = [WorkAssignment(hub, 0.0, {h: 80_000.0 for h in hosts[1:]})]
    out.extend(
        WorkAssignment(h, 150.0, {hub: 400_000.0}, footprint_mb=2.0)
        for h in hosts[1:]
    )
    return out


def _clique(hosts: list[str]) -> list[WorkAssignment]:
    """All-pairs exchange over (at most) the first five hosts."""
    group = hosts[:5]
    return [
        WorkAssignment(h, 75.0, {p: 60_000.0 for p in group if p != h})
        for h in group
    ]


SHAPES = {"ring": _ring, "star": _star, "clique": _clique}


def _pair(builder_key: str, seed: int, shape_key: str):
    """Two independently built (testbed, assignments) copies of one case."""
    out = []
    for _ in range(2):
        testbed = BUILDERS[builder_key](seed=seed)
        out.append((testbed, SHAPES[shape_key](sorted(testbed.topology.hosts))))
    return out


def _assert_identical(fast, ref):
    assert fast.total_time == ref.total_time
    assert fast.iteration_times == ref.iteration_times
    assert fast.host_busy_time == ref.host_busy_time


@pytest.mark.parametrize("shape_key", sorted(SHAPES))
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("builder_key", sorted(BUILDERS))
def test_fast_executor_bit_identical(builder_key, seed, shape_key):
    (tb1, a1), (tb2, a2) = _pair(builder_key, seed, shape_key)
    fast = CompiledExecution(tb1.topology, a1).run(20, t0=3.5)
    ref = simulate_iterations_reference(tb2.topology, a2, 20, t0=3.5)
    _assert_identical(fast, ref)


def test_dispatcher_matches_reference():
    (tb1, a1), (tb2, a2) = _pair("sdsc_pcl", 5, "ring")
    fast = simulate_iterations(tb1.topology, a1, 15)
    ref = simulate_iterations_reference(tb2.topology, a2, 15)
    _assert_identical(fast, ref)


_EXECUTORS = {
    "reference": simulate_iterations_reference,
    "compiled": lambda topo, assignments, iterations: CompiledExecution(
        topo, assignments
    ).run(iterations),
    "ensemble": lambda topo, assignments, iterations: run_ensemble(
        [ReplicaSpec(topo, assignments)], iterations
    )[0],
}


@pytest.mark.parametrize("executor", sorted(_EXECUTORS))
def test_non_finite_clock_fails_identically(executor):
    """Every link pinned at availability 0: one step takes forever.

    A single iteration reports that honestly (``total_time=inf``); a
    second iteration would start from an infinite clock, which every
    executor refuses with the same error.
    """
    run = _EXECUTORS[executor]

    def dead_links():
        testbed = sdsc_pcl_testbed(seed=5)
        for link in testbed.topology.links.values():
            link.load = ConstantLoad(0.0)
        return testbed.topology, _ring(sorted(testbed.topology.hosts))

    one: IterationResult = run(*dead_links(), 1)
    assert one.total_time == float("inf")
    with pytest.raises(RuntimeError, match="time became non-finite"):
        run(*dead_links(), 2)


def test_mutable_injected_loads_bit_identical():
    """Injector-mutated hosts (live-query fallback) stay bit-identical."""
    def build():
        testbed = sdsc_pcl_testbed(seed=9)
        injectors = make_injectable(testbed)
        for injector in injectors.values():
            injector.occupy(10.0, 300.0, 0.5)
            injector.occupy(60.0, 145.0, 0.25)
        return testbed

    tb1, tb2 = build(), build()
    hosts = sorted(tb1.topology.hosts)
    a1, a2 = _ring(hosts), _ring(hosts)
    fast = CompiledExecution(tb1.topology, a1).run(20, t0=1.5)
    ref = simulate_iterations_reference(tb2.topology, a2, 20, t0=1.5)
    _assert_identical(fast, ref)


def test_compiled_execution_reusable_across_start_times():
    """One compilation, chunked runs — the adaptive-runner usage pattern."""
    tb1 = sdsc_pcl_testbed(seed=13)
    tb2 = sdsc_pcl_testbed(seed=13)
    hosts = sorted(tb1.topology.hosts)
    compiled = CompiledExecution(tb1.topology, _ring(hosts))

    t = 0.0
    for _ in range(4):
        chunk_fast = compiled.run(5, t0=t)
        chunk_ref = simulate_iterations_reference(
            tb2.topology, _ring(hosts), 5, t0=t
        )
        _assert_identical(chunk_fast, chunk_ref)
        t += chunk_fast.total_time


def test_long_horizon_table_growth():
    """Runs long enough to force repeated table doubling stay identical."""
    tb1 = sdsc_pcl_testbed(seed=3)
    tb2 = sdsc_pcl_testbed(seed=3)
    hosts = sorted(tb1.topology.hosts)

    def heavy():
        return [WorkAssignment(h, 4000.0, {}) for h in hosts]

    fast = CompiledExecution(tb1.topology, heavy()).run(8)
    ref = simulate_iterations_reference(tb2.topology, heavy(), 8)
    _assert_identical(fast, ref)


class TestValidation:
    """The dispatcher rejects bad allocations up front, naming the culprit."""

    def _testbed(self):
        return sdsc_pcl_testbed(seed=1)

    def test_unknown_host_named(self):
        tb = self._testbed()
        with pytest.raises(ValueError, match="'ghost'.*not in the topology"):
            simulate_iterations(
                tb.topology, [WorkAssignment("ghost", 10.0)], 5
            )

    def test_unknown_peer_named(self):
        tb = self._testbed()
        with pytest.raises(ValueError, match="comm peer 'nowhere'"):
            simulate_iterations(
                tb.topology,
                [WorkAssignment("sparc2", 10.0, {"nowhere": 1000.0})],
                5,
            )

    def test_reference_validates_identically(self):
        tb = self._testbed()
        with pytest.raises(ValueError, match="comm peer 'nowhere'"):
            simulate_iterations_reference(
                tb.topology,
                [WorkAssignment("sparc2", 10.0, {"nowhere": 1000.0})],
                5,
            )

    def test_zero_byte_peer_not_validated(self):
        # A zero-byte entry never routes, so an unknown name is harmless —
        # mirrors the execution loops, which skip it before routing.
        tb = self._testbed()
        result = simulate_iterations(
            tb.topology,
            [WorkAssignment("sparc2", 10.0, {"nowhere": 0.0})],
            3,
        )
        assert result.total_time > 0.0

    def test_duplicate_host_rejected(self):
        tb = self._testbed()
        with pytest.raises(ValueError, match="duplicate"):
            simulate_iterations(
                tb.topology,
                [WorkAssignment("sparc2", 10.0), WorkAssignment("sparc2", 5.0)],
                5,
            )

    def test_empty_assignments_rejected(self):
        tb = self._testbed()
        with pytest.raises(ValueError, match="at least one"):
            simulate_iterations(tb.topology, [], 5)
