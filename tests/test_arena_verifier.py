"""Standalone verifier: feasibility verdicts and the differential contract.

Two layers of guarantee:

1. **Feasibility** — the verifier rejects every malformed allocation with
   a reason string naming the violated constraint (checked here against a
   hand-built instance whose violations are unambiguous).
2. **Differential bit-identity** — for every decision an
   :class:`AppLeSAgent` or the batched :class:`SchedulingService` emits
   over canned testbeds, the verifier re-derives the *same* objective
   from the frozen instance alone, for the production decision and for
   the decision oracle (``AppLeSAgent.schedule_reference()``) alike.  The
   verifier imports zero scheduler code, so agreement means the frozen
   arrays and the reference estimator arithmetic really carry the whole
   objective.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.arena import (
    ArenaAllocation,
    ArenaInstance,
    MachineState,
    build_world,
    generate_instances,
    make_policy,
    verify_allocation,
)
from repro.jacobi.apples import make_jacobi_agent
from repro.service import DecisionRequest, SchedulingService, ServiceAnswer

# -- a hand-built instance whose infeasibilities are unambiguous -----------

_MACHINES = (
    MachineState(
        name="alpha", site="sdsc", arch="alpha", speed_mflops=100.0,
        memory_available_mb=64.0, availability=0.8, availability_error=0.1,
    ),
    MachineState(
        name="beta", site="sdsc", arch="alpha", speed_mflops=50.0,
        memory_available_mb=0.01, availability=0.9, availability_error=0.05,
    ),
    MachineState(
        name="gamma", site="pcl", arch="sparc", speed_mflops=80.0,
        memory_available_mb=64.0, availability=0.0, availability_error=0.2,
    ),
)


def _tiny_instance(bandwidth_to_gamma: float = 1e6) -> ArenaInstance:
    lat = ((0.0, 0.001, 0.05), (0.001, 0.0, 0.05), (0.05, 0.05, 0.0))
    inf = float("inf")
    bw = (
        (inf, 1e7, bandwidth_to_gamma),
        (1e7, inf, bandwidth_to_gamma),
        (bandwidth_to_gamma, bandwidth_to_gamma, inf),
    )
    return ArenaInstance(
        instance_id="tiny-000",
        instance_class="sdsc8",
        world={"generator": "sdsc", "seed": 1, "nws_seed": 1, "warmup_s": 0.0,
               "n_hosts": 8, "n_segments": None},
        machines=_MACHINES,
        latency_s=lat,
        bandwidth_bps=bw,
        problem={"n": 100, "iterations": 10, "flop_per_point": 1e-3,
                 "bytes_per_point": 8.0, "border_bytes_per_point": 8.0,
                 "sync_overhead_s": 0.001},
    )


def _alloc(machines, points):
    return ArenaAllocation(
        instance_id="tiny-000", policy="test",
        machines=tuple(machines), points=tuple(points),
    )


class TestFeasibility:
    def test_feasible_allocation_scores(self):
        inst = _tiny_instance()
        report = verify_allocation(inst, _alloc(("alpha",), (10000.0,)))
        assert report.feasible, report.reasons
        assert math.isfinite(report.objective) and report.objective > 0.0

    def test_unknown_machine(self):
        report = verify_allocation(
            _tiny_instance(), _alloc(("alpha", "nope"), (5000.0, 5000.0))
        )
        assert not report.feasible
        assert "unknown-machine:nope" in report.reasons

    def test_duplicate_machine(self):
        report = verify_allocation(
            _tiny_instance(), _alloc(("alpha", "alpha"), (5000.0, 5000.0))
        )
        assert not report.feasible
        assert "duplicate-machine" in report.reasons

    def test_shape_mismatch_and_empty(self):
        assert not verify_allocation(
            _tiny_instance(), _alloc(("alpha",), (5000.0, 5000.0))
        ).feasible
        assert not verify_allocation(_tiny_instance(), _alloc((), ())).feasible

    def test_non_positive_points(self):
        report = verify_allocation(
            _tiny_instance(), _alloc(("alpha", "beta"), (10000.0, 0.0))
        )
        assert not report.feasible
        assert "non-positive-points:beta" in report.reasons

    def test_work_conservation_exact(self):
        report = verify_allocation(_tiny_instance(), _alloc(("alpha",), (9999.0,)))
        assert not report.feasible
        assert "work-dropped" in report.reasons

    def test_capacity_overflow(self):
        # beta has 0.01 MB: room for 1250 points, not the whole grid.
        report = verify_allocation(
            _tiny_instance(), _alloc(("beta",), (10000.0,))
        )
        assert not report.feasible
        assert "capacity-overflow:beta" in report.reasons

    def test_zero_rate(self):
        # gamma's availability forecast is 0.0: conservative speed is zero.
        report = verify_allocation(
            _tiny_instance(), _alloc(("alpha", "gamma"), (5000.0, 5000.0))
        )
        assert not report.feasible
        assert "zero-rate:gamma" in report.reasons

    def test_unroutable(self):
        inst = _tiny_instance(bandwidth_to_gamma=0.0)
        # Zero out gamma's availability problem but keep the dead link.
        machines = (
            inst.machines[0],
            inst.machines[1],
            dataclasses.replace(inst.machines[2], availability=0.9,
                                memory_available_mb=64.0),
        )
        inst = dataclasses.replace(inst, machines=machines)
        report = verify_allocation(
            inst, _alloc(("alpha", "gamma"), (5000.0, 5000.0))
        )
        assert not report.feasible
        assert any(r.startswith("unroutable:") for r in report.reasons)

    def test_infeasible_objective_is_inf(self):
        report = verify_allocation(_tiny_instance(), _alloc(("alpha",), (1.0,)))
        assert report.objective == float("inf")


# -- differential: verifier == decision objective, production and oracle --

_POLICIES = ("greedy", "exhaustive", "seeded", "locality")


@pytest.fixture(scope="module")
def canned_instances():
    return (
        generate_instances("sdsc8", 2, seed=42, sizes=(500,), iterations=10)
        + generate_instances("synth14", 1, seed=42, sizes=(500,), iterations=10)
    )


def _reference_allocation(runner, inst) -> ArenaAllocation:
    """What an agent policy emits when its agent asks the decision oracle."""
    testbed, nws = build_world(inst.world)
    selector = runner._selector(inst)
    agent = make_jacobi_agent(
        testbed, inst.jacobi_problem(), nws,
        selector=selector,
        account_memory=bool(inst.params["account_memory"]),
    )
    decision = agent.schedule_reference()
    runner._after_decision(selector, decision)
    return ArenaAllocation(
        instance_id=inst.instance_id,
        policy=runner.name,
        machines=tuple(a.machine for a in decision.best.allocations),
        points=tuple(float(a.work_units) for a in decision.best.allocations),
        claimed_objective=decision.best_objective,
    )


def _reference_answer(testbed, nws, request) -> ServiceAnswer:
    agent = make_jacobi_agent(
        testbed, request.problem, nws, account_memory=request.account_memory,
    )
    return ServiceAnswer.from_decision(agent.schedule_reference(), at=request.at)


class TestDifferential:
    """``fastpath`` ids run the production decision, ``no-fastpath`` ids
    the decision oracle."""

    @pytest.mark.parametrize("fast", [True, False], ids=["fastpath", "no-fastpath"])
    def test_agent_decisions_re_derived_exactly(self, canned_instances, fast):
        """verifier(instance, alloc) == the agent's decision objective."""
        checked = 0
        for name in _POLICIES:
            runner = make_policy(name)
            for inst in canned_instances:
                if name == "exhaustive" and len(inst.machines) > 12:
                    continue
                alloc = (
                    runner.run(inst) if fast
                    else _reference_allocation(runner, inst)
                )
                report = verify_allocation(inst, alloc)
                assert report.feasible, (name, inst.instance_id, report.reasons)
                assert report.objective == alloc.claimed_objective, (
                    name, inst.instance_id,
                )
                checked += 1
        assert checked == len(_POLICIES) * 3 - 1  # exhaustive skips synth14

    @pytest.mark.parametrize("fast", [True, False], ids=["fastpath", "no-fastpath"])
    def test_service_decisions_re_derived_exactly(self, canned_instances, fast):
        """verifier(instance, alloc) == SchedulingService.decide() objective."""
        for inst in canned_instances[:2]:  # the sdsc8 pair
            testbed, nws = build_world(inst.world)
            request = DecisionRequest(
                problem=inst.jacobi_problem(),
                account_memory=bool(inst.params["account_memory"]),
                at=nws.now,
            )
            if fast:
                (answer,) = SchedulingService(testbed, nws).decide([request])
            else:
                answer = _reference_answer(testbed, nws, request)
            alloc = ArenaAllocation(
                instance_id=inst.instance_id,
                policy="service",
                machines=tuple(a.machine for a in answer.best.allocations),
                points=tuple(
                    float(a.work_units) for a in answer.best.allocations
                ),
                claimed_objective=answer.best_objective,
            )
            report = verify_allocation(inst, alloc)
            assert report.feasible, report.reasons
            assert report.objective == answer.best_objective

    def test_static_claim_differs_from_verified(self, canned_instances):
        """The compile-time baseline's nominal claim is NOT the verified
        objective — the gap between them is the paper's motivation."""
        alloc = make_policy("static").run(canned_instances[0])
        report = verify_allocation(canned_instances[0], alloc)
        assert report.feasible, report.reasons
        assert report.objective != alloc.claimed_objective
