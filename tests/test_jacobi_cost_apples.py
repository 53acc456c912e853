"""Tests for the Jacobi cost model and the AppLeS/baseline planners."""

from __future__ import annotations

import pytest

from repro.core.infopool import InformationPool
from repro.core.resources import ResourcePool
from repro.core.userspec import UserSpecification
from repro.jacobi.apples import (
    BlockedPlanner,
    JacobiPlanner,
    StaticStripPlanner,
    UniformStripPlanner,
    locality_order,
    make_jacobi_agent,
)
from repro.jacobi.cost import StripCostModel, strip_comm_seconds
from repro.jacobi.grid import JacobiProblem, jacobi_hat
from repro.jacobi.partition import uniform_strip


def _info(testbed, nws=None, problem=None):
    problem = problem or JacobiProblem(n=1000, iterations=10)
    return InformationPool(
        pool=ResourcePool(testbed.topology, nws), hat=jacobi_hat(problem)
    ), problem


class TestStripCostModel:
    def test_point_rate_nominal(self, testbed):
        info, problem = _info(testbed)
        model = StripCostModel(info.pool, problem)
        # alpha1: 45 MFLOP/s at 5e-6 MFLOP/point = 9e6 points/s.
        assert model.point_rate("alpha1") == pytest.approx(9e6)

    def test_point_rate_dynamic_lower(self, testbed, warmed_nws):
        _, problem = _info(testbed)
        nominal = StripCostModel(ResourcePool(testbed.topology), problem)
        dynamic = StripCostModel(ResourcePool(testbed.topology, warmed_nws), problem)
        assert dynamic.point_rate("rs6000a") < nominal.point_rate("rs6000a")

    def test_comm_costs_ends_cheaper(self, testbed):
        info, problem = _info(testbed)
        model = StripCostModel(info.pool, problem)
        costs = model.comm_costs(["alpha1", "alpha2", "alpha3"])
        assert costs[1] > costs[0]
        assert costs[1] > costs[2]

    def test_comm_costs_cross_site_expensive(self, testbed):
        info, problem = _info(testbed)
        cheap = strip_comm_seconds(info.pool, ["alpha1", "alpha2"], problem)
        pricey = strip_comm_seconds(info.pool, ["alpha1", "sparc2"], problem)
        assert pricey[0] > cheap[0]

    def test_memory_penalty_in_point_time(self, testbed):
        info, problem = _info(testbed, problem=JacobiProblem(n=4000, iterations=1))
        model = StripCostModel(info.pool, problem, account_memory=True)
        # sparc2 has 26 MB available; 4000x4000/2 points = 128 MB footprint.
        in_core = model.point_time("sparc2", area=1e5)
        spilled = model.point_time("sparc2", area=8e6)
        assert spilled > in_core * 2

    def test_execution_time_scales_with_iterations(self, testbed):
        info, problem = _info(testbed)
        model = StripCostModel(info.pool, problem)
        part = uniform_strip(problem.n, ["alpha1", "alpha2"])
        assert model.execution_time(part) == pytest.approx(
            model.step_time(part) * problem.iterations
        )

    def test_step_time_is_max(self, testbed):
        info, problem = _info(testbed)
        model = StripCostModel(info.pool, problem)
        part = uniform_strip(problem.n, ["sparc2", "alpha1"])
        t = model.step_time(part)
        assert t == pytest.approx(
            max(model.machine_time(part, m) for m in part.machines)
        )

    @pytest.mark.parametrize("snapshot", [False, True])
    def test_comm_cost_matrix_is_the_scalar_transfer_time(
        self, testbed, warmed_nws, snapshot
    ):
        info, problem = _info(testbed, warmed_nws)
        pool = info.pool
        model = StripCostModel(
            pool, problem, snapshot=pool.snapshot() if snapshot else None
        )
        names = pool.machine_names()[::-1]
        pair = model.comm_cost_matrix(names)
        exchange = problem.border_exchange_bytes()
        for i, a in enumerate(names):
            for j, b in enumerate(names):
                assert pair[i, j] == model._transfer_time(a, b, exchange)
        assert not pair.flags.writeable


class TestLocalityOrder:
    def test_groups_by_segment(self, testbed):
        pool = ResourcePool(testbed.topology)
        order = locality_order(pool, testbed.host_names)
        # Machines sharing a segment must be adjacent in the order.
        def positions(names):
            return [order.index(n) for n in names]

        for group in (["sparc2", "sparc10"], ["rs6000a", "rs6000b"],
                      ["alpha1", "alpha2", "alpha3", "alpha4"]):
            pos = sorted(positions(group))
            assert pos == list(range(pos[0], pos[0] + len(group)))


class TestJacobiPlanner:
    def test_plan_covers_grid(self, testbed, warmed_nws):
        info, problem = _info(testbed, warmed_nws)
        sched = JacobiPlanner(problem).plan(testbed.host_names, info)
        assert sched is not None
        assert sched.total_work_units == problem.total_points
        assert sched.decomposition == "apples-strip"

    def test_loaded_machine_gets_less(self, testbed, warmed_nws):
        info, problem = _info(testbed, warmed_nws)
        sched = JacobiPlanner(problem).plan(["rs6000a", "rs6000b"], info)
        # Same nominal speed; rs6000a is far more loaded (mean 0.30 vs 0.70).
        a = sched.allocation_for("rs6000a").work_units
        b = sched.allocation_for("rs6000b").work_units
        assert a < b

    def test_memory_capacity_respected(self, testbed_sp2, warmed_nws_sp2):
        problem = JacobiProblem(n=4200, iterations=1)
        info, _ = _info(testbed_sp2, warmed_nws_sp2, problem)
        sched = JacobiPlanner(problem).plan(list(testbed_sp2.host_names), info)
        assert sched is not None
        for alloc in sched.allocations:
            cap = info.pool.machine_info(alloc.machine).memory_available_mb
            assert alloc.footprint_mb <= cap + 1e-6

    def test_infeasible_memory_returns_none(self, casa):
        # A problem too big for the CASA pair's memory with memory
        # accounting on.
        problem = JacobiProblem(n=30_000, iterations=1)
        info = InformationPool(
            pool=ResourcePool(casa.topology), hat=jacobi_hat(problem)
        )
        assert JacobiPlanner(problem).plan(["c90", "paragon"], info) is None

    def test_metadata_partition_consistent(self, testbed, warmed_nws):
        info, problem = _info(testbed, warmed_nws)
        sched = JacobiPlanner(problem).plan(["alpha1", "alpha2", "alpha3"], info)
        part = sched.metadata["partition"]
        assert part.n == problem.n
        assert set(part.machines) == set(a.machine for a in sched.allocations)


class TestBaselinePlanners:
    def test_static_strip_uses_nominal_speeds(self, testbed, warmed_nws):
        info, problem = _info(testbed, warmed_nws)
        sched = StaticStripPlanner(problem).plan(["rs6000a", "rs6000b"], info)
        # Nominal speeds equal -> equal areas, despite rs6000a's load.
        a = sched.allocation_for("rs6000a").work_units
        b = sched.allocation_for("rs6000b").work_units
        assert a == pytest.approx(b)

    def test_uniform_strip_equal_areas(self, testbed):
        info, problem = _info(testbed)
        sched = UniformStripPlanner(problem).plan(["alpha1", "sparc2"], info)
        a = sched.allocation_for("alpha1").work_units
        b = sched.allocation_for("sparc2").work_units
        assert a == pytest.approx(b)

    def test_blocked_partition_attached(self, testbed):
        info, problem = _info(testbed)
        sched = BlockedPlanner(problem).plan(list(testbed.host_names), info)
        part = sched.metadata["partition"]
        assert (part.pr, part.pc) == (2, 4)
        assert sched.total_work_units == problem.total_points

    def test_blocked_comm_between_tile_neighbors(self, testbed):
        info, problem = _info(testbed)
        sched = BlockedPlanner(problem).plan(list(testbed.host_names), info)
        assert all(a.comm_bytes for a in sched.allocations)


class TestMakeJacobiAgent:
    def test_agent_schedules(self, testbed, warmed_nws):
        agent = make_jacobi_agent(
            testbed, JacobiProblem(n=800, iterations=5), warmed_nws
        )
        decision = agent.schedule()
        assert decision.best.decomposition == "apples-strip"
        assert decision.candidates_considered == 255

    def test_userspec_threaded(self, testbed, warmed_nws):
        us = UserSpecification(excluded_machines=frozenset({"sparc2"}))
        agent = make_jacobi_agent(
            testbed, JacobiProblem(n=800, iterations=5), warmed_nws, userspec=us
        )
        decision = agent.schedule()
        for ev in decision.evaluations:
            assert "sparc2" not in ev.resource_set
