"""Tests for the epoch-based execution of work allocations."""

from __future__ import annotations

import pytest

from repro.sim.execution import WorkAssignment, count_flows, simulate_iterations
from repro.sim.host import Host
from repro.sim.link import Link
from repro.sim.load import ConstantLoad, TraceLoad
from repro.sim.memory import MemoryModel
from repro.sim.topology import Topology


def _mk_topology(avail_a=1.0, avail_b=1.0, bw_mbit=8.0):
    topo = Topology()
    topo.add_host(Host("a", speed_mflops=10.0, load=ConstantLoad(avail_a)))
    topo.add_host(Host("b", speed_mflops=20.0, load=ConstantLoad(avail_b)))
    topo.connect("a", "b", Link("ab", bandwidth_mbit=bw_mbit, latency_s=0.001))
    return topo


class TestSimulateIterations:
    def test_compute_only(self):
        topo = _mk_topology()
        res = simulate_iterations(
            topo, [WorkAssignment("a", 10.0), WorkAssignment("b", 10.0)], 5
        )
        # a: 1 s/iter (10 MFLOP @ 10 MFLOP/s); b: 0.5 s/iter -> barrier at 1 s.
        assert res.total_time == pytest.approx(5.0)
        assert res.iteration_times == pytest.approx([1.0] * 5)

    def test_comm_charged(self):
        topo = _mk_topology()
        res = simulate_iterations(
            topo,
            [
                WorkAssignment("a", 10.0, {"b": 1_000_000}),
                WorkAssignment("b", 10.0, {"a": 1_000_000}),
            ],
            1,
        )
        # 1e6 bytes at 1e6 B/s = 1 s + 1 ms latency on top of a's 1 s compute.
        assert res.total_time == pytest.approx(2.001)

    def test_busy_time_and_efficiency(self):
        topo = _mk_topology()
        res = simulate_iterations(
            topo, [WorkAssignment("a", 10.0), WorkAssignment("b", 10.0)], 4
        )
        assert res.host_busy_time["a"] == pytest.approx(4.0)
        assert res.host_busy_time["b"] == pytest.approx(2.0)
        assert res.efficiency() == pytest.approx(0.75)

    def test_load_change_mid_run_felt(self):
        topo = Topology()
        topo.add_host(
            Host("a", speed_mflops=10.0, load=TraceLoad([1.0] + [0.25] * 9, dt=10.0))
        )
        res = simulate_iterations(topo, [WorkAssignment("a", 100.0)], 2)
        # Iter 1: 10 s at full speed.  Iter 2 starts at t=10 with avail 0.25.
        assert res.iteration_times[0] == pytest.approx(10.0)
        assert res.iteration_times[1] == pytest.approx(40.0)

    def test_paging_footprint_slows_compute(self):
        topo = Topology()
        mem = MemoryModel(100.0, 0.0, page_penalty=9.0)
        topo.add_host(Host("a", speed_mflops=10.0, memory=mem))
        fit = simulate_iterations(topo, [WorkAssignment("a", 10.0, footprint_mb=50.0)], 1)
        spill = simulate_iterations(
            topo, [WorkAssignment("a", 10.0, footprint_mb=200.0)], 1
        )
        assert spill.total_time > 5.0 * fit.total_time

    def test_duplicate_host_rejected(self):
        topo = _mk_topology()
        with pytest.raises(ValueError):
            simulate_iterations(
                topo, [WorkAssignment("a", 1.0), WorkAssignment("a", 1.0)], 1
            )

    def test_empty_assignments_rejected(self):
        with pytest.raises(ValueError):
            simulate_iterations(_mk_topology(), [], 1)

    def test_nan_work_rejected(self):
        # Would otherwise spin the work integrator for millions of epochs.
        with pytest.raises(ValueError, match="work_mflop"):
            WorkAssignment("a", float("nan"))

    def test_mean_iteration_time(self):
        topo = _mk_topology()
        res = simulate_iterations(topo, [WorkAssignment("a", 10.0)], 4)
        assert res.mean_iteration_time == pytest.approx(res.total_time / 4)

    def test_t0_offset_changes_conditions(self):
        topo = Topology()
        topo.add_host(Host("a", speed_mflops=10.0, load=TraceLoad([1.0, 0.1], dt=100.0)))
        early = simulate_iterations(topo, [WorkAssignment("a", 10.0)], 1, t0=0.0)
        late = simulate_iterations(topo, [WorkAssignment("a", 10.0)], 1, t0=100.0)
        assert late.total_time > early.total_time


class TestCountFlows:
    def test_pairs_deduplicated(self):
        topo = _mk_topology()
        flows = count_flows(
            topo,
            [
                WorkAssignment("a", 1.0, {"b": 100.0}),
                WorkAssignment("b", 1.0, {"a": 100.0}),
            ],
        )
        assert flows == {"ab": 1}

    def test_zero_bytes_ignored(self):
        topo = _mk_topology()
        flows = count_flows(topo, [WorkAssignment("a", 1.0, {"b": 0.0})])
        assert flows == {}

    def test_shared_link_counts_multiple_pairs(self):
        topo = Topology()
        for name in "abc":
            topo.add_host(Host(name, speed_mflops=10.0))
        from repro.sim.link import SharedSegment

        topo.attach_segment(SharedSegment("seg", bandwidth_mbit=10.0), ["a", "b", "c"])
        flows = count_flows(
            topo,
            [
                WorkAssignment("a", 1.0, {"b": 10.0}),
                WorkAssignment("b", 1.0, {"c": 10.0}),
            ],
        )
        # Both pairs route over the segment; each route traverses the shared
        # link object twice (host->hub, hub->host), so 4 flow-traversals.
        assert flows["seg"] == 4
