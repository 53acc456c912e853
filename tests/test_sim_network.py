"""Tests for links, shared segments and topology routing."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.host import Host
from repro.sim.link import MBIT, Link, SharedSegment
from repro.sim.load import ConstantLoad
from repro.sim.testbeds import sdsc_pcl_testbed, sdsc_pcl_with_sp2
from repro.sim.topology import RouteError, Topology


def _host(name, site=""):
    return Host(name, speed_mflops=10.0, site=site)


class TestLink:
    def test_deliverable_bandwidth(self):
        link = Link("l", bandwidth_mbit=8.0, load=ConstantLoad(0.5))
        assert link.deliverable_bandwidth(0.0) == pytest.approx(8.0 * MBIT * 0.5)

    def test_flows_share(self):
        link = Link("l", bandwidth_mbit=8.0)
        assert link.deliverable_bandwidth(0.0, flows=2) == pytest.approx(
            link.deliverable_bandwidth(0.0) / 2
        )

    def test_transfer_time(self):
        link = Link("l", bandwidth_mbit=8.0, latency_s=0.01)
        # 8 Mbit/s = 1e6 B/s; 1e6 bytes -> 1 s + latency.
        assert link.transfer_time(1_000_000) == pytest.approx(1.01)

    def test_transfer_zero_bytes_costs_latency(self):
        link = Link("l", bandwidth_mbit=8.0, latency_s=0.01)
        assert link.transfer_time(0.0) == pytest.approx(0.01)

    def test_dead_link_infinite(self):
        link = Link("l", bandwidth_mbit=8.0, load=ConstantLoad(0.0))
        assert link.transfer_time(1.0) == float("inf")

    def test_not_shared(self):
        assert not Link("l", bandwidth_mbit=1.0).is_shared

    def test_bad_flows(self):
        with pytest.raises(ValueError):
            Link("l", bandwidth_mbit=1.0).deliverable_bandwidth(0.0, flows=0)


class TestSharedSegment:
    def test_mac_efficiency_applies(self):
        seg = SharedSegment("e", bandwidth_mbit=10.0, mac_efficiency=0.8)
        raw = Link("l", bandwidth_mbit=10.0)
        assert seg.deliverable_bandwidth(0.0) == pytest.approx(
            raw.deliverable_bandwidth(0.0) * 0.8
        )

    def test_is_shared(self):
        assert SharedSegment("e", bandwidth_mbit=10.0).is_shared

    def test_bad_efficiency(self):
        with pytest.raises(ValueError):
            SharedSegment("e", bandwidth_mbit=10.0, mac_efficiency=0.0)


class TestTopology:
    def build(self):
        """a -- l1 -- b -- l2 -- c, plus a segment with a, d."""
        topo = Topology()
        for name in "abcd":
            topo.add_host(_host(name))
        topo.connect("a", "b", Link("l1", bandwidth_mbit=10.0, latency_s=0.001))
        topo.connect("b", "c", Link("l2", bandwidth_mbit=2.0, latency_s=0.005))
        topo.attach_segment(
            SharedSegment("seg1", bandwidth_mbit=10.0, latency_s=0.001), ["a", "d"]
        )
        return topo

    def test_route_direct(self):
        topo = self.build()
        assert [l.name for l in topo.route("a", "b")] == ["l1"]

    def test_route_multi_hop(self):
        topo = self.build()
        assert [l.name for l in topo.route("a", "c")] == ["l1", "l2"]

    def test_route_self_empty(self):
        assert self.build().route("a", "a") == []

    def test_route_symmetric(self):
        topo = self.build()
        fwd = [l.name for l in topo.route("a", "c")]
        rev = [l.name for l in topo.route("c", "a")]
        assert fwd == list(reversed(rev))

    def test_route_through_segment(self):
        topo = self.build()
        names = [l.name for l in topo.route("a", "d")]
        assert names == ["seg1", "seg1"]

    def test_no_route_raises(self):
        topo = Topology()
        topo.add_host(_host("x"))
        topo.add_host(_host("y"))
        with pytest.raises(RouteError):
            topo.route("x", "y")

    def test_unknown_node_raises(self):
        with pytest.raises(KeyError):
            self.build().route("a", "zzz")

    def test_path_bandwidth_is_bottleneck(self):
        topo = self.build()
        bw = topo.path_bandwidth("a", "c")
        assert bw == pytest.approx(2.0 * MBIT)

    def test_path_bandwidth_local_infinite(self):
        assert self.build().path_bandwidth("a", "a") == float("inf")

    def test_path_latency_sums(self):
        topo = self.build()
        assert topo.path_latency("a", "c") == pytest.approx(0.006)

    @pytest.mark.parametrize("build", [sdsc_pcl_testbed, sdsc_pcl_with_sp2])
    def test_path_latency_independent_of_query_order(self, build):
        # Float sums depend on order: both directions must sum the same
        # route, whichever direction a fresh topology is asked first.
        names = build(seed=1996).host_names
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                forward = build(seed=1996).topology
                backward = build(seed=1996).topology
                first = forward.path_latency(a, b)
                assert backward.path_latency(b, a) == first
                assert forward.path_latency(b, a) == first
                assert backward.path_latency(a, b) == first

    def test_transfer_time(self):
        topo = self.build()
        t = topo.transfer_time("a", "c", 250_000)
        assert t == pytest.approx(0.006 + 250_000 / (2.0 * MBIT))

    def test_transfer_local_free(self):
        assert self.build().transfer_time("a", "a", 1e9) == 0.0

    def test_same_segment(self):
        topo = self.build()
        assert topo.same_segment("a", "d")
        assert not topo.same_segment("a", "b")

    def test_duplicate_host_rejected(self):
        topo = self.build()
        with pytest.raises(ValueError):
            topo.add_host(_host("a"))

    def test_self_loop_rejected(self):
        topo = self.build()
        with pytest.raises(ValueError):
            topo.connect("a", "a", Link("loop", bandwidth_mbit=1.0))

    def test_segment_needs_two_members(self):
        topo = self.build()
        with pytest.raises(ValueError):
            topo.attach_segment(SharedSegment("s2", bandwidth_mbit=1.0), ["a"])

    def test_route_cache_consistent(self):
        topo = self.build()
        first = topo.route("a", "c")
        second = topo.route("a", "c")
        assert first == second

    @given(nbytes=st.floats(min_value=0.0, max_value=1e9))
    def test_property_transfer_time_monotone_in_bytes(self, nbytes):
        topo = self.build()
        t1 = topo.transfer_time("a", "c", nbytes)
        t2 = topo.transfer_time("a", "c", nbytes + 1000.0)
        assert t2 >= t1
