"""ForecastSnapshot: one immutable forecast capture per scheduling instant.

The snapshot's contract is *cache, not approximation*: every value must be
exactly what the pool itself would answer at the same instant, staleness
must be detected when time advances, and memoised lookups must not issue
repeated NWS queries.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.infopool import InformationPool
from repro.core.resources import ResourcePool
from repro.jacobi.apples import make_jacobi_agent
from repro.jacobi.grid import JacobiProblem, jacobi_hat
from repro.nws.service import NetworkWeatherService
from repro.nws.snapshot import ForecastSnapshot
from repro.sim.host import Host
from repro.sim.link import Link
from repro.sim.load import ConstantLoad
from repro.sim.topology import Topology


@pytest.fixture()
def pool(testbed, warmed_nws):
    return ResourcePool(testbed.topology, warmed_nws)


def test_snapshot_matches_pool_exactly(pool):
    snap = pool.snapshot()
    assert snap.machine_names() == pool.machine_names()
    assert snap.topology is pool.topology
    for name in pool.machine_names():
        assert snap.speed[name] == pool.predicted_speed(name)
        assert snap.availability[name] == pool.predicted_availability(name)
        assert snap.availability_error[name] == pool.predicted_availability_error(name)
        assert snap.predicted_speed(name) == pool.predicted_speed(name)
        assert snap.predicted_availability(name) == pool.predicted_availability(name)
        assert (snap.predicted_availability_error(name)
                == pool.predicted_availability_error(name))
        assert (snap.predicted_speed_conservative(name, 1.0)
                == pool.predicted_speed_conservative(name, 1.0))
        assert (snap.predicted_speed_conservative(name, 2.5)
                == pool.predicted_speed_conservative(name, 2.5))


def test_snapshot_pairwise_matches_pool(pool):
    snap = pool.snapshot()
    names = pool.machine_names()
    a, b = names[0], names[-1]
    assert snap.predicted_bandwidth(a, b) == pool.predicted_bandwidth(a, b)
    assert (snap.predicted_transfer_time(a, b, 64_000.0)
            == pool.predicted_transfer_time(a, b, 64_000.0))
    assert snap.predicted_transfer_time(a, a, 64_000.0) == 0.0


def test_snapshot_memoises(pool):
    snap = pool.snapshot()
    names = pool.machine_names()
    a, b = names[0], names[1]
    first = snap.predicted_transfer_time(a, b, 1024.0)
    assert snap.predicted_transfer_time(a, b, 1024.0) == first
    assert (a, b, 1024.0) in snap._transfer
    cs = snap.predicted_speed_conservative(a)
    assert snap._conservative[(a, 1.0)] == cs
    # A frozen view is its own snapshot, whatever it is asked to capture.
    assert snap.snapshot() is snap
    assert snap.snapshot(names[:2]) is snap


def test_snapshot_staleness(pool):
    snap = pool.snapshot()
    assert not snap.stale
    pool.nws.advance_to(pool.nws.now + 30.0)
    assert snap.stale


def test_snapshot_without_nws(testbed):
    nominal = ResourcePool(testbed.topology, nws=None)
    snap = nominal.snapshot()
    assert not snap.stale
    for name in nominal.machine_names():
        assert snap.speed[name] == nominal.predicted_speed(name)
        assert snap.availability[name] == 1.0
        assert snap.availability_error[name] == 0.0


def test_snapshot_subset_capture(pool):
    names = pool.machine_names()[:3]
    snap = pool.snapshot(names)
    assert snap.machines == tuple(names)
    assert set(snap.speed) == set(names)
    # Machines outside the capture get the pool's own answers, and the
    # captures stay as taken.
    for name in pool.machine_names()[3:]:
        assert snap.predicted_speed(name) == pool.predicted_speed(name)
        assert snap.predicted_availability(name) == pool.predicted_availability(name)
        assert (snap.predicted_availability_error(name)
                == pool.predicted_availability_error(name))
    assert set(snap.speed) == set(names)


def test_decision_scope_lifecycle(pool):
    info = InformationPool(pool=pool, hat=jacobi_hat(JacobiProblem(n=400)))
    assert info.forecasts is pool
    with info.decision_scope() as snapshot:
        assert isinstance(snapshot, ForecastSnapshot)
        assert info.forecasts is snapshot
        assert snapshot.machines == tuple(pool.machine_names())
        assert info.derived(("x", 1), lambda: "y") == "y"
        # A nested scope takes a fresh snapshot, with nothing derived on it.
        with info.decision_scope() as nested:
            assert nested is not snapshot
            assert info.forecasts is nested
            assert info.derived(("x", 1), lambda: "z") == "z"
        assert info.forecasts is snapshot
        assert info.derived(("x", 1), lambda: "z") == "y"
    assert info.forecasts is pool
    # Outside a scope every value is built afresh.
    assert info.derived(("x", 1), lambda: "w") == "w"


class TestTransferMatrix:
    """The pair table: every entry is the pool's own transfer time."""

    # inf: the diagonal must still be 0.0, not inf / inf.
    NBYTES = (0.0, JacobiProblem(n=400).border_exchange_bytes(), 1e9, np.inf)

    @pytest.mark.parametrize("order_seed", [0, 1, 2])
    @pytest.mark.parametrize("nbytes", NBYTES)
    def test_entries_match_pool_bit_for_bit(self, pool, order_seed, nbytes):
        names = pool.machine_names()
        random.Random(order_seed).shuffle(names)
        table = pool.snapshot().transfer_matrix(names, nbytes)
        assert table.shape == (len(names), len(names))
        for i, a in enumerate(names):
            assert table[i, i] == 0.0
            for j, b in enumerate(names):
                assert table[i, j] == pool.predicted_transfer_time(a, b, nbytes)

    def test_dead_link_is_inf(self):
        topo = Topology()
        topo.add_host(Host("near", speed_mflops=20.0))
        topo.add_host(Host("far", speed_mflops=40.0))
        topo.connect("near", "far",
                     Link("dead", bandwidth_mbit=10.0, load=ConstantLoad(0.0)))
        pool = ResourcePool(topo)
        table = pool.snapshot().transfer_matrix(["far", "near"], 1e9)
        assert np.array_equal(table, [[0.0, np.inf], [np.inf, 0.0]])
        assert pool.predicted_transfer_time("near", "far", 1e9) == np.inf

    def test_read_only_and_memoised(self, pool):
        snap = pool.snapshot()
        names = pool.machine_names()
        table = snap.transfer_matrix(names, 1e9)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 1] = 0.0
        assert snap.transfer_matrix(list(names), 1e9) is table
        assert snap.transfer_matrix(names[::-1], 1e9) is not table

    def test_uncaptured_machines_are_served(self, pool):
        names = pool.machine_names()
        random.Random(3).shuffle(names)
        snap = pool.snapshot(names[:2])
        captured = snap.transfer_matrix(names[:2], 1e9)
        # Uncaptured names widen the link tables; earlier tables stay valid.
        for order in (names[1:], names, names[:2]):
            table = snap.transfer_matrix(order, 1e9)
            for i, a in enumerate(order):
                for j, b in enumerate(order):
                    assert table[i, j] == pool.predicted_transfer_time(a, b, 1e9)
        assert snap.transfer_matrix(names[:2], 1e9) is captured

    @staticmethod
    def _hub_pool(nws: str) -> ResourcePool:
        """Hosts a, b, c around a hub: a and b are also joined directly
        over a dead link (one hop beats two), every other pair crosses two
        links.  ``nws`` is ``"none"``, ``"not-ready"`` (attached, no
        sample yet) or ``"advanced"``."""
        topo = Topology()
        topo.add_node("hub")
        for name, speed in (("a", 20.0), ("b", 40.0), ("c", 30.0)):
            topo.add_host(Host(name, speed_mflops=speed))
            topo.connect(name, "hub", Link(f"up:{name}", bandwidth_mbit=speed,
                                           latency_s=0.001 * speed))
        topo.connect("a", "b", Link("dead", bandwidth_mbit=10.0,
                                    load=ConstantLoad(0.0)))
        service = None
        if nws != "none":
            service = NetworkWeatherService(topo, noise_std=0.0)
            if nws == "advanced":
                service.advance_to(90.0)
        return ResourcePool(topo, service)

    @staticmethod
    def _assert_pool_pairs(table, pool, names, nbytes):
        assert table.shape == (len(names), len(names))
        for i, a in enumerate(names):
            for j, b in enumerate(names):
                assert table[i, j] == pool.predicted_transfer_time(a, b, nbytes)

    @pytest.mark.parametrize("nws", ["none", "not-ready", "advanced"])
    @pytest.mark.parametrize("nbytes", NBYTES)
    def test_dead_and_multi_link_routes_match_pool(self, nws, nbytes):
        """Before any link sensor is ready, after an advance and with no
        NWS: a measured dead link gives ``inf``, two-link routes their
        bottleneck."""
        pool = self._hub_pool(nws)
        if nws != "none":
            assert all(s.ready == (nws == "advanced")
                       for s in pool.nws.link_sensors.values())
        names = ["c", "a", "b"]
        links, _ = pool.topology.route_table(names)
        assert links.shape[2] == 2
        table = pool.snapshot().transfer_matrix(names, nbytes)
        self._assert_pool_pairs(table, pool, names, nbytes)
        if nbytes > 0 and nws != "not-ready":
            # Before its first sample a link reads its nominal bandwidth.
            assert table[1, 2] == table[2, 1] == np.inf

    @pytest.mark.parametrize("nws", ["none", "advanced"])
    def test_widened_snapshot_matches_pool(self, testbed, warmed_nws, nws):
        """A snapshot that captured one machine serves every pool pair."""
        pool = ResourcePool(testbed.topology, warmed_nws if nws != "none" else None)
        names = pool.machine_names()[::-1]
        snap = pool.snapshot(names[:1])
        self._assert_pool_pairs(snap.transfer_matrix(names, 1e9), pool, names, 1e9)

    def test_connect_clears_the_route_table(self):
        """A table built before ``Topology.connect()`` is not served after
        it: the new shortcut is read."""
        pool = self._hub_pool("none")
        topo = pool.topology
        names = ["a", "b", "c"]
        before = pool.snapshot().transfer_matrix(names, 1e9)
        routes = topo.route_table(names)
        assert topo.route_table(names) is routes
        topo.connect("b", "c", Link("b-c", bandwidth_mbit=100.0, latency_s=0.0))
        assert topo.route_table(names) is not routes
        after = pool.snapshot().transfer_matrix(names, 1e9)
        self._assert_pool_pairs(after, pool, names, 1e9)
        assert after[1, 2] < before[1, 2]

    def test_schedule_with_a_subset_snapshot(self, testbed, warmed_nws):
        agent = make_jacobi_agent(testbed, JacobiProblem(n=1000), warmed_nws)
        pool = agent.info.pool
        subset = pool.snapshot(pool.machine_names()[:2])
        assert agent.schedule(snapshot=subset) == agent.schedule()
