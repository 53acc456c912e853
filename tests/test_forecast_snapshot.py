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

from repro.core.infopool import DecisionCache, InformationPool
from repro.core.resources import ResourcePool
from repro.jacobi.apples import make_jacobi_agent
from repro.jacobi.grid import JacobiProblem, jacobi_hat
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
    assert (a, b, 1024.0, 1) in snap._transfer
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


def test_begin_end_decision_lifecycle(pool):
    info = InformationPool(pool=pool, hat=jacobi_hat(JacobiProblem(n=400)))
    assert info.decision_cache is None
    cache = info.begin_decision()
    assert isinstance(cache, DecisionCache)
    assert info.decision_cache is cache
    assert cache.snapshot.machines == tuple(pool.machine_names())
    cache.memo[("x", 1)] = "y"
    # Re-entry replaces the cache (fresh memo, fresh snapshot).
    cache2 = info.begin_decision()
    assert info.decision_cache is cache2
    assert cache2 is not cache
    assert not cache2.memo
    info.end_decision()
    assert info.decision_cache is None


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

    def test_schedule_with_a_subset_snapshot(self, testbed, warmed_nws):
        agent = make_jacobi_agent(testbed, JacobiProblem(n=1000), warmed_nws)
        pool = agent.info.pool
        subset = pool.snapshot(pool.machine_names()[:2])
        assert agent.schedule(snapshot=subset) == agent.schedule()
