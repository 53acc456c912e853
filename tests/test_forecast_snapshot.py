"""ForecastSnapshot: one immutable forecast capture per scheduling instant.

The snapshot's contract is *cache, not approximation*: every value must be
exactly what the pool itself would answer at the same instant, staleness
must be detected when time advances, and memoised lookups must not issue
repeated NWS queries.
"""

from __future__ import annotations

import pytest

from repro.core.infopool import DecisionCache, InformationPool
from repro.core.resources import ResourcePool
from repro.jacobi.grid import JacobiProblem, jacobi_hat


@pytest.fixture()
def pool(testbed, warmed_nws):
    return ResourcePool(testbed.topology, warmed_nws)


def test_snapshot_matches_pool_exactly(pool):
    snap = pool.snapshot()
    for name in pool.machine_names():
        assert snap.speed[name] == pool.predicted_speed(name)
        assert snap.availability[name] == pool.predicted_availability(name)
        assert snap.availability_error[name] == pool.predicted_availability_error(name)
        assert snap.conservative_speed(name, 1.0) == pool.predicted_speed_conservative(name, 1.0)
        assert snap.conservative_speed(name, 2.5) == pool.predicted_speed_conservative(name, 2.5)


def test_snapshot_pairwise_matches_pool(pool):
    snap = pool.snapshot()
    names = pool.machine_names()
    a, b = names[0], names[-1]
    assert snap.bandwidth(a, b) == pool.predicted_bandwidth(a, b)
    assert snap.transfer_time(a, b, 64_000.0) == pool.predicted_transfer_time(a, b, 64_000.0)
    assert snap.transfer_time(a, a, 64_000.0) == 0.0


def test_snapshot_memoises(pool):
    snap = pool.snapshot()
    names = pool.machine_names()
    a, b = names[0], names[1]
    first = snap.transfer_time(a, b, 1024.0)
    assert snap.transfer_time(a, b, 1024.0) == first
    assert (a, b, 1024.0, 1) in snap._transfer
    cs = snap.conservative_speed(a)
    assert snap._conservative[(a, 1.0)] == cs


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
