"""NWS rewind: a rewound service answers as a fresh one advanced straight there.

Production path: :meth:`NetworkWeatherService.rewind_to` over each
sensor's bounded forecast history, and :meth:`advance_to` crossing
recorded samples without measuring them again.  Oracle: a fresh world
built from the same seeds and advanced straight to the instant (the
warm-cache argument of :mod:`repro.sim.warmcache`).  Hypothesis drives
random instant sequences, forward and back, inside the retained history;
after every move each forecast query — and the arrays an arena instance
captures — must equal the oracle's, and a rewind must stale every
snapshot taken before it.
"""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arena.instances import build_world, capture_instance
from repro.core.resources import ResourcePool
from repro.jacobi.grid import JacobiProblem
from repro.nws.sensors import CpuSensor
from repro.nws.service import NetworkWeatherService
from repro.sim.host import Host
from repro.sim.link import Link
from repro.sim.load import ConstantLoad
from repro.sim.topology import Topology
from repro.util.rng import RngStream

WARMUP = 120.0
HORIZON = 1200.0
WORLDS = {
    "sdsc": {"generator": "sdsc", "seed": 1996, "nws_seed": 1997,
             "warmup_s": WARMUP},
    "synthetic": {"generator": "synthetic", "n_hosts": 5, "n_segments": 2,
                  "seed": 21, "nws_seed": 22, "warmup_s": WARMUP},
}
PROBLEM = JacobiProblem(n=400, iterations=20)


def observe(testbed, nws) -> dict:
    """Every forecast query a scheduler makes, plus a captured instance."""
    hosts = list(testbed.topology.hosts)
    pairs = [(a, b) for a in hosts for b in hosts]
    sensors = [*nws.cpu_sensors.values(), *nws.link_sensors.values()]
    instance = capture_instance(testbed, nws, PROBLEM, {}, "probe", "probe")
    return {
        "now": nws.now,
        "cpu": {h: nws.cpu_forecast(h) for h in hosts},
        "bandwidth": {
            (a, b, flows): nws.path_bandwidth_forecast(a, b, flows)
            for a, b in pairs for flows in (1, 2)
        },
        "transfer": {
            (a, b): nws.transfer_time_forecast(a, b, 3.2e5) for a, b in pairs
        },
        "ready": [s.ready for s in sensors],
        "machines": instance.machines,
        "latency_s": instance.latency_s,
        "bandwidth_bps": instance.bandwidth_bps,
    }


@lru_cache(maxsize=None)
def _fresh(name: str, t: float) -> dict:
    """The oracle: a fresh world advanced straight to ``t`` (memoised —
    it is a pure function of the world's seeds and ``t``)."""
    testbed, nws = build_world(WORLDS[name])
    nws.advance_to(t)
    return observe(testbed, nws)


#: Instants on the sampling grid (multiples of both periods' divisor) and
#: off it, so moves land exactly on samples as well as between them.
instants = st.one_of(
    st.integers(min_value=int(WARMUP) // 5, max_value=int(HORIZON) // 5).map(
        lambda k: 5.0 * k
    ),
    st.floats(min_value=WARMUP, max_value=HORIZON, allow_nan=False),
)


@pytest.mark.parametrize("name", sorted(WORLDS))
@settings(max_examples=10, deadline=None)
@given(moves=st.lists(instants, min_size=2, max_size=5))
def test_rewound_equals_fresh(name, moves):
    testbed, nws = build_world(WORLDS[name])
    for t in moves:
        if t >= nws.now:
            nws.advance_to(t)
        else:
            before = ResourcePool(testbed.topology, nws).snapshot()
            epoch = nws.epoch
            nws.rewind_to(t)
            assert before.stale
            assert nws.epoch == epoch + 1
        assert observe(testbed, nws) == _fresh(name, t)


def test_rewind_measures_nothing():
    testbed, nws = build_world(WORLDS["synthetic"])
    nws.advance_to(900.0)
    sensors = [*nws.cpu_sensors.values(), *nws.link_sensors.values()]
    taken = [len(s.series) for s in sensors]
    nws.rewind_to(300.0)
    nws.advance_to(900.0)
    assert [len(s.series) for s in sensors] == taken


class TestRetainedHistory:
    """The history keeps as many samples as the sensor's series."""

    @staticmethod
    def sensor() -> CpuSensor:
        host = Host("h", speed_mflops=10.0, load=ConstantLoad(0.6))
        return CpuSensor(host, period=1.0, noise_std=0.05, rng=RngStream(3, "h"))

    def test_rewind_behind_the_oldest_retained_sample_rejected(self):
        s = self.sensor()
        retain = s.series.maxlen
        # Samples 0 .. retain + 999: the oldest retained is sample 1000.
        s.advance_to(retain + 999.0)
        assert s.history_start == 1000.0
        current = s.forecast()
        with pytest.raises(ValueError, match="history starts at 1000"):
            s.rewind_to(999.5)
        assert s.forecast() is current
        s.rewind_to(1000.0)
        assert s.forecast().observations == 1001

    def test_rewind_after_trimming_equals_fresh(self):
        # Past twice the retention the stored history is trimmed; what is
        # retained still answers as a fresh sensor would.
        s = self.sensor()
        retain = s.series.maxlen
        end = 2.0 * retain + 50.0
        s.advance_to(end)
        start = end - retain + 1.0
        assert s.history_start == start
        with pytest.raises(ValueError):
            s.rewind_to(start - 0.5)
        for t in (start, start + 0.5, end - 7.0):
            s.rewind_to(t)
            fresh = self.sensor()
            fresh.advance_to(t)
            assert s.forecast() == fresh.forecast()
            s.advance_to(end)
        assert len(s.series) == retain

    @staticmethod
    def two_period_nws() -> NetworkWeatherService:
        topo = Topology()
        for name in ("a", "b"):
            topo.add_host(Host(name, speed_mflops=10.0, load=ConstantLoad(0.5)))
        topo.connect("a", "b", Link("ab", bandwidth_mbit=10.0,
                                    load=ConstantLoad(0.5)))
        return NetworkWeatherService(topo, cpu_period=15.0, net_period=1.0)

    @staticmethod
    def state(nws: NetworkWeatherService) -> list:
        sensors = [*nws.cpu_sensors.values(), *nws.link_sensors.values()]
        return [nws.now, nws.epoch] + [(s.ready, s.forecast()) for s in sensors]

    def test_refused_rewind_moves_no_sensor(self):
        # The link sensor (1 s period, checked last) has dropped samples
        # before t = 105 s; the CPU sensors (15 s) still hold all of theirs
        # and could move, but must not.
        nws = self.two_period_nws()
        nws.advance_to(4200.0)
        assert nws.cpu_sensors["a"].history_start == 0.0
        assert nws.link_sensors["ab"].history_start == 105.0
        before = self.state(nws)
        with pytest.raises(ValueError, match="history starts at 105"):
            nws.rewind_to(50.0)
        assert self.state(nws) == before
        nws.rewind_to(105.0)
        assert nws.now == 105.0

    @pytest.mark.parametrize(
        "t", [150.0, -1.0, float("nan"), float("inf"), float("-inf")]
    )
    def test_rewind_outside_zero_to_now_rejected(self, t):
        nws = self.two_period_nws()
        nws.advance_to(100.0)
        before = self.state(nws)
        with pytest.raises(ValueError):
            nws.rewind_to(t)
        assert self.state(nws) == before
