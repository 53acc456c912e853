"""Tests for NWS sensors and the service facade."""

from __future__ import annotations

import pytest

from repro.nws.sensors import CpuSensor, LinkSensor
from repro.nws.service import NetworkWeatherService
from repro.sim.host import Host
from repro.sim.link import Link
from repro.sim.load import ConstantLoad, TraceLoad
from repro.util.rng import RngStream


class TestCpuSensor:
    def make_host(self, avail=0.5):
        return Host("h", speed_mflops=10.0, load=ConstantLoad(avail))

    def test_samples_on_period(self):
        s = CpuSensor(self.make_host(), period=10.0, noise_std=0.0)
        taken = s.advance_to(35.0)
        assert taken == 4  # t = 0, 10, 20, 30
        assert len(s.series) == 4

    def test_advance_idempotent(self):
        s = CpuSensor(self.make_host(), period=10.0)
        s.advance_to(25.0)
        assert s.advance_to(25.0) == 0

    def test_noiseless_measures_truth(self):
        s = CpuSensor(self.make_host(0.7), period=5.0, noise_std=0.0)
        s.advance_to(50.0)
        assert set(s.series.values()) == {0.7}

    def test_noise_clipped(self):
        s = CpuSensor(self.make_host(0.99), period=1.0, noise_std=0.5,
                      rng=RngStream(1, "t"))
        s.advance_to(200.0)
        assert all(0.0 <= v <= 1.0 for v in s.series.values())

    def test_forecast_after_warmup(self):
        s = CpuSensor(self.make_host(0.6), period=5.0, noise_std=0.0)
        s.advance_to(100.0)
        assert s.forecast().value == pytest.approx(0.6, abs=1e-6)

    def test_ready_flag(self):
        s = CpuSensor(self.make_host())
        assert not s.ready
        s.advance_to(0.0)
        assert s.ready


class TestLinkSensor:
    def test_measures_fraction(self):
        link = Link("l", bandwidth_mbit=10.0, load=ConstantLoad(0.4))
        s = LinkSensor(link, period=5.0, noise_std=0.0)
        s.advance_to(20.0)
        assert s.series.last_value == pytest.approx(0.4)

    def test_forecast_bandwidth_recombines(self):
        link = Link("l", bandwidth_mbit=8.0, load=ConstantLoad(0.5))
        s = LinkSensor(link, period=5.0, noise_std=0.0)
        s.advance_to(50.0)
        # Nominal 1e6 B/s; forecast fraction 0.5 -> 5e5 B/s.
        assert s.forecast_bandwidth() == pytest.approx(5e5, rel=1e-3)

    def test_forecast_bandwidth_flow_sharing(self):
        link = Link("l", bandwidth_mbit=8.0, load=ConstantLoad(0.5))
        s = LinkSensor(link, period=5.0, noise_std=0.0)
        s.advance_to(50.0)
        assert s.forecast_bandwidth(flows=2) == pytest.approx(
            s.forecast_bandwidth() / 2
        )


class TestNetworkWeatherService:
    def test_monitors_everything(self, testbed):
        nws = NetworkWeatherService.for_testbed(testbed)
        assert set(nws.cpu_sensors) == set(testbed.host_names)
        assert set(nws.link_sensors) == set(testbed.topology.links)

    def test_nominal_fallback_before_warmup(self, testbed):
        nws = NetworkWeatherService.for_testbed(testbed)
        f = nws.cpu_forecast("alpha1")
        assert f.method == "nominal"
        assert f.value == 1.0

    def test_forecast_tracks_truth(self, testbed, warmed_nws):
        for name in testbed.host_names:
            truth = testbed.topology.host(name).load.mean_availability(550.0, 650.0)
            pred = warmed_nws.cpu_forecast(name).value
            assert pred == pytest.approx(truth, abs=0.35), name

    def test_effective_speed_forecast(self, testbed, warmed_nws):
        speed = warmed_nws.effective_speed_forecast("alpha1")
        nominal = testbed.topology.host("alpha1").speed_mflops
        assert 0.0 < speed <= nominal

    def test_path_bandwidth_near_truth(self, testbed, warmed_nws):
        pred = warmed_nws.path_bandwidth_forecast("sparc2", "alpha1")
        actual = testbed.topology.path_bandwidth("sparc2", "alpha1", 600.0)
        assert pred == pytest.approx(actual, rel=1.0)  # same order of magnitude

    def test_transfer_forecast_local_zero(self, warmed_nws):
        assert warmed_nws.transfer_time_forecast("alpha1", "alpha1", 1e9) == 0.0

    def test_advance_backwards_rejected(self, testbed):
        nws = NetworkWeatherService.for_testbed(testbed)
        nws.advance_to(100.0)
        with pytest.raises(ValueError):
            nws.advance_to(50.0)
        # A NaN instant is neither behind nor ahead: rejected, clock kept.
        with pytest.raises(ValueError):
            nws.advance_to(float("nan"))
        assert (nws.now, nws.epoch) == (100.0, 1)

    @pytest.mark.parametrize("t", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_instant_rejected(self, testbed, t):
        # An infinite instant used to loop forever taking samples.
        nws = NetworkWeatherService.for_testbed(testbed)
        nws.advance_to(100.0)
        with pytest.raises(ValueError):
            nws.advance_to(t)
        with pytest.raises(ValueError):
            nws.rewind_to(t)
        assert (nws.now, nws.epoch) == (100.0, 1)

    @pytest.mark.parametrize("t", [float("inf"), float("-inf"), float("nan")])
    def test_decision_request_rejects_non_finite_instant(self, t):
        from repro.jacobi.grid import JacobiProblem
        from repro.service.requests import DecisionRequest

        with pytest.raises(ValueError, match="at must be finite"):
            DecisionRequest(problem=JacobiProblem(n=100, iterations=1), at=t)

    def test_unknown_resource_raises(self, warmed_nws):
        with pytest.raises(KeyError):
            warmed_nws.cpu_forecast("nonesuch")
        with pytest.raises(KeyError):
            warmed_nws.link_forecast("nonesuch")

    def test_forecast_follows_regime_change(self):
        # A host whose availability drops sharply: after enough new samples
        # the forecast must follow it down.
        from repro.sim.testbeds import Testbed
        from repro.sim.topology import Topology

        topo = Topology()
        topo.add_host(Host(
            "h", speed_mflops=10.0,
            load=TraceLoad([0.9] * 60 + [0.2] * 60, dt=10.0),
        ))
        nws = NetworkWeatherService(topo, cpu_period=10.0, noise_std=0.0)
        nws.advance_to(590.0)
        assert nws.cpu_forecast("h").value == pytest.approx(0.9, abs=0.1)
        nws.advance_to(1150.0)
        assert nws.cpu_forecast("h").value == pytest.approx(0.2, abs=0.1)
