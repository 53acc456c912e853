"""Block NWS updates are bit-identical to the per-value oracle.

Production path: every forecaster's ``update_many``, the ensemble's
``update_many`` and the sensors' one-pass block ``advance_to``.  Oracle:
the per-value implementation kept in ``tests/nws_reference.py`` (the
forecasters' ``_update``/``_forecast`` hooks, the ensemble's one-value
``update`` and the sensor loop measuring and folding one sample per
iteration).  Hypothesis draws the series and how it is split into blocks:
one-value blocks, runs across the 512-update resynchronisation and the AR
refit boundaries, exact ties, and values at 0 and 1.  Every staged
forecast, error estimate, winner and recorded history must match bit for
bit, and whole-NWS histories must not depend on how the clock's moves split
the samples (one jump, single samples, random splits with rewinds, past
the history trim).
"""

from __future__ import annotations

import math
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nws_reference as ref
from repro.arena.instances import build_world
from repro.nws import forecasters
from repro.nws.ensemble import AdaptiveEnsemble
from repro.nws.sensors import CpuSensor, LinkSensor
from repro.nws.service import NetworkWeatherService
from repro.obs.trace import tracing
from repro.sim.host import Host
from repro.sim.link import Link, SharedSegment
from repro.sim.load import (
    AR1Load,
    CompositeLoad,
    ConstantLoad,
    DynamicCompositeLoad,
    IntervalLoad,
    MarkovLoad,
    SpikeLoad,
    TraceLoad,
)
from repro.sim.testbeds import nile_testbed, synthetic_metacomputer
from repro.sim.topology import Topology
from repro.util.rng import RngStream

#: Member configurations built the same way from either module.
MEMBERS = {
    "last": lambda m: m.LastValue(),
    "run_mean": lambda m: m.RunningMean(),
    "sw_mean(3)": lambda m: m.SlidingWindowMean(3),
    "sw_mean(32)": lambda m: m.SlidingWindowMean(32),
    "median(7)": lambda m: m.MedianWindow(7),
    "median(8)": lambda m: m.MedianWindow(8),
    "trim_mean(8,0.4)": lambda m: m.TrimmedMeanWindow(8, 0.4),
    "trim_mean(16,0.25)": lambda m: m.TrimmedMeanWindow(16, 0.25),
    "adapt_mean": lambda m: m.AdaptiveWindowMean(),
    "adapt_mean(5,2),1.0": lambda m: m.AdaptiveWindowMean((5, 2), decay=1.0),
    "exp_smooth(0.3)": lambda m: m.ExponentialSmoothing(0.3),
    "exp_smooth(1)": lambda m: m.ExponentialSmoothing(1.0),
    "ar(4)": lambda m: m.ARForecaster(),
    "ar(2),16,3": lambda m: m.ARForecaster(order=2, window=16, refit_every=3),
}

STYLES = ("uniform", "ties", "extremes", "walk", "constant")


def make_series(seed: int, n: int, style: str) -> list[float]:
    """A measurement series in [0, 1]; ``ties`` and ``extremes`` repeat
    exact values, so window statistics and ensemble scores tie exactly."""
    gen = np.random.default_rng(seed)
    if style == "uniform":
        xs = gen.uniform(0.0, 1.0, n)
    elif style == "ties":
        xs = gen.choice([0.0, 0.25, 0.5, 0.75, 1.0], n)
    elif style == "extremes":
        xs = gen.choice([0.0, 1.0], n)
    elif style == "walk":
        xs = np.clip(0.5 + np.cumsum(gen.normal(0.0, 0.08, n)), 0.0, 1.0)
    else:
        xs = np.full(n, 0.5)
    return [float(x) for x in xs]


def blocks(values: list, split_seed: int, max_block: int) -> list[list]:
    """``values`` cut into consecutive blocks of 1..``max_block`` values."""
    rng = random.Random(split_seed)
    out, i = [], 0
    while i < len(values):
        k = rng.randint(1, max_block)
        out.append(values[i : i + k])
        i += k
    return out


def bits(xs) -> bytes:
    """Exact bit pattern of a float sequence (signed zeros included)."""
    return np.asarray(xs, dtype=np.float64).tobytes()


series = st.builds(
    make_series,
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 1100),
    style=st.sampled_from(STYLES),
)
splits = st.tuples(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3, 9, 64, 600]))


class TestMembers:
    @pytest.mark.parametrize("kind", sorted(MEMBERS))
    @settings(max_examples=15, deadline=None)
    @given(xs=series, split=splits)
    @example(xs=make_series(1, 1100, "uniform"), split=(0, 600))
    @example(xs=make_series(2, 530, "ties"), split=(3, 1))
    def test_update_many_equals_per_value(self, kind, xs, split):
        block_member = MEMBERS[kind](forecasters)
        oracle = MEMBERS[kind](ref)
        staged = []
        for block in blocks(xs, *split):
            staged += block_member.update_many(block)
            assert block_member.forecast() == staged[-1]
        expected = []
        for x in xs:
            oracle.update(x)
            expected.append(oracle.forecast())
        assert bits(staged) == bits(expected)
        assert block_member.observations == oracle.observations == len(xs)

    @pytest.mark.parametrize("kind", sorted(MEMBERS))
    def test_update_wraps_update_many(self, kind):
        xs = make_series(5, 700, "walk")
        one_by_one = MEMBERS[kind](forecasters)
        for x in xs:
            one_by_one.update(x)
        whole = MEMBERS[kind](forecasters)
        assert whole.update_many(xs)[-1] == one_by_one.forecast()
        assert whole.update_many([]) == []
        assert whole.forecast() == one_by_one.forecast()

    def test_adaptive_window_best_window_matches_oracle(self):
        block_member, oracle = forecasters.AdaptiveWindowMean(), ref.AdaptiveWindowMean()
        for block in blocks(make_series(8, 900, "walk"), 8, 40):
            block_member.update_many(block)
            for x in block:
                oracle.update(x)
            assert block_member.best_window() == oracle.best_window()

    def test_ar_refit_boundaries(self):
        # Blocks that end one before, on and one after each refit.
        xs = make_series(13, 400, "walk")
        sizes = [7, 1, 8, 9, 2, 6, 16, 15, 17]
        block_member = forecasters.ARForecaster()
        oracle = ref.ARForecaster()
        staged, i, j = [], 0, 0
        while i < len(xs):
            k = sizes[j % len(sizes)]
            staged += block_member.update_many(xs[i : i + k])
            i, j = i + k, j + 1
        expected = []
        for x in xs:
            oracle.update(x)
            expected.append(oracle.forecast())
        assert bits(staged) == bits(expected)


class TestEnsemble:
    @settings(max_examples=25, deadline=None)
    @given(xs=series, split=splits)
    @example(xs=[0.5] * 40 + make_series(4, 600, "uniform"), split=(1, 64))
    @example(xs=make_series(6, 1030, "extremes"), split=(2, 1))
    def test_update_many_equals_per_value(self, xs, split):
        ens, oracle = AdaptiveEnsemble(), ref.AdaptiveEnsemble()
        got_v, got_e, got_i = [], [], []
        exp_v, exp_e, exp_i = [], [], []
        for block in blocks(xs, *split):
            values, errors, indices = ens.update_many(block)
            got_v += values
            got_e += errors
            got_i += indices
            for x in block:
                oracle.update(x)
                exp_v.append(oracle.best_value)
                exp_e.append(oracle.best_error)
                exp_i.append(oracle.best_index)
            assert ens.forecast() == oracle.forecast()
            assert ens.best_member().name == oracle.best_member().name
            assert ens.leaderboard() == oracle.leaderboard()
        assert bits(got_v) == bits(exp_v)
        assert bits(got_e) == bits(exp_e)
        assert got_i == exp_i

    def test_update_wraps_update_many(self):
        xs = make_series(9, 300, "walk")
        a, b = AdaptiveEnsemble(), AdaptiveEnsemble()
        for x in xs:
            a.update(x)
        b.update_many(xs)
        assert a.forecast() == b.forecast()
        assert b.update_many([]) == ([], [], [])
        assert b.observations == len(xs)


# -- sensors -------------------------------------------------------------------
def _mutable_load() -> IntervalLoad:
    load = IntervalLoad()
    load.occupy(40.0, 95.0, 0.5)
    load.occupy(60.0, 300.0, 0.25)
    return load


LOADS = {
    "ar1": lambda: AR1Load(rng=RngStream(1, "ar1")),
    "markov": lambda: MarkovLoad(rng=RngStream(2, "markov"), dt=7.0),
    "spike": lambda: SpikeLoad(rng=RngStream(3, "spike")),
    "trace01": lambda: TraceLoad([0.0, 1.0, 1.0, 0.5]),
    "constant": lambda: ConstantLoad(0.6),
    "composite": lambda: CompositeLoad(
        [AR1Load(rng=RngStream(4, "a")), MarkovLoad(rng=RngStream(5, "m"))]
    ),
    "interval": _mutable_load,
    "dynamic": lambda: DynamicCompositeLoad(
        [AR1Load(rng=RngStream(6, "d")), _mutable_load()]
    ),
}


def _sensor_pair(kind: str, load_name: str, period: float, noise: float):
    """A production sensor and its oracle, on one load, with equal noise
    streams (the load is shared: epoch-cached values are a function of
    the epoch, the mutable ones of the instant)."""
    load = LOADS[load_name]()
    if kind == "cpu":
        host = Host("h", speed_mflops=10.0, load=load)
        make = (CpuSensor, ref.CpuSensor)
        target = host
    else:
        target = Link("l", 100.0, load=load)
        make = (LinkSensor, ref.LinkSensor)
    return tuple(
        cls(target, period=period, noise_std=noise, rng=RngStream(11, "noise"))
        for cls in make
    )


def sensor_state(s) -> tuple:
    """Everything a sensor answers from, as exact bits where float."""
    return (
        bits(s._times), bits(s._values), bits(s._errors), list(s._methods),
        s._dropped, s._at, s._next_sample, bits([v for _, v in s.series]),
        bits(s.series.times()), s.series.total_observations,
        bits(s.ensemble._err), s.ensemble._weight, bits(s.ensemble._pending or []),
        s.ensemble.observations, s.forecast() if s.ready else None,
    )


moves = st.lists(
    st.tuples(st.sampled_from(["advance", "rewind"]), st.floats(0.0, 1.0)),
    min_size=1, max_size=12,
)


@pytest.mark.parametrize("kind", ["cpu", "link"])
@pytest.mark.parametrize("load_name", sorted(LOADS))
@settings(max_examples=8, deadline=None)
@given(
    period=st.sampled_from([0.7, 1.0, 3.3, 7.5, 10.0, 15.0]),
    noise=st.sampled_from([0.0, 0.02, 0.4]),
    plan=moves,
)
def test_sensor_equals_per_sample_oracle(kind, load_name, period, noise, plan):
    block_sensor, oracle = _sensor_pair(kind, load_name, period, noise)
    t = 0.0
    for action, frac in plan:
        if action == "advance":
            t += frac * 40.0 * period
            taken = block_sensor.advance_to(t)
            assert taken == oracle.advance_to(t)
        else:
            back = max(block_sensor.history_start, t * frac)
            block_sensor.rewind_to(back)
            oracle.rewind_to(back)
        assert sensor_state(block_sensor) == sensor_state(oracle)


def test_sensor_past_the_trim_equals_oracle():
    block_sensor, oracle = _sensor_pair("cpu", "ar1", 1.0, 0.05)
    retain = block_sensor.series.maxlen
    rng = random.Random(17)
    t = 0.0
    while t < 2 * retain + 700:
        t += rng.choice([0.0, 0.5, 3.0, 70.0, 900.0])
        block_sensor.advance_to(t)
        oracle.advance_to(t)
        if rng.random() < 0.2:
            back = max(block_sensor.history_start, t - 500.0)
            block_sensor.rewind_to(back)
            oracle.rewind_to(back)
    assert block_sensor._dropped > 0
    assert sensor_state(block_sensor) == sensor_state(oracle)


# -- whole NWS -----------------------------------------------------------------
def _world(name: str, **periods) -> NetworkWeatherService:
    if name == "nile":
        testbed = nile_testbed(seed=7)
    else:
        spec = {
            "sdsc": {"generator": "sdsc", "seed": 1996, "nws_seed": 1997,
                     "warmup_s": 0.0},
            "synthetic": {"generator": "synthetic", "n_hosts": 5,
                          "n_segments": 2, "seed": 21, "nws_seed": 22,
                          "warmup_s": 0.0},
        }[name]
        testbed, _ = build_world(spec)
    return NetworkWeatherService.for_testbed(testbed, seed=8, **periods)


def _sensors(nws: NetworkWeatherService) -> list:
    return [*nws.cpu_sensors.values(), *nws.link_sensors.values()]


def _oracles(nws: NetworkWeatherService) -> list:
    """Per-sample sensors on the same resources and noise streams."""
    out = [
        ref.CpuSensor(s.host, period=s.period, noise_std=s.noise_std,
                      rng=RngStream(s.rng.seed, s.rng.name))
        for s in nws.cpu_sensors.values()
    ]
    out += [
        ref.LinkSensor(s.link, period=s.period, noise_std=s.noise_std,
                       rng=RngStream(s.rng.seed, s.rng.name))
        for s in nws.link_sensors.values()
    ]
    return out


def histories(sensors: list) -> list:
    return [sensor_state(s) for s in sensors]


HORIZON = 2400.0


@pytest.mark.parametrize("name", ["sdsc", "synthetic", "nile"])
def test_nws_history_independent_of_the_split(name):
    one_jump = _world(name)
    one_jump.advance_to(HORIZON)
    expected = histories(_sensors(one_jump))

    # One sample per sensor per step: 5 s divides both periods.
    single = _world(name)
    for k in range(1, int(HORIZON / 5.0) + 1):
        single.advance_to(5.0 * k)
    assert histories(_sensors(single)) == expected

    # Random splits with rewinds, checked against the per-sample oracle
    # after every move.
    split = _world(name)
    oracles = _oracles(split)
    rng = random.Random(name)
    t = 0.0
    while t < HORIZON:
        t = min(HORIZON, t + rng.choice([0.0, 4.0, 15.0, 33.3, 250.0, 900.0]))
        split.advance_to(t)
        for o in oracles:
            o.advance_to(t)
        if rng.random() < 0.3:
            back = rng.uniform(0.0, t)
            split.rewind_to(back)
            for o in oracles:
                o.rewind_to(back)
        assert histories(_sensors(split)) == histories(oracles)
    split.advance_to(HORIZON)
    assert histories(_sensors(split)) == expected


def test_nws_history_past_the_trim():
    # Short periods take every sensor past twice its retained history; the
    # per-sample oracle is held to the trim at sensor level above.
    def small_world() -> NetworkWeatherService:
        testbed = synthetic_metacomputer(2, 1, seed=21)
        return NetworkWeatherService.for_testbed(
            testbed, seed=8, cpu_period=1.0, net_period=1.0
        )

    horizon = 2 * 4096 + 600.0
    one_jump = small_world()
    one_jump.advance_to(horizon)
    assert all(s._dropped > 0 for s in _sensors(one_jump))
    split = small_world()
    rng = random.Random(3)
    t = 0.0
    while t < horizon:
        t = min(horizon, t + rng.choice([1.0, 37.0, 800.0, 3000.0]))
        split.advance_to(t)
        if rng.random() < 0.3:
            start = max(s.history_start for s in _sensors(split))
            split.rewind_to(max(start, t - 400.0))
    split.advance_to(horizon)
    assert histories(_sensors(split)) == histories(_sensors(one_jump))


def test_advance_span_records_samples():
    nws = _world("synthetic")
    sensors = _sensors(nws)
    taken = []
    with tracing() as tracer:
        for t in (100.0, 100.0, 50.0, 130.0):
            if t < nws.now:
                nws.rewind_to(t)
                continue
            before = sum(len(s.series) for s in sensors)
            nws.advance_to(t)
            taken.append(sum(len(s.series) for s in sensors) - before)
    spans = [r for r in tracer.records()
             if r["kind"] == "span" and r["name"] == "nws.advance"]
    assert [span["attrs"]["samples"] for span in spans] == taken
    assert taken[0] > 0 and taken[1] == 0 and taken[2] > 0
    assert tracer.metrics.counter("nws.samples").value == sum(taken)


# -- boundaries ----------------------------------------------------------------
class TestNonFinite:
    @pytest.mark.parametrize("kind", sorted(MEMBERS))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_member_refuses_before_changing_state(self, kind, bad):
        member = MEMBERS[kind](forecasters)
        member.update_many(make_series(3, 40, "walk"))
        before = member.forecast()
        with pytest.raises(ValueError, match=re.escape(member.name)):
            member.update_many([0.5, bad, 0.5])
        with pytest.raises(ValueError):
            member.update(bad)
        assert member.forecast() == before
        assert member.observations == 40
        # The member goes on exactly as one that never saw the bad block.
        twin = MEMBERS[kind](forecasters)
        twin.update_many(make_series(3, 40, "walk"))
        assert member.update_many([0.25, 0.75]) == twin.update_many([0.25, 0.75])

    def test_running_statistics_not_poisoned(self):
        rm, sw = forecasters.RunningMean(), forecasters.SlidingWindowMean(8)
        for f in (rm, sw):
            f.update(0.5)
            with pytest.raises(ValueError):
                f.update(math.nan)
            for _ in range(20):
                f.update(0.5)
            assert f.forecast() == 0.5

    def test_ensemble_refuses_before_changing_state(self):
        ens = AdaptiveEnsemble()
        ens.update_many(make_series(4, 30, "walk"))
        before = (ens.forecast(), list(ens._err), ens._weight, ens.observations)
        with pytest.raises(ValueError, match="ensemble"):
            ens.update_many([0.5, math.nan])
        assert (ens.forecast(), list(ens._err), ens._weight, ens.observations) == before
        for member in ens.members:
            assert member.observations == 30

    def test_overflowing_sum_of_finite_values_accepted(self):
        f = forecasters.LastValue()
        assert f.update_many([1e308, 1e308]) == [1e308, 1e308]

    @pytest.mark.parametrize("field", ["period", "noise_std"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_sensor_rejects_non_finite_settings(self, field, bad):
        host = Host("h", speed_mflops=10.0, load=ConstantLoad(0.5))
        kwargs = {"period": 10.0, "noise_std": 0.02, field: bad}
        with pytest.raises(ValueError, match=field):
            CpuSensor(host, **kwargs)
        with pytest.raises(ValueError, match=field):
            LinkSensor(Link("l", 10.0), **kwargs)


class TestNominalBandwidth:
    def test_link_idle_at_zero_keeps_its_nominal(self):
        # Availability 0 at t = 0 used to make the probe's nominal 0, so
        # every later forecast read 0 bytes/s.
        link = Link("l", 100.0, load=TraceLoad([0.0, 1.0, 1.0, 1.0]))
        sensor = LinkSensor(link, noise_std=0.0)
        sensor.advance_to(600.0)
        fraction = sensor.forecast().value
        assert 0.0 < fraction < 1.0
        assert sensor.forecast_bandwidth(1) == 12.5e6 * fraction
        assert sensor.forecast_bandwidth(2) == 6.25e6 * fraction
        assert sensor.nominal_bandwidth(1) == 12.5e6

    def test_unready_fallback_uses_the_same_nominal(self):
        nws = _two_host_nws(TraceLoad([0.0, 1.0]))
        assert nws.path_bandwidth_forecast("a", "b") == 12.5e6
        assert nws.path_bandwidth_forecast("a", "b", flows=4) == 12.5e6 / 4

    @pytest.mark.parametrize("make", [Link, SharedSegment], ids=["link", "segment"])
    def test_probe_form_kept_where_availability_at_zero_is_positive(self, make):
        # The recorded answers pin the probe form, bit for bit.
        link = make("l", 10.0, load=AR1Load(rng=RngStream(9, "l")))
        probe = link.deliverable_bandwidth(0.0, 3) / link.load.availability(0.0)
        assert LinkSensor(link).nominal_bandwidth(3) == probe
        assert probe == pytest.approx(link.bandwidth_at(1.0, 3))


def _two_host_nws(load) -> NetworkWeatherService:
    topo = Topology()
    for name in ("a", "b"):
        topo.add_host(Host(name, speed_mflops=10.0, load=ConstantLoad(0.5)))
    topo.connect("a", "b", Link("ab", bandwidth_mbit=100.0, load=load))
    return NetworkWeatherService(topo)
