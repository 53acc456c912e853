"""Hot-path regressions: every optimisation vs a reference computed here.

The hot-path work (incremental window statistics, ensemble memoisation,
NWS query caches, bulk load generation, the engine's zero-delay ready
queue) has one implementation.  These tests compute the reference value
themselves over identical inputs:

- windowed forecasters are compared with a rescan of the window buffer, to
  tight relative tolerance (running sums are resynchronised periodically,
  so drift is bounded but not zero);
- everything else (memoisation, caches, bulk RNG, event ordering) must be
  *exactly* equal to the reference.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np
import pytest

from repro.nws.ensemble import AdaptiveEnsemble, Forecast
from repro.nws.forecasters import (
    AdaptiveWindowMean,
    MedianWindow,
    SlidingWindowMean,
    TrimmedMeanWindow,
)
from repro.sim.engine import Simulator
from repro.sim.load import AR1Load, ConstantLoad, MarkovLoad, SpikeLoad, TraceLoad
from repro.util.rng import RngStream

#: Enough samples to evict from every window many times and cross the
#: running-sum resynchronisation boundary.
_N_SAMPLES = 1500


def _series(seed: int = 9) -> list[float]:
    gen = np.random.default_rng(seed)
    return [float(v) for v in gen.uniform(0.0, 1.0, _N_SAMPLES)]


def _one_step_forecasts(forecaster, series):
    out = []
    for i, value in enumerate(series):
        if i > 0:
            out.append(forecaster.forecast())
        forecaster.update(value)
    return out


class _Rescan:
    """Reference forecaster: apply ``stat`` to a fresh copy of the window."""

    def __init__(self, window: int, stat) -> None:
        self.buf: deque[float] = deque(maxlen=window)
        self.stat = stat

    def update(self, value: float) -> None:
        self.buf.append(value)

    def forecast(self) -> float:
        return self.stat(list(self.buf))


def _mean(data: list[float]) -> float:
    return sum(data) / len(data)


def _median(data: list[float]) -> float:
    return float(np.median(data))


def _trimmed_mean(trim: float):
    def stat(data: list[float]) -> float:
        ordered = np.sort(np.asarray(data, dtype=float))
        k = int(len(ordered) * trim)
        core = ordered[k : len(ordered) - k] if len(ordered) > 2 * k else ordered
        return float(core.mean())

    return stat


class _AdaptiveRescan:
    """Reference :class:`AdaptiveWindowMean`: every window mean rescanned."""

    def __init__(self, windows=(4, 8, 16, 32), decay: float = 0.95) -> None:
        self.windows = tuple(sorted(set(windows)))
        self.decay = decay
        self.buf: deque[float] = deque(maxlen=max(self.windows))
        self.err = {w: 0.0 for w in self.windows}
        self.weight = {w: 0.0 for w in self.windows}

    def _window_mean(self, w: int) -> float:
        return _mean(list(self.buf)[-w:])

    def update(self, value: float) -> None:
        if self.buf:
            for w in self.windows:
                err = (self._window_mean(w) - value) ** 2
                self.err[w] = self.decay * self.err[w] + err
                self.weight[w] = self.decay * self.weight[w] + 1.0
        self.buf.append(value)

    def forecast(self) -> float:
        best, best_mse = self.windows[0], float("inf")
        for w in self.windows:
            if self.weight[w] > 0:
                mse = self.err[w] / self.weight[w]
                if mse < best_mse:
                    best, best_mse = w, mse
        return self._window_mean(best)


class TestWindowForecasterFastpaths:
    """Incremental statistics vs a rescan of the window buffer."""

    @pytest.mark.parametrize(
        "make, reference",
        [
            (lambda: SlidingWindowMean(8), lambda: _Rescan(8, _mean)),
            (lambda: SlidingWindowMean(32), lambda: _Rescan(32, _mean)),
            (lambda: MedianWindow(8), lambda: _Rescan(8, _median)),
            (lambda: MedianWindow(32), lambda: _Rescan(32, _median)),
            # odd window: single-middle branch
            (lambda: MedianWindow(7), lambda: _Rescan(7, _median)),
            (lambda: TrimmedMeanWindow(16, 0.25),
             lambda: _Rescan(16, _trimmed_mean(0.25))),
            (lambda: TrimmedMeanWindow(8, 0.4),
             lambda: _Rescan(8, _trimmed_mean(0.4))),
            (lambda: AdaptiveWindowMean(), lambda: _AdaptiveRescan()),
        ],
        ids=["sw8", "sw32", "med8", "med32", "med7", "trim16", "trim8", "adapt"],
    )
    def test_matches_reference(self, make, reference):
        series = _series()
        fast = _one_step_forecasts(make(), series)
        naive = _one_step_forecasts(reference(), series)
        assert len(fast) == len(naive) == _N_SAMPLES - 1
        for f, n in zip(fast, naive):
            assert math.isclose(f, n, rel_tol=1e-9, abs_tol=1e-12)

    def test_median_fastpath_exact(self):
        # Order statistics involve no running sums: exactly equal.
        series = _series(4)
        fast = _one_step_forecasts(MedianWindow(16), series)
        naive = _one_step_forecasts(_Rescan(16, _median), series)
        assert fast == naive


class TestEnsembleMemoisation:
    def test_forecast_pure_between_updates(self):
        ens = AdaptiveEnsemble()
        for v in _series(2)[:200]:
            ens.update(v)
        first = ens.forecast()
        assert ens.forecast().value == first.value

    def test_memoised_equals_unmemoised(self):
        # update() picks the winner inside its scoring loop and forecast()
        # memoises it; both must equal the forecast recomputed from the
        # members by best_member() and mse() after every update.  On the
        # constant prefix the members tie exactly: the first-listed wins.
        ens = AdaptiveEnsemble()
        for value in [0.5] * 40 + _series(3)[:400]:
            ens.update(value)
            memoised = ens.forecast()
            assert ens.forecast() is memoised
            best = ens.best_member()
            mse = ens.mse(best.name)
            assert memoised == Forecast(
                value=best.forecast(),
                error=math.sqrt(mse) if math.isfinite(mse) else 0.0,
                method=best.name,
                observations=ens.observations,
            )


class TestBulkLoadGeneration:
    """Batched epoch generation must be bit-identical to scalar chaining."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: AR1Load(mean=0.5, phi=0.9, sigma=0.1, rng=rng),
            lambda rng: MarkovLoad(idle_level=0.9, busy_level=0.2, p_busy=0.15,
                                   p_idle=0.3, rng=rng),
            lambda rng: SpikeLoad(base=0.95, spike_level=0.1, p_spike=0.05,
                                  p_recover=0.5, rng=rng),
            lambda rng: ConstantLoad(level=0.7),
            lambda rng: TraceLoad([0.1, 0.5, 0.9], dt=5.0),
        ],
        ids=["ar1", "markov", "spike", "constant", "trace"],
    )
    def test_bulk_equals_scalar(self, make):
        times = [t * 2.5 for t in range(800)]
        # One far jump fills every epoch in a single batched pass...
        bulk = make(RngStream(77, "load").child("x"))
        bulk.availability(times[-1])
        bulk_vals = [bulk.availability(t) for t in times]
        # ...while queries in time order fill one epoch at a time.
        scalar = make(RngStream(77, "load").child("x"))
        scalar_vals = [scalar.availability(t) for t in times]
        assert bulk_vals == scalar_vals

    def test_incremental_then_bulk_fill(self):
        # Mixed access: a few scalar fills first, then a far jump.
        a = AR1Load(mean=0.5, phi=0.9, sigma=0.1,
                    rng=RngStream(5, "load").child("y"))
        head = [a.availability(t * 3.0) for t in range(10)]
        far = a.availability(5000.0)
        b = AR1Load(mean=0.5, phi=0.9, sigma=0.1,
                    rng=RngStream(5, "load").child("y"))
        epochs = b.epoch_of(5000.0) + 1
        for k in range(epochs):
            b.availability(k * b.dt)
        assert head == [b.availability(t * 3.0) for t in range(10)]
        assert far == b.availability(5000.0)
        assert a.sample(epochs) == b.sample(epochs)


class TestEngineZeroDelayFastpath:
    """Zero-delay events skip the heap but keep the (time, seq) order."""

    def test_order_identical_to_pure_heap(self):
        sim = Simulator()
        order: list[tuple[str, float]] = []

        def note(tag):
            order.append((tag, sim.now))

        def t1():
            note("t1")
            sim.schedule(0.0, note, "chained")

        # Interleave zero-delay and timed events, including ties.  Seqs in
        # scheduling order: z1=0, t1=1, z2=2, spawner=3, t2=4, mid-spawner=5;
        # the spawners then schedule nested=6 (at 0.0) and mid=7 (at 0.5),
        # and t1 schedules chained=8 at 1.0 — behind t2 (seq 4) on the heap.
        sim.schedule(0.0, note, "z1")
        sim.schedule(1.0, t1)
        sim.schedule(0.0, note, "z2")
        sim.schedule(0.0, lambda: sim.schedule(0.0, note, "nested"))
        sim.schedule(1.0, note, "t2")
        sim.schedule(0.5, lambda: sim.schedule(0.0, note, "mid"))
        sim.run()
        assert order == [
            ("z1", 0.0), ("z2", 0.0), ("nested", 0.0),
            ("mid", 0.5), ("t1", 1.0), ("t2", 1.0), ("chained", 1.0),
        ]

    def test_processes_identical(self):
        sim = Simulator()
        log: list[tuple[str, float]] = []

        def worker(tag, delay):
            yield 0
            log.append((tag, sim.now))
            yield delay
            log.append((tag + "'", sim.now))

        procs = [sim.process(worker(f"p{i}", 0.25 * i)) for i in range(4)]
        sim.run_until_done(procs)
        # Every process resumes from its ``yield 0`` in start order before
        # any later instant; p0's zero delay then fires before p1's 0.25.
        assert log == [
            ("p0", 0.0), ("p1", 0.0), ("p2", 0.0), ("p3", 0.0),
            ("p0'", 0.0), ("p1'", 0.25), ("p2'", 0.5), ("p3'", 0.75),
        ]


class TestServiceCaches:
    def test_cached_queries_equal_uncached(self):
        from repro.nws.service import NetworkWeatherService
        from repro.sim.testbeds import sdsc_pcl_testbed

        def world():
            testbed = sdsc_pcl_testbed(seed=21)
            nws = NetworkWeatherService.for_testbed(testbed, seed=22)
            nws.warmup(120.0)
            return testbed, nws

        testbed, nws = world()
        hosts = list(testbed.host_names)
        for t in (120.0, 180.0):
            nws.advance_to(t)
            # A fresh service advanced to the same instant answers every
            # query once, with empty caches: the reference value.
            _, fresh = world()
            fresh.advance_to(t)
            for h in hosts:
                first = nws.cpu_forecast(h)
                assert nws.cpu_forecast(h) is first  # repeat: hits cache
                assert first == fresh.cpu_forecast(h)
            first_bw = nws.path_bandwidth_forecast(hosts[0], hosts[1])
            assert nws.path_bandwidth_forecast(hosts[0], hosts[1]) == first_bw
            assert first_bw == fresh.path_bandwidth_forecast(hosts[0], hosts[1])
            first_lat = nws.path_latency(hosts[0], hosts[1])
            assert nws.path_latency(hosts[0], hosts[1]) == first_lat
            assert first_lat == fresh.path_latency(hosts[0], hosts[1])
