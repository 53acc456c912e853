"""The parallel runner and the warm-state cache."""

from __future__ import annotations

import os

import pytest

from repro.runner import (
    ParallelRunner,
    Task,
    derive_seed,
    resolve_workers,
    run_tasks,
    usable_cpus,
)
from repro.sim.testbeds import sdsc_pcl_testbed
from repro.sim.warmcache import clear_warm_cache, warm_cache_stats, warmed_state


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"boom {x}")


class TestResolveWorkers:
    def test_none_and_zero_mean_serial(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(0) == 1

    def test_positive_passthrough(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(7) == 7

    def test_negative_means_all_cpus(self):
        assert resolve_workers(-1) >= 1

    def test_negative_counts_only_usable_cpus(self, monkeypatch):
        """A process limited to one CPU of a 64-CPU host starts one worker."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert usable_cpus() == 1
        assert resolve_workers(-1) == 1

    def test_without_affinity_every_cpu_is_usable(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert resolve_workers(-1) == usable_cpus() == 64


class TestTask:
    def test_call_invokes_fn_with_kwargs(self):
        assert Task(_square, {"x": 5})() == 25

    def test_key_is_metadata_only(self):
        assert Task(_square, {"x": 2}, key=("a", 1))() == 4


class TestParallelRunner:
    def test_serial_preserves_order(self):
        tasks = [Task(_square, {"x": k}) for k in range(6)]
        assert ParallelRunner(1).run(tasks) == [0, 1, 4, 9, 16, 25]

    def test_pool_preserves_order(self):
        tasks = [Task(_square, {"x": k}) for k in range(6)]
        assert ParallelRunner(3).run(tasks) == [0, 1, 4, 9, 16, 25]

    def test_serial_and_pool_agree(self):
        tasks = [Task(_square, {"x": k}) for k in range(5)]
        assert ParallelRunner(1).run(tasks) == ParallelRunner(4).run(tasks)

    def test_single_task_skips_pool(self):
        # A one-task list runs in-process even with many workers.
        assert ParallelRunner(8).run([Task(_square, {"x": 3})]) == [9]

    def test_short_lists_run_serial(self):
        # Below min_parallel_tasks the pool is skipped entirely: its spawn
        # cost cannot be amortised over so few tasks (the fig6 quick-mode
        # regression).  Results are identical either way.
        runner = ParallelRunner(4, min_parallel_tasks=4)
        called = []

        def record_prime():
            called.append(True)

        tasks = [Task(_square, {"x": k}) for k in range(3)]
        assert runner.run(tasks, prime=record_prime) == [0, 1, 4]
        assert not called  # serial path never primes

    def test_threshold_boundary_uses_pool(self):
        runner = ParallelRunner(2, min_parallel_tasks=4)
        tasks = [Task(_square, {"x": k}) for k in range(4)]
        assert runner.run(tasks) == [0, 1, 4, 9]

    def test_threshold_configurable(self):
        # min_parallel_tasks=2 restores pooling for two-task lists.
        runner = ParallelRunner(2, min_parallel_tasks=2)
        assert runner.run([Task(_square, {"x": k}) for k in range(2)]) == [0, 1]

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            ParallelRunner(2, min_parallel_tasks=1)

    def test_exception_propagates_serial(self):
        with pytest.raises(ValueError, match="boom"):
            ParallelRunner(1).run([Task(_boom, {"x": 1})])

    def test_exception_propagates_pool(self):
        with pytest.raises(ValueError, match="boom"):
            ParallelRunner(2).run([Task(_boom, {"x": k}) for k in range(3)])

    def test_map_shorthand(self):
        assert ParallelRunner(1).map(_square, [{"x": 2}, {"x": 3}]) == [4, 9]

    def test_run_tasks_wrapper(self):
        assert run_tasks([Task(_square, {"x": k}) for k in range(3)], 2) == [0, 1, 4]


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1996, "fig5", 3) == derive_seed(1996, "fig5", 3)

    def test_key_sensitivity(self):
        base = derive_seed(1996, "fig5", 3)
        assert derive_seed(1996, "fig5", 4) != base
        assert derive_seed(1996, "fig6", 3) != base
        assert derive_seed(1997, "fig5", 3) != base

    def test_non_negative_int(self):
        s = derive_seed(0, "x")
        assert isinstance(s, int) and s >= 0


class TestWarmCache:
    def setup_method(self):
        clear_warm_cache()

    def teardown_method(self):
        clear_warm_cache()

    def test_hit_on_same_key(self):
        a = warmed_state(sdsc_pcl_testbed, seed=11, warmup_s=50.0)
        b = warmed_state(sdsc_pcl_testbed, seed=11, warmup_s=50.0)
        assert a[0] is b[0] and a[1] is b[1]
        stats = warm_cache_stats()
        assert stats["hits"] >= 1

    def test_advances_forward_on_reuse(self):
        _, nws = warmed_state(sdsc_pcl_testbed, seed=11, warmup_s=50.0, at=60.0)
        assert nws.now >= 60.0
        _, nws2 = warmed_state(sdsc_pcl_testbed, seed=11, warmup_s=50.0, at=90.0)
        assert nws2 is nws and nws2.now >= 90.0

    def test_rebuilds_when_behind(self):
        _, nws = warmed_state(sdsc_pcl_testbed, seed=11, warmup_s=50.0, at=200.0)
        _, nws2 = warmed_state(sdsc_pcl_testbed, seed=11, warmup_s=50.0, at=60.0)
        assert nws2 is not nws  # cannot rewind; a fresh build was required

    def test_distinct_seeds_distinct_state(self):
        a = warmed_state(sdsc_pcl_testbed, seed=11, warmup_s=50.0)
        b = warmed_state(sdsc_pcl_testbed, seed=12, warmup_s=50.0)
        assert a[0] is not b[0]

    def test_rejects_at_before_warmup(self):
        with pytest.raises(ValueError):
            warmed_state(sdsc_pcl_testbed, seed=11, warmup_s=50.0, at=10.0)

    def test_reuse_equals_fresh_build(self):
        """The determinism contract: reuse + advance == fresh build at t."""
        _, nws = warmed_state(sdsc_pcl_testbed, seed=11, warmup_s=50.0, at=60.0)
        reused = warmed_state(sdsc_pcl_testbed, seed=11, warmup_s=50.0, at=120.0)[1]
        host = sdsc_pcl_testbed(seed=11).host_names[0]
        reused_f = reused.cpu_forecast(host)
        clear_warm_cache()
        fresh = warmed_state(sdsc_pcl_testbed, seed=11, warmup_s=50.0, at=120.0)[1]
        assert fresh.cpu_forecast(host) == reused_f
