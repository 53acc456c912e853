"""Scheduling-daemon sustained load: latency, throughput, shed behaviour.

The always-on :class:`repro.service.SchedulingDaemon` exists to answer a
user population's decision traffic at batch-service throughput without a
caller hand-assembling batches.  This benchmark drives it with the seeded
:mod:`repro.service.loadgen` population on the 12-machine nile pool and
reports what the queueing layer costs and buys:

- **Burst throughput** — the full population multiset pre-queued, then
  drained through micro-batches of 64: daemon decisions/sec vs the
  batch-``SchedulingService`` baseline deciding the same multiset in
  hand-assembled chunks.  The daemon must not lose to the thing it wraps
  (acceptance: >= 1.0x at batch >= 32); its cross-request answer reuse on
  a population with natural duplicates is where it wins.
- **Open-loop sustained load** — Poisson arrivals at ~70% of measured
  capacity against the started (threaded) daemon: p50/p99 ticket latency,
  observed decisions/sec, shed rate and achieved micro-batch sizes.
- **Overload** — arrivals at ~3x capacity into a small queue: admission
  control must shed explicitly (shed rate > 0) and the survivors must
  still be answered.

Every sampled daemon answer (all of the burst arm, every open-loop
answer) is compared bit-for-bit against ``SchedulingService.decide()`` on
the same per-shard multiset.

Results go to ``benchmarks/results/service_daemon.txt`` and are merged
into ``benchmarks/results/perf_suite.json`` under ``service_daemon``.
Set ``SERVICE_DAEMON_QUICK=1`` (or ``PERF_SUITE_QUICK=1``) for the CI
smoke run; only the full run asserts the throughput acceptance target.
"""

from __future__ import annotations

import os
import time

from repro.nws import NetworkWeatherService
from repro.service import SchedulingDaemon, SchedulingService, ShardSpec
from repro.service.daemon import ANSWERED, MicroBatcher, SHED
from repro.service.loadgen import (
    SyntheticPopulation,
    open_loop_events,
    run_open_loop,
)
from repro.sim.testbeds import nile_testbed
from repro.sim.warmcache import warmed_state

QUICK = any(
    os.environ.get(var, "").strip().lower() in ("1", "true", "yes")
    for var in ("SERVICE_DAEMON_QUICK", "PERF_SUITE_QUICK")
)

SEED = 7
WARMUP_S = 600.0
AT = WARMUP_S
SHARD = "nile"
CHUNK = 8 if QUICK else 64  # baseline batch == daemon max_batch
BURST_N = 16 if QUICK else 128
OPEN_N = 24 if QUICK else 200
REPEATS = 2 if QUICK else 3


def _population() -> SyntheticPopulation:
    """One shard, one instant: the burst and baseline arms must decide the
    identical multiset, and a pinned instant keeps closed-form comparison
    trivial (the instant-advancing path is exercised by the unit tests)."""
    return SyntheticPopulation([SHARD], seed=11, base_at=AT, instant_every=0)


def _spec() -> ShardSpec:
    return ShardSpec(SHARD, nile_testbed, seed=SEED, warmup_s=WARMUP_S)


def _requests(n: int):
    return [r for _, r in _population().requests(n)]


def _signature(answer):
    return (
        answer.best_objective,
        answer.predicted_time,
        tuple((a.machine, a.work_units) for a in answer.best.allocations),
        answer.pruning,
    )


def _baseline_run(requests):
    """The wrapped thing itself: hand-chunked ``SchedulingService.decide``."""
    testbed, nws = warmed_state(nile_testbed, seed=SEED, warmup_s=WARMUP_S)
    service = SchedulingService(testbed, nws)
    t0 = time.perf_counter()
    answers = []
    for k in range(0, len(requests), CHUNK):
        answers.extend(service.decide(requests[k : k + CHUNK]))
    elapsed = time.perf_counter() - t0
    return answers, elapsed


def _burst_run(requests):
    """Pre-queued multiset drained through the daemon's micro-batcher."""
    daemon = SchedulingDaemon(
        [_spec()],
        queue_capacity=len(requests),
        batcher=MicroBatcher(max_batch=CHUNK, target_batch=min(32, CHUNK)),
    )
    daemon.shards[SHARD].ensure_service()  # world build stays untimed
    t0 = time.perf_counter()
    tickets = daemon.submit_many(SHARD, requests)
    daemon.pump()
    elapsed = time.perf_counter() - t0
    replies = [t.result(0.0) for t in tickets]
    daemon.shutdown()
    assert all(r.status == ANSWERED for r in replies)
    return replies, elapsed


def _percentile(sorted_values, q):
    if not sorted_values:
        return float("nan")
    idx = min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1))))
    return sorted_values[idx]


def _open_loop_arm(rate_hz, n, queue_capacity):
    """Poisson arrivals against the started daemon; returns summary + replies."""
    daemon = SchedulingDaemon(
        [_spec()],
        queue_capacity=queue_capacity,
        batcher=MicroBatcher(max_batch=CHUNK, target_batch=min(32, CHUNK)),
    )
    daemon.shards[SHARD].ensure_service()
    daemon.start()
    events = open_loop_events(_population(), rate_hz=rate_hz, n_requests=n)
    t0 = time.perf_counter()
    tickets = run_open_loop(daemon, events)
    daemon.drain(timeout=120.0)
    elapsed = time.perf_counter() - t0
    daemon.shutdown()
    replies = [t.result(0.0) for t in tickets]
    answered = [r for r in replies if r.status == ANSWERED]
    shed = [r for r in replies if r.status == SHED]
    latencies = sorted(r.latency_s for r in answered)
    batch_sizes = [r.batch_size for r in answered]
    summary = {
        "offered_hz": rate_hz,
        "requests": n,
        "answered": len(answered),
        "shed": len(shed),
        "shed_rate": len(shed) / n,
        "dps": len(answered) / elapsed if elapsed > 0 else float("nan"),
        "p50_ms": _percentile(latencies, 0.50) * 1e3,
        "p99_ms": _percentile(latencies, 0.99) * 1e3,
        "mean_batch": (sum(batch_sizes) / len(batch_sizes)) if batch_sizes else 0.0,
        "max_batch": max(batch_sizes, default=0),
    }
    return summary, replies, [e.request for e in events]


def _assert_identity(replies, requests):
    """Every answered reply must equal the plain service's answer."""
    answered = [
        (req, rep) for req, rep in zip(requests, replies) if rep.status == ANSWERED
    ]
    if not answered:
        return 0
    testbed = nile_testbed(seed=SEED)
    nws = NetworkWeatherService.for_testbed(testbed, seed=SEED + 1)
    nws.warmup(WARMUP_S)
    reference = SchedulingService(testbed, nws).decide(
        [req for req, _ in answered]
    )
    for (req, rep), ref in zip(answered, reference):
        assert _signature(rep.answer) == _signature(ref), req
    return len(answered)


def bench_service_daemon(report, merge_json):
    requests = _requests(BURST_N)
    unique = len({r.config_key() for r in requests})

    baseline_best = burst_best = float("inf")
    replies = None
    _baseline_run(requests)  # absorb first-run effects per arm
    for _ in range(REPEATS):
        _, dt = _baseline_run(requests)
        baseline_best = min(baseline_best, dt)
    _burst_run(requests)
    for _ in range(REPEATS):
        replies, dt = _burst_run(requests)
        burst_best = min(burst_best, dt)
    checked = _assert_identity(replies, requests)

    throughput = {
        "requests": BURST_N,
        "unique_configs": unique,
        "batch": CHUNK,
        "baseline_s": baseline_best,
        "daemon_s": burst_best,
        "baseline_dps": BURST_N / baseline_best,
        "daemon_dps": BURST_N / burst_best,
        "ratio": baseline_best / burst_best,
    }

    rate = max(20.0, 0.7 * throughput["daemon_dps"])
    sustained, open_replies, open_requests = _open_loop_arm(
        rate_hz=rate, n=OPEN_N, queue_capacity=max(64, OPEN_N)
    )
    checked += _assert_identity(open_replies, open_requests)

    overload, over_replies, _ = _open_loop_arm(
        rate_hz=3.0 * throughput["daemon_dps"],
        n=OPEN_N,
        queue_capacity=8,
    )

    lines = [
        "Scheduling-daemon sustained load — nile pool (12 hosts), seeded population",
        f"(quick_mode={QUICK}, best of {REPEATS} runs, micro-batch cap {CHUNK})",
        "",
        f"burst throughput over {BURST_N} requests ({unique} unique configs):",
        f"  batch-service baseline {throughput['baseline_dps']:>8.1f} dec/s"
        f"   daemon {throughput['daemon_dps']:>8.1f} dec/s"
        f"   ratio {throughput['ratio']:.2f}x",
        "",
        f"open loop @ {sustained['offered_hz']:.0f} req/s offered"
        f" ({sustained['requests']} requests):",
        f"  answered {sustained['answered']}  shed rate {sustained['shed_rate']:.1%}"
        f"  throughput {sustained['dps']:.1f} dec/s",
        f"  latency p50 {sustained['p50_ms']:.1f} ms   p99 {sustained['p99_ms']:.1f} ms"
        f"   batch mean {sustained['mean_batch']:.1f} / max {sustained['max_batch']}",
        "",
        f"overload @ {overload['offered_hz']:.0f} req/s into a queue of 8:",
        f"  answered {overload['answered']}  shed rate {overload['shed_rate']:.1%}"
        f"  p99 {overload['p99_ms']:.1f} ms",
        "",
        f"bit-identity vs SchedulingService.decide(): {checked} answers checked",
    ]
    data = {
        "quick_mode": QUICK,
        "repeats": REPEATS,
        "throughput": throughput,
        "open_loop": sustained,
        "overload": overload,
        "identity_checked": checked,
    }
    report("service_daemon", "\n".join(lines), data)
    merge_json("perf_suite", {"service_daemon": data})

    assert checked > 0
    assert sustained["answered"] > 0
    assert overload["shed_rate"] > 0.0, overload
    assert all(
        r.status in (ANSWERED, SHED) for r in over_replies
    ), "overload must shed explicitly, never fail"
    if not QUICK:
        # Acceptance: the daemon sustains >= the batch-service baseline's
        # decisions/sec on the same multiset at batch >= 32.
        assert CHUNK >= 32
        assert throughput["ratio"] >= 1.0, throughput


if __name__ == "__main__":
    import sys

    if "--quick" in sys.argv[1:]:
        os.environ["SERVICE_DAEMON_QUICK"] = "1"
        QUICK = True
        CHUNK = 8
        BURST_N = 16
        OPEN_N = 24
        REPEATS = 2

    from conftest import RESULTS_DIR, merge_json_results  # noqa: F401

    def _report(name, text, data=None):
        print(text)
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    bench_service_daemon(_report, merge_json_results)
