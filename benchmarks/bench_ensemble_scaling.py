"""Ensemble tensor backend throughput vs replica count and testbed size.

Monte-Carlo confidence intervals demand hundreds of replica simulations
per figure; the question is what one *pass* costs.  This benchmark sweeps
16/64/256-replica ensembles of :func:`synthetic_metacomputer` testbeds
(8–64 hosts) under the ring allocation and times
:func:`repro.sim.execution_ensemble.run_ensemble` against the honest
baseline — a Python loop of one
:class:`~repro.sim.execution_fast.CompiledExecution` per replica, compile
included, which is exactly what the figure drivers did before the
ensemble axis existed.

Every timing pair also asserts *per-replica bit-identity*: the ensemble
pass must return every replica's ``total_time``, ``iteration_times`` and
``host_busy_time`` float-for-float equal to the loop's — the batching is
free only because it changes nothing.

Results go to ``benchmarks/results/ensemble_scaling.txt`` and are merged
into ``benchmarks/results/perf_suite.json`` under ``ensemble_scaling``.

Set ``ENSEMBLE_SCALING_QUICK=1`` (or ``PERF_SUITE_QUICK=1``) for the
reduced CI smoke run; only the full run's speedups are meaningful, and
only the full run asserts the >=3x target at 64 replicas.
"""

from __future__ import annotations

import os
import time

from repro.sim.execution_ensemble import replicated, run_ensemble
from repro.sim.execution_fast import CompiledExecution

QUICK = any(
    os.environ.get(var, "").strip().lower() in ("1", "true", "yes")
    for var in ("ENSEMBLE_SCALING_QUICK", "PERF_SUITE_QUICK")
)

SEED = 7

#: Ring-exchange grain per iteration, matched to the Figure 5 Jacobi
#: strips at N≈1000 (~2 MFLOP per host, ~16 KB border columns): steps of
#: a few hundred milliseconds against 10 s availability epochs, so the
#: benchmark measures stepping throughput rather than shared epoch
#: generation (which both arms pay identically).
GRAIN = {"work_mflop": 2.0, "comm_bytes": 16_000.0}

#: (replicas, hosts, iterations) sweep points.  The replica axis carries
#: the headline (16/64/256 on 8 hosts); the host axis shows the entry
#: dimension scaling (64 replicas on 8/32/64 hosts).
SWEEP = [
    (16, 8, 400),
    (64, 8, 400),
    (256, 8, 200),
    (64, 32, 200),
    (64, 64, 120),
]
SWEEP_QUICK = [(16, 8, 20), (64, 8, 16)]


def _run_loop(n_replicas: int, n_hosts: int, iterations: int):
    """Baseline: one CompiledExecution per replica, compile included."""
    specs = replicated(n_replicas, n_hosts=n_hosts, seed=SEED, **GRAIN)
    t0 = time.perf_counter()
    results = [
        CompiledExecution(spec.topology, spec.assignments).run(
            iterations, spec.t0
        )
        for spec in specs
    ]
    return results, time.perf_counter() - t0


def _run_ensemble(n_replicas: int, n_hosts: int, iterations: int):
    """One batched struct-of-arrays pass, compile included."""
    specs = replicated(n_replicas, n_hosts=n_hosts, seed=SEED, **GRAIN)
    t0 = time.perf_counter()
    results = run_ensemble(specs, iterations)
    return results, time.perf_counter() - t0


def bench_ensemble_scaling(report, merge_json):
    sweep = SWEEP_QUICK if QUICK else SWEEP
    repeats = 1 if QUICK else 3
    rows = []
    for n_replicas, n_hosts, iterations in sweep:
        loop_best = ens_best = float("inf")
        loop_res = ens_res = None
        for _ in range(repeats):
            res, dt = _run_loop(n_replicas, n_hosts, iterations)
            loop_best, loop_res = min(loop_best, dt), res
        for _ in range(repeats):
            res, dt = _run_ensemble(n_replicas, n_hosts, iterations)
            ens_best, ens_res = min(ens_best, dt), res

        # Per-replica bit-identity: batching changes nothing observable.
        key = (n_replicas, n_hosts)
        assert len(ens_res) == len(loop_res), key
        for a, b in zip(ens_res, loop_res):
            assert a.total_time == b.total_time, key
            assert a.iteration_times == b.iteration_times, key
            assert a.host_busy_time == b.host_busy_time, key

        rows.append(
            {
                "replicas": n_replicas,
                "hosts": n_hosts,
                "iterations": iterations,
                "loop_s": loop_best,
                "ensemble_s": ens_best,
                "speedup": loop_best / ens_best,
                "replica_iters_per_s": n_replicas * iterations / ens_best,
            }
        )

    lines = [
        "Ensemble tensor backend vs loop-of-CompiledExecution",
        f"(quick_mode={QUICK}, ring exchange over synthetic_metacomputer,"
        f" min of {repeats} run(s), compile included in both arms)",
        "",
        f"{'replicas':>9}{'hosts':>7}{'iters':>7}{'loop (s)':>10}"
        f"{'ensemble (s)':>13}{'speedup':>9}{'rep-it/s':>10}",
    ]
    for r in rows:
        lines.append(
            f"{r['replicas']:>9}{r['hosts']:>7}{r['iterations']:>7}"
            f"{r['loop_s']:>10.3f}{r['ensemble_s']:>13.3f}"
            f"{r['speedup']:>8.2f}x{r['replica_iters_per_s']:>10.0f}"
        )
    data = {
        "quick_mode": QUICK,
        "repeats": repeats,
        "seed": SEED,
        "grain": GRAIN,
        "sweep": rows,
    }
    report("ensemble_scaling", "\n".join(lines), data)
    merge_json("perf_suite", {"ensemble_scaling": data})

    # Smoke assertions hold in any mode.
    for r in rows:
        assert r["loop_s"] > 0 and r["ensemble_s"] > 0
    if not QUICK:
        # The headline acceptance target: >=3x at 64 replicas, measured
        # only at full scale where timing is stable.
        rep_64 = next(r for r in rows if r["replicas"] == 64 and r["hosts"] == 8)
        assert rep_64["speedup"] >= 3.0, rep_64


if __name__ == "__main__":
    import sys

    if "--quick" in sys.argv[1:]:
        os.environ["ENSEMBLE_SCALING_QUICK"] = "1"
        QUICK = True

    from conftest import RESULTS_DIR, merge_json_results  # noqa: F401

    def _report(name, text, data=None):
        print(text)
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    bench_ensemble_scaling(_report, merge_json_results)
