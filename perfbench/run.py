"""The repository benchmark: one command, four workloads, traced on demand.

Usage (from the repository root)::

    python3 perfbench/run.py --workload daemon_open --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the workload untraced and reports the end-to-end
metrics.  ``--trace 1`` measures it twice for ``seconds / 2`` each, first
untraced and then under a ``repro.obs`` tracer with the layer wrappers of
:mod:`layers` installed, and reports the per-layer metrics, the tracing
overhead (traced minus untraced end-to-end numbers) and the share of
operation wall time the named layers explain.

Every output check runs in both modes; a failed check prints no result
and exits non-zero.  The last stdout line is the result object; the line
before it is the full record, stamped with the environment.
"""

from __future__ import annotations

import os

# One BLAS thread: the workloads are single-caller by design, and the
# machine's cores are not ours to oversubscribe.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

from calibrate import Calibrator  # noqa: E402
from harness import (  # noqa: E402
    digest, environment, fail, median, peak_rss_mb, percentile,
    recorded_digest, result_line,
)

SETUPS = 5

#: The contract's end-to-end metrics, reported on every workload.
END_TO_END = ("setup_s", "peak_rss_mb", "latency_p50_ms", "latency_p95_ms",
              "throughput_per_s")

#: The contract's per-layer metrics: (name, unit).  Extensive quantities
#: are divided by the traced phase's operations (unit ``.../op``).
PER_LAYER = (
    ("daemon.queue_wait_ms.p50", "ms"),
    ("daemon.queue_wait_ms.p95", "ms"),
    ("daemon.batch_size.mean", "count"),
    ("daemon.batches", "count/op"),
    ("daemon.shed", "count/op"),
    ("daemon.gen_late_ms.max", "ms"),
    ("daemon.batch.self_s", "s/op"),
    ("service.decide.calls", "count/op"),
    ("service.decide.self_s", "s/op"),
    ("service.reuse.answer_hit_ratio", "ratio"),
    ("service.reuse.snapshot_hits", "count/op"),
    ("nws.advance.calls", "count/op"),
    ("nws.advance.self_s", "s/op"),
    ("nws.snapshot.self_s", "s/op"),
    ("core.schedule.calls", "count/op"),
    ("core.schedule.self_s", "s/op"),
    ("core.candidate_sets.self_s", "s/op"),
    ("core.bounds.self_s", "s/op"),
    ("core.candidates", "count/op"),
    ("core.pruned_frac", "ratio"),
    ("sweep.replay.calls", "count/op"),
    ("sweep.replay.self_s", "s/op"),
    ("sweep.materialise.self_s", "s/op"),
    ("sweep.fallback_rows", "count/op"),
    ("apples.make_agent.self_s", "s/op"),
    ("apples.evaluate_batch.self_s", "s/op"),
    ("apples.evaluate_batch.rows", "count/op"),
    ("apples.batch_inputs.self_s", "s/op"),
    ("apples.rows_surrendered_frac", "ratio"),
    ("reserve.expand.calls", "count/op"),
    ("reserve.expand.self_s", "s/op"),
    ("reserve.repair.self_s", "s/op"),
    ("reserve.restores", "count/op"),
    ("reserve.rebuilds", "count/op"),
    ("reserve.ledger.self_s", "s/op"),
    ("reserve.verify_ledger.self_s", "s/op"),
    ("reserve.decisions_per_booking", "ratio"),
    ("reserve.untouched_frac", "ratio"),
    ("arena.verify.calls", "count/op"),
    ("arena.verify.self_s", "s/op"),
    ("sim.ensemble.compile_s", "s/op"),
    ("sim.ensemble.step_s", "s/op"),
    ("sim.single.compile_s", "s/op"),
    ("sim.single.step_s", "s/op"),
    ("sim.surrendered_replicas", "count/op"),
    ("trace.explained_frac", "ratio"),
    ("trace.overhead.latency_frac", "ratio"),
    ("trace.overhead.throughput_frac", "ratio"),
    ("trace.ops", "count"),
)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def daemon_requests(records: list[dict], extra: dict) -> tuple[list[float], float, float]:
    """Queue waits (ms) and open-loop request coverage from a traced phase.

    A request's queue wait runs from its due time to the start of the
    ``SchedulingService.decide`` span that carries its id.  Its explained
    time runs from the due time to that span's end: queue wait belongs to
    the daemon layer, the call to the service.  Returns ``(waits_ms,
    explained_s, latency_s)``.
    """
    if "requests" not in extra:
        return [], 0.0, 0.0
    origin = next(r["t"] for r in records
                  if r["kind"] == "event" and r["name"] == "bench.origin")
    shift = origin - extra["origin"]  # perf_counter -> tracer wall clock
    carried = {}
    for r in records:
        if r["kind"] == "span" and r["name"] == "wrap.service.decide":
            for rid in r["attrs"].get("request_ids", ()):
                carried[rid] = (r["t0"], r["t0"] + r["wall_s"])
    waits, explained, latency = [], 0.0, 0.0
    for rid, due, resolved in extra["requests"]:
        start, end = carried[rid]
        waits.append((start - (due + shift)) * 1e3)
        explained += end - (due + shift)
        latency += resolved - due
    return waits, explained, latency


def per_layer(records: list[dict], phase, overhead: dict) -> dict[str, float]:
    """Every per-layer metric of one traced phase (0 where a layer is idle)."""
    import layers

    table = layers.layer_table(records)
    metrics = {r["name"]: r for r in records if r["kind"] == "metric"}
    ops = phase.ops

    def self_s(bucket: str) -> float:
        return table.get(bucket, {}).get("self_s", 0.0) / ops

    def calls(bucket: str) -> float:
        return table.get(bucket, {}).get("calls", 0) / ops

    def counter(name: str) -> float:
        record = metrics.get(name)
        return float(record["value"]) if record else 0.0

    waits, open_explained, open_latency = daemon_requests(records, phase.extra)
    op_explained, op_wall = layers.op_coverage(records)
    batch_size = metrics.get("daemon.batch_size", {"count": 0, "total": 0.0})
    configs = (counter("service.reuse.answer_hits") + counter("service.batched_configs")
               + counter("service.scalar_configs"))
    rows = layers.attr_total(records, "apples.evaluate_batch", "rows")
    fallback = layers.attr_total(records, "apples.evaluate_batch", "fallback")
    extra = phase.extra
    return {
        "daemon.queue_wait_ms.p50": percentile(waits, 50) if waits else 0.0,
        "daemon.queue_wait_ms.p95": percentile(waits, 95) if waits else 0.0,
        "daemon.batch_size.mean": _ratio(batch_size["total"], batch_size["count"]),
        "daemon.batches": counter("daemon.batches") / ops,
        "daemon.shed": counter("daemon.shed") / ops,
        "daemon.gen_late_ms.max": max(extra.get("late_s", [0.0])) * 1e3,
        "daemon.batch.self_s": self_s("daemon.batch"),
        "service.decide.calls": calls("service.decide"),
        "service.decide.self_s": self_s("service.decide"),
        "service.reuse.answer_hit_ratio": _ratio(counter("service.reuse.answer_hits"), configs),
        "service.reuse.snapshot_hits": counter("service.reuse.snapshot_hits") / ops,
        "nws.advance.calls": calls("nws.advance"),
        "nws.advance.self_s": self_s("nws.advance"),
        "nws.snapshot.self_s": self_s("nws.snapshot"),
        "core.schedule.calls": calls("core.schedule"),
        "core.schedule.self_s": self_s("core.schedule"),
        "core.candidate_sets.self_s": self_s("core.candidate_sets"),
        "core.bounds.self_s": self_s("core.bounds"),
        "core.candidates": counter("core.candidates") / ops,
        "core.pruned_frac": _ratio(counter("core.pruned"), counter("core.candidates")),
        "sweep.replay.calls": calls("sweep.replay"),
        "sweep.replay.self_s": self_s("sweep.replay"),
        "sweep.materialise.self_s": self_s("sweep.materialise"),
        "sweep.fallback_rows": fallback / ops,
        "apples.make_agent.self_s": self_s("apples.make_agent"),
        "apples.evaluate_batch.self_s": self_s("apples.evaluate_batch"),
        "apples.evaluate_batch.rows": rows / ops,
        "apples.batch_inputs.self_s": self_s("apples.batch_inputs"),
        "apples.rows_surrendered_frac": _ratio(fallback, rows),
        "reserve.expand.calls": calls("reserve.expand"),
        "reserve.expand.self_s": self_s("reserve.expand"),
        "reserve.repair.self_s": self_s("reserve.repair"),
        "reserve.restores": extra.get("restores", 0) / ops,
        "reserve.rebuilds": extra.get("rebuilds", 0) / ops,
        "reserve.ledger.self_s": self_s("reserve.ledger"),
        "reserve.verify_ledger.self_s": self_s("reserve.verify_ledger"),
        "reserve.decisions_per_booking": _ratio(extra.get("decisions", 0), extra.get("placed", 0)),
        "reserve.untouched_frac": _ratio(extra.get("untouched", 0), extra.get("bookings", 0)),
        "arena.verify.calls": calls("arena.verify"),
        "arena.verify.self_s": self_s("arena.verify"),
        "sim.ensemble.compile_s": self_s("sim.ensemble.compile"),
        "sim.ensemble.step_s": self_s("sim.ensemble.step"),
        "sim.single.compile_s": self_s("sim.single.compile"),
        "sim.single.step_s": self_s("sim.single.step"),
        "sim.surrendered_replicas": counter("sim.ensemble.replicas_surrendered") / ops,
        "trace.explained_frac": _ratio(op_explained + open_explained, op_wall + open_latency),
        "trace.overhead.latency_frac": overhead["latency"],
        "trace.overhead.throughput_frac": overhead["throughput"],
        "trace.ops": float(ops),
    }


def measure_traced(workload, seconds: float):
    """One phase under a tracer with every layer wrapper installed."""
    import numpy as np

    import layers
    from repro.obs import tracing

    annotate = workload.annotate() if hasattr(workload, "annotate") else {}
    observe = {"apples.evaluate_batch": lambda evs: {
        "rows": sum(len(ev.fallback) for ev in evs),
        "fallback": sum(int(np.count_nonzero(ev.fallback)) for ev in evs),
    }}
    with tracing() as tracer, layers.wrapped(annotate, observe):
        phase = workload.measure(seconds)
    return phase, tracer.records()


def phase_metrics(workload, phase) -> tuple[dict, dict]:
    """``(at_reference, raw)`` end-to-end metrics of one phase.

    The first set is computed from every operation's time divided by the
    host scale around it (:meth:`Calibrator.at_reference`), except the
    kinds a workload lists in ``RAW``.
    """
    cal = phase.calibrator
    keep = getattr(workload, "RAW", ())
    scaled = dataclasses.replace(phase, samples={
        kind: timed if kind in keep else cal.at_reference(timed)
        for kind, timed in phase.samples.items()
    })
    metrics = []
    for p in (scaled, phase):
        m = workload.end_to_end(p)
        m.update(m.pop("named"))
        metrics.append(m)
    return metrics[0], metrics[1]


def layer_report(records: list[dict], ops: int) -> list[str]:
    import layers

    table = layers.layer_table(records)
    owners = layers.bucket_layers()
    lines = [f"  {'bucket':<26}{'layer':<16}{'calls/op':>10}{'self s/op':>12}"]
    for bucket, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(
            f"  {bucket:<26}{owners.get(bucket, '-'):<16}"
            f"{row['calls'] / ops:>10.2f}{row['self_s'] / ops:>12.6f}"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        # Measure the checkout's program, never one installed elsewhere.
        sys.exit(f"perfbench: no program to measure at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (have {sorted(WORKLOADS)})")
    workload = WORKLOADS[args.workload](args.seed)
    env = environment(args.workload, args.seed)

    setups, setup_cal = [], Calibrator()
    for _ in range(SETUPS):
        gc.collect()
        t0 = time.perf_counter()
        workload.setup()
        t1 = time.perf_counter()
        setups.append((t1, t1 - t0))
        setup_cal.sample(3)

    if args.trace == 0:
        phase = workload.measure(args.seconds)
        phases = [phase]
        records = None
    else:
        plain = workload.measure(args.seconds / 2.0)
        phase, records = measure_traced(workload, args.seconds / 2.0)
        phases = [plain, phase]
        if digest(plain.answers) != digest(phase.answers):
            fail("traced and untraced runs answered differently")

    answer_digest = digest(phases[0].answers)
    recorded = recorded_digest(args.workload, args.seed)
    if recorded is not None and recorded != answer_digest:
        fail(f"answer digest {answer_digest} != recorded {recorded}")

    e2e, raw = phase_metrics(workload, phases[0])
    scale = phases[0].calibrator.scale()
    raw["setup_s"] = (median([dt for _, dt in setups]), "s", len(setups))
    e2e["setup_s"] = (median([dt for _, dt in setup_cal.at_reference(setups)]),
                      "s", len(setups))
    e2e["peak_rss_mb"] = raw["peak_rss_mb"] = (peak_rss_mb(), "MB", 1)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    e2e["failed_frac"] = raw["failed_frac"] = (failed / attempted, "ratio", attempted)

    def block(metrics: dict) -> dict:
        return {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()}

    record = {
        "format": "perfbench-record", "version": 2, "env": env,
        "seconds": args.seconds, "trace": args.trace,
        "digest": answer_digest, "digest_recorded": recorded,
        "calibration": {"scale": scale, "setup_scale": setup_cal.scale(),
                        "samples": len(phases[0].calibrator.samples)},
        "end_to_end": block(e2e),
        "raw": block(raw),
    }
    lines = [f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
             f"trace={args.trace} cpus={env['usable_cpus']} sha={env['git_sha']}",
             f"end-to-end, untraced (host scale {scale:.3f}; raw in the record):"]
    for k, (v, u, n) in e2e.items():
        lines.append(f"  {k:<24}{v:>14.4f} {u:<6} raw {raw[k][0]:<12.4f} n={n}")

    if args.trace == 0:
        metrics = {k: (e2e[k][0], e2e[k][1]) for k in END_TO_END}
    else:
        traced = phase_metrics(workload, phase)[0]
        overhead = {
            "latency": traced["latency_p50_ms"][0] / e2e["latency_p50_ms"][0] - 1.0,
            "throughput": e2e["throughput_per_s"][0] / traced["throughput_per_s"][0] - 1.0,
        }
        layer = per_layer(records, phase, overhead)
        units = dict(PER_LAYER)
        metrics = {k: (layer[k], units[k]) for k, _ in PER_LAYER}
        record["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        lines.append(f"traced phase: {phase.ops} ops; layers by self time:")
        lines += layer_report(records, phase.ops)
        lines.append("per-layer metrics:")
        for k, (v, u) in metrics.items():
            lines.append(f"  {k:<34}{v:>14.6g} {u}")

    print("\n".join(lines))
    print(json.dumps(record))
    print(result_line(attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
