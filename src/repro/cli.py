"""Command-line interface: run any of the paper's experiments.

Usage::

    python -m repro <experiment> [options]

Experiments
-----------
``fig34``      Figures 3 & 4: the AppLeS and static partitions side by side.
``fig5``       Figure 5: AppLeS vs Strip vs Blocked execution times.
``fig6``       Figure 6: memory-aware scheduling with the SP-2 pair.
``react``      §2.3: single-site vs pipelined 3D-REACT + pipeline sweep.
``nile``       §2.1: the Site Manager's skim-vs-remote decision sweep.
``nws``        §3.6: forecaster-quality comparison across load families.
``info``       ABL-A2: nominal vs NWS vs oracle information.
``selection``  ABL-A3: subset selection vs use-everything vs best single.
``adaptive``   ABL-A4: one-shot vs adaptive rescheduling (extension).
``multiapp``   MULTI-A5: two applications sharing the metacomputer (extension).
``contention`` CONTEND: many agents deciding together via the scheduling
               service, each then running under the others' load (extension).
``metrics``    METRIC-A6: three user metrics, three schedules (§3.1).
``decomposition``  ABL-A7: strip vs generalised-block planning (extension).
``all``        Everything above, in order.
``serve``      Always-on sharded scheduling daemon under synthetic load
               (``--smoke`` runs the short self-checking preset).
``arena``      Scheduler arena: generate frozen instances, score the
               policy portfolio, verify emitted allocations, report
               regret vs the exhaustive oracle (``--smoke`` runs the
               short self-checking preset).
``reserve``    Request-driven reservations: submit requests, expand +
               book them on the pool timeline, repair incrementally,
               report (``--smoke`` runs the short self-checking preset).
``obs-report`` Summarise (or diff) a JSONL trace written by ``--trace``.

Every experiment accepts ``--trace PATH`` (write a ``repro.obs`` trace of
the run) and ``--quick`` (a reduced preset for smoke tests); both are
forwarded by ``all`` along with every other shared flag.  The
simulation-backed figure sweeps (``fig5``, ``fig6``) also accept
``--replicates N``: N independently-seeded replicate worlds executed in
one ensemble pass (:mod:`repro.sim.execution_ensemble`) and reported as
mean ± confidence interval per size.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import nullcontext
from typing import Any, Callable, Sequence

from repro.experiments import (
    run_adaptive_ablation,
    run_decomposition_ablation,
    run_fig5,
    run_fig5_replicated,
    run_fig6,
    run_fig6_replicated,
    run_fig34,
    run_information_ablation,
    run_metrics_comparison,
    run_multiapp,
    run_nile_skim,
    run_nws_comparison,
    run_react,
    run_selection_ablation,
    run_service_contention,
)
from repro.obs.report import read_trace, render_report, trace_diff
from repro.obs.trace import tracing

__all__ = ["main", "build_parser"]


def _sizes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"sizes must be comma-separated integers, got {text!r}"
        ) from None


def _cmd_fig34(args: argparse.Namespace) -> str:
    result = run_fig34(n=args.n, seed=args.seed)
    return result.table().render() + "\n\n" + result.ascii_partition("apples")


def _cmd_fig5(args: argparse.Namespace) -> str:
    if args.replicates > 1:
        return run_fig5_replicated(
            sizes=args.sizes, iterations=args.iterations, repeats=args.repeats,
            seed=args.seed, replicates=args.replicates,
        ).table().render()
    result = run_fig5(
        sizes=args.sizes, iterations=args.iterations, repeats=args.repeats,
        seed=args.seed, workers=args.workers,
    )
    lo, hi = result.ratio_range
    return (
        result.table().render()
        + f"\n\nbaseline/AppLeS ratio range: {lo:.2f}x – {hi:.2f}x (paper: 2x – 8x)"
    )


def _cmd_fig6(args: argparse.Namespace) -> str:
    if args.replicates > 1:
        return run_fig6_replicated(
            sizes=args.sizes, iterations=args.iterations, seed=args.seed,
            replicates=args.replicates,
        ).table().render()
    result = run_fig6(sizes=args.sizes, iterations=args.iterations, seed=args.seed,
                      workers=args.workers)
    return result.table().render()


def _cmd_react(args: argparse.Namespace) -> str:
    result = run_react(seed=args.seed)
    return (
        result.timing_table().render()
        + f"\n\nspeedup over best single site: {result.speedup:.2f}x\n\n"
        + result.sweep_table().render()
    )


def _cmd_nile(args: argparse.Namespace) -> str:
    result = run_nile_skim(nevents=args.events, seed=args.seed)
    return result.table().render()


def _cmd_nws(args: argparse.Namespace) -> str:
    result = run_nws_comparison(nsamples=args.samples, seed=args.seed,
                                workers=args.workers)
    lines = [result.table().render(), ""]
    for process in sorted(result.mse):
        lines.append(
            f"best for {process}: {result.best_for(process)} "
            f"(ensemble regret {result.ensemble_regret(process):.2f}x)"
        )
    return "\n".join(lines)


def _cmd_info(args: argparse.Namespace) -> str:
    return run_information_ablation(
        n=args.n, seed=args.seed, workers=args.workers
    ).table().render()


def _cmd_selection(args: argparse.Namespace) -> str:
    return run_selection_ablation(
        n=args.n, seed=args.seed, workers=args.workers
    ).table().render()


def _cmd_adaptive(args: argparse.Namespace) -> str:
    result = run_adaptive_ablation(n=args.n, workers=args.workers)
    return (
        result.table().render()
        + f"\n\nadaptive improvement: {result.improvement:.2f}x"
    )


def _cmd_multiapp(args: argparse.Namespace) -> str:
    result = run_multiapp(n=args.n, seed=args.seed, workers=args.workers)
    return (
        result.table().render()
        + f"\n\naware speedup over oblivious: {result.improvement:.2f}x"
    )


def _cmd_contention(args: argparse.Namespace) -> str:
    result = run_service_contention(
        napps=args.apps, n=args.n, seed=args.seed, workers=args.workers,
    )
    return (
        result.table().render()
        + f"\n\nmean actual/predicted: {result.mean_degradation:.2f}x "
        f"(service answers identical to solo agents: "
        f"{result.service_matches_solo})"
    )


def _cmd_metrics(args: argparse.Namespace) -> str:
    return run_metrics_comparison(n=args.n, seed=args.seed).table().render()


def _cmd_decomposition(args: argparse.Namespace) -> str:
    return run_decomposition_ablation(n=args.n, seed=args.seed).table().render()


# Pools the daemon can serve, by shard name.  All take a ``seed`` kwarg.
def _pools() -> dict[str, Callable[..., Any]]:
    from repro.sim import casa_testbed, nile_testbed, sdsc_pcl_testbed

    return {"sdsc": sdsc_pcl_testbed, "casa": casa_testbed, "nile": nile_testbed}


def _cmd_serve(args: argparse.Namespace) -> str:
    """Drive the always-on daemon with seeded open-loop traffic, then report.

    With ``--smoke``: a reduced preset that additionally re-derives every
    answered request's decision through a fresh one-shot
    ``SchedulingService`` and fails loudly on any mismatch — the CI
    health check for the daemon path.
    """
    from repro.nws import NetworkWeatherService
    from repro.service import SchedulingDaemon, SchedulingService, ShardSpec
    from repro.service.daemon import ANSWERED, FAILED
    from repro.service.loadgen import (
        SyntheticPopulation,
        open_loop_events,
        run_open_loop,
    )

    pools = _pools()
    names = [s for s in args.shards.split(",") if s]
    unknown = [s for s in names if s not in pools]
    if unknown:
        raise SystemExit(
            f"unknown pool(s) {unknown}; available: {sorted(pools)}"
        )
    warmup_s = 600.0
    n_requests = 24 if args.smoke else args.requests
    speed = 50.0 if args.smoke else args.speed
    specs = [
        ShardSpec(name, pools[name], seed=args.seed, warmup_s=warmup_s)
        for name in names
    ]
    population = SyntheticPopulation(
        names, seed=args.seed + 17, base_at=warmup_s,
        instant_every=0 if args.smoke else 128,
    )
    events = open_loop_events(
        population, rate_hz=args.rate, n_requests=n_requests
    )
    daemon = SchedulingDaemon(
        specs, queue_capacity=args.queue_capacity,
        workers=max(1, args.workers),
    )
    daemon.start()
    t0 = time.perf_counter()
    tickets = run_open_loop(daemon, events, speed=speed)
    daemon.drain(timeout=600.0)
    elapsed = time.perf_counter() - t0
    daemon.shutdown()

    replies = [t.result(0.0) for t in tickets]
    answered = [r for r in replies if r.status == ANSWERED]
    failed = [r for r in replies if r.status == FAILED]
    latencies = sorted(r.latency_s for r in answered)

    def pct(q: float) -> float:
        if not latencies:
            return float("nan")
        return latencies[min(len(latencies) - 1,
                             int(round(q * (len(latencies) - 1))))] * 1e3

    lines = [
        f"scheduling daemon: {len(names)} shard(s), "
        f"{n_requests} requests @ {args.rate:.0f} req/s offered "
        f"(speed {speed:g}x), workers={max(1, args.workers)}",
        f"answered {len(answered)}  shed {sum(r.status == 'shed' for r in replies)}"
        f"  rejected {sum(r.status == 'rejected' for r in replies)}"
        f"  failed {len(failed)}"
        f"  in {elapsed:.2f}s ({len(answered) / elapsed:.1f} dec/s)",
        f"latency p50 {pct(0.50):.1f} ms  p99 {pct(0.99):.1f} ms",
        "",
        f"{'shard':>8}{'answered':>10}{'shed':>6}{'batches':>9}{'max batch':>11}",
    ]
    for name, row in sorted(daemon.stats().items()):
        lines.append(
            f"{name:>8}{row['answered']:>10}{row['shed']:>6}"
            f"{row['batches']:>9}{row['max_batch']:>11}"
        )

    if failed:
        raise SystemExit("daemon reported failed batches:\n" + "\n".join(lines))
    if args.smoke:
        if not answered:
            raise SystemExit("smoke answered nothing:\n" + "\n".join(lines))
        # Re-derive every answered decision through a fresh one-shot
        # service on a private world: the daemon must be bit-identical.
        by_shard: dict[str, list] = {}
        for ticket in tickets:
            reply = ticket.result(0.0)
            if reply.status == ANSWERED:
                by_shard.setdefault(ticket.shard, []).append((ticket.request, reply))
        checked = 0
        for name, pairs in sorted(by_shard.items()):
            testbed = pools[name](seed=args.seed)
            nws = NetworkWeatherService.for_testbed(testbed, seed=args.seed + 1)
            nws.warmup(warmup_s)
            reference = SchedulingService(testbed, nws).decide(
                [request for request, _ in pairs]
            )
            for (request, reply), ref in zip(pairs, reference):
                same = (
                    reply.answer.best_objective == ref.best_objective
                    and reply.answer.predicted_time == ref.predicted_time
                    and reply.answer.machines == ref.machines
                )
                if not same:
                    raise SystemExit(
                        f"daemon answer diverged from SchedulingService on "
                        f"shard {name!r}: {request!r}"
                    )
                checked += 1
        lines.append("")
        lines.append(
            f"smoke: {checked} answers re-derived through a one-shot "
            "service — bit-identical"
        )
    return "\n".join(lines)


def _cmd_arena(args: argparse.Namespace) -> str:
    """Drive the scheduler arena: generate / score / verify / report.

    The four actions share one contract: instances and allocations live in
    plain JSONL files, and everything downstream of ``score`` is driven by
    the standalone verifier alone — ``verify`` and ``report`` work on
    files produced by processes this one has never imported.
    """
    from repro import arena

    if args.smoke:
        return _arena_smoke(args)
    if args.action is None:
        raise SystemExit(
            "arena needs an action (generate / score / verify / report) "
            "or --smoke"
        )
    classes = tuple(c for c in args.classes.split(",") if c)
    policies = tuple(p for p in args.policies.split(",") if p)

    if args.action == "generate":
        instances = []
        for klass in classes:
            kwargs = {} if args.sizes is None else {"sizes": args.sizes}
            instances.extend(
                arena.generate_instances(
                    klass, args.per_class, seed=args.seed,
                    iterations=args.iterations, **kwargs,
                )
            )
        out = args.out or "arena_instances.jsonl"
        arena.save_instances(out, instances)
        return (
            f"wrote {len(instances)} instances "
            f"({', '.join(classes)}) to {out}"
        )

    if args.instances is None:
        raise SystemExit(f"arena {args.action} requires --instances PATH")
    instances = arena.load_instances(args.instances)

    if args.action == "score":
        allocations = arena.run_policies(instances, policies)
        out = args.out or "arena_allocations.jsonl"
        arena.save_allocations(out, allocations)
        result = arena.score_allocations(instances, allocations)
        return (
            f"wrote {len(allocations)} allocations to {out}\n\n"
            + result.table()
        )

    if args.allocations is None:
        raise SystemExit(f"arena {args.action} requires --allocations PATH")
    allocations = arena.load_allocations(args.allocations)

    if args.action == "verify":
        lines = []
        rejected = 0
        for alloc in allocations:
            inst = next(
                (i for i in instances if i.instance_id == alloc.instance_id),
                None,
            )
            if inst is None:
                raise SystemExit(
                    f"allocation references unknown instance "
                    f"{alloc.instance_id!r}"
                )
            report = arena.verify_allocation(inst, alloc)
            rejected += not report.feasible
            verdict = (
                f"ok  objective={report.objective:.6f}"
                if report.feasible
                else f"REJECTED ({report.reason})"
            )
            lines.append(f"{alloc.instance_id}  {alloc.policy:<12} {verdict}")
        lines.append("")
        lines.append(
            f"{len(allocations)} allocations verified, {rejected} rejected"
        )
        return "\n".join(lines)

    # report: aggregate regret purely from the two files.
    return arena.score_allocations(instances, allocations).table()


def _arena_smoke(args: argparse.Namespace) -> str:
    """Tiny end-to-end self-check (a CI health check).

    Generates two 8-host instances, runs the full policy portfolio,
    round-trips everything through JSONL, and asserts the arena's core
    invariants: verifier/decision bit-identity, regret >= 0 everywhere,
    and exactly 0 for the exhaustive oracle.
    """
    import tempfile
    from pathlib import Path

    from repro import arena

    instances = arena.generate_instances(
        "sdsc8", 2, seed=args.seed, sizes=(400,), iterations=20
    )
    allocations = arena.run_policies(instances)

    with tempfile.TemporaryDirectory() as tmp:
        inst_path = Path(tmp) / "instances.jsonl"
        alloc_path = Path(tmp) / "allocations.jsonl"
        arena.save_instances(inst_path, instances)
        arena.save_allocations(alloc_path, allocations)
        if arena.load_instances(inst_path) != instances:
            raise SystemExit("smoke: instance JSONL round-trip diverged")
        if arena.load_allocations(alloc_path) != allocations:
            raise SystemExit("smoke: allocation JSONL round-trip diverged")

    by_id = {inst.instance_id: inst for inst in instances}
    checked = 0
    for alloc in allocations:
        report = arena.verify_allocation(by_id[alloc.instance_id], alloc)
        if alloc.policy != "static":
            if not report.feasible:
                raise SystemExit(
                    f"smoke: {alloc.policy} emitted an infeasible allocation "
                    f"({report.reason})"
                )
            if report.objective != alloc.claimed_objective:
                raise SystemExit(
                    f"smoke: verifier objective {report.objective!r} != "
                    f"decision objective {alloc.claimed_objective!r} "
                    f"for {alloc.policy} on {alloc.instance_id}"
                )
            checked += 1

    result = arena.score_allocations(instances, allocations)
    for score in result.scores:
        if any(r < 0.0 for r in score.regrets):
            raise SystemExit(f"smoke: negative regret for {score.policy}")
        if score.policy == "exhaustive" and score.regrets and (
            score.mean_regret != 0.0
        ):
            raise SystemExit("smoke: exhaustive oracle has nonzero regret")
    return (
        result.table()
        + f"\n\nsmoke: {checked} decision objectives re-derived by the "
        "standalone verifier — bit-identical; JSONL round-trips exact"
    )


def _reserve_world(pool: str, seed: int) -> dict:
    """The arena-style world spec the reservation planner rebuilds from."""
    worlds = {
        "sdsc": {"generator": "sdsc", "n_hosts": 8, "n_segments": None},
        "synth": {"generator": "synthetic", "n_hosts": 14, "n_segments": 3},
    }
    spec = worlds.get(pool)
    if spec is None:
        raise SystemExit(f"unknown pool {pool!r}; available: {sorted(worlds)}")
    return {**spec, "seed": seed, "nws_seed": seed + 1, "warmup_s": 600.0}


def _booking_table(ledger) -> str:
    header = f"{'booking':<26}{'prio':>5}{'start':>10}{'end':>10}  machines"
    lines = [header]
    for b in ledger.bookings:
        lines.append(
            f"{b.booking_id:<26}{b.priority:>5}{b.start:>10.1f}"
            f"{b.end:>10.1f}  {','.join(b.machines)}"
        )
    return "\n".join(lines)


def _cmd_reserve(args: argparse.Namespace) -> str:
    """Drive the reservation layer: submit / plan / repair / report.

    Like the arena, the four actions share one file contract — requests
    and bookings are plain JSONL — so ``repair`` and ``report`` work on
    ledgers produced by processes this one has never imported.
    """
    from repro import reserve

    if args.smoke:
        return _reserve_smoke(args)
    if args.action is None:
        raise SystemExit(
            "reserve needs an action (submit / plan / repair / report) "
            "or --smoke"
        )

    if args.action == "submit":
        requests = reserve.seeded_requests(args.count, seed=args.seed)
        out = args.out or "reserve_requests.jsonl"
        reserve.save_requests(out, requests)
        lines = [f"wrote {len(requests)} requests to {out}", ""]
        for r in requests:
            cap = "*" if r.max_machines is None else r.max_machines
            lines.append(
                f"{r.request_id}  prio={r.priority} n={r.problem.n} "
                f"x{r.repeat_count} machines {r.min_machines}..{cap} "
                f"window [{r.earliest_start:g}, {r.deadline:g})"
            )
        return "\n".join(lines)

    if args.requests is None:
        raise SystemExit(f"reserve {args.action} requires --requests PATH")
    requests = reserve.load_requests(args.requests)
    world = _reserve_world(args.pool, args.seed)

    if args.action == "plan":
        planner = reserve.ReservationPlanner(world=world, label=args.pool)
        outcome = planner.plan(requests)
        out = args.out or "reserve_bookings.jsonl"
        reserve.save_bookings(out, outcome.ledger)
        lines = [_booking_table(outcome.ledger), ""]
        for request_id, occ in outcome.rejected:
            lines.append(f"rejected {request_id}#{occ}: no feasible candidate")
        lines.append(
            f"booked {len(outcome.booked)}  rejected {len(outcome.rejected)}"
            f"  decisions {outcome.decisions}  expansions {outcome.expansions}"
        )
        lines.append(f"wrote {len(outcome.ledger)} bookings to {out}")
        return "\n".join(lines)

    if args.bookings is None:
        raise SystemExit(f"reserve {args.action} requires --bookings PATH")
    ledger = reserve.load_bookings(args.bookings)

    if args.action == "repair":
        planner = reserve.ReservationPlanner(world=world, label=args.pool)
        new = reserve.load_requests(args.new) if args.new else []
        outcome = planner.repair(
            ledger,
            new_requests=new,
            invalidate=tuple(args.invalidate),
            requests=requests,
        )
        out = args.out or "reserve_bookings.jsonl"
        reserve.save_bookings(out, ledger)
        lines = [_booking_table(ledger), ""]
        for a in outcome.actions:
            if a.booking_id:
                lines.append(
                    f"repaired {a.booking_id} -> {a.replacement_id} "
                    f"via {a.strategy}"
                )
            else:
                lines.append(
                    f"placed {a.replacement_id} for new request "
                    f"{a.request_id}#{a.occurrence}"
                )
        for request_id, occ in outcome.rejected:
            lines.append(f"rejected {request_id}#{occ}: no feasible candidate")
        lines.append(
            f"repaired {len(outcome.repaired)}  placed {len(outcome.booked)}"
            f"  untouched {len(outcome.untouched)}"
            f"  decisions {outcome.stats.decisions}"
        )
        lines.append(f"wrote {len(ledger)} bookings to {out}")
        return "\n".join(lines)

    # report: verify the ledger purely from the two files.
    problems = reserve.verify_ledger(ledger, requests)
    lines = [_booking_table(ledger), ""]
    if problems:
        lines.extend(f"PROBLEM: {p}" for p in problems)
        lines.append(f"{len(ledger)} bookings, {len(problems)} problem(s)")
    else:
        lines.append(f"{len(ledger)} bookings verified: conflict-free, "
                     "every one inside its request's windows")
    return "\n".join(lines)


def _reserve_smoke(args: argparse.Namespace) -> str:
    """Tiny end-to-end self-check (a CI health check).

    Plans the seeded workload on the 8-host SDSC world, round-trips both
    JSONL formats, verifies the ledger, then injects an urgent request and
    checks the repair contract: the repaired ledger verifies clean, every
    untouched booking is *the same object* (bit-identity for free), and
    repair spends strictly fewer decisions than a from-scratch replan.
    """
    import tempfile
    from pathlib import Path

    from repro import reserve

    world = _reserve_world("sdsc", args.seed)
    requests = reserve.seeded_requests(6, seed=2026)

    planner = reserve.ReservationPlanner(world=world, label="sdsc")
    outcome = planner.plan(requests)
    if not outcome.booked:
        raise SystemExit("smoke: plan booked nothing")
    problems = reserve.verify_ledger(outcome.ledger, requests)
    if problems:
        raise SystemExit("smoke: planned ledger rejected:\n"
                         + "\n".join(problems))

    with tempfile.TemporaryDirectory() as tmp:
        req_path = Path(tmp) / "requests.jsonl"
        book_path = Path(tmp) / "bookings.jsonl"
        reserve.save_requests(req_path, requests)
        if reserve.load_requests(req_path) != requests:
            raise SystemExit("smoke: request JSONL round-trip diverged")
        reserve.save_bookings(book_path, outcome.ledger)
        if reserve.load_bookings(book_path).bookings != outcome.ledger.bookings:
            raise SystemExit("smoke: booking JSONL round-trip diverged")

    # An urgent (stronger-priority) request spanning the booked horizon.
    first = min(b.start for b in outcome.ledger.bookings)
    last = max(b.end for b in outcome.ledger.bookings)
    urgent = reserve.ReservationRequest(
        request_id="urgent-000",
        problem=requests[0].problem,
        earliest_start=first,
        deadline=last + 1800.0,
        min_machines=2,
        priority=1,
    )
    before = {b.booking_id: b for b in outcome.ledger.bookings}
    repair = planner.repair(outcome.ledger, new_requests=[urgent])
    if not repair.booked:
        raise SystemExit("smoke: urgent request not placed by repair")
    problems = reserve.verify_ledger(outcome.ledger, requests + [urgent])
    if problems:
        raise SystemExit("smoke: repaired ledger rejected:\n"
                         + "\n".join(problems))
    for bid in repair.untouched:
        if outcome.ledger.get(bid) is not before[bid]:
            raise SystemExit(
                f"smoke: repair rebuilt untouched booking {bid!r}"
            )

    # Differential: a from-scratch replan of all 7 requests must accept
    # the same occurrence set while spending far more decisions.
    replan = reserve.ReservationPlanner(world=world, label="sdsc").plan(
        requests + [urgent]
    )
    ours = {(b.request_id, b.occurrence) for b in outcome.ledger.bookings}
    theirs = {(b.request_id, b.occurrence) for b in replan.ledger.bookings}
    if ours != theirs:
        raise SystemExit(
            f"smoke: repair booked {sorted(ours)} but a from-scratch "
            f"replan books {sorted(theirs)}"
        )
    if repair.stats.decisions >= replan.decisions:
        raise SystemExit(
            f"smoke: repair spent {repair.stats.decisions} decisions, "
            f"replan only {replan.decisions} — repair must be cheaper"
        )
    return (
        _booking_table(outcome.ledger)
        + f"\n\nsmoke: {len(outcome.booked)} bookings planned, urgent "
        f"request repaired in with {len(repair.untouched)} untouched "
        f"bookings object-identical; repair spent "
        f"{repair.stats.decisions} decisions vs {replan.decisions} for a "
        "from-scratch replan; JSONL round-trips exact"
    )


def _cmd_obs_report(args: argparse.Namespace) -> str:
    data = read_trace(args.trace)
    if args.diff is not None:
        return trace_diff(data, read_trace(args.diff),
                          label_a=str(args.trace), label_b=str(args.diff)).render()
    return render_report(data)


# Reduced presets applied by --quick.  Only flags still at their parser
# default are overridden, so explicit flags always win over the preset.
_QUICK: dict[str, dict[str, Any]] = {
    "fig34": {"n": 1000},
    "fig5": {"sizes": (1000, 1400), "iterations": 10, "repeats": 2},
    "fig6": {"sizes": (1000, 2000), "iterations": 10},
    "nile": {"events": 50_000},
    "nws": {"samples": 150},
    "info": {"n": 800},
    "selection": {"n": 800},
    "adaptive": {"n": 800},
    "multiapp": {"n": 800},
    "contention": {"n": 800, "apps": 3},
    "metrics": {"n": 800},
    "decomposition": {"n": 800},
    "arena": {"per_class": 3, "sizes": (400, 700), "iterations": 20},
}


def _apply_quick(args: argparse.Namespace, name: str,
                 defaults: argparse.Namespace) -> None:
    """Overwrite default-valued flags with the quick preset for ``name``."""
    if not getattr(args, "quick", False):
        return
    for key, value in _QUICK.get(name, {}).items():
        if getattr(args, key, None) == getattr(defaults, key, None):
            setattr(args, key, value)


_COMMANDS: dict[str, Callable[[argparse.Namespace], str]] = {
    "fig34": _cmd_fig34,
    "fig5": _cmd_fig5,
    "fig6": _cmd_fig6,
    "react": _cmd_react,
    "nile": _cmd_nile,
    "nws": _cmd_nws,
    "info": _cmd_info,
    "selection": _cmd_selection,
    "adaptive": _cmd_adaptive,
    "multiapp": _cmd_multiapp,
    "contention": _cmd_contention,
    "metrics": _cmd_metrics,
    "decomposition": _cmd_decomposition,
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the experiments of Berman & Wolski, HPDC 1996.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)

    def common(p: argparse.ArgumentParser, n_default: int | None = None) -> None:
        p.add_argument("--seed", type=int, default=1996,
                       help="testbed load seed (default 1996)")
        p.add_argument("--workers", type=int, default=1,
                       help="worker processes for trial parallelism "
                            "(1 = serial, -1 = all usable CPUs; results are "
                            "identical for any value)")
        p.add_argument("--trace", metavar="PATH", default=None,
                       help="write a repro.obs JSONL trace of the run to "
                            "PATH (results are bit-identical with tracing "
                            "on or off)")
        p.add_argument("--quick", action="store_true",
                       help="reduced preset for smoke tests (explicit "
                            "flags still win)")
        if n_default is not None:
            p.add_argument("--n", type=int, default=n_default,
                           help=f"problem edge length (default {n_default})")

    p = sub.add_parser("fig34", help="Figures 3 & 4: the two partitions")
    common(p, n_default=2000)

    def replicates_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--replicates", type=int, default=1,
                       help="independently-seeded replicate worlds executed "
                            "in one ensemble pass; >1 reports mean ± CI "
                            "per size (default 1: the point-estimate run)")

    p = sub.add_parser("fig5", help="Figure 5: execution-time comparison")
    common(p)
    replicates_flag(p)
    p.add_argument("--sizes", type=_sizes,
                   default=(1000, 1200, 1400, 1600, 1800, 2000),
                   help="comma-separated problem sizes")
    p.add_argument("--iterations", type=int, default=60)
    p.add_argument("--repeats", type=int, default=3)

    p = sub.add_parser("fig6", help="Figure 6: memory-aware scheduling")
    common(p)
    replicates_flag(p)
    p.add_argument("--sizes", type=_sizes,
                   default=(1000, 2000, 3000, 3500, 3700, 3900, 4200, 4600))
    p.add_argument("--iterations", type=int, default=30)

    p = sub.add_parser("react", help="3D-REACT timings and pipeline sweep")
    common(p)

    p = sub.add_parser("nile", help="NILE skim-vs-remote decisions")
    common(p)
    p.add_argument("--events", type=int, default=500_000)

    p = sub.add_parser("nws", help="forecaster-quality comparison")
    common(p)
    p.add_argument("--samples", type=int, default=600)

    for name, n_default, help_text in (
        ("info", 1600, "information ablation (nominal/NWS/oracle)"),
        ("selection", 1600, "resource-selection ablation"),
        ("adaptive", 1200, "adaptive rescheduling vs one-shot"),
        ("multiapp", 1600, "two applications sharing the metacomputer"),
        ("metrics", 1600, "three user metrics, three schedules"),
        ("decomposition", 1600, "strip vs generalised-block planning"),
    ):
        p = sub.add_parser(name, help=help_text)
        common(p, n_default=n_default)

    p = sub.add_parser(
        "contention",
        help="many agents deciding together via the scheduling service",
    )
    common(p, n_default=1200)
    p.add_argument("--apps", type=int, default=5,
                   help="number of applications in the batch (default 5)")

    p = sub.add_parser("all", help="run every experiment in order")
    common(p)
    replicates_flag(p)  # forwarded to the subcommands that understand it

    p = sub.add_parser(
        "serve",
        help="always-on sharded scheduling daemon under synthetic load",
    )
    common(p)
    p.add_argument("--shards", default="sdsc,casa",
                   help="comma-separated pool names to serve "
                        "(sdsc, casa, nile; default sdsc,casa)")
    p.add_argument("--requests", type=int, default=200,
                   help="open-loop requests to offer (default 200)")
    p.add_argument("--rate", type=float, default=50.0,
                   help="offered arrival rate in requests/sec (default 50)")
    p.add_argument("--speed", type=float, default=1.0,
                   help="replay compression: 10 plays the arrival plan "
                        "10x faster (default 1)")
    p.add_argument("--queue-capacity", type=int, default=256,
                   dest="queue_capacity",
                   help="per-shard admission queue bound (default 256)")
    p.add_argument("--smoke", action="store_true",
                   help="reduced self-checking run: 24 requests at 50x "
                        "speed, every answer re-derived through a "
                        "one-shot SchedulingService (CI health check)")

    p = sub.add_parser(
        "arena",
        help="scheduler arena: instance dataset, verifier, regret report",
    )
    common(p)
    p.add_argument("action", nargs="?", default=None,
                   choices=("generate", "score", "verify", "report"),
                   help="generate instances / run + score the portfolio / "
                        "verify saved allocations / report regret from "
                        "saved files")
    p.add_argument("--classes", default="sdsc8,synth14",
                   help="comma-separated instance classes (default "
                        "sdsc8,synth14)")
    p.add_argument("--per-class", type=int, default=6, dest="per_class",
                   help="instances generated per class (default 6)")
    p.add_argument("--sizes", type=_sizes, default=None,
                   help="comma-separated problem edge lengths cycled "
                        "across each class's instances")
    p.add_argument("--iterations", type=int, default=40,
                   help="Jacobi iterations per instance (default 40)")
    p.add_argument("--instances", metavar="PATH", default=None,
                   help="instance JSONL file (input to score/verify/report)")
    p.add_argument("--allocations", metavar="PATH", default=None,
                   help="allocation JSONL file (input to verify/report)")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="output path (generate: instances JSONL, "
                        "score: allocations JSONL)")
    p.add_argument("--policies",
                   default="static,greedy,exhaustive,seeded,locality",
                   help="comma-separated policy portfolio for score")
    p.add_argument("--smoke", action="store_true",
                   help="tiny self-checking end-to-end run: JSONL "
                        "round-trips exact, verifier bit-identical to "
                        "decisions, regret >= 0, oracle regret 0 "
                        "(CI health check)")

    p = sub.add_parser(
        "reserve",
        help="request-driven reservations: expand, book, repair",
    )
    common(p)
    p.add_argument("action", nargs="?", default=None,
                   choices=("submit", "plan", "repair", "report"),
                   help="write the seeded request workload / expand + book "
                        "requests on the pool timeline / patch a saved "
                        "ledger incrementally / verify saved bookings")
    p.add_argument("--pool", default="sdsc",
                   help="world to plan on (sdsc, synth; default sdsc)")
    p.add_argument("--count", type=int, default=6,
                   help="requests generated by submit (default 6)")
    p.add_argument("--requests", metavar="PATH", default=None,
                   help="request JSONL file (input to plan/repair/report)")
    p.add_argument("--bookings", metavar="PATH", default=None,
                   help="booking JSONL file (input to repair/report)")
    p.add_argument("--new", metavar="PATH", default=None,
                   help="JSONL of newly-arrived requests folded in by repair")
    p.add_argument("--invalidate", metavar="BOOKING_ID", action="append",
                   default=[],
                   help="booking id whose forecasts went stale; repaired "
                        "rather than replanned (repeatable)")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="output path (submit: requests JSONL, plan/repair: "
                        "bookings JSONL)")
    p.add_argument("--smoke", action="store_true",
                   help="tiny self-checking end-to-end run: plan the seeded "
                        "workload, repair in an urgent request, untouched "
                        "bookings object-identical, repair cheaper than "
                        "replan (CI health check)")

    p = sub.add_parser("obs-report",
                       help="summarise (or diff) a trace written by --trace")
    p.add_argument("trace", help="path to a repro.obs JSONL trace")
    p.add_argument("--diff", metavar="OTHER", default=None,
                   help="second trace: print a quantity-by-quantity diff "
                        "instead of a report")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.experiment == "obs-report":
        print(_cmd_obs_report(args))
        return 0
    trace_path = getattr(args, "trace", None)
    # One tracer for the whole invocation: `all` merges every experiment
    # into a single trace, exported when the block exits.
    with tracing(path=trace_path) if trace_path else nullcontext():
        if args.experiment == "serve":
            print(_cmd_serve(args))
            return 0
        if args.experiment == "arena":
            _apply_quick(args, "arena", parser.parse_args(["arena"]))
            print(_cmd_arena(args))
            return 0
        if args.experiment == "reserve":
            print(_cmd_reserve(args))
            return 0
        if args.experiment == "all":
            for name in _COMMANDS:
                # Forward every shared flag the subcommand understands —
                # generically, so new common() flags never need enumerating
                # here again.
                sub_args = parser.parse_args([name])
                defaults = argparse.Namespace(**vars(sub_args))
                for key, value in vars(args).items():
                    if key != "experiment" and hasattr(sub_args, key):
                        setattr(sub_args, key, value)
                _apply_quick(sub_args, name, defaults)
                print(f"\n===== {name} =====")
                print(_COMMANDS[name](sub_args))
            return 0
        _apply_quick(args, args.experiment, parser.parse_args([args.experiment]))
        print(_COMMANDS[args.experiment](args))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
