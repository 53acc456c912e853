"""The four benchmark workloads.

Each workload is built from ``--seed`` alone and exposes

- ``setup()`` — world build, NWS warm-up and the first untimed call
  (the runner times several of these for ``setup_s``);
- ``measure(seconds)`` — a :class:`Phase` of timed operations lasting at
  least ``seconds`` and at least the fixed prefix the answer digest
  covers, with every output check applied as it goes;
- ``end_to_end(phase)`` — the contract metrics plus the workload's own
  names for them.

Output checks run untraced (:func:`quiet`) so they never appear in the
per-layer numbers, except ``verify_ledger``, which the per-layer report
names as a layer of its own.  Every timed operation runs inside a
``bench.<op>`` span, which is a no-op unless the runner installed a
tracer.
"""

from __future__ import annotations

import contextlib
import gc
import time
from dataclasses import dataclass, field
from typing import Any, Iterator

import repro.jacobi.apples as apples
import repro.reserve.ledger as ledger_mod
from repro.arena.instances import ArenaAllocation, capture_instance
from repro.arena.verifier import verify_allocation
from repro.core.selector import ResourceSelector
from repro.core.userspec import UserSpecification
from repro.jacobi.grid import JacobiProblem
from repro.nws.service import NetworkWeatherService
from repro.obs.trace import get_tracer, set_tracer
from repro.reserve import ReservationPlanner, ReservationRequest, seeded_requests
from repro.service import SchedulingDaemon, SchedulingService, ShardSpec
from repro.service.daemon import ANSWERED, MicroBatcher
from repro.service.loadgen import SyntheticPopulation, open_loop_events
from repro.service.requests import DecisionRequest
from repro.sim.execution import simulate_iterations
from repro.sim.execution_ensemble import replicated, run_ensemble
from repro.sim.testbeds import nile_testbed, synthetic_metacomputer
from repro.util.rng import spawn_rng

from calibrate import Calibrator
from harness import fail, median, percentile
from openloop import drive


@contextlib.contextmanager
def quiet() -> Iterator[None]:
    """Run a block with tracing off (output checks are not measured)."""
    previous = get_tracer()
    set_tracer(None)
    try:
        yield
    finally:
        set_tracer(previous)


def op_span(name: str, **attrs: Any):
    """The span around one timed benchmark operation."""
    return get_tracer().span("bench." + name, layer="bench", **attrs)


@dataclass
class Phase:
    """What one measurement phase produced.

    ``samples`` holds ``(perf_counter at the end, wall seconds)`` per
    operation, by kind; ``answers`` the canonical answers of the fixed
    digest prefix; ``ops`` the operations every per-layer count is divided
    by; ``calibrator`` the host-speed kernel times taken between them.
    """

    samples: dict[str, list[tuple[float, float]]]
    answers: list
    ops: int
    attempted: int
    failed: int
    calibrator: Calibrator
    extra: dict = field(default_factory=dict)

    def seconds(self, kind: str) -> list[float]:
        """The wall times of one kind of operation."""
        return [dt for _, dt in self.samples[kind]]


def timed(samples: list, start: float) -> None:
    """Append ``(now, now - start)`` to ``samples``."""
    now = time.perf_counter()
    samples.append((now, now - start))


def settle(cal: Calibrator) -> None:
    """Between operations: collect garbage, then time the host.

    Each operation starts from a collected heap, so neither its time nor
    the run's peak memory depends on when an earlier operation's cyclic
    garbage happened to be collected.
    """
    gc.collect()
    cal.tick()


def latency_metrics(samples: list[float], throughput: tuple, **named: tuple) -> dict:
    """The contract metrics of one phase, plus the workload's own names.

    ``samples`` are the wall times (s) of the operation a caller waits
    on; ``throughput`` is ``(value, unit, samples)`` of the work done per
    second at saturation.
    """
    n = len(samples)
    named["latency_mean_ms"] = (sum(samples) / n * 1e3, "ms", n)
    return {
        "latency_p50_ms": (percentile(samples, 50) * 1e3, "ms", n),
        "latency_p95_ms": (percentile(samples, 95) * 1e3, "ms", n),
        "throughput_per_s": throughput,
        "named": named,
    }


def _allocations(schedule) -> list:
    return [[a.machine, float(a.work_units)] for a in schedule.allocations]


def _pruning(stats) -> list:
    return [stats.candidates, stats.planned, stats.pruned, stats.bounded]


def answer_signature(answer) -> list:
    """A service answer's observable outcome, floats exact."""
    return [answer.at, answer.best_objective, answer.predicted_time,
            _allocations(answer.best), _pruning(answer.pruning)]


# -- daemon_open ---------------------------------------------------------------
class BalancedPopulation(SyntheticPopulation):
    """A :class:`SyntheticPopulation` whose request mix is exact per block.

    The parent draws each request's configuration independently, so the
    share of expensive decisions drifts with the seed by more than the
    benchmark's noise bound.  Here request ``k`` takes configuration
    ``perm[k % B]`` of the full grid (machine cap x size x iterations x
    memory policy, ``B`` of them), with ``perm`` a seeded permutation
    drawn per block ``k // B``: every block of ``B`` consecutive requests
    holds each configuration once, in a seed-dependent order.  Instants
    advance as in the parent.

    Every configuration caps its machine count (793, 298 or 78 candidate
    sets on nile's 12 hosts): an unrestricted 4,095-set sweep costs ten
    times a capped one, and a few of them queued together would decide
    the open loop's tail on their own.  ``solo_exhaustive`` measures the
    full sweep.
    """

    MAX_MACHINES = (4, 3, 2)

    def grid(self) -> list[tuple]:
        return [(cap, n, iterations, memory)
                for cap in self.MAX_MACHINES for n in self.sizes
                for iterations in self.iterations for memory in (True, False)]

    def request(self, k: int) -> tuple[str, DecisionRequest]:
        grid = self.grid()
        block, pos = divmod(k, len(grid))
        perm = spawn_rng(self.seed, f"block:{block}").permutation(len(grid))
        cap, n, iterations, memory = grid[int(perm[pos])]
        at = self.base_at
        if self.instant_every > 0:
            at += self.step_s * (k // self.instant_every)
        spec = UserSpecification(max_machines=cap)
        request = DecisionRequest(
            problem=JacobiProblem(n=n, iterations=iterations),
            userspec=spec, account_memory=memory, at=at,
        )
        return self.shards[k % len(self.shards)], request


class DaemonOpen:
    """Open-loop Poisson arrivals into a started daemon, then one caller's
    round trips through it, then burst drains.

    The open loop shows queue wait, micro-batching and reuse under load,
    but its latencies swing with how the host schedules two threads and
    the generator, by more than the benchmark's bound: they are recorded
    (``open_latency_*``), and the bounded latency is the round trip,
    submit to answer for one caller at a time.  Both hand work between
    threads, so the host's thread wake-ups are part of them, which the
    calibration kernel does not measure: they are reported raw
    (:attr:`RAW`).
    """

    RAW = ("latency", "trip")

    name = "daemon_open"
    #: Offered load, a constant picked once: about 15% of the ~200
    #: decisions/s the seed commit drains bursts at on a 2-core machine.
    #: At 70% the round trips measured after the open loop spread by more
    #: than the benchmark's bound between runs.
    RATE_HZ = 30.0
    SHARD = "nile"
    #: 18 configurations (iterations fixed) and 1.5 grid blocks per
    #: instant: about a third of requests find their configuration already
    #: answered at the current pool state, and the pool state moves every
    #: ~0.9 s, so each run sees a dozen post-advance miss storms.
    SIZES = (600, 700, 800)
    ITERATIONS = (50,)
    INSTANT_EVERY = 27
    BURST = 108  # four instants
    OPEN_SHARE = 0.45  # of the phase's seconds spent in the open loop
    TRIP_SHARE = 0.2  # ... in round trips; bursts take the rest
    DIGEST_REQUESTS = 64
    SAMPLE_EVERY = 8
    TIMEOUT_S = 60.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.population = BalancedPopulation(
            [self.SHARD], seed=seed, base_at=600.0, step_s=30.0,
            instant_every=self.INSTANT_EVERY, sizes=self.SIZES,
            iterations=self.ITERATIONS,
        )
        # id(request) -> request index, for the ids carried on spans.
        self.request_ids: dict[int, int] = {}

    def spec(self) -> ShardSpec:
        return ShardSpec(self.SHARD, nile_testbed, seed=7, warmup_s=600.0)

    def setup(self) -> None:
        testbed, nws = self.spec().build()
        SchedulingService(testbed, nws, reuse=True).decide(
            [self.population.request(0)[1]]
        )

    def _daemon(self) -> SchedulingDaemon:
        daemon = SchedulingDaemon(
            [self.spec()], queue_capacity=4096,
            batcher=MicroBatcher(max_batch=64, target_batch=32), workers=1,
        )
        daemon.shards[self.SHARD].ensure_service()  # world build is set-up
        return daemon

    def annotate(self) -> dict:
        """Span attributes carrying request ids (``--trace 1``)."""

        def decide(args, kwargs):
            ids = self.request_ids
            requests = args[1] if len(args) > 1 else kwargs["requests"]
            return {"request_ids": [ids[id(r)] for r in requests if id(r) in ids]}

        def submit(args, kwargs):
            request = args[2] if len(args) > 2 else kwargs["request"]
            return {"request_id": self.request_ids.get(id(request), -1)}

        return {"service.decide": decide, "daemon.submit": submit}

    def measure(self, seconds: float) -> Phase:
        begin = time.perf_counter()
        n = max(self.DIGEST_REQUESTS, round(self.RATE_HZ * seconds * self.OPEN_SHARE))
        events = open_loop_events(self.population, self.RATE_HZ, n, seed=self.seed)
        self.request_ids = {id(e.request): k for k, e in enumerate(events)}
        # During the open loop the kernel runs only while the daemon idles:
        # it must not contend for the interpreter with the shard thread.
        cal = Calibrator()
        cal.sample(5)
        gc.collect()
        daemon = self._daemon()
        daemon.start()
        tracer = get_tracer()
        origin = time.perf_counter()
        tracer.event("bench.origin", layer="bench")
        try:
            sent = drive(daemon, events, origin + 0.01, self.TIMEOUT_S, cal.tick)
        finally:
            daemon.shutdown()
        cal.sample(5)
        replies = [s.ticket.result(0.0) for s in sent]
        ok = [s for s, r in zip(sent, replies) if r.status == ANSWERED]
        open_answers = {s.index: r.answer for s, r in zip(sent, replies)
                        if r.status == ANSWERED}

        trips, trip_answers = [], {}
        daemon = self._daemon()
        daemon.start()
        try:
            end = time.perf_counter() + seconds * self.TRIP_SHARE
            k = 0
            while k < self.DIGEST_REQUESTS or time.perf_counter() < end:
                request = self.population.request(k)[1]
                cal.tick()
                t0 = time.perf_counter()
                reply = daemon.submit(self.SHARD, request).result(self.TIMEOUT_S)
                timed(trips, t0)
                trip_answers[k] = (answer_signature(reply.answer)
                                   if reply.status == ANSWERED else reply.status)
                k += 1
        finally:
            daemon.shutdown()
        trip_failed = sum(not isinstance(a, list) for a in trip_answers.values())

        drains, burst_failed, bursts = [], 0, 0
        first_burst = None
        while bursts == 0 or time.perf_counter() - begin < seconds:
            requests = [self.population.request(k)[1] for k in range(self.BURST)]
            daemon = self._daemon()
            gc.collect()
            with op_span("burst", requests=self.BURST):
                t0 = time.perf_counter()
                tickets = daemon.submit_many(self.SHARD, requests)
                daemon.pump()
                timed(drains, t0)
            daemon.shutdown()
            cal.sample(3)
            replies = [t.result(0.0) for t in tickets]
            bursts += 1
            burst_failed += sum(r.status != ANSWERED for r in replies)
            signatures = [answer_signature(r.answer) if r.status == ANSWERED
                          else r.status for r in replies]
            if first_burst is None:
                first_burst = signatures
            elif signatures != first_burst:
                fail(f"{self.name}: burst {bursts} answered differently from burst 1")

        with quiet():
            self._check(events, open_answers, first_burst, trip_answers)
        digest_items = [
            answer_signature(open_answers[k]) if k in open_answers else "missing"
            for k in range(self.DIGEST_REQUESTS)
        ] + first_burst
        return Phase(
            samples={
                "latency": [(s.due + s.latency_s(0.0), s.latency_s(0.0)) for s in ok],
                "trip": trips,
                "drain": drains,
            },
            answers=digest_items,
            ops=len(sent) + len(trips) + bursts * self.BURST,
            attempted=len(sent) + len(trips) + bursts * self.BURST,
            failed=(len(sent) - len(ok)) + trip_failed + burst_failed,
            calibrator=cal,
            extra={
                "late_s": [s.late_s for s in sent],
                "origin": origin,
                # (request id, due, resolved) in perf_counter seconds.
                "requests": [
                    (s.index, s.due, s.due + s.latency_s(0.0)) for s in ok
                ],
            },
        )

    def _check(self, events, open_answers, first_burst, trip_answers) -> None:
        """A sample of answers must equal a fresh one-shot service's, and
        every phase must answer a request alike."""
        sample = [k for k in range(0, len(events), self.SAMPLE_EVERY)
                  if k in open_answers]
        testbed, nws = self.spec().build()
        fresh = SchedulingService(testbed, nws).decide(
            [events[k].request for k in sample]
        )
        for k, answer in zip(sample, fresh):
            if answer_signature(answer) != answer_signature(open_answers[k]):
                fail(f"{self.name}: request {k} differs from a fresh decide()")
        for phase, answers in (("burst", enumerate(first_burst)),
                               ("round-trip", trip_answers.items())):
            for k, signature in answers:
                if k in open_answers and signature != answer_signature(open_answers[k]):
                    fail(f"{self.name}: {phase} answer {k} differs from the open loop's")

    def end_to_end(self, phase: Phase) -> dict:
        drains = phase.seconds("drain")
        capacity = (self.BURST / median(drains), "1/s", len(drains))
        open_loop = phase.seconds("latency")
        n = len(open_loop)
        return latency_metrics(
            phase.seconds("trip"), capacity, capacity_dps=capacity,
            open_latency_p50_ms=(percentile(open_loop, 50) * 1e3, "ms", n),
            open_latency_p95_ms=(percentile(open_loop, 95) * 1e3, "ms", n),
        )


# -- solo_exhaustive -----------------------------------------------------------
class SoloExhaustive:
    """Closed loop, one caller: fresh exhaustive decisions on synth14."""

    name = "solo_exhaustive"
    WORLD = {"generator": "synthetic", "n_hosts": 14, "n_segments": 3,
             "seed": 1996, "nws_seed": 1997, "warmup_s": 600.0}
    STEP_S = 60.0
    DIGEST_DECISIONS = 4

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.offset = float(spawn_rng(seed, "solo-offset").uniform(0.0, self.STEP_S))
        hosts = self.WORLD["n_hosts"]
        self.selector = ResourceSelector(
            exhaustive_limit=hosts, max_sets=2**hosts - 1, regime="exhaustive"
        )

    def problem(self, j: int) -> JacobiProblem:
        rng = spawn_rng(self.seed, f"solo:{j}")
        return JacobiProblem(n=int(rng.choice((800, 1000, 1200))),
                             iterations=int(rng.choice((40, 50, 60))))

    def _world(self):
        w = self.WORLD
        testbed = synthetic_metacomputer(w["n_hosts"], w["n_segments"], seed=w["seed"])
        nws = NetworkWeatherService.for_testbed(testbed, seed=w["nws_seed"])
        nws.warmup(w["warmup_s"])
        return testbed, nws

    def _advance(self, nws, j: int) -> None:
        """Move the world to decision ``j``'s instant (not part of the decision)."""
        nws.advance_to(self.WORLD["warmup_s"] + self.offset + self.STEP_S * j)

    def _decide(self, testbed, nws, j: int):
        # Called through the module so a traced run's rebinding applies.
        agent = apples.make_jacobi_agent(
            testbed, self.problem(j), nws=nws, selector=self.selector
        )
        return agent.schedule()

    def setup(self) -> None:
        testbed, nws = self._world()
        self._advance(nws, 0)
        self._decide(testbed, nws, 0)

    def measure(self, seconds: float) -> Phase:
        testbed, nws = self._world()
        times, answers = [], []
        cal = Calibrator()
        begin = time.perf_counter()
        j = 0
        while j < self.DIGEST_DECISIONS or time.perf_counter() - begin < seconds:
            self._advance(nws, j)
            with op_span("decision", index=j):
                t0 = time.perf_counter()
                decision = self._decide(testbed, nws, j)
                timed(times, t0)
            with quiet():
                self._check(testbed, nws, j, decision)
            if j < self.DIGEST_DECISIONS:
                answers.append([decision.best_objective, decision.best.predicted_time,
                                _allocations(decision.best), _pruning(decision.pruning)])
            j += 1
            del decision
            settle(cal)
        return Phase(samples={"decision": times}, answers=answers,
                     ops=j, attempted=j, failed=0, calibrator=cal)

    def _check(self, testbed, nws, j: int, decision) -> None:
        """The arena verifier must re-score the answer exactly."""
        problem = self.problem(j)
        instance = capture_instance(
            testbed, nws, problem, self.WORLD,
            instance_id=f"solo-{self.seed}-{j}", instance_class="perfbench:solo",
        )
        best = decision.best
        report = verify_allocation(instance, ArenaAllocation(
            instance_id=instance.instance_id, policy="apples",
            machines=tuple(a.machine for a in best.allocations),
            points=tuple(float(a.work_units) for a in best.allocations),
            claimed_objective=decision.best_objective,
        ))
        if not report.feasible:
            fail(f"{self.name}: decision {j} infeasible: {report.reason}")
        if report.objective != decision.best_objective:
            fail(f"{self.name}: decision {j} verifier objective "
                 f"{report.objective!r} != {decision.best_objective!r}")

    def end_to_end(self, phase: Phase) -> dict:
        times = phase.seconds("decision")
        rate = (len(times) / sum(times), "1/s", len(times))
        return latency_metrics(times, rate, decisions_per_s=rate)


# -- reserve_repair ------------------------------------------------------------
class ReserveRepair:
    """Closed loop, one caller: book from scratch, perturb, repair."""

    name = "reserve_repair"
    N_REQUESTS = 8
    N_URGENT = 2
    INVALIDATE_EVERY = 8
    #: Perturb-and-repair rounds per booked ledger: more repair samples
    #: per from-scratch plan.
    ROUNDS = 3

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.world = {"generator": "sdsc", "n_hosts": 8, "n_segments": None,
                      "seed": 1996, "nws_seed": 1997, "warmup_s": 600.0}
        self.requests = seeded_requests(self.N_REQUESTS, seed=seed)

    def setup(self) -> None:
        planner = ReservationPlanner(world=self.world, label="setup")
        planner.expander.expand(self.requests[0], 0, ledger_mod.ReservationLedger())

    def _urgent(self, ledger, round_: int) -> list[ReservationRequest]:
        """Tight-window arrivals spread over the booked horizon."""
        lo = min(b.start for b in ledger.bookings)
        hi = max(b.end for b in ledger.bookings)
        span = max(hi - lo, 1.0)
        starts = [lo + (j + round_ / self.ROUNDS) * span / self.N_URGENT
                  for j in range(self.N_URGENT)]
        return [
            ReservationRequest(
                request_id=f"urgent-s{self.seed}-r{round_}-{j}",
                problem=JacobiProblem(n=500, iterations=30),
                earliest_start=start,
                deadline=start + 2400.0,
                min_machines=2,
                priority=1,
            )
            for j, start in enumerate(starts)
        ]

    def _cycle(self, plan_s: list, repair_s: list, totals: dict, cal: Calibrator) -> list:
        """Book from scratch, then ``ROUNDS`` perturb-and-repair rounds."""
        planner = ReservationPlanner(world=self.world, label="bench")
        with op_span("plan", requests=len(self.requests)):
            t0 = time.perf_counter()
            plan = planner.plan(list(self.requests))
            timed(plan_s, t0)
        cal.sample(3)
        ledger = plan.ledger
        requests = list(self.requests)
        self._verify(ledger, requests, "planned")
        answers = [[_booking(b) for b in ledger.bookings]]
        for round_ in range(self.ROUNDS):
            urgent = self._urgent(ledger, round_)
            requests += urgent
            before = {b.booking_id: b for b in ledger.bookings}
            invalidate = tuple(before)[round_::self.INVALIDATE_EVERY]
            with op_span("repair", bookings=len(before)):
                t0 = time.perf_counter()
                outcome = planner.repair(ledger, new_requests=urgent, invalidate=invalidate)
                timed(repair_s, t0)
            cal.sample(3)
            self._verify(ledger, requests, "repaired")
            for bid in outcome.untouched:
                if ledger.get(bid) is not before[bid]:
                    fail(f"{self.name}: repair rebuilt untouched booking {bid!r}")
            totals["bookings"] = totals.get("bookings", 0) + len(before)
            totals["untouched"] = totals.get("untouched", 0) + len(outcome.untouched)
            answers.append([[_booking(b) for b in ledger.bookings],
                            sorted(outcome.rejected)])
        stats = planner.expander.stats
        for key in ("restores", "rebuilds", "decisions", "placed"):
            totals[key] = totals.get(key, 0) + getattr(stats, key)
        return answers

    def _verify(self, ledger, requests, which: str) -> None:
        # Called through the module so a traced run's rebinding applies.
        problems = ledger_mod.verify_ledger(ledger, requests)
        if problems:
            fail(f"{self.name}: {which} ledger rejected: {problems[:3]}")

    def measure(self, seconds: float) -> Phase:
        plan_s, repair_s, totals = [], [], {}
        cal = Calibrator()
        begin = time.perf_counter()
        first = None
        cycles = 0
        while cycles == 0 or time.perf_counter() - begin < seconds:
            answers = self._cycle(plan_s, repair_s, totals, cal)
            cycles += 1
            if first is None:
                first = answers
            elif answers != first:
                fail(f"{self.name}: cycle {cycles} booked differently from cycle 1")
            settle(cal)
        return Phase(
            samples={"plan": plan_s, "repair": repair_s},
            answers=first, ops=cycles,
            attempted=cycles * (len(self.requests) + self.ROUNDS * self.N_URGENT),
            failed=0, calibrator=cal, extra=totals,
        )

    def end_to_end(self, phase: Phase) -> dict:
        plan, repair = phase.seconds("plan"), phase.seconds("repair")
        return latency_metrics(
            repair, (len(self.requests) / median(plan), "1/s", len(plan)),
            plan_s=(median(plan), "s", len(plan)),
            repair_s=(median(repair), "s", len(repair)),
        )


def _booking(b) -> list:
    return [b.booking_id, b.request_id, b.occurrence, b.start, b.end,
            list(b.machines), list(b.points), b.objective]


# -- sim_ensemble --------------------------------------------------------------
class SimEnsemble:
    """64 ring-grain replicas: one batched ensemble, then one run per replica."""

    name = "sim_ensemble"
    N_REPLICAS = 64
    N_HOSTS = 8
    ITERATIONS = 100

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def specs(self):
        # Fresh worlds each time: lazily built load tables are part of
        # the work a new ensemble pays for.
        return replicated(self.N_REPLICAS, n_hosts=self.N_HOSTS, seed=self.seed)

    def setup(self) -> None:
        run_ensemble(self.specs(), self.ITERATIONS)

    def measure(self, seconds: float) -> Phase:
        batch_s, single_s = [], []
        cal = Calibrator()
        begin = time.perf_counter()
        first = None
        cycles = 0
        while cycles == 0 or time.perf_counter() - begin < seconds:
            specs = self.specs()
            with op_span("ensemble", replicas=len(specs)):
                t0 = time.perf_counter()
                batched = run_ensemble(specs, self.ITERATIONS)
                timed(batch_s, t0)
            singles = []
            for spec in self.specs():
                with op_span("single"):
                    t0 = time.perf_counter()
                    singles.append(simulate_iterations(
                        spec.topology, spec.assignments, self.ITERATIONS, spec.t0
                    ))
                    timed(single_s, t0)
                cal.tick()
            answers = [_result(r) for r in batched]
            if [_result(r) for r in singles] != answers:
                fail(f"{self.name}: single runs differ from the ensemble batch")
            cycles += 1
            if first is None:
                first = answers
            elif answers != first:
                fail(f"{self.name}: cycle {cycles} differs from cycle 1")
            del batched, singles
            settle(cal)
        return Phase(
            samples={"batch": batch_s, "single": single_s},
            answers=first, ops=cycles,
            attempted=cycles * 2 * self.N_REPLICAS, failed=0,
            calibrator=cal,
        )

    def end_to_end(self, phase: Phase) -> dict:
        batch, single = phase.seconds("batch"), phase.seconds("single")
        replicas = (self.N_REPLICAS * self.ITERATIONS / median(batch), "1/s", len(batch))
        return latency_metrics(
            single, replicas, replica_iters_per_s=replicas,
            single_iters_per_s=(self.ITERATIONS / median(single), "1/s", len(single)),
        )


def _result(r) -> list:
    return [r.total_time, list(r.iteration_times), sorted(r.host_busy_time.items())]


WORKLOADS = {w.name: w for w in (DaemonOpen, SoloExhaustive, ReserveRepair, SimEnsemble)}
