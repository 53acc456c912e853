"""The always-on sharded scheduling daemon.

The batch :class:`~repro.service.core.SchedulingService` answers one
hand-assembled request list and returns; production decision traffic does
not arrive hand-assembled.  Modeled on the DSN Scheduling Engine's
"distributed system of servers", the :class:`SchedulingDaemon` is the
long-lived layer in between: callers :meth:`~SchedulingDaemon.submit`
individual :class:`~repro.service.requests.DecisionRequest`\\ s and get a
:class:`Ticket` back immediately; per-pool *shards* pull queued requests,
coalesce them into micro-batches, and answer them through one reusing
``SchedulingService`` each.

Three mechanisms carry the load story:

- **Admission control and backpressure.**  Every shard queue is bounded.
  A request that would overflow its queue is *shed* — the ticket resolves
  at once with :data:`DaemonReply.status` ``"shed"`` — rather than
  silently blocking the caller.  Requests behind the shard's simulated
  clock (the shard's shared NWS only moves forward) or submitted after
  shutdown are *rejected* with an explanatory reason.  Saturation is an
  explicit, observable answer, never a hang.

- **Adaptive micro-batching.**  Batch ≥ 32 is where the vectorised
  service core earns its ~5× decisions/sec, so the :class:`MicroBatcher`
  tries to keep batches full *without* inflating tail latency: a dispatch
  is delayed only while the observed arrival rate says the wait will
  actually buy batch-mates, and never longer than ``max_linger_s``.
  Under saturation the queue outruns the service and batches fill for
  free; at low rates the policy degenerates to dispatch-immediately.

- **Cross-request state reuse.**  Each shard's service runs with
  ``reuse=True``: the :class:`~repro.nws.snapshot.ForecastSnapshot`,
  with everything derived from it (pair tables, descriptors, candidate
  sets, batch inputs, plan continuations and whole answers), persists
  across batches *keyed by pool state*, invalidated
  through :attr:`ForecastSnapshot.stale` the moment the shard's NWS
  advances — never rebuilt per call, never served stale.

Execution modes
---------------
``start()`` spawns one worker thread per shard (always-on mode): a slow
pool's backlog cannot stall another shard.  ``pump()`` processes every
queue to empty in the calling thread, in shard-name order — the
deterministic cooperative mode used by tests and ``python -m repro serve``.
With ``workers > 1`` and :class:`ShardSpec`-built shards, micro-batches
are dispatched through the :mod:`repro.runner` process-pool machinery
(:class:`~repro.runner.ParallelRunner` tasks over a picklable
``(spec, requests)`` trampoline with a per-process shard registry), so
independent pools scale across cores exactly like experiment trials do.
A pool whose worker processes died (``BrokenProcessPool``) fails the batch
that found it and is then closed and dropped; the next pooled batch builds
a fresh one, whose workers rebuild their shards from the spec seeds.

Bit-identity contract
---------------------
The daemon adds queueing, batching and reuse — never arithmetic.  Every
answered ticket carries precisely the :class:`ServiceAnswer` a one-shot
``SchedulingService.decide()`` (and therefore a solo
``AppLeSAgent.schedule()``) would produce for the same request at the
same instant, no matter how the traffic was split into batches.
"""

from __future__ import annotations

import heapq
import threading
import time
from collections import deque
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.core.sweep import NoFeasibleCandidate
from repro.nws.service import NetworkWeatherService
from repro.obs.trace import get_tracer
from repro.runner import ParallelRunner, Task
from repro.service.core import PartialBatchError, SchedulingService
from repro.service.requests import DecisionRequest, ServiceAnswer
from repro.sim.testbeds import Testbed
from repro.util.validation import check_positive

__all__ = [
    "ANSWERED",
    "BOOKED",
    "SHED",
    "REJECTED",
    "FAILED",
    "DaemonReply",
    "Ticket",
    "MicroBatcher",
    "ShardSpec",
    "SchedulingDaemon",
]

ANSWERED = "answered"
BOOKED = "booked"
SHED = "shed"
REJECTED = "rejected"
FAILED = "failed"


@dataclass(frozen=True)
class DaemonReply:
    """The daemon's terminal word on one ticket.

    ``status`` is one of :data:`ANSWERED` (``answer`` holds the
    service's decision), :data:`BOOKED` (a reservation-lane ticket:
    ``bookings`` holds the placed :class:`~repro.reserve.ledger.Booking`
    tuple, one per occurrence), :data:`SHED` (admission control refused a
    full queue — back off and retry), :data:`REJECTED` (the request can
    never be answered: behind the shard clock, unknown shard, no feasible
    placement, daemon shutting down — ``reason`` says why), or
    :data:`FAILED` (the shard errored while answering; ``reason`` carries
    the exception text).  ``latency_s`` is wall-clock submit→resolve;
    ``batch_size`` is the micro-batch the request rode in (0 when it
    never reached one).
    """

    status: str
    answer: ServiceAnswer | None = None
    reason: str | None = None
    latency_s: float = 0.0
    batch_size: int = 0
    shard: str = ""
    bookings: tuple = ()


class Ticket:
    """A claim check for one submitted request.

    ``result(timeout)`` blocks until the shard answers (or sheds /
    rejects) and returns the :class:`DaemonReply`; ``done`` polls.
    Tickets for shed and rejected requests are resolved before
    :meth:`SchedulingDaemon.submit` returns, so a caller under
    backpressure never waits to learn it.
    """

    __slots__ = ("request", "shard", "submitted_wall", "_event", "_reply")

    def __init__(self, request: DecisionRequest, shard: str) -> None:
        self.request = request
        self.shard = shard
        self.submitted_wall = time.perf_counter()
        self._event = threading.Event()
        self._reply: DaemonReply | None = None

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> DaemonReply:
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"ticket for shard {self.shard!r} unanswered after {timeout}s"
            )
        assert self._reply is not None
        return self._reply

    def _resolve(
        self,
        status: str,
        answer: ServiceAnswer | None = None,
        reason: str | None = None,
        batch_size: int = 0,
        bookings: tuple = (),
    ) -> None:
        self._reply = DaemonReply(
            status=status,
            answer=answer,
            reason=reason,
            latency_s=time.perf_counter() - self.submitted_wall,
            batch_size=batch_size,
            shard=self.shard,
            bookings=bookings,
        )
        self._event.set()


class MicroBatcher:
    """Adaptive dispatch policy: fill batches only when waiting pays.

    Parameters
    ----------
    max_batch:
        Hard cap on requests per dispatch.
    target_batch:
        Batch size worth lingering for — the knee of the vectorised
        core's throughput curve (≥ 32 gives the ~5× regime).
    max_linger_s:
        Upper bound on how long the oldest queued request may wait for
        batch-mates.  This bounds the latency cost of batching directly.

    The policy keeps an exponentially-weighted estimate of the arrival
    gap and lingers only while ``queued < target_batch`` *and* the
    estimated time to fill the gap fits inside the remaining linger
    budget.  Under saturation (``queued ≥ target``) and under trickle
    load (arrivals too slow to fill the batch in time) it dispatches
    immediately — batching must never be the reason an idle system adds
    latency.
    """

    def __init__(
        self,
        max_batch: int = 64,
        target_batch: int = 32,
        max_linger_s: float = 0.005,
        ewma_alpha: float = 0.2,
    ) -> None:
        check_positive("max_batch", max_batch)
        check_positive("target_batch", target_batch)
        if target_batch > max_batch:
            raise ValueError(
                f"target_batch {target_batch} exceeds max_batch {max_batch}"
            )
        if max_linger_s < 0:
            raise ValueError("max_linger_s must be >= 0")
        if not (0.0 < ewma_alpha <= 1.0):
            raise ValueError("ewma_alpha must be in (0, 1]")
        self.max_batch = int(max_batch)
        self.target_batch = int(target_batch)
        self.max_linger_s = float(max_linger_s)
        self._alpha = float(ewma_alpha)
        self._last_arrival: float | None = None
        self._gap_ewma: float | None = None

    def note_arrival(self, now: float) -> None:
        """Record one arrival (wall-clock seconds) to update the rate estimate."""
        last = self._last_arrival
        self._last_arrival = now
        if last is None:
            return
        gap = max(0.0, now - last)
        if self._gap_ewma is None:
            self._gap_ewma = gap
        else:
            self._gap_ewma += self._alpha * (gap - self._gap_ewma)

    def wait_budget(self, queued: int, oldest_wait_s: float) -> float:
        """Seconds worth waiting before dispatching ``queued`` requests.

        ``<= 0`` means dispatch now.  ``oldest_wait_s`` is how long the
        head of the queue has already waited.
        """
        if queued <= 0:
            return 0.0
        if queued >= self.target_batch:
            return 0.0
        remaining = self.max_linger_s - oldest_wait_s
        if remaining <= 0.0:
            return 0.0
        gap = self._gap_ewma
        if gap is None:
            return 0.0  # no rate estimate yet: don't gamble with latency
        eta = (self.target_batch - queued) * gap
        if eta > remaining:
            return 0.0  # the batch will not fill in time; go now
        return min(eta, remaining)


@dataclass(frozen=True)
class ShardSpec:
    """A picklable recipe for one shard's world (pool + NWS).

    The process-pool execution mode ships specs — not live worlds — to
    workers, which rebuild deterministically from the seeds (the same
    argument that makes :mod:`repro.sim.warmcache` reuse safe: a world
    advanced to ``t`` is bit-identical however it got there).

    Parameters
    ----------
    name:
        Shard (pool) name; requests are routed by it.
    builder:
        Module-level testbed factory accepting a ``seed`` keyword.
    seed / nws_seed:
        Load and measurement-noise seeds (``nws_seed`` defaults to
        ``seed + 1``, the convention of every experiment driver).
    warmup_s:
        Sensor warm-up before the shard answers its first request.
    builder_kwargs:
        Extra keyword arguments for ``builder`` as a sorted item tuple
        (kept hashable so the spec can key per-process registries).
    """

    name: str
    builder: Callable[..., Testbed]
    seed: int = 1996
    nws_seed: int | None = None
    warmup_s: float = 600.0
    builder_kwargs: tuple = ()

    def build(self) -> tuple[Testbed, NetworkWeatherService]:
        """A private warmed world (never shared with other daemon instances)."""
        testbed = self.builder(seed=self.seed, **dict(self.builder_kwargs))
        nws_seed = self.seed + 1 if self.nws_seed is None else self.nws_seed
        nws = NetworkWeatherService.for_testbed(testbed, seed=nws_seed)
        if self.warmup_s > 0:
            nws.warmup(self.warmup_s)
        return testbed, nws


# Per-process shard registry for the process-pool mode: each worker
# process rebuilds a shard's world on first use and keeps its reusing
# service (and monotonically advancing NWS) alive across batches.
_PROCESS_SHARDS: dict[ShardSpec, SchedulingService] = {}


def _shard_decide(
    spec: ShardSpec, requests: list[DecisionRequest]
) -> list[ServiceAnswer]:
    """Process-pool trampoline: answer one micro-batch in a worker process.

    Deterministic regardless of which worker runs it: the world is a pure
    function of the spec's seeds, and advancing the per-process NWS to a
    batch's instants replays exactly the measurements any other replica
    would take (see :mod:`repro.sim.warmcache`).
    """
    service = _PROCESS_SHARDS.get(spec)
    if service is None:
        testbed, nws = spec.build()
        service = SchedulingService(testbed, nws, reuse=True)
        _PROCESS_SHARDS[spec] = service
    return service.decide(requests)


class _Shard:
    """One pool's queue, clock, worker state and (lazily built) service."""

    def __init__(
        self,
        name: str,
        spec: ShardSpec | None,
        world: tuple[Testbed, NetworkWeatherService] | None,
        queue_capacity: int,
    ) -> None:
        self.name = name
        self.spec = spec
        self._world = world
        self.queue_capacity = queue_capacity
        self.queue: deque[tuple[Ticket, float]] = deque()  # (ticket, enqueue wall)
        # Reservation lane: a priority heap of (priority class, admission
        # seq, ticket) — lower class numbers plan first.
        self.reservations: list[tuple[int, int, Ticket]] = []
        self.reservation_seq = 0
        self.cond = threading.Condition()
        self.clock = 0.0  # latest admitted decision instant (sim time)
        self.in_flight = 0
        self.service: SchedulingService | None = None
        self.planner = None  # lazily built ReservationPlanner
        self.ledger = None  # the shard's ReservationLedger
        self.thread: threading.Thread | None = None
        self.stats = {
            "submitted": 0, "answered": 0, "shed": 0,
            "rejected": 0, "failed": 0, "batches": 0, "max_batch": 0,
            "reservations": 0, "booked": 0, "pool_rebuilds": 0,
        }

    def ensure_service(self) -> SchedulingService:
        """The shard's in-parent reusing service (threaded / pump modes)."""
        if self.service is None:
            if self._world is None:
                assert self.spec is not None
                self._world = self.spec.build()
            testbed, nws = self._world
            self.service = SchedulingService(testbed, nws, reuse=True)
        return self.service

    def ensure_reservation_lane(self):
        """The shard's planner + ledger (lazily built, spec shards only).

        The planner expands over a *private* spec-built world — planning
        at reservation instants must never advance the decision lane's
        shared NWS clock, and the spec's seed determinism makes the
        private replica bit-identical to the decision world anyway.
        Imported lazily: :mod:`repro.reserve` sits above this module.
        """
        if self.planner is None:
            assert self.spec is not None
            from repro.reserve.ledger import ReservationLedger
            from repro.reserve.repair import ReservationPlanner

            self.planner = ReservationPlanner(
                factory=self.spec.build, label=self.name
            )
            self.ledger = ReservationLedger()
        return self.planner, self.ledger


class SchedulingDaemon:
    """Long-lived sharded front end over :class:`SchedulingService`.

    Parameters
    ----------
    shards:
        Either a sequence of :class:`ShardSpec` (required for
        ``workers > 1``) or a mapping ``{name: (testbed, nws)}`` of live
        worlds.
    queue_capacity:
        Bound on each shard's request queue; overflow is shed.
    batcher:
        The :class:`MicroBatcher` policy (a fresh default if omitted).
        Each shard gets its own policy instance with the same parameters.
    workers:
        ``1`` (default) answers batches in the shard's own thread (or the
        pumping thread).  ``> 1`` dispatches batches through a persistent
        process pool via the :mod:`repro.runner` machinery — shards must
        then be spec-built so their worlds can be rebuilt in workers.
    reservation_capacity:
        Bound on each shard's reservation lane; overflow is shed.  The
        lane admits :class:`~repro.reserve.requests.ReservationRequest`\\ s
        via :meth:`submit_reservation`, plans them in priority-class
        order against the shard's ledger (incremental repair, never a
        from-scratch re-plan), and resolves tickets with
        :data:`BOOKED`.  Decision traffic always pre-empts the lane.
    """

    def __init__(
        self,
        shards: Sequence[ShardSpec] | Mapping[str, tuple[Testbed, NetworkWeatherService]],
        queue_capacity: int = 256,
        batcher: MicroBatcher | None = None,
        workers: int = 1,
        reservation_capacity: int = 64,
    ) -> None:
        check_positive("queue_capacity", queue_capacity)
        check_positive("reservation_capacity", reservation_capacity)
        self.reservation_capacity = int(reservation_capacity)
        proto = batcher if batcher is not None else MicroBatcher()
        self._batcher_args = (
            proto.max_batch, proto.target_batch, proto.max_linger_s, proto._alpha
        )
        self.shards: dict[str, _Shard] = {}
        if isinstance(shards, Mapping):
            for name, (testbed, nws) in shards.items():
                self.shards[name] = _Shard(name, None, (testbed, nws), queue_capacity)
        else:
            for spec in shards:
                if spec.name in self.shards:
                    raise ValueError(f"duplicate shard name {spec.name!r}")
                self.shards[spec.name] = _Shard(spec.name, spec, None, queue_capacity)
        if not self.shards:
            raise ValueError("a daemon needs at least one shard")
        self.workers = max(1, int(workers))
        if self.workers > 1 and any(s.spec is None for s in self.shards.values()):
            raise ValueError(
                "workers > 1 needs ShardSpec-built shards (live worlds "
                "cannot be shipped to worker processes)"
            )
        self._batchers = {
            name: MicroBatcher(*self._batcher_args) for name in self.shards
        }
        self._runner: ParallelRunner | None = None  # persistent, created lazily
        self._runner_lock = threading.Lock()
        self._started = False
        self._draining = False
        self._stopped = False
        self._lock = threading.Lock()

    # -- admission ---------------------------------------------------------
    def submit(self, shard: str, request: DecisionRequest) -> Ticket:
        """Queue one request; returns a ticket (possibly already resolved).

        Shed and rejection decisions are taken here, synchronously — the
        caller learns about backpressure immediately instead of waiting on
        a queue that cannot help.
        """
        try:
            sh = self.shards[shard]
        except KeyError:
            raise KeyError(
                f"unknown shard {shard!r} (have: {sorted(self.shards)})"
            ) from None
        ticket = Ticket(request, shard)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.metrics.counter("daemon.submitted").inc()
        with sh.cond:
            if self._stopped or self._draining:
                sh.stats["rejected"] += 1
                ticket._resolve(REJECTED, reason="shutdown")
            elif request.at < sh.clock:
                # The shared NWS is monotone; a decision instant behind the
                # shard clock could never be answered, so say so now.
                sh.stats["rejected"] += 1
                ticket._resolve(
                    REJECTED,
                    reason=f"stale-instant: at={request.at} < clock={sh.clock}",
                )
            elif len(sh.queue) >= sh.queue_capacity:
                sh.stats["shed"] += 1
                ticket._resolve(SHED, reason="queue-full")
            else:
                now = time.perf_counter()
                sh.clock = max(sh.clock, request.at)
                sh.stats["submitted"] += 1
                self._batchers[shard].note_arrival(now)
                sh.queue.append((ticket, now))
                sh.cond.notify_all()
        if tracer.enabled:
            reply = ticket._reply
            if reply is not None:
                tracer.metrics.counter(f"daemon.{reply.status}").inc()
            tracer.metrics.gauge(f"daemon.queue_depth.{shard}").set(len(sh.queue))
        return ticket

    def submit_many(
        self, shard: str, requests: Iterable[DecisionRequest]
    ) -> list[Ticket]:
        """Submit several requests to one shard, preserving order."""
        return [self.submit(shard, r) for r in requests]

    def submit_reservation(self, shard: str, request) -> Ticket:
        """Queue one :class:`ReservationRequest` on the shard's lane.

        Admission mirrors :meth:`submit`: shutdown rejects, a full lane
        sheds, both synchronously.  There is no stale-instant rejection —
        the lane plans over a private world it can rebuild at any
        instant, so the decision clock does not constrain reservations.
        Requires a :class:`ShardSpec`-built shard (``ValueError``
        otherwise: a live borrowed world cannot be rebuilt privately).
        """
        try:
            sh = self.shards[shard]
        except KeyError:
            raise KeyError(
                f"unknown shard {shard!r} (have: {sorted(self.shards)})"
            ) from None
        if sh.spec is None:
            raise ValueError(
                f"shard {shard!r} holds a live world; the reservation lane "
                f"needs ShardSpec-built shards (their worlds rebuild from "
                f"seeds for conflict-free planning)"
            )
        ticket = Ticket(request, shard)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.metrics.counter("daemon.reservations").inc()
        with sh.cond:
            if self._stopped or self._draining:
                sh.stats["rejected"] += 1
                ticket._resolve(REJECTED, reason="shutdown")
            elif len(sh.reservations) >= self.reservation_capacity:
                sh.stats["shed"] += 1
                ticket._resolve(SHED, reason="reservation-lane-full")
            else:
                sh.reservation_seq += 1
                sh.stats["reservations"] += 1
                heapq.heappush(
                    sh.reservations,
                    (request.priority, sh.reservation_seq, ticket),
                )
                sh.cond.notify_all()
        if tracer.enabled:
            reply = ticket._reply
            if reply is not None:
                tracer.metrics.counter(f"daemon.{reply.status}").inc()
            tracer.metrics.gauge(f"daemon.reservation_depth.{shard}").set(
                len(sh.reservations)
            )
        return ticket

    # -- always-on mode ----------------------------------------------------
    def start(self) -> None:
        """Spawn one worker thread per shard (idempotent)."""
        with self._lock:
            if self._stopped:
                raise RuntimeError("daemon already shut down")
            if self._started:
                return
            self._started = True
            if self.workers > 1:
                self._ensure_runner()
            for sh in self.shards.values():
                sh.thread = threading.Thread(
                    target=self._worker, args=(sh,),
                    name=f"shard-{sh.name}", daemon=True,
                )
                sh.thread.start()

    def shutdown(self, drain: bool = True, timeout: float | None = 30.0) -> None:
        """Stop the daemon.

        ``drain=True`` answers everything already queued first;
        ``drain=False`` rejects queued tickets with reason ``"shutdown"``.
        Either way, later submits are rejected.  Idempotent.
        """
        with self._lock:
            if self._stopped:
                return
            self._draining = drain
            self._stopped = True
        for sh in self.shards.values():
            with sh.cond:
                if not drain:
                    while sh.queue:
                        ticket, _ = sh.queue.popleft()
                        sh.stats["rejected"] += 1
                        ticket._resolve(REJECTED, reason="shutdown")
                    while sh.reservations:
                        _, _, ticket = heapq.heappop(sh.reservations)
                        sh.stats["rejected"] += 1
                        ticket._resolve(REJECTED, reason="shutdown")
                sh.cond.notify_all()
        if self._started:
            for sh in self.shards.values():
                if sh.thread is not None:
                    sh.thread.join(timeout)
        elif drain:
            self._pump_all()  # cooperative daemon: drain in this thread
        if self._runner is not None:
            self._runner.close()
            self._runner = None

    def drain(self, timeout: float | None = 30.0) -> None:
        """Block until every queue is empty and no batch is in flight."""
        if not self._started:
            self._pump_all()
            return
        deadline = None if timeout is None else time.perf_counter() + timeout
        for sh in self.shards.values():
            with sh.cond:
                while sh.queue or sh.reservations or sh.in_flight:
                    remaining = (
                        None if deadline is None
                        else deadline - time.perf_counter()
                    )
                    if remaining is not None and remaining <= 0:
                        raise TimeoutError(
                            f"shard {sh.name!r} still busy after {timeout}s"
                        )
                    sh.cond.wait(timeout=remaining)

    # -- cooperative mode --------------------------------------------------
    def pump(self) -> int:
        """Answer everything queued, in the calling thread; returns count.

        Shards are processed in name order and each queue drained to
        empty — the deterministic mode for tests and one-shot drivers.
        With ``workers > 1`` the per-shard batches still run through the
        process pool (one :class:`~repro.runner.Task` per micro-batch).
        """
        if self._started:
            raise RuntimeError("pump() is for daemons without start()ed workers")
        return self._pump_all()

    def _pump_all(self) -> int:
        answered = 0
        for name in sorted(self.shards):
            sh = self.shards[name]
            while True:
                batch = self._take_now(sh)
                if not batch:
                    break
                self._process(sh, batch)
                answered += len(batch)
            while True:
                ticket = self._take_reservation(sh)
                if ticket is None:
                    break
                self._process_reservation(sh, ticket)
                answered += 1
        return answered

    # -- internals ---------------------------------------------------------
    def _ensure_runner(self) -> ParallelRunner:
        """The persistent process-pool runner for ``workers > 1`` dispatch."""
        with self._runner_lock:
            if self._runner is None:
                self._runner = ParallelRunner(workers=self.workers, persistent=True)
            return self._runner

    def _drop_runner(self, runner: ParallelRunner, sh: _Shard) -> None:
        """Close a runner whose pool broke so the next batch builds afresh.

        Only the runner that failed is dropped: when several shards hit
        the same dead pool, the first one closes it and the others find a
        different (or no) runner in place.
        """
        with self._runner_lock:
            if self._runner is not runner:
                return
            self._runner = None
        runner.close()
        with sh.cond:
            sh.stats["pool_rebuilds"] += 1

    def _take_now(self, sh: _Shard) -> list[tuple[Ticket, float]]:
        """Pop up to ``max_batch`` queued entries without lingering."""
        with sh.cond:
            if not sh.queue:
                return []
            take = min(len(sh.queue), self._batchers[sh.name].max_batch)
            batch = [sh.queue.popleft() for _ in range(take)]
            sh.in_flight += len(batch)
            return batch

    def _take_reservation(self, sh: _Shard) -> Ticket | None:
        """Pop the strongest queued reservation, if any."""
        with sh.cond:
            if not sh.reservations:
                return None
            _, _, ticket = heapq.heappop(sh.reservations)
            sh.in_flight += 1
            return ticket

    def _take(self, sh: _Shard) -> tuple[str, Any] | None:
        """Worker-thread blocking take, honouring the micro-batch policy.

        Returns ``("batch", tickets)`` for decision work,
        ``("reservation", ticket)`` when only the reservation lane has
        work (decision traffic always pre-empts the lane), or ``None``
        when the daemon stopped and this shard's work is done.
        """
        batcher = self._batchers[sh.name]
        with sh.cond:
            while True:
                if sh.queue:
                    if self._stopped:
                        wait = 0.0  # draining: no linger, just finish
                    else:
                        oldest = time.perf_counter() - sh.queue[0][1]
                        wait = batcher.wait_budget(len(sh.queue), oldest)
                    if wait <= 0.0 or len(sh.queue) >= batcher.max_batch:
                        take = min(len(sh.queue), batcher.max_batch)
                        batch = [sh.queue.popleft() for _ in range(take)]
                        sh.in_flight += len(batch)
                        return ("batch", batch)
                    sh.cond.wait(timeout=wait)
                elif sh.reservations:
                    _, _, ticket = heapq.heappop(sh.reservations)
                    sh.in_flight += 1
                    return ("reservation", ticket)
                elif self._stopped:
                    return None
                else:
                    sh.cond.wait(timeout=0.1)

    def _worker(self, sh: _Shard) -> None:
        while True:
            work = self._take(sh)
            if work is None:
                return
            kind, payload = work
            if kind == "batch":
                self._process(sh, payload)
            else:
                self._process_reservation(sh, payload)

    def _process(self, sh: _Shard, batch: list[tuple[Ticket, float]]) -> None:
        """Answer one micro-batch and resolve its tickets."""
        tickets = [t for t, _ in batch]
        requests = [t.request for t in tickets]
        size = len(requests)
        tracer = get_tracer()
        runner = None
        try:
            pooled = self.workers > 1 and sh.spec is not None
            with tracer.span(
                "daemon.batch", layer="daemon",
                t=min(r.at for r in requests),
                shard=sh.name, requests=size,
                mode="pool" if pooled else "inline",
            ):
                if tracer.enabled:
                    tracer.metrics.counter("daemon.batches").inc()
                    tracer.metrics.histogram("daemon.batch_size").observe(size)
                if pooled:
                    runner = self._ensure_runner()
                    answers = runner.submit(
                        Task(
                            _shard_decide,
                            {"spec": sh.spec, "requests": requests},
                            key=(sh.name,),
                        )
                    ).result()
                else:
                    answers = sh.ensure_service().decide(requests)
        except PartialBatchError as exc:
            answers = exc.outcomes
        except Exception as exc:  # resolve, never hang the callers
            if isinstance(exc, BrokenProcessPool) and runner is not None:
                self._drop_runner(runner, sh)
            answers = [exc] * size
        # Each ticket resolves from its own request's outcome.
        answered = 0
        with sh.cond:
            sh.in_flight -= size
            for ticket, outcome in zip(tickets, answers):
                if not isinstance(outcome, Exception):
                    answered += 1
                    ticket._resolve(ANSWERED, answer=outcome, batch_size=size)
                else:  # no feasible placement is the request's own answer
                    ticket._resolve(
                        REJECTED if isinstance(outcome, NoFeasibleCandidate) else FAILED,
                        reason=f"{type(outcome).__name__}: {outcome}",
                    )
                sh.stats[ticket._reply.status] += 1
            if answered:
                sh.stats["batches"] += 1
                sh.stats["max_batch"] = max(sh.stats["max_batch"], size)
            sh.cond.notify_all()
        if tracer.enabled:
            for ticket in tickets:
                reply = ticket._reply
                if reply is not None:
                    tracer.metrics.counter(f"daemon.{reply.status}").inc()
                    tracer.metrics.histogram("daemon.latency_s").observe(
                        reply.latency_s
                    )
            tracer.metrics.gauge(f"daemon.queue_depth.{sh.name}").set(
                len(sh.queue)
            )

    def _process_reservation(self, sh: _Shard, ticket: Ticket) -> None:
        """Plan one reservation through the shard's repair engine.

        One request per pass: each arrival is an incremental
        ``repair(new_requests=[...])`` against the shard ledger, so
        earlier bookings are never re-planned — at most shifted, shrunk
        or bumped, exactly as the repair ladder allows.
        """
        request = ticket.request
        tracer = get_tracer()
        try:
            planner, ledger = sh.ensure_reservation_lane()
            with tracer.span(
                "daemon.reservation", layer="daemon",
                t=getattr(request, "earliest_start", None),
                shard=sh.name, request=request.request_id,
            ):
                outcome = planner.repair(ledger, new_requests=[request])
            booked = tuple(ledger.get(bid) for bid in outcome.booked)
        except Exception as exc:  # resolve, never hang the caller
            with sh.cond:
                sh.stats["failed"] += 1
                sh.in_flight -= 1
                ticket._resolve(FAILED, reason=f"{type(exc).__name__}: {exc}")
                sh.cond.notify_all()
            if tracer.enabled:
                tracer.metrics.counter("daemon.failed").inc()
            return
        with sh.cond:
            sh.in_flight -= 1
            if booked:
                sh.stats["booked"] += 1
                partial = len(booked) < request.repeat_count
                ticket._resolve(
                    BOOKED,
                    bookings=booked,
                    reason=(
                        f"partial: {len(booked)}/{request.repeat_count}"
                        if partial else None
                    ),
                )
            else:
                sh.stats["rejected"] += 1
                ticket._resolve(REJECTED, reason="no-feasible-candidate")
            sh.cond.notify_all()
        if tracer.enabled:
            reply = ticket._reply
            if reply is not None:
                tracer.metrics.counter(f"daemon.{reply.status}").inc()
                tracer.metrics.histogram("daemon.latency_s").observe(
                    reply.latency_s
                )
            tracer.metrics.gauge(f"daemon.reservation_depth.{sh.name}").set(
                len(sh.reservations)
            )

    # -- introspection -----------------------------------------------------
    def stats(self) -> dict[str, dict[str, Any]]:
        """Per-shard admission/answer counters (a snapshot copy)."""
        out = {}
        for name, sh in self.shards.items():
            with sh.cond:
                row = dict(sh.stats)
                row["queue_depth"] = len(sh.queue)
                row["reservation_depth"] = len(sh.reservations)
                row["clock"] = sh.clock
            out[name] = row
        return out

    def __enter__(self) -> "SchedulingDaemon":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown(drain=exc == (None, None, None))
