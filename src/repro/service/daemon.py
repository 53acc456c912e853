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
Both lanes and both modes walk a ticket through one lifecycle: one
admission (:meth:`~SchedulingDaemon.submit` and
:meth:`~SchedulingDaemon.submit_reservation`), one take — a micro-batch
of decisions, which always pre-empt the reservation lane, else one
reservation — and one settle that resolves each taken ticket and
accounts for it.  ``start()`` serves each shard from its own worker
thread (always-on mode), lingering as the :class:`MicroBatcher` says: a
slow pool's backlog cannot stall another shard.  ``pump()`` serves every
shard to empty in the calling thread, in shard-name order, never
lingering — the deterministic cooperative mode used by tests and
one-shot drivers.  Shards are :class:`ShardSpec` recipes, so with
``workers > 1`` micro-batches are dispatched through the
:mod:`repro.runner` process-pool machinery
(:class:`~repro.runner.ParallelRunner` tasks over a picklable
``(spec, requests)`` trampoline with a per-process shard registry), and
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
from typing import Any, Callable, Iterable, Sequence

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

# Weight of the newest arrival gap in the MicroBatcher's rate estimate.
_EWMA_ALPHA = 0.2


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

    def _resolve(self, status: str, **fields: Any) -> None:
        """Resolve with ``status`` and the given :class:`DaemonReply` fields."""
        self._reply = DaemonReply(
            status=status,
            latency_s=time.perf_counter() - self.submitted_wall,
            shard=self.shard,
            **fields,
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
    ) -> None:
        check_positive("max_batch", max_batch)
        check_positive("target_batch", target_batch)
        if target_batch > max_batch:
            raise ValueError(
                f"target_batch {target_batch} exceeds max_batch {max_batch}"
            )
        if max_linger_s < 0:
            raise ValueError("max_linger_s must be >= 0")
        self.max_batch = int(max_batch)
        self.target_batch = int(target_batch)
        self.max_linger_s = float(max_linger_s)
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
            self._gap_ewma += _EWMA_ALPHA * (gap - self._gap_ewma)

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

    Every daemon shard is one: the shard builds its world from the spec
    on first use, its reservation lane plans over a private replica, and
    the process-pool execution mode ships the spec — not a live world —
    to workers.  Each rebuilds deterministically from the seeds (the same
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


@dataclass(frozen=True)
class _Lane:
    """The names that tell a shard's two queues apart."""

    admitted: str  # stats key and ``daemon.<admitted>`` counter
    full: str  # the reason a full lane sheds with
    depth: str  # stats key and ``daemon.<depth>.<shard>`` gauge


_DECISIONS = _Lane("submitted", "queue-full", "queue_depth")
_RESERVATIONS = _Lane("reservations", "reservation-lane-full", "reservation_depth")


class _Shard:
    """One pool's lanes, clock, worker state and (lazily built) service."""

    def __init__(self, spec: ShardSpec, batcher: MicroBatcher) -> None:
        self.name = spec.name
        self.spec = spec
        self.batcher = batcher
        self.queue: deque[tuple[Ticket, float]] = deque()  # (ticket, enqueue wall)
        # Reservation lane: a priority heap of (priority class, admission
        # seq, ticket) — lower class numbers plan first.
        self.reservations: list[tuple[int, int, Ticket]] = []
        self.reservation_seq = 0
        self.cond = threading.Condition()
        self.clock = 0.0  # latest admitted decision instant (sim time)
        self.in_flight = 0
        self._world: tuple[Testbed, NetworkWeatherService] | None = None
        self.service: SchedulingService | None = None
        self.planner = None  # lazily built ReservationPlanner
        self.ledger = None  # the shard's ReservationLedger
        self.thread: threading.Thread | None = None
        self.stats = {
            "submitted": 0, "answered": 0, "shed": 0,
            "rejected": 0, "failed": 0, "batches": 0, "max_batch": 0,
            "reservations": 0, "booked": 0, "pool_rebuilds": 0,
        }

    def entries(self, lane: _Lane) -> deque | list:
        """The queued entries of one lane."""
        return self.queue if lane is _DECISIONS else self.reservations

    def ensure_service(self) -> SchedulingService:
        """The shard's in-parent reusing service, over the spec's world
        (built once and kept, so a dropped service is rebuilt over it)."""
        if self.service is None:
            if self._world is None:
                self._world = self.spec.build()
            self.service = SchedulingService(*self._world, reuse=True)
        return self.service

    def ensure_reservation_lane(self):
        """The shard's planner + ledger (lazily built).

        The planner expands over a *private* spec-built world — planning
        at reservation instants must never advance the decision lane's
        shared NWS clock, and the spec's seed determinism makes the
        private replica bit-identical to the decision world anyway.
        Imported lazily: :mod:`repro.reserve` sits above this module.
        """
        if self.planner is None:
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
        One :class:`ShardSpec` per pool (anything else raises
        ``TypeError``).  A shard builds its world from its spec on first
        use and keeps it.
    queue_capacity:
        Bound on each shard's decision queue; overflow is shed.
    batcher:
        The :class:`MicroBatcher` policy (a fresh default if omitted).
        Each shard gets its own policy instance with the same parameters.
    workers:
        ``1`` (default) answers batches in the thread serving the shard
        (its worker thread, or the pumping thread).  ``> 1`` dispatches
        batches through a persistent process pool via the
        :mod:`repro.runner` machinery, whose workers rebuild each
        shard's world from its spec.
    reservation_capacity:
        Bound on each shard's reservation lane; overflow is shed.  The
        lane admits :class:`~repro.reserve.requests.ReservationRequest`\\ s
        via :meth:`submit_reservation`, plans them in priority-class
        order against the shard's ledger (incremental repair, never a
        from-scratch re-plan), and resolves tickets with
        :data:`BOOKED`.  Decision traffic always pre-empts the lane.

    Both lanes, threaded and cooperative, walk a ticket through one path:
    :meth:`_admit` queues it or refuses it at once, :meth:`_take` hands
    the shard's next work to the thread serving it, and :meth:`_settle`
    resolves what was taken and accounts for it.
    """

    def __init__(
        self,
        shards: Sequence[ShardSpec],
        queue_capacity: int = 256,
        batcher: MicroBatcher | None = None,
        workers: int = 1,
        reservation_capacity: int = 64,
    ) -> None:
        check_positive("queue_capacity", queue_capacity)
        check_positive("reservation_capacity", reservation_capacity)
        self.queue_capacity = int(queue_capacity)
        self.reservation_capacity = int(reservation_capacity)
        proto = batcher if batcher is not None else MicroBatcher()
        limits = (proto.max_batch, proto.target_batch, proto.max_linger_s)
        self.shards: dict[str, _Shard] = {}
        for spec in shards:
            if not isinstance(spec, ShardSpec):
                raise TypeError(f"a shard is a ShardSpec, not a {type(spec).__name__}")
            if spec.name in self.shards:
                raise ValueError(f"duplicate shard name {spec.name!r}")
            self.shards[spec.name] = _Shard(spec, MicroBatcher(*limits))
        if not self.shards:
            raise ValueError("a daemon needs at least one shard")
        self.workers = max(1, int(workers))
        self._runner: ParallelRunner | None = None  # persistent, created lazily
        self._runner_lock = threading.Lock()
        self._started = False
        self._stopped = False
        self._lock = threading.Lock()

    # -- admission ---------------------------------------------------------
    def submit(self, shard: str, request: DecisionRequest) -> Ticket:
        """Queue one decision request; returns its ticket (see :meth:`_admit`)."""
        return self._admit(shard, request, _DECISIONS, DecisionRequest)

    def submit_many(
        self, shard: str, requests: Iterable[DecisionRequest]
    ) -> list[Ticket]:
        """Submit several requests to one shard, preserving order."""
        return [self.submit(shard, r) for r in requests]

    def submit_reservation(self, shard: str, request) -> Ticket:
        """Queue one :class:`ReservationRequest` on the shard's lane.

        Admission is :meth:`submit`'s without the stale-instant check —
        the lane plans over a private world it can rebuild at any
        instant, so the decision clock does not constrain reservations.
        """
        # Imported here: repro.reserve imports this package.
        from repro.reserve.requests import ReservationRequest

        return self._admit(shard, request, _RESERVATIONS, ReservationRequest)

    def _admit(self, shard: str, request, lane: _Lane, kind: type) -> Ticket:
        """Queue ``request`` on one lane of ``shard``, or refuse it at once.

        The checks run in order — the request's type (``TypeError``),
        shutdown, then the lane's own: a decision instant behind the
        shard clock, a full lane — and the shard changes only after all
        of them.  Shed and rejection are decided here, synchronously: the
        caller learns about backpressure immediately instead of waiting
        on a queue that cannot help.
        """
        try:
            sh = self.shards[shard]
        except KeyError:
            raise KeyError(
                f"unknown shard {shard!r} (have: {sorted(self.shards)})"
            ) from None
        if not isinstance(request, kind):
            raise TypeError(f"expected a {kind.__name__}, got a {type(request).__name__}")
        decision = lane is _DECISIONS
        capacity = self.queue_capacity if decision else self.reservation_capacity
        entries = sh.entries(lane)
        ticket = Ticket(request, shard)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.metrics.counter(f"daemon.{lane.admitted}").inc()
        with sh.cond:
            if self._stopped:
                status, reason = REJECTED, "shutdown"
            elif decision and request.at < sh.clock:
                # The shared NWS is monotone; a decision instant behind the
                # shard clock could never be answered, so say so now.
                status = REJECTED
                reason = f"stale-instant: at={request.at} < clock={sh.clock}"
            elif len(entries) >= capacity:
                status, reason = SHED, lane.full
            else:
                status = None
                sh.stats[lane.admitted] += 1
                if decision:
                    now = time.perf_counter()
                    sh.clock = max(sh.clock, request.at)
                    sh.batcher.note_arrival(now)
                    entries.append((ticket, now))
                else:
                    sh.reservation_seq += 1
                    heapq.heappush(
                        entries, (request.priority, sh.reservation_seq, ticket)
                    )
                sh.cond.notify_all()
            if status is not None:
                sh.stats[status] += 1
                ticket._resolve(status, reason=reason)
            depth = len(entries)
        if tracer.enabled:
            if status is not None:
                tracer.metrics.counter(f"daemon.{status}").inc()
            tracer.metrics.gauge(f"daemon.{lane.depth}.{shard}").set(depth)
        return ticket

    # -- execution modes ---------------------------------------------------
    def start(self) -> None:
        """Serve each shard from its own worker thread (idempotent)."""
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
                    target=self._serve, args=(sh, True),
                    name=f"shard-{sh.name}", daemon=True,
                )
                sh.thread.start()

    def pump(self) -> int:
        """Answer everything queued, in the calling thread; returns count.

        Shards are served in name order, each to empty and without
        lingering — the deterministic mode for tests and one-shot
        drivers.  With ``workers > 1`` the per-shard batches still run
        through the process pool (one :class:`~repro.runner.Task` per
        micro-batch).
        """
        if self._started:
            raise RuntimeError("pump() is for daemons without start()ed workers")
        return sum(
            self._serve(self.shards[name], block=False)
            for name in sorted(self.shards)
        )

    def drain(self, timeout: float | None = 30.0) -> None:
        """Block until every queue is empty and no batch is in flight
        (a daemon never started is pumped in the calling thread)."""
        if not self._started:
            self.pump()
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

    def shutdown(self, drain: bool = True, timeout: float | None = 30.0) -> None:
        """Stop the daemon.

        ``drain=True`` answers everything already queued first;
        ``drain=False`` rejects (counts and traces) queued tickets with reason
        ``"shutdown"``.  Either way, later submits are rejected.  Idempotent.
        """
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
        for sh in self.shards.values():
            with sh.cond:
                if not drain:
                    queued = ((_DECISIONS, [t for t, _ in sh.queue]),
                              (_RESERVATIONS, [t for *_, t in sh.reservations]))
                    sh.queue.clear()
                    sh.reservations.clear()
                    shut = (REJECTED, {"reason": "shutdown"})
                    for lane, refused in queued:
                        if refused:  # never taken, so not in flight
                            self._resolve(sh, lane, refused, [shut] * len(refused))
                sh.cond.notify_all()
        if self._started:
            for sh in self.shards.values():
                if sh.thread is not None:
                    sh.thread.join(timeout)
        elif drain:
            self.pump()  # cooperative daemon: drain in this thread
        if self._runner is not None:
            self._runner.close()
            self._runner = None

    # -- the ticket lifecycle ----------------------------------------------
    def _serve(self, sh: _Shard, block: bool) -> int:
        """Take, work and settle the shard's tickets until :meth:`_take`
        has nothing more; returns how many were settled.  A shard's
        worker thread serves blocking, :meth:`pump` without blocking."""
        served = 0
        while (work := self._take(sh, block)) is not None:
            lane, tickets = work
            outcomes = (self._decide(sh, tickets) if lane is _DECISIONS
                        else [self._book(sh, tickets[0])])
            self._settle(sh, lane, tickets, outcomes)
            served += len(tickets)
        return served

    def _take(self, sh: _Shard, block: bool) -> tuple[_Lane, list[Ticket]] | None:
        """The shard's next work, in flight until :meth:`_settle`: up to
        ``max_batch`` decisions, else one reservation (decisions always
        pre-empt the lane), or ``None`` when there is no more.

        A blocking take (the worker thread) lingers as the shard's
        :class:`MicroBatcher` says and waits for work until the daemon
        stops; a non-blocking one (``pump()``) does neither.
        """
        with sh.cond:
            while True:
                if sh.queue:
                    wait = 0.0
                    if block and not self._stopped:
                        oldest = time.perf_counter() - sh.queue[0][1]
                        wait = sh.batcher.wait_budget(len(sh.queue), oldest)
                    if wait <= 0.0:
                        take = min(len(sh.queue), sh.batcher.max_batch)
                        work = _DECISIONS, [sh.queue.popleft()[0] for _ in range(take)]
                        break
                    sh.cond.wait(timeout=wait)
                elif sh.reservations:
                    work = _RESERVATIONS, [heapq.heappop(sh.reservations)[2]]
                    break
                elif not block or self._stopped:
                    return None
                else:
                    sh.cond.wait(timeout=0.1)
            sh.in_flight += len(work[1])
            return work

    def _decide(self, sh: _Shard, tickets: list[Ticket]) -> list[tuple[str, dict]]:
        """Answer one micro-batch: each ticket's status and reply fields.

        Each ticket resolves from its own request's outcome — no feasible
        placement is REJECTED, any other error FAILED — and carries the
        size of the batch it rode in.
        """
        requests = [t.request for t in tickets]
        size = len(requests)
        tracer = get_tracer()
        runner = None
        try:
            with tracer.span(
                "daemon.batch", layer="daemon",
                t=min(r.at for r in requests),
                shard=sh.name, requests=size,
                mode="pool" if self.workers > 1 else "inline",
            ):
                if tracer.enabled:
                    tracer.metrics.counter("daemon.batches").inc()
                    tracer.metrics.histogram("daemon.batch_size").observe(size)
                if self.workers > 1:
                    runner = self._ensure_runner()
                    task = Task(_shard_decide, {"spec": sh.spec, "requests": requests},
                                key=(sh.name,))
                    answers = runner.submit(task).result()
                else:
                    answers = sh.ensure_service().decide(requests)
        except PartialBatchError as exc:
            answers = exc.outcomes
        except Exception as exc:  # resolve, never hang the callers
            if isinstance(exc, BrokenProcessPool) and runner is not None:
                self._drop_runner(runner, sh)
            answers = [exc] * size
        return [
            (ANSWERED, {"answer": a, "batch_size": size}) if not isinstance(a, Exception)
            else (REJECTED if isinstance(a, NoFeasibleCandidate) else FAILED,
                  {"reason": f"{type(a).__name__}: {a}", "batch_size": size})
            for a in answers
        ]

    def _book(self, sh: _Shard, ticket: Ticket) -> tuple[str, dict]:
        """Book one reservation through the shard's repair engine.

        One request per pass: each arrival is an incremental
        ``repair(new_requests=[...])`` against the shard ledger, so
        earlier bookings are never re-planned — at most shifted, shrunk
        or bumped, exactly as the repair ladder allows.
        """
        request = ticket.request
        try:
            planner, ledger = sh.ensure_reservation_lane()
            with get_tracer().span(
                "daemon.reservation", layer="daemon",
                t=request.earliest_start,
                shard=sh.name, request=request.request_id,
            ):
                outcome = planner.repair(ledger, new_requests=[request])
            booked = tuple(ledger.get(bid) for bid in outcome.booked)
        except Exception as exc:  # resolve, never hang the caller
            return FAILED, {"reason": f"{type(exc).__name__}: {exc}"}
        if not booked:
            return REJECTED, {"reason": "no-feasible-candidate"}
        partial = len(booked) < request.repeat_count
        reason = f"partial: {len(booked)}/{request.repeat_count}" if partial else None
        return BOOKED, {"bookings": booked, "reason": reason}

    def _settle(self, sh: _Shard, lane: _Lane, tickets: list[Ticket],
                outcomes: list[tuple[str, dict]]) -> None:
        """Resolve taken tickets from their outcomes and account for them."""
        with sh.cond:
            sh.in_flight -= len(tickets)
            if any(status == ANSWERED for status, _ in outcomes):
                sh.stats["batches"] += 1
                sh.stats["max_batch"] = max(sh.stats["max_batch"], len(tickets))
            self._resolve(sh, lane, tickets, outcomes)

    def _resolve(self, sh: _Shard, lane: _Lane, tickets: list[Ticket], outcomes: list) -> None:
        """Resolve, count and trace one lane's tickets, and trace its depth,
        all under ``sh.cond`` (re-entrant): no waiter sees a ticket gone
        from its lane but unresolved."""
        tracer = get_tracer()
        with sh.cond:
            for ticket, (status, fields) in zip(tickets, outcomes):
                ticket._resolve(status, **fields)
                sh.stats[status] += 1
                if tracer.enabled:
                    tracer.metrics.counter(f"daemon.{status}").inc()
                    tracer.metrics.histogram("daemon.latency_s").observe(ticket._reply.latency_s)
            sh.cond.notify_all()
            if tracer.enabled:
                depth = len(sh.entries(lane))
                tracer.metrics.gauge(f"daemon.{lane.depth}.{sh.name}").set(depth)

    # -- process pool ------------------------------------------------------
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

    # -- introspection -----------------------------------------------------
    def stats(self) -> dict[str, dict[str, Any]]:
        """Per-shard admission/answer counters (a snapshot copy)."""
        out = {}
        for name, sh in self.shards.items():
            with sh.cond:
                out[name] = dict(sh.stats, queue_depth=len(sh.queue),
                                 reservation_depth=len(sh.reservations), clock=sh.clock)
        return out

    def __enter__(self) -> "SchedulingDaemon":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown(drain=exc == (None, None, None))
