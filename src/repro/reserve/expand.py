"""Expansion: turn one reservation occurrence into a booked placement.

Request-driven scheduling's first half (Johnston et al.): *expand* each
request into concrete candidate allocations, then choose.  The expander
samples candidate start instants from the occurrence's windows and drives
the existing decision machinery — :meth:`SchedulingService.decide`, hence
the vectorised one-shot sweep of :mod:`repro.core.sweep` — once per
instant.  The ledger's busy machines over the candidate's horizon enter
the decision as the User Specification's ``excluded_machines``, so every
candidate placement is conflict-free *by construction*; no post-hoc
conflict resolution is needed on the happy path.

Each surviving candidate is frozen on the spot with
:func:`repro.arena.capture_instance` — the pool's forecast state at the
decision instant — and the standalone arena verifier immediately
re-derives the decision's objective from those arrays.  A divergence
raises instead of booking wrong: the booking's evidence is checkable by
code that imports no scheduler machinery, which is what lets repair prove
its results later.

Deciding "in the past" is exact, never approximate.  Candidate instants
move backwards between expansions, so the expander keeps one world and
rewinds its NWS (:meth:`~repro.nws.service.NetworkWeatherService.rewind_to`):
every sensor answers from its recorded forecast history exactly as a
fresh world built from the same seeds and advanced straight to the
instant would, and no sample is measured twice.  The testbed itself needs
no rewinding — its load processes are pure functions of ``(seed, time)``
(the :mod:`repro.sim.warmcache` argument).  A rewind behind the sensors'
retained history falls back to rebuilding the world from seeds, which is
also the oracle the repair tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from repro.arena.instances import ArenaInstance, build_world, capture_instance
from repro.arena.verifier import verify_allocation
from repro.core.sweep import NoFeasibleCandidate
from repro.nws.service import NetworkWeatherService
from repro.obs.trace import get_tracer
from repro.reserve.ledger import Booking, ReservationLedger
from repro.reserve.requests import ReservationRequest
from repro.service.core import SchedulingService
from repro.sim.testbeds import Testbed

__all__ = ["ExpandStats", "Expander"]


@dataclass
class ExpandStats:
    """Work counters — the repair-vs-replan currency.

    ``decisions`` counts calls into ``SchedulingService.decide`` (each one
    a full candidate-set sweep).  ``rebuilds`` counts clock rewinds: every
    candidate instant behind the world's clock.  ``restores`` counts the
    rewinds the NWS history served at the requested instant, with no
    from-seeds build; the others either rebuilt the world from seeds (the
    instant lies behind the retained history) or asked for an instant
    before the warm-up horizon, which no world can decide at.  Repair's
    whole value proposition is that its ``decisions`` stays O(affected
    bookings) while a re-plan pays O(all bookings).
    """

    expansions: int = 0
    decisions: int = 0
    captures: int = 0
    rebuilds: int = 0
    restores: int = 0
    placed: int = 0

    def snapshot(self) -> dict:
        return dict(vars(self))


@dataclass
class _Candidate:
    at: float
    duration: float
    machines: tuple[str, ...]
    points: tuple[float, ...]
    objective: float
    instance: ArenaInstance = field(repr=False)


class Expander:
    """Expand reservation occurrences over one (rebuildable) world.

    Parameters
    ----------
    world:
        An arena-style world spec dict (``generator``/seeds/warmup) —
        rebuilt via :func:`repro.arena.build_world`.  Mutually exclusive
        with ``factory``.
    factory:
        A zero-argument callable returning a fresh ``(testbed, nws)``
        pair (e.g. :meth:`repro.service.daemon.ShardSpec.build`) for
        worlds the arena generators don't describe.  Instances captured
        in factory mode carry an opaque world tag: their frozen arrays
        still verify standalone, they just cannot be re-expanded by a
        third party.
    instants_per_window:
        Candidate start instants sampled per preferred window (evenly
        spaced from the window start).
    label:
        Names captured instances (and the obs span attributes).
    """

    def __init__(
        self,
        world: dict | None = None,
        factory: Callable[[], tuple[Testbed, NetworkWeatherService]] | None = None,
        instants_per_window: int = 3,
        label: str = "reserve",
    ) -> None:
        if (world is None) == (factory is None):
            raise ValueError("pass exactly one of world= or factory=")
        if instants_per_window < 1:
            raise ValueError("instants_per_window must be >= 1")
        self.world = None if world is None else dict(world)
        self._factory = factory
        self.instants_per_window = int(instants_per_window)
        self.label = label
        self.stats = ExpandStats()
        self._testbed: Testbed | None = None
        self._nws: NetworkWeatherService | None = None
        self._service: SchedulingService | None = None
        # The NWS clock right after a build: the warm-up horizon.
        self._horizon = 0.0

    # -- world management ---------------------------------------------------
    @property
    def world_tag(self) -> dict:
        """The world dict stamped into captured instances."""
        if self.world is not None:
            return dict(self.world)
        return {"generator": f"opaque:{self.label}"}

    def _build(self) -> None:
        if self.world is not None:
            self._testbed, self._nws = build_world(self.world)
        else:
            assert self._factory is not None
            self._testbed, self._nws = self._factory()
        self._horizon = self._nws.now
        self._service = SchedulingService(self._testbed, self._nws, reuse=True)

    def _ensure(self, at: float) -> bool:
        """Make the world able to decide at ``at``; False = unreachable.

        The world is built on first use.  An instant behind the NWS clock
        rewinds it over the sensors' forecast history — the service and
        its agents stay, since a rewind makes the service's pool state
        stale — or, behind the retained history, rebuilds the world from
        seeds.  An instant before the warm-up horizon stays unreachable
        (there is no forecast state there to decide from); the clock then
        rests at the horizon.
        """
        if self._nws is None:
            self._build()
        elif at < self._nws.now:
            self.stats.rebuilds += 1
            try:
                self._nws.rewind_to(max(at, self._horizon))
            except ValueError:
                self._build()
            else:
                if at >= self._horizon:
                    self.stats.restores += 1
        assert self._nws is not None
        return at >= self._nws.now

    # -- candidate geometry -------------------------------------------------
    def candidate_instants(
        self, request: ReservationRequest, occurrence: int
    ) -> tuple[float, ...]:
        """Evenly spaced start instants across the occurrence's windows."""
        instants: set[float] = set()
        for start, end in request.occurrence_windows(occurrence):
            step = (end - start) / self.instants_per_window
            for j in range(self.instants_per_window):
                instants.add(start + j * step)
        return tuple(sorted(instants))

    # -- expansion ----------------------------------------------------------
    def expand(
        self,
        request: ReservationRequest,
        occurrence: int,
        ledger: ReservationLedger,
        max_machines: int | None = None,
        accessible: frozenset[str] | None = None,
        instants: tuple[float, ...] | None = None,
    ) -> Booking | None:
        """The best feasible placement for one occurrence, or ``None``.

        Candidates are decided in ascending-instant order (the service's
        monotone-NWS contract), each against the ledger's busy machines
        over ``[instant, occurrence deadline]``; the lowest-objective
        survivor wins (ties: earliest start).  ``max_machines`` /
        ``accessible`` / ``instants`` narrow the search for the repair
        strategies (shrink-toward-min restricts to a booking's surviving
        machines at its original instant).

        The returned booking is *not* yet in the ledger — the planner
        books it, so a caller can still reject the whole repair.
        """
        tracer = get_tracer()
        deadline = request.occurrence_interval(occurrence)[1]
        if instants is None:
            instants = self.candidate_instants(request, occurrence)
        self.stats.expansions += 1
        with tracer.span(
            "reserve.expand", layer="reserve",
            t=instants[0] if instants else None,
            request=request.request_id, occurrence=occurrence,
            instants=len(instants), label=self.label,
        ):
            if tracer.enabled:
                tracer.metrics.counter("reserve.expansions").inc()
            candidates = []
            for at in sorted(instants):
                candidate = self._try_instant(
                    request, occurrence, ledger, at, deadline,
                    max_machines, accessible,
                )
                if candidate is not None:
                    candidates.append(candidate)
            if not candidates:
                return None
            best = min(candidates, key=lambda c: (c.objective, c.at))
            self.stats.placed += 1
            if tracer.enabled:
                tracer.metrics.counter("reserve.placed").inc()
            return Booking(
                booking_id=ledger.next_booking_id(request, occurrence),
                request_id=request.request_id,
                occurrence=occurrence,
                priority=request.priority,
                start=best.at,
                end=best.at + best.duration,
                machines=best.machines,
                points=best.points,
                objective=best.objective,
                instance=best.instance,
            )

    def _try_instant(
        self,
        request: ReservationRequest,
        occurrence: int,
        ledger: ReservationLedger,
        at: float,
        deadline: float,
        max_machines: int | None,
        accessible: frozenset[str] | None,
    ) -> _Candidate | None:
        if not self._ensure(at):
            return None
        assert self._testbed is not None and self._nws is not None
        busy = ledger.busy_machines(at, deadline)
        hosts = [
            h for h in self._testbed.topology.hosts
            if h not in busy and (accessible is None or h in accessible)
        ]
        if len(hosts) < request.min_machines:
            return None
        dreq = request.decision_request(
            at, exclude=busy, accessible=accessible, max_machines=max_machines
        )
        assert self._service is not None
        self.stats.decisions += 1
        tracer = get_tracer()
        if tracer.enabled:
            tracer.metrics.counter("reserve.decisions").inc()
        try:
            answer = self._service.decide([dreq])[0]
        except NoFeasibleCandidate:
            # No candidate set, or no feasible one, under this filter — a
            # legitimately empty instant, not an error.
            return None
        duration = answer.predicted_time
        if at + duration > deadline:
            return None
        if len(answer.machines) < request.min_machines:
            return None
        instance = self._capture(request, occurrence, at)
        candidate = _Candidate(
            at=at,
            duration=duration,
            machines=tuple(a.machine for a in answer.best.allocations),
            points=tuple(float(a.work_units) for a in answer.best.allocations),
            objective=answer.best_objective,
            instance=instance,
        )
        self._cross_check(request, candidate)
        return candidate

    def _capture(
        self, request: ReservationRequest, occurrence: int, at: float
    ) -> ArenaInstance:
        """Freeze the pool's forecast state at the decision instant."""
        assert self._testbed is not None and self._nws is not None
        self.stats.captures += 1
        instance = capture_instance(
            self._testbed,
            self._nws,
            request.problem,
            self.world_tag,
            instance_id=(
                f"reserve-{self.label}-{request.request_id}"
                f"#{occurrence}@{at:g}"
            ),
            instance_class=f"reserve:{self.label}",
        )
        if not request.account_memory:
            instance = replace(
                instance, params={**instance.params, "account_memory": False}
            )
        return instance

    def _cross_check(self, request: ReservationRequest, c: _Candidate) -> None:
        """The booking's evidence must re-derive its claim, bit for bit.

        With ``account_memory`` off the reference estimator's paging model
        can legitimately diverge from the verifier (which omits paging),
        so the exact-equality check applies to the memory-accounted
        default only; feasibility must hold either way.
        """
        allocation = Booking(
            booking_id="candidate",
            request_id=request.request_id,
            occurrence=0,
            priority=request.priority,
            start=c.at,
            end=c.at + c.duration,
            machines=c.machines,
            points=c.points,
            objective=c.objective,
            instance=c.instance,
        ).allocation()
        report = verify_allocation(c.instance, allocation)
        if not report.feasible:
            raise RuntimeError(
                f"expansion produced an allocation the standalone verifier "
                f"rejects ({report.reason}) for {request.request_id!r}"
            )
        if request.account_memory and report.objective != c.objective:
            raise RuntimeError(
                f"verifier objective {report.objective!r} != decision "
                f"objective {c.objective!r} for {request.request_id!r} — "
                f"the frozen evidence would not support this booking"
            )
