"""Reservation requests: the DSN-style ask, strictly richer than a decision.

A :class:`~repro.service.requests.DecisionRequest` asks "what is the best
allocation for me, *right now*".  A :class:`ReservationRequest` asks the
request-driven question of Johnston et al.'s Deep Space Network scheduler:
"give me a feasible timed allocation *somewhere* inside my constraints" —
an earliest start, a deadline, optional preferred windows, a repetition
pattern (``repeat_count`` occurrences, one per ``repeat_period_s``),
minimum/maximum machine counts, and a priority class.  The expansion
engine (:mod:`repro.reserve.expand`) turns each occurrence into candidate
:class:`DecisionRequest`\\ s at concrete instants, so everything below the
reservation layer stays the paper's machinery.

Serialisation follows the :mod:`repro.sim.trace_io` /
:mod:`repro.arena.instances` idiom: deliberately plain JSON, one
self-describing object per line, explicit ``ValueError`` on anything
malformed, and bit-identical round-trips (floats survive via Python's
shortest-repr JSON round-trip).
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field

from repro.core.userspec import UserSpecification
from repro.jacobi.grid import JacobiProblem
from repro.service.requests import DecisionRequest
from repro.util.validation import check_finite

__all__ = [
    "REQUEST_SCHEMA",
    "ReservationRequest",
    "save_requests",
    "load_requests",
    "seeded_requests",
]

REQUEST_SCHEMA = "repro.reserve.request/v1"

#: Lowest-numbered class is most important (class 1 outranks class 2).
DEFAULT_PRIORITY = 2


@dataclass(frozen=True)
class ReservationRequest:
    """One user's reservation ask over the shared pool timeline.

    Parameters
    ----------
    request_id:
        Caller-chosen identity; bookings and repair reports refer to it.
    problem:
        The Jacobi2D instance to reserve time for (its prediction sets the
        booking's duration).
    earliest_start / deadline:
        The outermost feasible interval of occurrence 0; the booking must
        start at or after ``earliest_start`` and *finish* by ``deadline``.
    preferred_windows:
        Optional ``(start, end)`` sub-windows of the outer interval the
        expansion engine restricts candidate start instants to (empty =
        the whole interval is acceptable).
    repeat_count / repeat_period_s:
        DSN-style repetition: occurrence ``k`` of ``repeat_count`` shifts
        every window by ``k * repeat_period_s``.
    min_machines / max_machines:
        Bounds on the machines a booking may hold.  ``max_machines`` is
        enforced by the User Specification filter inside the decision;
        ``min_machines`` rejects candidate placements that came back too
        small.  ``None`` max means unbounded.
    priority:
        Priority class; **lower numbers outrank higher ones**.  Repair may
        bump a strictly lower-priority booking to place a higher one.
    account_memory:
        Forwarded to the decision (the paper's memory-aware default).
    """

    request_id: str
    problem: JacobiProblem
    earliest_start: float
    deadline: float
    preferred_windows: tuple[tuple[float, float], ...] = ()
    repeat_count: int = 1
    repeat_period_s: float = 0.0
    min_machines: int = 1
    max_machines: int | None = None
    priority: int = DEFAULT_PRIORITY
    account_memory: bool = True

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Structural sanity; every violation is a ``ValueError``."""
        if not self.request_id:
            raise ValueError("request_id must be non-empty")
        # Non-finite instants would reach the NWS clock (which refuses
        # them) or make an endless candidate geometry; reject them here.
        check_finite("earliest_start", self.earliest_start)
        check_finite("deadline", self.deadline)
        check_finite("repeat_period_s", self.repeat_period_s)
        for start, end in self.preferred_windows:
            check_finite("preferred window start", start)
            check_finite("preferred window end", end)
        if self.earliest_start < 0.0:
            raise ValueError("earliest_start must be >= 0")
        if self.deadline <= self.earliest_start:
            raise ValueError(
                f"deadline {self.deadline} must exceed earliest_start "
                f"{self.earliest_start}"
            )
        for start, end in self.preferred_windows:
            if not (self.earliest_start <= start < end <= self.deadline):
                raise ValueError(
                    f"preferred window ({start}, {end}) outside "
                    f"[{self.earliest_start}, {self.deadline}]"
                )
        if self.repeat_count < 1:
            raise ValueError("repeat_count must be >= 1")
        if self.repeat_count > 1 and self.repeat_period_s <= 0.0:
            raise ValueError("repeat_period_s must be > 0 when repeating")
        if self.min_machines < 1:
            raise ValueError("min_machines must be >= 1")
        if self.max_machines is not None and self.max_machines < self.min_machines:
            raise ValueError(
                f"max_machines {self.max_machines} below min_machines "
                f"{self.min_machines}"
            )
        if self.priority < 1:
            raise ValueError("priority classes start at 1")

    # -- occurrence geometry ------------------------------------------------
    def occurrence_interval(self, occurrence: int) -> tuple[float, float]:
        """Outer ``(earliest, deadline)`` of one occurrence."""
        if not (0 <= occurrence < self.repeat_count):
            raise ValueError(
                f"occurrence {occurrence} outside [0, {self.repeat_count})"
            )
        shift = occurrence * self.repeat_period_s
        return (self.earliest_start + shift, self.deadline + shift)

    def occurrence_windows(self, occurrence: int) -> tuple[tuple[float, float], ...]:
        """Candidate start windows of one occurrence (preferred windows
        shifted by the repetition period; the whole interval when none)."""
        earliest, deadline = self.occurrence_interval(occurrence)
        if not self.preferred_windows:
            return ((earliest, deadline),)
        shift = occurrence * self.repeat_period_s
        return tuple(
            (start + shift, end + shift) for start, end in self.preferred_windows
        )

    # -- bridge to the decision layer ---------------------------------------
    def decision_request(
        self,
        at: float,
        exclude: frozenset[str] | set[str] = frozenset(),
        accessible: frozenset[str] | set[str] | None = None,
        max_machines: int | None = None,
    ) -> DecisionRequest:
        """The concrete :class:`DecisionRequest` for one candidate instant.

        ``exclude`` carries the ledger's busy machines into the User
        Specification filter (so candidate placements are conflict-free by
        construction); ``accessible`` restricts to an explicit subset (the
        shrink-toward-min repair strategy); ``max_machines`` overrides the
        request's own cap (the shrink ladder).
        """
        cap = self.max_machines if max_machines is None else max_machines
        userspec = UserSpecification(
            accessible_machines=(
                None if accessible is None else frozenset(accessible)
            ),
            excluded_machines=frozenset(exclude),
            max_machines=cap,
        )
        return DecisionRequest(
            problem=self.problem,
            userspec=userspec,
            account_memory=self.account_memory,
            at=at,
        )

    # -- serialisation ------------------------------------------------------
    def to_json_dict(self) -> dict:
        p = self.problem
        return {
            "schema": REQUEST_SCHEMA,
            "request_id": self.request_id,
            "problem": {
                "n": p.n,
                "iterations": p.iterations,
                "flop_per_point": p.flop_per_point,
                "bytes_per_point": p.bytes_per_point,
                "border_bytes_per_point": p.border_bytes_per_point,
                "sync_overhead_s": p.sync_overhead_s,
            },
            "earliest_start": self.earliest_start,
            "deadline": self.deadline,
            "preferred_windows": [list(w) for w in self.preferred_windows],
            "repeat_count": self.repeat_count,
            "repeat_period_s": self.repeat_period_s,
            "min_machines": self.min_machines,
            "max_machines": self.max_machines,
            "priority": self.priority,
            "account_memory": self.account_memory,
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "ReservationRequest":
        """Parse and validate one request object (raises ``ValueError``)."""
        if not isinstance(payload, dict):
            raise ValueError("request record must be a JSON object")
        schema = payload.get("schema")
        if schema != REQUEST_SCHEMA:
            raise ValueError(
                f"unsupported request schema {schema!r} (want {REQUEST_SCHEMA})"
            )
        try:
            p = payload["problem"]
            problem = JacobiProblem(
                n=int(p["n"]),
                iterations=int(p["iterations"]),
                flop_per_point=float(p["flop_per_point"]),
                bytes_per_point=float(p["bytes_per_point"]),
                border_bytes_per_point=float(p["border_bytes_per_point"]),
                sync_overhead_s=float(p["sync_overhead_s"]),
            )
            max_machines = payload["max_machines"]
            return cls(
                request_id=str(payload["request_id"]),
                problem=problem,
                earliest_start=float(payload["earliest_start"]),
                deadline=float(payload["deadline"]),
                preferred_windows=tuple(
                    (float(w[0]), float(w[1]))
                    for w in payload["preferred_windows"]
                ),
                repeat_count=int(payload["repeat_count"]),
                repeat_period_s=float(payload["repeat_period_s"]),
                min_machines=int(payload["min_machines"]),
                max_machines=(
                    None if max_machines is None else int(max_machines)
                ),
                priority=int(payload["priority"]),
                account_memory=bool(payload["account_memory"]),
            )
        except (KeyError, TypeError, IndexError) as exc:
            raise ValueError(f"malformed request record: {exc!r}") from exc


# -- JSONL persistence ------------------------------------------------------
def save_requests(
    path: str | pathlib.Path, requests: list[ReservationRequest]
) -> None:
    """Write requests to ``path``, one JSON object per line."""
    if not requests:
        raise ValueError("refusing to write an empty request file")
    lines = [json.dumps(r.to_json_dict()) for r in requests]
    pathlib.Path(path).write_text("\n".join(lines) + "\n")


def load_requests(path: str | pathlib.Path) -> list[ReservationRequest]:
    """Read a request JSONL file back (``ValueError`` on malformed lines)."""
    records = []
    text = pathlib.Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: not a JSON request record") from exc
        try:
            records.append(ReservationRequest.from_json_dict(payload))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    if not records:
        raise ValueError(f"{path}: no request records found")
    return records


# -- seeded workloads -------------------------------------------------------
def seeded_requests(
    count: int,
    seed: int = 2026,
    base_at: float = 660.0,
    stagger_s: float = 90.0,
    window_s: float = 2400.0,
) -> list[ReservationRequest]:
    """A reproducible rolling-horizon reservation workload.

    Request ``k`` arrives with an earliest start staggered ``stagger_s``
    after its predecessor and a ``window_s``-wide deadline, so consecutive
    requests' feasible intervals overlap heavily — the contention the
    conflict detector and repair engine exist for.  Sizes, priorities,
    machine bounds, preferred windows and repetitions all cycle
    deterministically; the seed only names the requests, so two workloads
    with different seeds never collide in a shared ledger.  Every field is
    a pure function of ``(count, seed, base_at, stagger_s, window_s)``.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    sizes = (400, 500, 600)
    requests = []
    for k in range(count):
        earliest = base_at + k * stagger_s
        deadline = earliest + window_s
        windows: tuple[tuple[float, float], ...] = ()
        if k % 3 == 2:
            # A preferred window in the middle third of the interval.
            span = deadline - earliest
            windows = ((earliest + span / 3.0, earliest + 2.0 * span / 3.0),)
        repeat_count = 2 if k % 5 == 4 else 1
        requests.append(
            ReservationRequest(
                request_id=f"req-s{seed}-{k:03d}",
                problem=JacobiProblem(
                    n=sizes[k % len(sizes)],
                    iterations=20 + 10 * (k % 3),
                ),
                earliest_start=earliest,
                deadline=deadline,
                preferred_windows=windows,
                repeat_count=repeat_count,
                repeat_period_s=window_s if repeat_count > 1 else 0.0,
                min_machines=1 + (k % 2),
                max_machines=(None, 4, 6)[k % 3],
                priority=1 + (k % 3),
                account_memory=True,
            )
        )
    return requests
