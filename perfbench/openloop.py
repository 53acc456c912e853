"""The benchmark's open-loop driver: fixed due times, latency from the due time.

``repro.service.loadgen.run_open_loop`` sleeps until each offset and
reports latency from the moment the ticket was created, so a generator
that falls behind hides the wait it imposed on later requests.  This
driver keeps the due time of every request: latency runs from the due
time to the moment the ticket resolved, and the generator's own lateness
(submit time minus due time) is recorded beside it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.service.daemon import SchedulingDaemon, Ticket
from repro.service.loadgen import LoadEvent


@dataclass(frozen=True)
class Sent:
    """One request as the driver sent it (all times ``perf_counter`` s)."""

    index: int
    due: float
    submitted: float
    ticket: Ticket

    @property
    def late_s(self) -> float:
        """How far behind its due time the generator submitted this request."""
        return self.submitted - self.due

    def latency_s(self, timeout: float) -> float:
        """Due time to ticket resolution (waits for the ticket)."""
        reply = self.ticket.result(timeout)
        return self.ticket.submitted_wall + reply.latency_s - self.due


#: Idle work runs only when the next request is at least this far off.
IDLE_MARGIN_S = 0.004


def idle(daemon: SchedulingDaemon) -> bool:
    """Whether no shard holds a queued or unanswered request."""
    return all(
        row["queue_depth"] == 0
        and row["submitted"] == row["answered"] + row["failed"]
        for row in daemon.stats().values()
    )


def drive(
    daemon: SchedulingDaemon,
    events: Sequence[LoadEvent],
    start: float,
    timeout_s: float = 60.0,
    when_idle: Callable[[], None] | None = None,
) -> list[Sent]:
    """Submit each event at ``start + offset_s`` and wait for every ticket.

    Arrivals never wait for answers.  A request whose due time has passed
    is submitted at once and its lateness recorded; the schedule is never
    shifted to absorb a stall.  ``when_idle`` (about a millisecond of
    work) runs while the generator waits, the next request is at least
    :data:`IDLE_MARGIN_S` off and the daemon has nothing to do, so it
    never competes with the daemon for the interpreter.
    """
    sent = []
    for k, event in enumerate(events):
        due = start + event.offset_s
        if when_idle is not None and due - time.perf_counter() > IDLE_MARGIN_S \
                and idle(daemon):
            when_idle()
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        submitted = time.perf_counter()
        ticket = daemon.submit(event.shard, event.request)
        sent.append(Sent(k, due, submitted, ticket))
    for s in sent:
        s.ticket.result(timeout_s)
    return sent
