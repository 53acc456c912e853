"""Deterministic discrete-event simulation engine.

A small, dependency-free engine in the style of SimPy: a binary heap of
timestamped events, plus generator-based processes that ``yield`` either a
delay (``float``) or a :class:`Signal` to wait on.  Two features matter for
this reproduction:

- **Determinism.**  Events at equal timestamps fire in scheduling order
  (FIFO), so a seeded experiment replays identically.
- **Signals.**  The 3D-REACT pipeline (producer/consumer with bounded
  buffering) is expressed naturally with signal waits.

Two hot-path details: :class:`Process` and :class:`Signal` declare
``__slots__`` (simulations create them in bulk), and zero-delay events —
every process start and ``yield 0`` — bypass the heap through a FIFO ready
queue, merged with the heap by ``(time, seq)`` so the global firing order
is exactly what a pure heap would produce.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

from repro.obs.trace import get_tracer

__all__ = ["Simulator", "Process", "Signal", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for engine misuse (e.g. scheduling into the past)."""


class Signal:
    """A broadcast condition processes can wait on.

    ``fire(payload)`` wakes every currently-waiting process; each waiter's
    ``yield signal`` expression evaluates to the payload.
    """

    __slots__ = ("name", "_waiters", "fire_count")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._waiters: list["Process"] = []
        self.fire_count = 0

    def fire(self, payload: Any = None) -> int:
        """Wake all waiters; returns the number of processes woken."""
        waiters, self._waiters = self._waiters, []
        self.fire_count += 1
        for proc in waiters:
            proc._resume(payload)
        return len(waiters)

    def _add_waiter(self, proc: "Process") -> None:
        self._waiters.append(proc)

    @property
    def waiting(self) -> int:
        """Number of processes currently blocked on this signal."""
        return len(self._waiters)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Signal({self.name!r}, waiting={self.waiting})"


class Process:
    """A generator-based simulation process.

    The wrapped generator may yield:

    - a non-negative ``float``/``int``: sleep for that many simulated seconds;
    - a :class:`Signal`: block until the signal fires (the yield returns the
      payload).

    When the generator returns, :attr:`done` becomes True and
    :attr:`result` holds its return value.
    """

    __slots__ = ("sim", "gen", "name", "done", "result", "finished")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = "") -> None:
        self.sim = sim
        self.gen = gen
        self.name = name
        self.done = False
        self.result: Any = None
        self.finished = Signal(f"{name}:finished")

    def _step(self, send_value: Any = None) -> None:
        try:
            yielded = self.gen.send(send_value)
        except StopIteration as stop:
            self.done = True
            self.result = stop.value
            self.finished.fire(stop.value)
            return
        if isinstance(yielded, Signal):
            yielded._add_waiter(self)
        elif isinstance(yielded, (int, float)):
            if yielded < 0:
                raise SimulationError(
                    f"process {self.name!r} yielded negative delay {yielded!r}"
                )
            self.sim.schedule(float(yielded), self._resume, None)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported value {yielded!r}"
            )

    def _resume(self, payload: Any) -> None:
        if not self.done:
            self._step(payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Process({self.name!r}, done={self.done})"


class Simulator:
    """The event loop.

    Examples
    --------
    >>> sim = Simulator()
    >>> seen = []
    >>> sim.schedule(2.0, seen.append, "b")
    >>> sim.schedule(1.0, seen.append, "a")
    >>> sim.run()
    2.0
    >>> seen
    ['a', 'b']
    """

    __slots__ = ("now", "_heap", "_seq", "_ready", "events_processed")

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, Callable, tuple]] = []
        self._seq = 0
        # FIFO of events scheduled with zero delay.  Entries are appended
        # with the current time and a monotone seq, and time never moves
        # backwards, so the deque is sorted by (time, seq) by construction
        # and can be merged with the heap without sifting.
        self._ready: deque[tuple[float, int, Callable, tuple]] = deque()
        self.events_processed = 0

    def schedule(self, delay: float, fn: Callable, *args: Any) -> None:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        if delay == 0:
            self._ready.append((self.now, seq, fn, args))
        else:
            heapq.heappush(self._heap, (self.now + float(delay), seq, fn, args))

    def at(self, time: float, fn: Callable, *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute simulated time ``time``."""
        self.schedule(time - self.now, fn, *args)

    def process(self, gen: Generator, name: str = "") -> Process:
        """Register a generator as a process and start it at the current time."""
        proc = Process(self, gen, name or f"proc{self._seq}")
        self.schedule(0.0, proc._step, None)
        return proc

    def _pop_next(self) -> tuple[float, int, Callable, tuple]:
        """Remove and return the next event in (time, seq) order.

        Callers must ensure at least one event is queued.  Tuple comparison
        never reaches the (incomparable) callables because seq is unique.
        """
        ready, heap = self._ready, self._heap
        if ready and (not heap or ready[0] < heap[0]):
            return ready.popleft()
        return heapq.heappop(heap)

    def _peek_time(self) -> float:
        ready, heap = self._ready, self._heap
        if ready and (not heap or ready[0] < heap[0]):
            return ready[0][0]
        return heap[0][0]

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> float:
        """Run until the queues drain or simulated time passes ``until``.

        Returns the final simulated time.  ``max_events`` guards against
        accidental infinite event storms.
        """
        count = 0
        t_start = self.now
        while self._heap or self._ready:
            time = self._peek_time()
            if until is not None and time > until:
                self.now = until
                self._trace_run("run", t_start, count)
                return self.now
            if count >= max_events:
                raise SimulationError(f"exceeded max_events={max_events}")
            time, _seq, fn, args = self._pop_next()
            if time < self.now - 1e-12:
                raise SimulationError("event heap out of order (engine bug)")
            self.now = time
            fn(*args)
            self.events_processed += 1
            count += 1
        if until is not None and until > self.now:
            self.now = until
        self._trace_run("run", t_start, count)
        return self.now

    def _trace_run(self, method: str, t_start: float, count: int) -> None:
        """Emit one engine-run event when tracing is on (pure read)."""
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                f"sim.engine.{method}", layer="sim", t=self.now,
                t_start=t_start, events=count, pending=self.pending_events,
            )
            tracer.metrics.counter("sim.engine.events").inc(count)
            tracer.metrics.counter("sim.engine.runs").inc()

    def run_until_done(
        self,
        procs: Iterable[Process],
        until: Optional[float] = None,
        max_events: int = 10_000_000,
    ) -> float:
        """Run until every process in ``procs`` has finished.

        Raises :class:`SimulationError` if the event queues drain (deadlock),
        ``until`` passes while any process is still pending, or more than
        ``max_events`` events fire (a guard against a process stuck in a
        self-rescheduling loop that never finishes).
        """
        procs = list(procs)
        deadline = until
        count = 0
        t_start = self.now
        while True:
            pending = [p for p in procs if not p.done]
            if not pending:
                self._trace_run("run_until_done", t_start, count)
                return self.now
            if not self._heap and not self._ready:
                raise SimulationError(
                    f"deadlock: {len(pending)} process(es) pending with no events: "
                    + ", ".join(p.name for p in pending[:5])
                )
            if deadline is not None and self._peek_time() > deadline:
                raise SimulationError(
                    f"deadline {deadline} passed with {len(pending)} process(es) pending"
                )
            if count >= max_events:
                raise SimulationError(f"exceeded max_events={max_events}")
            time, _seq, fn, args = self._pop_next()
            self.now = time
            fn(*args)
            self.events_processed += 1
            count += 1

    @property
    def pending_events(self) -> int:
        """Number of events currently queued."""
        return len(self._heap) + len(self._ready)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self.now:.6g}, pending={self.pending_events})"
