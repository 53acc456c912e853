"""Structured tracing: spans, typed events, JSONL persistence.

The paper's whole argument is that scheduling quality is governed by the
quality of *information* about the system — and until now the stack
recorded almost nothing about its own behaviour.  This module is the
recording half of ``repro.obs``: a thread-safe :class:`Tracer` collecting
nested **spans** (an operation with a start and an end) and typed
**events** (a point observation), each keyed to *simulated* time where one
exists (so traces of a seeded experiment are deterministic) and to wall
time otherwise.

Off by default, and near-zero when off
--------------------------------------
The module-level active tracer is a :class:`NullTracer` singleton until an
experiment installs a real one (``--trace PATH`` on the CLI, or the
:func:`tracing` context manager).  Instrumented hot paths follow one
idiom::

    tr = get_tracer()
    if tr.enabled:
        tr.event("core.selector.candidates", layer="core", sets=len(sets))

so a disabled run pays one attribute test per instrumentation site.
Instrumentation only ever *reads* experiment state; runs with tracing on
and off are bit-identical by construction, and the equivalence tests
assert it.

Persistence
-----------
Traces round-trip through JSONL, one record per line, mirroring the plain
deliberately-simple conventions of :mod:`repro.sim.trace_io` (plain JSON,
``ValueError`` with the offending path/line on malformed input):

- ``{"kind": "header", "format": "repro.obs-trace", "version": 1}``
- ``{"kind": "span", "id": 3, "parent": 1, "name": "core.decision",
  "layer": "core", "t0": ..., "t1": ..., "clock": "sim", "wall_s": ...,
  "attrs": {...}}``
- ``{"kind": "event", "span": 3, "name": "core.incumbent", "layer":
  "core", "t": ..., "clock": "sim", "fields": {...}}``
- ``{"kind": "metric", "metric": "counter", "name": "core.pruned",
  "value": 1578}``

:func:`validate_records` checks every record against that schema;
:func:`load_records` applies it on read, so a trace that loads is a trace
that validates.
"""

from __future__ import annotations

import json
import pathlib
import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator, Sequence

from repro.obs.metrics import MetricsRegistry, NullMetricsRegistry

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "tracing",
    "save_records",
    "load_records",
    "validate_records",
    "TRACE_FORMAT",
    "TRACE_VERSION",
]

TRACE_FORMAT = "repro.obs-trace"
TRACE_VERSION = 1

_RECORD_KINDS = ("header", "span", "event", "metric")
_CLOCKS = ("sim", "wall")


def _jsonable(value: Any) -> Any:
    """Coerce one attribute/field value into something JSON can carry."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


class Span:
    """One traced operation: a name, a layer, a start and an end.

    Spans are created through :meth:`Tracer.span` and act as context
    managers.  The backing record is written into the tracer's buffer at
    *start* and completed in place at exit, so nesting order in the
    exported trace is creation order.

    When the operation spans simulated time, the caller passes the start
    instant as ``t`` and may call :meth:`set_end` with the end instant
    (e.g. from an :class:`~repro.sim.execution.IterationResult`); the
    span's clock is then ``"sim"``.  Without a ``t`` the span is stamped
    with wall offsets (``"wall"``).  Either way ``wall_s`` records the
    measured wall duration.
    """

    __slots__ = ("tracer", "record", "_t_end", "_wall0")

    def __init__(self, tracer: "Tracer", record: dict) -> None:
        self.tracer = tracer
        self.record = record
        self._t_end: float | None = None
        self._wall0 = time.perf_counter()

    @property
    def id(self) -> int:
        """The span's id within its trace."""
        return self.record["id"]

    @property
    def attrs(self) -> dict:
        """Mutable span attributes (written into the exported record)."""
        return self.record["attrs"]

    def set_end(self, t: float) -> None:
        """Set the span's end on the simulated clock."""
        self._t_end = float(t)

    def event(self, name: str, t: float | None = None, **fields: Any) -> None:
        """Emit an event attached to this span."""
        self.tracer.event(name, layer=self.record["layer"], t=t,
                          span=self.record["id"], **fields)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.tracer._close_span(self, time.perf_counter() - self._wall0)


class _NullSpan:
    """The do-nothing span the :class:`NullTracer` hands out."""

    __slots__ = ()
    id = 0
    attrs: dict = {}

    def set_end(self, t: float) -> None:
        pass

    def event(self, name: str, t: float | None = None, **fields: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every operation is a cheap no-op.

    ``enabled`` is ``False`` so instrumented hot loops can skip even
    building their event payloads; the methods still exist (and recycle
    singleton no-op objects) so un-guarded instrumentation stays safe.
    """

    __slots__ = ()
    enabled = False
    metrics = NullMetricsRegistry()

    def span(self, name: str, layer: str = "", t: float | None = None,
             parent: int | None = None, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, layer: str = "", t: float | None = None,
              span: int | None = None, **fields: Any) -> None:
        pass

    def records(self) -> list[dict]:
        return []

    def export(self, path: Any) -> None:
        raise RuntimeError("cannot export the null tracer; install a Tracer first")


class Tracer:
    """A thread-safe collector of spans, events and metrics.

    Parameters
    ----------
    clock:
        Optional zero-argument callable giving the *default* timestamp for
        spans/events created without an explicit ``t`` — e.g. a simulator's
        ``lambda: sim.now``.  Without one, such records are stamped with
        wall-clock offsets from the tracer's creation and marked
        ``clock="wall"``.

    Notes
    -----
    Span nesting is tracked per thread (each thread has its own stack);
    the record buffer and id allocation are guarded by one lock, so
    concurrent threads interleave records without corruption.  Process
    pools cannot share a tracer — :class:`repro.runner.ParallelRunner`
    instead runs a fresh tracer in each worker and merges the exported
    records deterministically with :meth:`absorb`.
    """

    enabled = True

    def __init__(self, clock: Any | None = None) -> None:
        self._lock = threading.Lock()
        self._records: list[dict] = []
        self._next_id = 1
        self._local = threading.local()
        self._clock = clock
        self._wall0 = time.perf_counter()
        self.metrics = MetricsRegistry()

    # -- internals --------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _timestamp(self, t: float | None) -> tuple[float, str]:
        if t is not None:
            return float(t), "sim"
        if self._clock is not None:
            return float(self._clock()), "sim"
        return time.perf_counter() - self._wall0, "wall"

    # -- recording --------------------------------------------------------
    def span(self, name: str, layer: str = "", t: float | None = None,
             parent: int | None = None, **attrs: Any) -> Span:
        """Open a span; use as a context manager (``with tracer.span(...)``)."""
        t0, clock = self._timestamp(t)
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        record = {
            "kind": "span",
            "id": 0,  # assigned under the lock below
            "parent": parent,
            "name": str(name),
            "layer": str(layer),
            "t0": t0,
            "t1": None,
            "clock": clock,
            "wall_s": None,
            "attrs": {k: _jsonable(v) for k, v in attrs.items()},
        }
        with self._lock:
            record["id"] = self._next_id
            self._next_id += 1
            self._records.append(record)
        stack.append(record["id"])
        return Span(self, record)

    def _close_span(self, span: Span, wall_s: float) -> None:
        record = span.record
        stack = self._stack()
        if stack and stack[-1] == record["id"]:
            stack.pop()
        with self._lock:
            record["wall_s"] = wall_s
            if span._t_end is not None:
                record["t1"] = span._t_end
            elif record["clock"] == "wall":
                record["t1"] = record["t0"] + wall_s
            else:
                record["t1"] = record["t0"]
            record["attrs"] = {k: _jsonable(v) for k, v in record["attrs"].items()}

    def event(self, name: str, layer: str = "", t: float | None = None,
              span: int | None = None, **fields: Any) -> None:
        """Record one typed point event.

        ``span`` attaches the event to an explicit span id; without it the
        event attaches to the calling thread's innermost open span.
        """
        ts, clock = self._timestamp(t)
        if span is None:
            stack = self._stack()
            span = stack[-1] if stack else None
        record = {
            "kind": "event",
            "span": span,
            "name": str(name),
            "layer": str(layer),
            "t": ts,
            "clock": clock,
            "fields": {k: _jsonable(v) for k, v in fields.items()},
        }
        with self._lock:
            self._records.append(record)

    # -- reading / merging ------------------------------------------------
    def records(self) -> list[dict]:
        """A snapshot of all records: header, spans/events, metric dump."""
        with self._lock:
            body = [dict(r) for r in self._records]
        header = {"kind": "header", "format": TRACE_FORMAT, "version": TRACE_VERSION}
        return [header] + body + self.metrics.as_records()

    def absorb(self, records: Sequence[dict], parent: int | None = None) -> None:
        """Merge another tracer's exported records into this one.

        Used by :class:`repro.runner.ParallelRunner` to fold each worker's
        trace back into the parent: span ids are remapped into this
        tracer's id space, worker root spans are re-parented under
        ``parent``, and metric records are merged into this registry
        (counters add, gauges last-write, histograms combine).  Absorbing
        workers in task order keeps the merged trace deterministic.
        """
        id_map: dict[int, int] = {}
        spans = [r for r in records if r.get("kind") == "span"]
        with self._lock:
            for r in spans:
                id_map[r["id"]] = self._next_id
                self._next_id += 1
            for r in records:
                kind = r.get("kind")
                if kind == "span":
                    merged = dict(r)
                    merged["id"] = id_map[r["id"]]
                    old_parent = r.get("parent")
                    merged["parent"] = (
                        id_map.get(old_parent, parent) if old_parent is not None
                        else parent
                    )
                    self._records.append(merged)
                elif kind == "event":
                    merged = dict(r)
                    old_span = r.get("span")
                    merged["span"] = (
                        id_map.get(old_span, parent) if old_span is not None
                        else parent
                    )
                    self._records.append(merged)
        self.metrics.merge_records(
            [r for r in records if r.get("kind") == "metric"]
        )

    def export(self, path: str | pathlib.Path) -> None:
        """Write the trace (header + records + metric dump) as JSONL."""
        save_records(path, self.records())


NULL_TRACER = NullTracer()
_ACTIVE: Tracer | NullTracer = NULL_TRACER


def get_tracer() -> Tracer | NullTracer:
    """The active tracer (the no-op singleton unless one was installed)."""
    return _ACTIVE


def set_tracer(tracer: Tracer | NullTracer | None) -> Tracer | NullTracer:
    """Install ``tracer`` as the active tracer (``None`` restores the null)."""
    global _ACTIVE
    _ACTIVE = tracer if tracer is not None else NULL_TRACER
    return _ACTIVE


@contextmanager
def tracing(path: str | pathlib.Path | None = None,
            tracer: Tracer | None = None) -> Iterator[Tracer]:
    """Install a tracer for a block; optionally export on exit.

    Examples
    --------
    >>> from repro.obs import tracing
    >>> with tracing() as tr:
    ...     with tr.span("demo", layer="test"):
    ...         pass
    >>> sum(1 for r in tr.records() if r["kind"] == "span")
    1
    """
    active = tracer if tracer is not None else Tracer()
    previous = get_tracer()
    set_tracer(active)
    try:
        yield active
    finally:
        set_tracer(previous)
        if path is not None:
            active.export(path)


# -- persistence -----------------------------------------------------------
def _check(cond: bool, where: str, message: str) -> None:
    if not cond:
        raise ValueError(f"{where}: {message}")


def validate_records(records: Sequence[dict], where: str = "trace") -> None:
    """Validate a record sequence against the trace schema.

    Raises ``ValueError`` naming the offending record; a sequence that
    passes will round-trip through :func:`save_records`/:func:`load_records`
    unchanged.
    """
    _check(len(records) > 0, where, "empty trace (no header)")
    head = records[0]
    _check(isinstance(head, dict) and head.get("kind") == "header",
           where, "first record must be the header")
    _check(head.get("format") == TRACE_FORMAT,
           where, f"unknown trace format {head.get('format')!r}")
    _check(isinstance(head.get("version"), int),
           where, "header version must be an integer")
    span_ids: set[int] = set()
    for i, r in enumerate(records[1:], start=2):
        loc = f"{where} record {i}"
        _check(isinstance(r, dict), loc, "record must be an object")
        kind = r.get("kind")
        _check(kind in _RECORD_KINDS, loc, f"unknown kind {kind!r}")
        if kind == "span":
            _check(isinstance(r.get("id"), int) and r["id"] > 0,
                   loc, "span id must be a positive integer")
            _check(r["id"] not in span_ids, loc, f"duplicate span id {r['id']}")
            span_ids.add(r["id"])
            _check(r.get("parent") is None or isinstance(r["parent"], int),
                   loc, "span parent must be an id or null")
            _check(isinstance(r.get("name"), str) and r["name"] != "",
                   loc, "span needs a non-empty name")
            _check(isinstance(r.get("t0"), (int, float)), loc, "span needs t0")
            _check(r.get("t1") is None or isinstance(r["t1"], (int, float)),
                   loc, "span t1 must be a number or null")
            _check(r.get("clock") in _CLOCKS, loc, f"bad clock {r.get('clock')!r}")
            _check(isinstance(r.get("attrs"), dict), loc, "span attrs must be an object")
        elif kind == "event":
            _check(isinstance(r.get("name"), str) and r["name"] != "",
                   loc, "event needs a non-empty name")
            _check(isinstance(r.get("t"), (int, float)), loc, "event needs t")
            _check(r.get("clock") in _CLOCKS, loc, f"bad clock {r.get('clock')!r}")
            _check(r.get("span") is None or isinstance(r["span"], int),
                   loc, "event span must be an id or null")
            _check(isinstance(r.get("fields"), dict), loc, "event fields must be an object")
        elif kind == "metric":
            _check(isinstance(r.get("name"), str) and r["name"] != "",
                   loc, "metric needs a non-empty name")
            _check(r.get("metric") in ("counter", "gauge", "histogram"),
                   loc, f"bad metric type {r.get('metric')!r}")
        else:  # a second header
            _check(False, loc, "duplicate header")


def save_records(path: str | pathlib.Path, records: Sequence[dict]) -> None:
    """Write validated records to ``path`` as JSONL."""
    validate_records(records, where=str(path))
    lines = [json.dumps(r, sort_keys=True) for r in records]
    pathlib.Path(path).write_text("\n".join(lines) + "\n")


def load_records(path: str | pathlib.Path) -> list[dict]:
    """Read a JSONL trace back, validating every record.

    Raises ``ValueError`` on malformed files (bad JSON, missing header,
    schema violations), naming the path and line.
    """
    text = pathlib.Path(path).read_text()
    records: list[dict] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: not a JSON record") from exc
    validate_records(records, where=str(path))
    return records
