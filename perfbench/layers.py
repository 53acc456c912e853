"""Per-layer spans recorded from outside the program.

The traced run installs a ``repro.obs`` :class:`~repro.obs.trace.Tracer`
and rebinds the public functions and methods listed below so each call
opens a span named ``wrap.<bucket>``.  Functions are rebound at the
module that calls them (``repro.service.core.evaluate_strip_batch`` is the
name the service resolves at call time); methods are rebound on their
class.  The program's own spans (``daemon.batch``, ``service.batch``,
``core.decision``, ``reserve.expand``, ``sim.ensemble.execute`` ...) nest
under the wrappers and are charged to the enclosing bucket.

Every time here is a span's ``wall_s``.  A bucket's self time is the wall
time of its spans minus the wall time of their child spans, so each
second of a traced operation is charged to exactly one bucket.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from typing import Any, Callable, Iterator, Mapping

from repro.obs.trace import get_tracer

#: Module-level functions: (module that calls it, name, bucket, layer).
FUNCTIONS = (
    ("repro.service.core", "evaluate_strip_batch", "apples.evaluate_batch", "jacobi.apples"),
    # The coordinator imports evaluate_strip_batch and make_jacobi_agent
    # from repro.jacobi.apples at call time, as does the solo workload.
    ("repro.jacobi.apples", "evaluate_strip_batch", "apples.evaluate_batch", "jacobi.apples"),
    ("repro.service.core", "make_jacobi_agent", "apples.make_agent", "jacobi.apples"),
    ("repro.jacobi.apples", "make_jacobi_agent", "apples.make_agent", "jacobi.apples"),
    ("repro.core.coordinator", "replay_sweep", "sweep.replay", "core.sweep"),
    ("repro.service.core", "replay_sweep", "sweep.replay", "core.sweep"),
    ("repro.core.coordinator", "materialise_winner", "sweep.materialise", "core.sweep"),
    ("repro.service.core", "materialise_winner", "sweep.materialise", "core.sweep"),
    ("repro.core.coordinator", "objective_bounds", "core.bounds", "core"),
    ("repro.service.core", "objective_bounds", "core.bounds", "core"),
    ("repro.reserve.expand", "verify_allocation", "arena.verify", "arena"),
    ("repro.reserve.ledger", "verify_allocation", "arena.verify", "arena"),
    ("repro.reserve.ledger", "verify_ledger", "reserve.verify_ledger", "reserve"),
)

#: Methods: (module, class, method, bucket, layer).
METHODS = (
    ("repro.service.daemon", "SchedulingDaemon", "submit", "daemon.submit", "service.daemon"),
    ("repro.service.core", "SchedulingService", "decide", "service.decide", "service.core"),
    ("repro.nws.service", "NetworkWeatherService", "advance_to", "nws.advance", "nws"),
    ("repro.core.resources", "ResourcePool", "snapshot", "nws.snapshot", "nws"),
    ("repro.core.coordinator", "AppLeSAgent", "schedule", "core.schedule", "core"),
    ("repro.core.selector", "ResourceSelector", "candidate_sets", "core.candidate_sets", "core"),
    ("repro.jacobi.apples", "JacobiPlanner", "batch_inputs", "apples.batch_inputs", "jacobi.apples"),
    ("repro.reserve.expand", "Expander", "expand", "reserve.expand", "reserve"),
    ("repro.reserve.ledger", "ReservationLedger", "book", "reserve.ledger", "reserve"),
    ("repro.reserve.ledger", "ReservationLedger", "remove", "reserve.ledger", "reserve"),
    ("repro.reserve.ledger", "ReservationLedger", "conflicts_with", "reserve.ledger", "reserve"),
    ("repro.reserve.ledger", "ReservationLedger", "conflicts", "reserve.ledger", "reserve"),
    ("repro.sim.execution_ensemble", "EnsembleExecution", "__init__", "sim.ensemble.compile", "sim"),
    ("repro.sim.execution_ensemble", "EnsembleExecution", "run", "sim.ensemble.step", "sim"),
    ("repro.sim.execution_fast", "CompiledExecution", "__init__", "sim.single.compile", "sim"),
    ("repro.sim.execution_fast", "CompiledExecution", "run", "sim.single.step", "sim"),
)

#: Program spans that open a bucket of their own when no wrapper encloses
#: them; every other program span is charged to its parent's bucket.
PROGRAM_BUCKETS = {
    "daemon.batch": ("daemon.batch", "service.daemon"),
    "reserve.repair": ("reserve.repair", "reserve"),
    "sim.ensemble.execute": ("sim.ensemble.execute", "sim"),
    "sim.execute": ("sim.single.execute", "sim"),
}

#: The benchmark's own operation spans (``bench.<op>``) form this bucket;
#: their self time is what no named layer explains.
BENCH = "bench"
WRAP_PREFIX = "wrap."

Annotator = Callable[[tuple, dict], Mapping[str, Any]]
Observer = Callable[[Any], Mapping[str, Any]]


def _wrap(
    fn: Callable, bucket: str, layer: str,
    annotate: Annotator | None, observe: Observer | None,
) -> Callable:
    name = WRAP_PREFIX + bucket

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer = get_tracer()
        if not tracer.enabled:
            return fn(*args, **kwargs)
        attrs = annotate(args, kwargs) if annotate is not None else {}
        with tracer.span(name, layer=layer, **attrs) as span:
            result = fn(*args, **kwargs)
            if observe is not None:
                span.attrs.update(observe(result))
            return result

    return traced


def bucket_layers() -> dict[str, str]:
    """Bucket name -> layer (module) it belongs to."""
    table = {bucket: layer for *_, bucket, layer in FUNCTIONS + METHODS}
    table.update(dict(PROGRAM_BUCKETS.values()))
    table[BENCH] = BENCH
    return table


@contextlib.contextmanager
def wrapped(
    annotate: Mapping[str, Annotator] | None = None,
    observe: Mapping[str, Observer] | None = None,
) -> Iterator[None]:
    """Rebind every listed function and method for the duration of a block.

    ``annotate`` maps a bucket to a callable ``(args, kwargs) -> attrs``
    whose result is attached to that bucket's spans (e.g. the request
    ids a ``SchedulingService.decide`` call carries); ``observe`` maps a
    bucket to a callable ``result -> attrs`` applied to the return value.
    Originals are restored on exit, even when the block raises.
    """
    annotate = annotate or {}
    observe = observe or {}
    saved: list[tuple[Any, str, Any]] = []
    try:
        for module, attr, bucket, layer in FUNCTIONS:
            owner = importlib.import_module(module)
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(
                original, bucket, layer, annotate.get(bucket), observe.get(bucket)
            ))
        for module, cls, attr, bucket, layer in METHODS:
            owner = getattr(importlib.import_module(module), cls)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(
                original, bucket, layer, annotate.get(bucket), observe.get(bucket)
            ))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def span_buckets(spans: list[dict]) -> dict[int, str]:
    """Assign every span id to the bucket its time is charged to.

    Spans arrive in creation order, so a parent is always assigned before
    its children.
    """
    buckets: dict[int, str] = {}
    for s in spans:
        name = s["name"]
        parent = buckets.get(s["parent"])
        if name.startswith(WRAP_PREFIX):
            bucket = name[len(WRAP_PREFIX):]
        elif name.startswith(BENCH + "."):
            bucket = BENCH
        elif name in PROGRAM_BUCKETS and parent in (None, BENCH):
            bucket = PROGRAM_BUCKETS[name][0]
        elif parent is not None:
            bucket = parent
        else:
            bucket = "unattributed"
        buckets[s["id"]] = bucket
    return buckets


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> its wall time minus the wall time of its direct children."""
    own = {s["id"]: float(s["wall_s"] or 0.0) for s in spans}
    for s in spans:
        parent = s["parent"]
        if parent in own:
            own[parent] -= float(s["wall_s"] or 0.0)
    return own


def layer_table(records: list[dict]) -> dict[str, dict[str, float]]:
    """Per bucket: wrapper ``calls``, ``self_s`` and top-level ``wall_s``.

    ``wall_s`` sums only spans whose parent lies in another bucket, so
    re-entrant calls (``book`` calling ``conflicts_with``) are not counted
    twice.
    """
    spans = [r for r in records if r["kind"] == "span"]
    buckets = span_buckets(spans)
    own = self_times(spans)
    table: dict[str, dict[str, float]] = {}
    for s in spans:
        bucket = buckets[s["id"]]
        row = table.setdefault(bucket, {"calls": 0, "self_s": 0.0, "wall_s": 0.0})
        row["self_s"] += own[s["id"]]
        if s["name"].startswith(WRAP_PREFIX):
            row["calls"] += 1
        if buckets.get(s["parent"]) != bucket:
            row["wall_s"] += float(s["wall_s"] or 0.0)
    return table


def op_coverage(records: list[dict]) -> tuple[float, float]:
    """``(explained_s, wall_s)`` over the ``bench.*`` operation spans.

    ``wall_s`` is the operations' total wall time; ``explained_s`` the part
    covered by child spans, i.e. charged to a named layer rather than to
    the operation span's own self time.
    """
    spans = [r for r in records if r["kind"] == "span"]
    ops = [s for s in spans if s["name"].startswith(BENCH + ".")]
    wall = sum(float(s["wall_s"]) for s in ops)
    own = self_times(spans)
    return wall - sum(own[s["id"]] for s in ops), wall


def attr_total(records: list[dict], bucket: str, key: str) -> float:
    """Sum of a numeric attribute over one bucket's wrapper spans."""
    name = WRAP_PREFIX + bucket
    return float(sum(
        r["attrs"].get(key, 0) for r in records
        if r["kind"] == "span" and r["name"] == name
    ))
