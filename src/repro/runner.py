"""Parallel experiment execution.

Every figure of the reproduction is an average over many independent trial
units — (problem size × repeat), (load family × forecaster), (strategy ×
world).  The drivers in :mod:`repro.experiments` express those units as
:class:`Task` lists and hand them to a :class:`ParallelRunner`, which fans
them out over a :mod:`concurrent.futures` process pool.

**Determinism is the contract.**  A task's result depends only on its
function and keyword arguments, never on which worker ran it or in what
order: tasks rebuild their world (testbed, NWS, load traces) from explicit
seeds and simulated instants, all of which are deterministic functions of
``(seed, time)`` (see :mod:`repro.util.rng` and
:mod:`repro.sim.warmcache`).  Results are returned in task order.  Running
with ``workers=1`` executes the same task functions in-process, so serial
and parallel runs of an experiment produce bit-identical tables — the
equivalence tests assert exactly that.

Tasks that need an independent random stream derive it with
:func:`repro.util.rng.derive_seed` from the experiment's master seed and
the task key, so adding, removing or reordering tasks never shifts another
task's stream.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.obs.trace import Tracer, get_tracer, set_tracer
from repro.util.rng import derive_seed

__all__ = ["Task", "ParallelRunner", "resolve_workers", "run_tasks", "derive_seed"]


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform reports one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def resolve_workers(workers: int | None) -> int:
    """Normalise a ``--workers`` value.

    ``None`` and ``0`` mean serial (1); a negative count means every
    usable CPU (:func:`usable_cpus`).
    """
    workers = int(workers or 0)
    return usable_cpus() if workers < 0 else max(1, workers)


@dataclass(frozen=True)
class Task:
    """One independent trial unit.

    Attributes
    ----------
    fn:
        A module-level callable (it must be picklable for the process
        pool).
    kwargs:
        Keyword arguments; must themselves be picklable.
    key:
        Identifying tuple, e.g. ``(n, repeat)`` — used for labels,
        debugging and per-task seed derivation.
    """

    fn: Callable[..., Any]
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    key: tuple = ()

    def __call__(self) -> Any:
        return self.fn(**self.kwargs)


def _invoke(fn: Callable[..., Any], kwargs: Mapping[str, Any]) -> Any:
    """Top-level trampoline so submitted work pickles cleanly."""
    return fn(**kwargs)


def _invoke_traced(fn: Callable[..., Any], kwargs: Mapping[str, Any]) -> tuple[Any, list[dict]]:
    """Trampoline for traced runs: a fresh tracer per worker invocation.

    The worker's records (spans, events, metric dump — all plain dicts,
    so they pickle) travel back with the result; the parent folds them
    into its tracer in task order, so the merged trace is deterministic
    regardless of which worker ran what.  The task's own result is
    untouched — tracing on/off stays bit-identical.
    """
    worker_tracer = Tracer()
    previous = get_tracer()
    set_tracer(worker_tracer)
    try:
        result = fn(**kwargs)
    finally:
        set_tracer(previous)
    return result, worker_tracer.records()


def _task_span(tracer: Tracer, task: Task, **attrs: Any):
    """The ``runner.task`` span of one task (a no-op when untraced)."""
    return tracer.span(
        "runner.task", layer="runner", **attrs,
        key=str(task.key), fn=getattr(task.fn, "__name__", str(task.fn)),
    )


class ParallelRunner:
    """Execute a task list serially or over a process pool.

    Parameters
    ----------
    workers:
        Worker process count after :func:`resolve_workers`; ``1`` runs
        in-process (no pool, no pickling).
    min_parallel_tasks:
        Smallest task count worth a process pool.  Below it the runner
        executes serially even when ``workers > 1``: pool spawn + pickling
        costs a fixed few hundred milliseconds, which short task lists
        (e.g. a quick-mode experiment of 3 sizes on a small box) cannot
        amortise — the Figure 6 quick benchmark *regressed* under
        ``workers=2`` for exactly this reason.  Determinism is unaffected;
        serial and parallel execution are bit-identical by contract.
    persistent:
        Keep one process pool alive across :meth:`run` / :meth:`submit`
        calls instead of spawning and tearing one down per batch.  This
        is the long-lived-service mode (the scheduling daemon dispatches
        a micro-batch every few milliseconds; per-batch pool spawn would
        dwarf the work).  A persistent runner must be :meth:`close`\\ d —
        or used as a context manager — when its owner shuts down.
        ``min_parallel_tasks`` does not apply to :meth:`submit`, whose
        single-task latency is the point.

    Examples
    --------
    >>> def square(x):
    ...     return x * x
    >>> ParallelRunner(workers=1).run([Task(square, {"x": k}) for k in range(4)])
    [0, 1, 4, 9]
    """

    def __init__(
        self,
        workers: int | None = 1,
        min_parallel_tasks: int = 4,
        persistent: bool = False,
    ) -> None:
        if min_parallel_tasks < 2:
            raise ValueError("min_parallel_tasks must be >= 2")
        self.workers = resolve_workers(workers)
        self.min_parallel_tasks = min_parallel_tasks
        self.persistent = bool(persistent)
        self._pool: ProcessPoolExecutor | None = None

    def _executor(self, width: int) -> ProcessPoolExecutor:
        """A pool of ``width`` workers — the shared one when persistent."""
        if self.persistent:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
            return self._pool
        return ProcessPoolExecutor(max_workers=width)

    def close(self) -> None:
        """Shut the persistent pool down (no-op otherwise; idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ParallelRunner":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def submit(self, task: Task) -> Future:
        """Dispatch one task asynchronously; returns a future of its result.

        The long-lived-service primitive: a serial runner executes the
        task inline and returns an already-resolved future, so callers
        write one code path; a parallel runner submits to the (persistent,
        when so configured) pool.  Under an enabled tracer, pool tasks run
        through :func:`_invoke_traced` and their records are absorbed into
        the parent tracer when the future's result is collected — results
        stay bit-identical either way.
        """
        if self.workers <= 1:
            future: Future = Future()
            try:
                future.set_result(task())
            except BaseException as exc:  # mirror executor semantics
                future.set_exception(exc)
            return future
        tracer = get_tracer()
        pool = self._executor(self.workers)
        if not tracer.enabled:
            return pool.submit(_invoke, task.fn, dict(task.kwargs))
        inner = pool.submit(_invoke_traced, task.fn, dict(task.kwargs))
        outer: Future = Future()

        def _absorb(done: Future) -> None:
            try:
                result, records = done.result()
            except BaseException as exc:
                outer.set_exception(exc)
                return
            with _task_span(tracer, task) as span:
                tracer.absorb(records, parent=span.id)
            outer.set_result(result)

        inner.add_done_callback(_absorb)
        return outer

    def run(self, tasks: Iterable[Task], prime: Callable[[], Any] | None = None) -> list[Any]:
        """Run every task; results come back in task order.

        A task raising propagates the exception (after the pool finishes
        or cancels the rest), matching the serial behaviour closely enough
        for experiment drivers.

        ``prime``, if given, is called once in the parent before the pool
        spawns.  Where worker processes are forked (Linux), state it
        builds — typically the warm-state cache — is inherited
        copy-on-write by every worker instead of being rebuilt per
        worker.  It is never called on the serial path, where the first
        task builds the same state itself.
        """
        tasks = list(tasks)
        tracer = get_tracer()
        serial = self.workers <= 1 or len(tasks) < self.min_parallel_tasks
        if tracer.enabled:
            tracer.metrics.counter("runner.batches").inc()
            tracer.metrics.counter("runner.tasks").inc(len(tasks))
        with tracer.span(
            "runner.batch", layer="runner", tasks=len(tasks),
            workers=1 if serial else min(self.workers, len(tasks)),
            mode="serial" if serial else "pool",
        ):
            if serial:
                results = []
                for idx, task in enumerate(tasks):
                    with _task_span(tracer, task, index=idx):
                        results.append(task())
                return results
            if prime is not None:
                prime()
            # Traced, each pool task runs under its own tracer and its
            # records are absorbed in task order, so the merged trace does
            # not depend on worker timing.
            invoke = _invoke_traced if tracer.enabled else _invoke
            pool = self._executor(min(self.workers, len(tasks)))
            try:
                futures = [pool.submit(invoke, task.fn, dict(task.kwargs)) for task in tasks]
                results = []
                for idx, (task, future) in enumerate(zip(tasks, futures)):
                    result = future.result()
                    if tracer.enabled:
                        result, records = result
                        with _task_span(tracer, task, index=idx) as span:
                            tracer.absorb(records, parent=span.id)
                    results.append(result)
                return results
            finally:
                if not self.persistent:
                    pool.shutdown(wait=True)

    def map(self, fn: Callable[..., Any], kwargs_list: Sequence[Mapping[str, Any]]) -> list[Any]:
        """Shorthand: run ``fn`` once per kwargs mapping, preserving order."""
        return self.run([Task(fn, kwargs) for kwargs in kwargs_list])


def run_tasks(tasks: Iterable[Task], workers: int | None = 1) -> list[Any]:
    """Convenience wrapper: ``ParallelRunner(workers).run(tasks)``."""
    return ParallelRunner(workers).run(tasks)
