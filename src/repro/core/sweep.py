"""The canonical candidate sweep: seeded incumbent + epsilon-margin pruning.

One scheduling decision is, at its core, a *sweep* over candidate resource
sets: evaluate each set's objective, keep the best, and — when admissible
lower bounds are available — skip sets whose bound cannot beat the
incumbent.  This module holds the sweep's parts;
:meth:`~repro.core.coordinator.AppLeSAgent.decide` is their one caller,
for solo decisions, service decisions and the reference oracle alike.

:func:`replay_sweep` is the pure control flow — the seed-candidate choice,
the incumbent updates (strict minimum, ties to the earlier index), and the
pruning predicate with its relative epsilon.  It reads an objective array
plus a mask of *lazy* rows resolved through a callback, which
:class:`BatchedObjective` supplies:

- without a batched evaluation every row is lazy: resolving one plans and
  estimates that candidate;
- with a precomputed :class:`~repro.jacobi.apples.StripBatchEvaluation`
  the certified rows are scored up front and only surrendered rows are
  lazy.

Between lazy rows the replay is a prefix-min scan in NumPy, so a sweep
over thousands of precomputed objectives costs a few array passes.
:func:`materialise_winner` re-plans a batched winner and cross-checks it;
:func:`objective_bounds` (for configurations that do not batch) and
:func:`resolve_batch_planner` are what
:meth:`~repro.core.coordinator.AppLeSAgent.stage` asks the Planner and
Estimator.

Because every decision replays the identical incumbent/pruning order, the
chosen schedule, the :class:`PruningStats`, and the ``core.incumbent``
observability events are bit-identical across entry points — the
regression suite pins this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.selector import CandidateSets

__all__ = [
    "NoFeasibleCandidate",
    "PRUNE_RELATIVE_EPS",
    "PruningStats",
    "SweepResult",
    "replay_sweep",
    "BatchedObjective",
    "materialise_winner",
    "resolve_batch_planner",
    "objective_bounds",
]

# Prune only when the lower bound beats the incumbent by this relative
# margin.  Bounds are admissible in exact arithmetic; the margin is far
# above any accumulated ulp noise (~1e-16 relative) yet far below real
# candidate separations, so it can only *disable* pruning near exact ties —
# never change the winner.
PRUNE_RELATIVE_EPS = 1e-12

_INF = float("inf")


class NoFeasibleCandidate(RuntimeError):
    """A decision with nothing to answer: the Resource Selector produced
    no candidate sets, or none of them yields a feasible schedule.

    Both are legitimate outcomes of a restrictive User Specification, not
    defects; callers that probe many filters (the reservation expander)
    catch this and let every other ``RuntimeError`` propagate.
    """


@dataclass(frozen=True)
class PruningStats:
    """Candidate-search statistics from one scheduling decision.

    Attributes
    ----------
    candidates:
        Total candidate resource sets the Resource Selector produced.
    planned:
        How many were actually run through the Planner (or scored from a
        precomputed batched evaluation).
    pruned:
        How many were skipped because their admissible lower bound could
        not beat the incumbent objective.
    bounded:
        Whether lower bounds were available at all (planner + estimator
        both support them).
    """

    candidates: int
    planned: int
    pruned: int
    bounded: bool

    @property
    def pruned_fraction(self) -> float:
        """Fraction of the candidate space skipped (0.0 when unbounded)."""
        return self.pruned / self.candidates if self.candidates else 0.0


@dataclass(frozen=True)
class SweepResult:
    """Outcome of one :func:`replay_sweep` pass.

    ``best_idx`` is ``-1`` when no candidate produced a finite objective;
    callers decide whether that is an error.  ``pruned`` flags candidates
    skipped by the lower-bound predicate, in candidate order.
    """

    best_idx: int
    best_objective: float
    seed_idx: int
    pruned: tuple[bool, ...]

    @property
    def pruned_count(self) -> int:
        return sum(self.pruned)

    def stats(self, bounded: bool) -> PruningStats:
        """The decision's :class:`PruningStats` (``bounded`` from the caller,
        which knows whether bounds were merely absent or disabled)."""
        count = len(self.pruned)
        skipped = self.pruned_count
        return PruningStats(
            candidates=count,
            planned=count - skipped,
            pruned=skipped,
            bounded=bounded,
        )


def _seed_index(bounds: np.ndarray) -> int:
    """``min(range(n), key=bounds.__getitem__)``: the first smallest bound.

    ``np.argmin`` alone would pick the first NaN; Python's ``min`` keeps a
    NaN only in position 0 and otherwise never selects one.
    """
    if np.isnan(bounds[0]):
        return 0
    return int(np.argmin(np.where(np.isnan(bounds), _INF, bounds)))


def replay_sweep(
    bounds: np.ndarray | None,
    objectives: np.ndarray,
    lazy: np.ndarray,
    resolve: Callable[[int], float],
    on_incumbent: Callable[[int, float, bool], None] | None = None,
) -> SweepResult:
    """Run the canonical prune-and-choose sweep over a candidate space.

    Exactly the Coordinator's reference semantics:

    - **Warm start** (only with bounds and more than one candidate): the
      candidate with the smallest lower bound is evaluated first, so the
      sweep starts with a strong incumbent and can prune from candidate
      #0.  The winner is still the minimum objective with ties broken by
      original index — the reference loop's first-strict-minimum — so the
      out-of-order evaluation cannot change the decision.
    - **Pruning**: a candidate is skipped only with a finite incumbent and
      a clear margin (``lb >= best * (1 + PRUNE_RELATIVE_EPS)``); an
      admissible bound above the incumbent means the set cannot win, and
      the strict ``<`` incumbent update means skipping a tie never changes
      the first-minimum winner either.

    ``objectives[i]`` is candidate ``i``'s objective (``inf`` for
    infeasible).  Rows flagged in ``lazy`` carry no value yet: each one the
    sweep does not prune is resolved through ``resolve(i)`` in evaluation
    order (the seed first, then index order) and its value written back
    into ``objectives``.  A decision without a batched evaluation marks
    every row lazy.
    ``on_incumbent(idx, objective, seeded)`` fires on every incumbent
    improvement, in evaluation order — the hook behind the
    ``core.incumbent`` observability events.

    Between lazy rows the sweep is a prefix-min scan: a running minimum
    (``np.fmin.accumulate``, which like ``<`` never takes a NaN) decides
    every pruning predicate of the stretch at once, and only rows at or
    below the running minimum can fire an incumbent event.  That equals the
    row-by-row replay as long as no pruned row would have lowered the
    minimum — true for admissible bounds; a stretch where a pruned row
    does (an inadmissible bound in floats) is replayed row by row.
    """
    objectives = np.asarray(objectives, dtype=float)
    if bounds is not None:
        bounds = np.asarray(bounds, dtype=float)
    count = len(objectives)
    margin = 1.0 + PRUNE_RELATIVE_EPS
    pruned = np.zeros(count, dtype=bool)
    best_obj = _INF
    best_idx = seed_idx = -1

    def offer(idx: int, obj: float, seeded: bool = False) -> None:
        nonlocal best_obj, best_idx
        if obj < best_obj or (obj == best_obj and idx < best_idx):
            best_obj, best_idx = obj, idx
            if on_incumbent is not None:
                on_incumbent(idx, obj, seeded)

    def prunes(idx: int) -> bool:
        return (
            bounds is not None
            and best_obj < _INF
            and bounds[idx] >= best_obj * margin
        )

    def evaluate(idx: int) -> float:
        if lazy[idx]:
            objectives[idx] = obj = resolve(idx)
            return obj
        return float(objectives[idx])

    def scan(lo: int, hi: int) -> None:
        """Rows ``lo..hi-1``, none of them lazy or the seed."""
        objs = objectives[lo:hi]
        before = np.fmin.accumulate(np.concatenate(([best_obj], objs[:-1])))
        offers = objs < before
        if bounds is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                cut = (before < _INF) & (bounds[lo:hi] >= before * margin)
            if np.any(cut & offers):
                for idx in range(lo, hi):
                    if prunes(idx):
                        pruned[idx] = True
                    else:
                        offer(idx, float(objectives[idx]))
                return
            pruned[lo:hi] = cut
            # A tie moves the incumbent only onto a row ahead of the seed.
            ties = objs == before
            ties[max(seed_idx - lo, 0):] = False
            offers = (offers | ties) & ~cut
        for k in np.flatnonzero(offers).tolist():
            offer(lo + k, float(objs[k]))

    if bounds is not None and count > 1:
        seed_idx = _seed_index(bounds)
        obj = evaluate(seed_idx)
        if obj < _INF:
            offer(seed_idx, obj, seeded=True)

    # The scan stops at every lazy row and at the seed.
    stops = np.array(lazy, dtype=bool)
    if seed_idx >= 0:
        stops[seed_idx] = True
    lo = 0
    for stop in np.flatnonzero(stops).tolist() + [count]:
        if stop > lo:
            scan(lo, stop)
        lo = stop + 1
        if stop == count or stop == seed_idx:
            continue
        if prunes(stop):
            pruned[stop] = True
        else:
            offer(stop, evaluate(stop))

    return SweepResult(
        best_idx=best_idx,
        best_objective=best_obj,
        seed_idx=seed_idx,
        pruned=tuple(pruned.tolist()),
    )


class BatchedObjective:
    """Candidate objectives from a precomputed batched strip evaluation.

    The objective array and lazy-row resolver for :func:`replay_sweep`
    when the candidate space was evaluated by
    :func:`~repro.jacobi.apples.evaluate_strip_batch`:

    - rows the batched core certified (``feasible``) are scored up front
      through the estimator's ``objectives_from_predictions`` — the same
      floats the Schedule-based objective would produce, without the
      Schedules;
    - rows it *surrendered* (``fallback``) are ``lazy``: :meth:`resolve`
      plans them with the scalar planner, inside the caller's decision
      scope, and keeps their schedules in ``schedules`` for callers that
      report per-candidate rows;
    - remaining rows mirror ``plan() is None`` (objective ``inf``).

    Without an evaluation (``ev=None``) nothing is precomputed and every
    row is lazy: the sweep plans each row it reaches.
    """

    __slots__ = ("_agent", "csets", "objectives", "lazy", "schedules")

    def __init__(
        self, agent: Any, csets: Sequence, inputs: Any = None, ev: Any = None
    ) -> None:
        self._agent = agent
        self.csets = csets
        self.objectives = np.full(len(csets), _INF)
        self.schedules: dict[int, Any] = {}
        if ev is None:
            self.lazy = np.ones(len(csets), dtype=bool)
            return
        self.lazy = ev.fallback
        certified = np.flatnonzero(ev.feasible)
        # No certified row, no scoring: a speedup estimator's lazy
        # baseline stays uncomputed, as on the scalar path.
        if certified.size:
            score = agent.estimator.objectives_from_predictions
            self.objectives[certified] = score(
                ev.predicted[certified], ev.kept[certified], inputs.rank_names,
                agent.info,
            )

    def resolve(self, idx: int) -> float:
        """Plan lazy row ``idx`` with the scalar planner and estimate it."""
        agent = self._agent
        sched = agent.planner.plan(self.csets[idx], agent.info)
        self.schedules[idx] = sched
        if sched is None:
            return _INF
        return agent.estimator.objective(sched, agent.info)


def materialise_winner(agent: Any, csets: Sequence, result: SweepResult) -> Any:
    """Plan the sweep winner with the scalar planner and cross-check it.

    A batched decision never answers with a number the scalar planner
    would not have produced: the winner's schedule is materialised by the
    real planner and its objective compared against the batched prediction
    — a divergence raises instead of answering wrong.  Raises
    :class:`NoFeasibleCandidate` when the sweep found no feasible
    candidate at all.
    """
    if result.best_idx < 0:
        raise NoFeasibleCandidate(
            f"no feasible schedule across {len(csets)} candidate resource sets"
        )
    best = agent.planner.plan(csets[result.best_idx], agent.info)
    if best is None or agent.estimator.objective(best, agent.info) != result.best_objective:
        raise RuntimeError(
            "batched objective diverged from the scalar planner for "
            f"candidate {csets[result.best_idx]!r} — fast-path defect"
        )
    return best


def resolve_batch_planner(planner: Any, info: Any) -> Any | None:
    """The planner to drive the one-shot batched sweep with, or ``None``.

    Planners opt in by exposing ``batch_planner(info)`` — returning an
    object with the ``batch_inputs`` batching surface (usually
    themselves; dispatchers return their single active family).
    Its one caller, :meth:`~repro.core.coordinator.AppLeSAgent.stage`,
    serves solo and service decisions alike, so "which configurations
    batch" has exactly one answer.
    """
    hook = getattr(planner, "batch_planner", None)
    if hook is None:
        return None
    return hook(info)


def objective_bounds(agent: Any, planner: Any, csets: Sequence) -> np.ndarray | None:
    """Admissible objective lower bound per candidate set, or ``None``.

    The planner's optional vectorised time bounds (``lower_bounds``)
    mapped through the estimator's ``objective_lower_bounds``, given the
    sets' membership (:meth:`CandidateSets.masks_over`) over
    ``info.pool.machine_names()``; a planner without the hook disables
    pruning for the decision.
    """
    planner_bounds = getattr(planner, "lower_bounds", None)
    if planner_bounds is None:
        return None
    time_bounds = planner_bounds(csets, agent.info)
    if time_bounds is None or len(time_bounds) != len(csets):
        return None
    names = agent.info.pool.machine_names()
    return agent.estimator.objective_lower_bounds(
        np.asarray(time_bounds, dtype=float),
        CandidateSets.of(csets, names).masks_over(names), names, agent.info,
    )
