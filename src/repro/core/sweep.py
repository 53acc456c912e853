"""The canonical candidate sweep: seeded incumbent + epsilon-margin pruning.

One scheduling decision is, at its core, a *sweep* over candidate resource
sets: evaluate each set's objective, keep the best, and — when admissible
lower bounds are available — skip sets whose bound cannot beat the
incumbent.  Before this module, the sweep existed twice: once inside
``AppLeSAgent._candidate_sweep`` (planning candidates one at a time) and
once inside ``SchedulingService._sweep`` (replaying precomputed batched
objectives).  Both replicas had to agree decision-for-decision; now they
*are* one implementation.

:func:`replay_sweep` is the pure control flow — the seed-candidate choice,
the incumbent updates (strict minimum, ties to the earlier index), and the
pruning predicate with its relative epsilon.  It is parameterised only by
an ``objective(idx)`` callable, so the same code drives

- the Coordinator's scalar loop (``objective`` plans and estimates one
  candidate),
- the Coordinator's vectorised solo fast path and the scheduling
  service's batched core (``objective`` reads a precomputed
  :class:`~repro.jacobi.apples.StripBatchEvaluation` row via
  :class:`BatchedObjective`).

Because every consumer replays the identical incumbent/pruning order, the
chosen schedule, the :class:`PruningStats`, and the ``core.incumbent``
observability events are bit-identical across entry points — the
regression suite pins this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

__all__ = [
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


def replay_sweep(
    count: int,
    bounds: Sequence[float] | None,
    objective: Callable[[int], float],
    on_incumbent: Callable[[int, float, bool], None] | None = None,
) -> SweepResult:
    """Run the canonical prune-and-choose sweep over ``count`` candidates.

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

    ``objective(idx)`` returns the candidate's objective (``inf`` for
    infeasible); ``on_incumbent(idx, objective, seeded)`` fires on every
    incumbent improvement, in evaluation order — the hook behind the
    ``core.incumbent`` observability events.
    """
    best_obj = _INF
    best_idx = -1
    seed_idx = -1
    pruned = [False] * count

    if bounds is not None and count > 1:
        seed_idx = min(range(count), key=bounds.__getitem__)
        obj = objective(seed_idx)
        if obj < _INF:
            best_obj, best_idx = obj, seed_idx
            if on_incumbent is not None:
                on_incumbent(seed_idx, obj, True)

    for idx in range(count):
        if idx == seed_idx:
            continue
        if bounds is not None:
            lb = bounds[idx]
            if best_obj < _INF and lb >= best_obj * (1.0 + PRUNE_RELATIVE_EPS):
                pruned[idx] = True
                continue
        obj = objective(idx)
        if obj < best_obj or (obj == best_obj and idx < best_idx):
            best_obj, best_idx = obj, idx
            if on_incumbent is not None:
                on_incumbent(idx, obj, False)

    return SweepResult(
        best_idx=best_idx,
        best_objective=best_obj,
        seed_idx=seed_idx,
        pruned=tuple(pruned),
    )


class BatchedObjective:
    """Candidate objectives from a precomputed batched strip evaluation.

    The ``objective(idx)`` callable for :func:`replay_sweep` when the
    candidate space was evaluated by
    :func:`~repro.jacobi.apples.evaluate_strip_batch`:

    - rows the batched core certified (``feasible``) are scored through
      the estimator's ``objective_from_prediction`` — the same floats the
      Schedule-based objective would produce, without the Schedule;
    - rows it *surrendered* (``fallback``) are planned by the scalar
      planner here, inside the caller's decision scope, and their
      schedules kept for callers that report per-candidate rows;
    - remaining rows mirror ``plan() is None`` (objective ``inf``).

    ``memo``/``schedules`` expose what one sweep actually computed, keyed
    by candidate index: the Coordinator's vectorised solo path turns them
    into ``ScheduleDecision.evaluations`` rows.
    """

    __slots__ = ("_agent", "_csets", "_rank_names", "_ev", "memo", "schedules")

    def __init__(self, agent: Any, csets: Sequence, inputs: Any, ev: Any) -> None:
        self._agent = agent
        self._csets = csets
        self._rank_names = inputs.rank_names
        self._ev = ev
        self.memo: dict[int, float] = {}
        self.schedules: dict[int, Any] = {}

    def __call__(self, idx: int) -> float:
        obj = self.memo.get(idx)
        if obj is not None:
            return obj
        agent = self._agent
        ev = self._ev
        if ev.fallback[idx]:
            sched = agent.planner.plan(self._csets[idx], agent.info)
            self.schedules[idx] = sched
            obj = (
                _INF
                if sched is None
                else agent.estimator.objective(sched, agent.info)
            )
        elif ev.feasible[idx]:
            kept = [nm for nm, k in zip(self._rank_names, ev.kept[idx]) if k]
            obj = agent.estimator.objective_from_prediction(
                float(ev.predicted[idx]), kept, agent.info
            )
        else:
            obj = _INF  # plan() returned None
        self.memo[idx] = obj
        return obj


def materialise_winner(agent: Any, csets: Sequence, result: SweepResult) -> Any:
    """Plan the sweep winner with the scalar planner and cross-check it.

    The vectorised paths never answer with a number the scalar path would
    not have produced: the winner's schedule is materialised by the real
    planner and its objective compared against the batched prediction — a
    divergence raises instead of answering wrong.  Raises ``RuntimeError``
    when the sweep found no feasible candidate at all.
    """
    if result.best_idx < 0:
        raise RuntimeError(
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
    object with the ``batch_inputs``/``lower_bounds`` batching surface
    (usually themselves; dispatchers return their single active family).
    Used identically by the Coordinator's vectorised solo path and the
    scheduling service's batched core, so "which configurations vectorise"
    has exactly one answer.
    """
    hook = getattr(planner, "batch_planner", None)
    if hook is None:
        return None
    return hook(info)


def objective_bounds(
    agent: Any,
    planner: Any,
    csets: Sequence,
    member_mask: Any | None = None,
) -> list[float] | None:
    """Admissible objective lower bound per candidate set, or ``None``.

    ``AppLeSAgent._lower_bounds`` with the membership matrix reused: for a
    batchable configuration the dispatcher has exactly one active family,
    so that family's time bounds are the dispatcher's own — computed here
    with the precomputed masks, then mapped through the estimator's
    objective bound exactly like the Coordinator does.  Same floats as the
    scalar path, by construction.
    """
    estimator_bound = getattr(agent.estimator, "objective_lower_bound", None)
    planner_bounds = getattr(planner, "lower_bounds", None)
    if estimator_bound is None or planner_bounds is None:
        return None
    if member_mask is not None:
        time_bounds = planner_bounds(csets, agent.info, member_mask=member_mask)
    else:
        time_bounds = planner_bounds(csets, agent.info)
    if time_bounds is None or len(time_bounds) != len(csets):
        return None
    return [
        estimator_bound(float(tb), rset, agent.info)
        for tb, rset in zip(time_bounds, csets)
    ]
