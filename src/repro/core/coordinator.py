"""The Coordinator — the single active agent of an AppLeS (§4.1–4.2).

The Coordinator runs the scheduling *blueprint* the paper gives for the
Jacobi2D prototype (§5):

1. Select candidate resource sets ``S_i`` (Resource Selector).
2. For each ``S_i``: plan a schedule (Planner) and estimate its cost
   (Performance Estimator).
3. Choose the resource set and schedule with the best predicted value of
   the user's performance metric.
4. Actuate the selected schedule (Actuator).

Everything the Coordinator knows comes from the shared Information Pool.

Steps 2–3 are one pipeline of two public steps, and every decision entry
point runs it:

- :meth:`AppLeSAgent.stage` runs inside a decision scope
  (:meth:`~repro.core.infopool.InformationPool.decision_scope`: one
  forecast snapshot shared by every evaluation, which every subsystem
  reads through ``info.forecasts``, and on which every value derived
  from the pool state is memoised through ``info.derived``).  The
  candidate sets arrive as a :class:`~repro.core.selector.CandidateSets`
  — index rows, shared by every configuration with the same selector,
  feasible machines, cap and coupling at that snapshot.  When the
  Planner resolves a batch planner (``batch_planner(info)``), stage
  takes their membership masks over the locality-rank names of the
  batch inputs, which every configuration with an equal planner shares
  (:meth:`~repro.core.selector.CandidateSets.masks_over`, one permutation
  gather, shared too) as the job
  :func:`~repro.jacobi.apples.evaluate_strip_batch` takes; otherwise it
  takes admissible objective lower bounds when the Planner exposes
  ``lower_bounds``.
- :meth:`AppLeSAgent.decide` maps an evaluation's time bounds through the
  Estimator's ``objective_lower_bounds``, scores the candidates with
  :class:`~repro.core.sweep.BatchedObjective`, replays the
  incumbent/pruning order with :func:`~repro.core.sweep.replay_sweep` and
  picks the winner.  Without a batched evaluation every row is lazy: the
  sweep plans and estimates each candidate it does not prune.  With one,
  only the rows the batched core surrendered are planned one by one, and
  the winner is re-planned by the scalar planner and cross-checked
  (:func:`~repro.core.sweep.materialise_winner`).

:meth:`AppLeSAgent.schedule` stages, evaluates a one-job batch when the
configuration batches, and decides.  The scheduling service
(:mod:`repro.service.core`) stages many configurations under one
snapshot, evaluates all their jobs in one call and decides each.  The
oracle, :meth:`AppLeSAgent.schedule_reference`, decides with no bounds,
no batch and no decision scope.

Bounds are *admissible* (never above the true objective) and pruning only
fires when the bound exceeds the incumbent by a relative epsilon, so the
chosen schedule is bit-identical to the oracle's exhaustive loop; pruned
rows stay in ``evaluations`` (objective ``inf``) and the counts are
reported in :class:`PruningStats`.  The batched kernels replicate the
scalar planner's float semantics operation-for-operation and surrender any
row they cannot certify, so :class:`ScheduleDecision`,
:class:`PruningStats` and the ``core.decision`` span are the same whether
or not a decision batched.  Name tuples are built only where a set is
read: the winner, the rows planned one by one, and the per-candidate
``ScheduleDecision.evaluations`` rows, built from the sweep's arrays on
first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.actuator import Actuator, RecordingActuator
from repro.core.estimator import PerformanceEstimator, make_estimator
from repro.core.infopool import InformationPool
from repro.core.planner import Planner
from repro.core.schedule import Schedule
from repro.core.selector import CandidateSets, ResourceSelector
from repro.core.sweep import (
    BatchedObjective,
    NoFeasibleCandidate,
    PruningStats,
    SweepResult,
    materialise_winner,
    objective_bounds,
    replay_sweep,
    resolve_batch_planner,
)
from repro.obs.trace import get_tracer

__all__ = [
    "AppLeSAgent",
    "ScheduleDecision",
    "StagedDecision",
    "CandidateEvaluation",
    "NoFeasibleCandidate",
    "PruningStats",
    "record_pruning_stats",
]


def record_pruning_stats(metrics: Any, stats: "PruningStats") -> None:
    """Persist one decision's :class:`PruningStats` into a metrics registry.

    The counters feed the ROADMAP "selector learning" direction: candidate
    generators need the pruned/planned history that used to vanish after
    ``ScheduleDecision.explain()``.  Called by :meth:`AppLeSAgent.decide`,
    so solo and service decisions land in the same instruments.
    """
    metrics.counter("core.decisions").inc()
    metrics.counter("core.candidates").inc(stats.candidates)
    metrics.counter("core.planned").inc(stats.planned)
    metrics.counter("core.pruned").inc(stats.pruned)
    if stats.bounded:
        metrics.histogram("core.pruned_fraction").observe(stats.pruned_fraction)


@dataclass(frozen=True)
class CandidateEvaluation:
    """One (resource set, schedule, objective) row from the blueprint loop.

    ``pruned`` rows were skipped by the admissible lower bound
    (``lower_bound`` > incumbent objective); their schedule is None and the
    objective ``inf``, mirroring an infeasible row for ranking purposes.

    A batched decision scores most candidates straight from the batched
    prediction without materialising their Schedules, so a feasible row
    may carry ``schedule=None`` with a finite objective (the winner's
    Schedule is always materialised).
    """

    resource_set: tuple[str, ...]
    schedule: Schedule | None
    objective: float
    pruned: bool = False
    lower_bound: float | None = None

    @property
    def feasible(self) -> bool:
        """Whether the Planner could produce a schedule for this set."""
        return self.schedule is not None or self.objective < float("inf")


@dataclass
class ScheduleDecision:
    """The Coordinator's outcome.

    Attributes
    ----------
    best:
        The chosen schedule.
    best_objective:
        Its objective value (lower is better).
    metric:
        Name of the user's performance metric.
    pruning:
        Candidate-search statistics.
    vectorised:
        Whether a batched evaluation scored this decision's candidates
        (False when the sweep planned every row itself, as the reference
        oracle does).
    rows:
        The :attr:`evaluations` rows, or a zero-argument callable that
        builds them; :attr:`evaluations` calls it on first read.
    """

    best: Schedule
    best_objective: float
    metric: str = "execution_time"
    pruning: PruningStats | None = None
    vectorised: bool = False
    rows: (
        list[CandidateEvaluation] | Callable[[], list[CandidateEvaluation]]
    ) = field(default_factory=list, repr=False, compare=False)

    @property
    def evaluations(self) -> list[CandidateEvaluation]:
        """Every candidate considered, in candidate order — the paper's
        "consider more options ... at machine speeds" made observable.

        Pruned candidates appear with ``pruned=True``.  Built from the
        sweep's arrays on first read and cached, so the rows (and their
        identity) are the same on every read.
        """
        if callable(self.rows):
            self.rows = self.rows()
        return self.rows

    @property
    def candidates_considered(self) -> int:
        """Number of resource sets considered (planned + pruned)."""
        return len(self.evaluations)

    @property
    def candidates_feasible(self) -> int:
        """Number that produced a feasible schedule."""
        return sum(1 for e in self.evaluations if e.feasible)

    def ranked(self, top: int = 5) -> list[CandidateEvaluation]:
        """The best ``top`` feasible candidates, best first."""
        feasible = [e for e in self.evaluations if e.feasible]
        feasible.sort(key=lambda e: e.objective)
        return feasible[: max(0, top)]

    def explain(self, top: int = 5) -> str:
        """Human-readable account of the decision.

        Shows the winning schedule and the runners-up with their predicted
        objectives — the paper's "consider more options ... at machine
        speeds" made inspectable, so a user can see *why* the agent chose
        what it chose.
        """
        lines = [
            f"Considered {self.candidates_considered} candidate resource sets "
            f"({self.candidates_feasible} feasible) under metric "
            f"{self.metric!r}.",
        ]
        if self.pruning is not None and self.pruning.bounded:
            lines.append(
                f"Search pruning: {self.pruning.planned} planned, "
                f"{self.pruning.pruned} pruned by lower bound "
                f"({self.pruning.pruned_fraction:.0%} of the candidate space)."
            )
        lines += [
            "",
            "Chosen schedule:",
            self.best.describe(),
            "",
            f"Top {top} candidates by predicted objective:",
        ]
        for rank, ev in enumerate(self.ranked(top), start=1):
            marker = " <- chosen" if ev.schedule is self.best else ""
            lines.append(
                f"  {rank}. objective={ev.objective:.6g}  "
                f"machines={','.join(ev.resource_set)}{marker}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class StagedDecision:
    """What :meth:`AppLeSAgent.stage` prepares for one decision.

    ``csets`` are the candidate resource sets.  ``job`` is the
    ``(StripBatchInputs, rank-space masks)`` pair
    :func:`~repro.jacobi.apples.evaluate_strip_batch` takes, or ``None``
    when the configuration does not batch; only then are ``bounds`` the
    admissible objective lower bounds (``None`` disables pruning).
    """

    csets: CandidateSets
    bounds: np.ndarray | None
    job: tuple[Any, np.ndarray] | None


def _candidate_rows(
    objective: BatchedObjective,
    bounds: np.ndarray | None,
    result: SweepResult,
    best: Schedule,
) -> list[CandidateEvaluation]:
    """Per-candidate rows of a decision, in candidate order.

    Pruned rows carry their bound; evaluated rows carry their objective
    and, where the scalar planner ran for them (every row of a decision
    without a batched evaluation, surrendered rows of one with it), their
    schedule.  The winner row holds the chosen schedule.
    """
    objectives = objective.objectives.tolist()
    lower = bounds.tolist() if bounds is not None else None
    schedules = objective.schedules
    rows: list[CandidateEvaluation] = []
    for idx, (rset, skipped) in enumerate(zip(objective.csets, result.pruned)):
        if skipped:
            rows.append(CandidateEvaluation(
                rset, None, float("inf"), pruned=True, lower_bound=lower[idx],
            ))
        else:
            sched = best if idx == result.best_idx else schedules.get(idx)
            rows.append(CandidateEvaluation(rset, sched, objectives[idx]))
    return rows


class AppLeSAgent:
    """An application-level scheduling agent.

    Parameters
    ----------
    info:
        The Information Pool (resources + NWS + HAT + US + models).
    planner:
        The application's Planner.
    selector:
        Resource Selector (defaults to exhaustive-up-to-12 enumeration).
    estimator:
        Performance Estimator; by default built from the User
        Specification's ``performance_metric``.
    actuator:
        Actuator; defaults to a :class:`~repro.core.actuator.RecordingActuator`.
    """

    def __init__(
        self,
        info: InformationPool,
        planner: Planner,
        selector: ResourceSelector | None = None,
        estimator: PerformanceEstimator | None = None,
        actuator: Actuator | None = None,
    ) -> None:
        self.info = info
        self.planner = planner
        self.selector = selector if selector is not None else ResourceSelector()
        if estimator is None:
            estimator = make_estimator(info.userspec.performance_metric)
        self.estimator = estimator
        self.actuator = actuator if actuator is not None else RecordingActuator()

    def schedule(self, snapshot: Any | None = None) -> ScheduleDecision:
        """Run blueprint steps 1–3: select, plan, estimate, choose.

        Raises :class:`~repro.core.sweep.NoFeasibleCandidate` (a
        ``RuntimeError``) when no candidate resource set yields a feasible
        schedule (e.g. the User Specification filtered everything out).

        Parameters
        ----------
        snapshot:
            Optional pre-taken :class:`~repro.nws.snapshot.ForecastSnapshot`
            for the decision scope.  Snapshots are pure caches, so the
            decision is bit-identical to taking a fresh one.
        """
        with self.info.decision_scope(snapshot):
            staged = self.stage(self.candidate_sets())
            ev = None
            if staged.job is not None:
                # Deferred import: repro.jacobi builds on repro.core.
                from repro.jacobi.apples import evaluate_strip_batch

                (ev,) = evaluate_strip_batch([staged.job])
            return self.decide(staged, ev)

    def schedule_reference(self) -> ScheduleDecision:
        """The decision oracle: the seed exhaustive loop.

        One plan+estimate per candidate set, no pruning bounds, no batched
        evaluation and no decision scope, so every forecast is re-queried
        from the pool.  :meth:`schedule` must choose the same schedule
        with the same objective; the differential tests hold it to that.
        """
        return self.decide(StagedDecision(self.candidate_sets(), None, None), None)

    def candidate_sets(self) -> CandidateSets:
        """Blueprint step 1: the Resource Selector's candidate sets.

        Raises :class:`~repro.core.sweep.NoFeasibleCandidate` when the
        selector produced none.
        """
        candidate_sets = self.selector.candidate_sets(self.info)
        if not candidate_sets:
            raise NoFeasibleCandidate(
                "Resource Selector produced no candidate sets "
                "(User Specification too restrictive?)"
            )
        return candidate_sets

    def stage(self, candidate_sets: Sequence[Sequence[str]]) -> StagedDecision:
        """Take one decision's batch job or bounds; call inside its scope.

        ``candidate_sets`` are usually :meth:`candidate_sets`' own; name
        tuples are indexed over the pool's machines
        (:meth:`CandidateSets.of`).  A configuration batches when the
        Planner resolves a batch planner.  Its job's masks are
        :meth:`CandidateSets.masks_over` the batch inputs' locality-rank
        names, shared with every configuration that shares the sets; the
        evaluation computes its bounds.  Any other configuration stages
        its objective bounds.
        """
        info = self.info
        candidate_sets = CandidateSets.of(
            candidate_sets, info.forecasts.machine_names()
        )
        batch_planner = resolve_batch_planner(self.planner, info)
        if batch_planner is None:
            bounds = objective_bounds(self, self.planner, candidate_sets)
            return StagedDecision(candidate_sets, bounds, None)
        inputs = batch_planner.batch_inputs(info)
        masks = candidate_sets.masks_over(inputs.rank_names)
        return StagedDecision(candidate_sets, None, (inputs, masks))

    def decide(self, staged: StagedDecision, ev: Any | None) -> ScheduleDecision:
        """Blueprint steps 2–3 over a staged decision: score, sweep, choose.

        ``ev`` is the job's :class:`~repro.jacobi.apples.StripBatchEvaluation`,
        or ``None`` to plan and estimate every row the sweep reaches; its
        time bounds are mapped through the Estimator's
        ``objective_lower_bounds``.  Runs inside a scope on the snapshot
        :meth:`stage` ran on (the oracle runs outside any scope), so
        lazily planned rows share its forecasts and memos.
        Raises :class:`~repro.core.sweep.NoFeasibleCandidate` when no
        candidate is feasible.
        """
        csets, bounds = staged.csets, staged.bounds
        info = self.info
        if ev is not None:
            inputs, masks = staged.job
            bounds = self.estimator.objective_lower_bounds(
                ev.bounds, masks, inputs.rank_names, info
            )
        metric = info.userspec.performance_metric
        # Observability (repro.obs): the span/metric calls below only read
        # decision state, never influence it — tracing on/off is
        # bit-identical.  When tracing is off they hit the no-op tracer.
        tracer = get_tracer()
        traced = tracer.enabled
        nws = info.pool.nws
        t_dec = float(nws.now) if nws is not None else None
        with tracer.span(
            "core.decision",
            layer="core",
            t=t_dec,
            metric=metric,
            candidates=len(csets),
            bounded=bounds is not None,
        ) as span:
            inputs = staged.job[0] if ev is not None else None
            objective = BatchedObjective(self, csets, inputs, ev)
            result = replay_sweep(
                bounds, objective.objectives, objective.lazy, objective.resolve,
                self._incumbent_hook(span if traced else None, t_dec),
            )
            if ev is None and result.best_idx >= 0:
                # The sweep planned the winner itself.
                best = objective.schedules[result.best_idx]
            else:
                # Re-plans and cross-checks a batched winner; raises when
                # nothing is feasible.
                best = materialise_winner(self, csets, result)
            stats = result.stats(bounds is not None)
            if traced:
                span.attrs.update(
                    best_objective=result.best_objective,
                    planned=stats.planned,
                    pruned=stats.pruned,
                )
                record_pruning_stats(tracer.metrics, stats)
        return ScheduleDecision(
            best=best,
            best_objective=result.best_objective,
            metric=metric,
            pruning=stats,
            vectorised=ev is not None,
            rows=partial(_candidate_rows, objective, bounds, result, best),
        )

    @staticmethod
    def _incumbent_hook(span: Any | None, t_dec: float | None):
        """The ``core.incumbent`` event emitter for :func:`replay_sweep`.

        The seed incumbent carries a ``seeded=True`` attribute and ordinary
        improvements carry none at all — preserved exactly, because obs
        bit-identity is asserted attribute-for-attribute.
        """
        if span is None:
            return None

        def on_incumbent(idx: int, obj: float, seeded: bool) -> None:
            if seeded:
                span.event("core.incumbent", t=t_dec, idx=idx,
                           objective=obj, seeded=True)
            else:
                span.event("core.incumbent", t=t_dec, idx=idx, objective=obj)

        return on_incumbent

    def run(self, t0: float = 0.0) -> tuple[ScheduleDecision, Any]:
        """Blueprint steps 1–4: schedule, then actuate the winner at ``t0``."""
        decision = self.schedule()
        result = self.actuator.actuate(decision.best, self.info, t0)
        return decision, result
