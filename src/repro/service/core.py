"""The batched multi-decision scheduling service.

Many AppLeS agents sharing one metacomputer make their decisions from the
same Network Weather Service at the same instants (§3: contention is
*experienced*, not negotiated).  Answering each agent separately repeats
the same forecast queries, cost models, and candidate evaluations; the
:class:`SchedulingService` accepts a batch of :class:`DecisionRequest`\\ s
and answers them through one vectorised evaluation core instead.

Bit-identity contract
---------------------
Every answer equals — float for float, count for count — what the
request's own agent would have decided alone:

- one :class:`~repro.nws.snapshot.ForecastSnapshot` per decision instant
  is shared across the batch (snapshots are pure caches, so shared and
  private snapshots yield the same values);
- all candidate sets of all requests are evaluated at once by
  :func:`~repro.jacobi.apples.evaluate_strip_batch`, whose kernels
  replicate the scalar planner's float semantics operation-for-operation
  and *surrender* (flag for scalar planning) any row they cannot certify;
- the Coordinator's prune-and-choose sweep is replayed per request with
  the precomputed objectives, reproducing the incumbent/pruning sequence
  and the winner's identity exactly;
- the winning schedule is materialised by the scalar planner, and its
  objective is checked against the batched prediction — a divergence
  raises instead of answering wrong.

The differential tests hold every answer equal to a sequential loop of
solo :meth:`~repro.core.coordinator.AppLeSAgent.schedule_reference` calls.

Cross-call reuse (the always-on daemon's amortisation)
------------------------------------------------------
A service constructed with ``reuse=True`` keeps everything derived from
one *pool state* — the :class:`~repro.nws.snapshot.ForecastSnapshot`, the
per-configuration staging (candidate sets, membership matrices, pruning
bounds, batch inputs), the per-configuration
:class:`~repro.core.infopool.DecisionCache` memos, and whole answers —
alive across ``decide()`` calls, invalidating the lot the moment
:attr:`ForecastSnapshot.stale` turns true (the NWS advanced, so the pool
is in a new state).  Every cached value is a pure function of the
snapshot, so reuse is bit-identical by the same argument as the snapshot
itself; it only changes how often the same floats are recomputed.  Reuse
requires an attached NWS (staleness is keyed on the NWS clock/epoch).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.coordinator import AppLeSAgent, record_pruning_stats
from repro.core.sweep import (
    BatchedObjective,
    materialise_winner,
    objective_bounds,
    replay_sweep,
    resolve_batch_planner,
)
from repro.obs.trace import get_tracer
from repro.core.resources import ResourcePool
from repro.core.selector import ResourceSelector, member_masks_over
import numpy as np

from repro.jacobi.apples import (
    JacobiPlanner,
    evaluate_strip_batch,
    make_jacobi_agent,
)
from repro.nws.service import NetworkWeatherService
from repro.service.requests import DecisionRequest, ServiceAnswer
from repro.sim.testbeds import Testbed

__all__ = ["SchedulingService"]


class _Staged:
    """Per-configuration staging for one pool state (pure snapshot functions)."""

    __slots__ = ("agent", "planner", "csets", "bounds", "inputs", "perm_masks")

    def __init__(self, agent, planner, csets, bounds, inputs, perm_masks) -> None:
        self.agent = agent
        self.planner = planner
        self.csets = csets
        self.bounds = bounds
        self.inputs = inputs
        self.perm_masks = perm_masks


class _PoolState:
    """Everything the service derived from one pool state.

    Valid exactly while ``snapshot.stale`` is false; the service drops the
    whole object the moment the NWS advances.  ``answers`` memoises whole
    decisions per request configuration, ``staged`` the batch-evaluation
    inputs, and ``decisions`` the per-configuration
    :class:`~repro.core.infopool.DecisionCache` (planner/estimator memos).
    """

    __slots__ = ("snapshot", "staged", "answers", "decisions")

    def __init__(self, snapshot) -> None:
        self.snapshot = snapshot
        self.staged: dict = {}
        self.answers: dict = {}
        self.decisions: dict = {}


class SchedulingService:
    """Answer batches of scheduling requests over one testbed + NWS.

    Parameters
    ----------
    testbed:
        The shared metacomputer.
    nws:
        The shared Network Weather Service (``None`` = agents plan from
        nominal information, like solo agents built without an NWS).
    selector:
        Resource Selector shared by every request's agent (defaults to
        the exhaustive enumerator, matching solo agents).
    reuse:
        Keep snapshot, staging, decision memos and answers alive across
        ``decide()`` calls while the pool state is unchanged (see the
        module docstring).  Requires ``nws``; the always-on daemon turns
        this on, the one-shot batch API defaults to off.
    """

    def __init__(
        self,
        testbed: Testbed,
        nws: NetworkWeatherService | None = None,
        selector: ResourceSelector | None = None,
        reuse: bool = False,
    ) -> None:
        self.testbed = testbed
        self.nws = nws
        self.selector = selector
        if reuse and nws is None:
            raise ValueError(
                "SchedulingService(reuse=True) needs an NWS: cross-call "
                "reuse is invalidated by the NWS clock, and a pool without "
                "one has no staleness signal"
            )
        self._reuse = bool(reuse)
        # Agents are pure functions of the request configuration (the
        # dynamic state flows in per decision through the snapshot), so
        # they may be kept across pool states.
        self._agents: dict = {}
        self._state: _PoolState | None = None

    # -- public API -------------------------------------------------------
    def decide(self, requests: Sequence[DecisionRequest]) -> list[ServiceAnswer]:
        """Answer every request, grouped by decision instant (ascending).

        The shared NWS is advanced monotonically to each distinct ``at``;
        requests at one instant share one forecast snapshot.  Returns
        answers in request order.
        """
        answers: list[ServiceAnswer | None] = [None] * len(requests)
        instants = sorted({r.at for r in requests})
        tracer = get_tracer()
        with tracer.span(
            "service.batch", layer="service",
            t=instants[0] if instants else None,
            requests=len(requests), instants=len(instants),
        ) as span:
            if tracer.enabled:
                span.set_end(instants[-1] if instants else 0.0)
                tracer.metrics.counter("service.batches").inc()
                tracer.metrics.histogram("service.batch_size").observe(
                    len(requests)
                )
            for at in instants:
                group = [i for i, r in enumerate(requests) if r.at == at]
                self._advance(at)
                self._decide_group(requests, group, at, answers)
        return [a for a in answers if a is not None]

    @staticmethod
    def _count_solo(tracer, vectorised: bool) -> None:
        """Count one solo ``schedule()`` answer by the path that made it.

        ``service.solo_vectorised`` vs ``service.solo_scalar``: every
        decision the service answers through a single agent (the
        scalar-config fallback) lands in one of the two, so the daemon's
        obs stream shows exactly how many decisions the one-shot tensor
        sweep served.
        """
        name = "service.solo_vectorised" if vectorised else "service.solo_scalar"
        tracer.metrics.counter(name).inc()

    # -- internals --------------------------------------------------------
    def _advance(self, at: float) -> None:
        if self.nws is None:
            return
        if at > self.nws.now:
            self.nws.advance_to(at)
        elif at < self.nws.now:
            raise ValueError(
                f"cannot decide at t={at}: the shared NWS is already at "
                f"t={self.nws.now}"
            )

    def _agent(self, request: DecisionRequest, key=None) -> AppLeSAgent:
        if self._reuse and key is not None:
            agent = self._agents.get(key)
            if agent is not None:
                return agent
        agent = make_jacobi_agent(
            self.testbed,
            request.problem,
            self.nws,
            userspec=request.userspec,
            selector=self.selector,
            account_memory=request.account_memory,
        )
        if self._reuse and key is not None:
            self._agents[key] = agent
        return agent

    def _pool_state(self) -> _PoolState:
        """The pool-state cache for the current NWS instant.

        With reuse on, the previous state survives while its snapshot is
        fresh; :attr:`ForecastSnapshot.stale` is the sole invalidation
        signal (the NWS epoch/clock), so a mutated pool can never serve a
        stale staged value or answer.  Without reuse, every call gets a
        private state — the pre-daemon one-snapshot-per-batch behaviour.
        """
        state = self._state
        if state is not None and not state.snapshot.stale:
            tracer = get_tracer()
            if tracer.enabled:
                tracer.metrics.counter("service.reuse.snapshot_hits").inc()
            return state
        state = _PoolState(ResourcePool(self.testbed.topology, self.nws).snapshot())
        if self._reuse:
            self._state = state
        return state

    @staticmethod
    def _strip_planner(agent: AppLeSAgent) -> JacobiPlanner | None:
        """The single active strip planner, when the config is batchable.

        Resolved through the same ``batch_planner`` hook the Coordinator's
        vectorised solo path uses, so "which configurations vectorise" has
        exactly one answer across solo and batched entry points.
        """
        planner = resolve_batch_planner(agent.planner, agent.info)
        return planner if isinstance(planner, JacobiPlanner) else None

    def _decide_group(self, requests, group, at, answers) -> None:
        """Answer one instant's requests through the batched core."""
        # One snapshot for the whole instant: every agent's pool wraps the
        # same topology and NWS, so forecasts read through this snapshot
        # are the same floats each agent's private snapshot would return.
        # With reuse on, the snapshot — and everything staged from it —
        # survives from earlier calls at the same pool state.
        state = self._pool_state()
        snapshot = state.snapshot
        tracer = get_tracer()

        configs: dict = {}  # config_key -> [request indices]
        for i in group:
            configs.setdefault(requests[i].config_key(), []).append(i)

        # Phase A: per unique config, build the agent, enumerate candidate
        # sets (outside the decision, like schedule()), take bounds and
        # rank-space batch inputs inside a shared-snapshot decision scope.
        staged = []  # (indices, config key, _Staged)
        jobs = []
        for key, idxs in configs.items():
            answer = state.answers.get(key)
            if answer is not None:
                # This configuration was already decided at this pool
                # state — the decision is a pure function of (config,
                # snapshot), so the earlier answer *is* the answer.
                if tracer.enabled:
                    tracer.metrics.counter("service.reuse.answer_hits").inc()
                for i in idxs:
                    answers[i] = answer
                continue
            st = state.staged.get(key)
            if st is None:
                agent = self._agent(requests[idxs[0]], key)
                planner = self._strip_planner(agent)
                batchable = planner is not None and hasattr(
                    agent.estimator, "objectives_from_predictions"
                )
                if not batchable:
                    # Sequential answer under the shared snapshot — still
                    # one solo decision, bit-identical by snapshot purity.
                    # The agent's own vectorised path may still engage here
                    # (a batch planner other than the strip planner the
                    # service core takes); count whichever path answered.
                    if tracer.enabled:
                        tracer.metrics.counter("service.scalar_configs").inc()
                    decision = agent.schedule(snapshot=snapshot)
                    if tracer.enabled:
                        self._count_solo(tracer, decision.vectorised)
                    answer = ServiceAnswer.from_decision(decision, at=at)
                    state.answers[key] = answer
                    for i in idxs:
                        answers[i] = answer
                    continue
                csets = agent.selector.candidate_sets(agent.info)
                if not csets:
                    raise RuntimeError(
                        "Resource Selector produced no candidate sets "
                        "(User Specification too restrictive?)"
                    )
                # One membership matrix per request, shared by the bounds
                # computation and the batched evaluator (pool-name order
                # here, permuted to locality-rank order below).
                names = agent.info.pool.machine_names()
                name_masks = member_masks_over(csets, names)
                with agent.info.decision_scope(
                    snapshot, reuse=state.decisions.get(key)
                ) as cache:
                    state.decisions[key] = cache
                    bounds = objective_bounds(
                        agent, planner, csets, member_mask=name_masks
                    )
                    inputs = planner.batch_inputs(agent.info)
                name_index = {m: k for k, m in enumerate(names)}
                perm = np.array([name_index[m] for m in inputs.rank_names])
                st = _Staged(
                    agent, planner, csets, bounds, inputs, name_masks[:, perm]
                )
                state.staged[key] = st
            elif tracer.enabled:
                tracer.metrics.counter("service.reuse.staged_hits").inc()
            staged.append((idxs, key, st))
            jobs.append((st.inputs, st.perm_masks))

        # Phase B: one vectorised evaluation over every candidate set of
        # every staged request, then per-request sweep replays.
        evaluations = evaluate_strip_batch(jobs)
        if tracer.enabled and evaluations:
            surrendered = sum(
                int(np.count_nonzero(ev.fallback)) for ev in evaluations
            )
            total_rows = sum(len(ev.fallback) for ev in evaluations)
            tracer.metrics.counter("service.batched_configs").inc(
                len(evaluations)
            )
            tracer.metrics.counter("service.rows_vectorised").inc(
                total_rows - surrendered
            )
            tracer.metrics.counter("service.rows_surrendered").inc(surrendered)
            tracer.event(
                "service.evaluate_batch", layer="service", t=at,
                configs=len(evaluations), rows=total_rows,
                surrendered=surrendered,
            )
        for (idxs, key, st), ev in zip(staged, evaluations):
            agent = st.agent
            with agent.info.decision_scope(
                snapshot, reuse=state.decisions.get(key)
            ) as cache:
                state.decisions[key] = cache
                begin = getattr(agent.planner, "begin_decision", None)
                end = getattr(agent.planner, "end_decision", None)
                if begin is not None:
                    begin(agent.info)
                try:
                    answer = self._sweep(
                        agent, st.csets, st.bounds, st.inputs, ev, at
                    )
                finally:
                    if end is not None:
                        end(agent.info)
            state.answers[key] = answer
            if tracer.enabled:
                # Each batched config is one solo decision answered by the
                # vectorised core — same instrument as the scalar branch.
                self._count_solo(tracer, True)
            for i in idxs:
                answers[i] = answer

    def _sweep(self, agent, csets, bounds, inputs, ev, at) -> ServiceAnswer:
        """Replay the Coordinator's prune-and-choose loop on batched results.

        One call into the canonical sweep core
        (:mod:`repro.core.sweep`): a :class:`BatchedObjective` scores every
        candidate from the batched evaluation at once (surrendered rows
        stay lazy, planned by the scalar planner inside the same decision
        scope), :func:`replay_sweep` reproduces the seed/incumbent/pruning
        sequence, and :func:`materialise_winner` plans and cross-checks
        the winner — the identical code path the vectorised solo
        ``schedule()`` runs, so solo and batched answers cannot drift.
        """
        objective = BatchedObjective(agent, csets, inputs, ev)
        result = replay_sweep(
            bounds, objective.objectives, objective.lazy, objective.resolve
        )
        best = materialise_winner(agent, csets, result)
        stats = result.stats(bounds is not None)
        tracer = get_tracer()
        if tracer.enabled:
            # Batched decisions land in the same instruments as solo ones —
            # one pruning history regardless of which path answered.
            record_pruning_stats(tracer.metrics, stats)
            tracer.event(
                "service.decision", layer="service", t=at,
                candidates=stats.candidates, pruned=stats.pruned,
                best_objective=result.best_objective,
            )
        return ServiceAnswer(
            best=best,
            best_objective=result.best_objective,
            metric=agent.info.userspec.performance_metric,
            pruning=stats,
            at=at,
        )
