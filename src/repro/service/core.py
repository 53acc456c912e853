"""The batched multi-decision scheduling service.

Many AppLeS agents sharing one metacomputer make their decisions from the
same Network Weather Service at the same instants (§3: contention is
*experienced*, not negotiated).  Answering each agent separately repeats
the same forecast queries, cost models, and candidate evaluations; the
:class:`SchedulingService` accepts a batch of :class:`DecisionRequest`\\ s
and answers them through one batched evaluation instead.

Bit-identity contract
---------------------
Every answer equals — float for float, count for count — what the
request's own agent would have decided alone, because the service runs
the agent's own decision pipeline
(:meth:`~repro.core.coordinator.AppLeSAgent.stage` and
:meth:`~repro.core.coordinator.AppLeSAgent.decide`) and changes only what
is shared:

- one :class:`~repro.nws.snapshot.ForecastSnapshot` per decision instant
  is shared across the batch (snapshots are pure caches, so shared and
  private snapshots yield the same values);
- the candidate sets of every configuration that batches are evaluated
  in one :func:`~repro.jacobi.apples.evaluate_strip_batch` call, whose
  kernels replicate the scalar planner's float semantics
  operation-for-operation and *surrender* (flag for scalar planning) any
  row they cannot certify, and bound every row in their first pass;
  configurations of one arithmetic class (the two memory policies of one
  request, say) share each distinct row, memory capacity only vetoing;
- each configuration is then decided by ``agent.decide`` — the same
  sweep, winner cross-check and ``core.decision`` span as a solo
  ``schedule()``.  A configuration that does not batch is decided the
  same way, its sweep planning every row it does not prune.

The differential tests hold every answer equal to a sequential loop of
solo :meth:`~repro.core.coordinator.AppLeSAgent.schedule_reference` calls.

Failures stay with their configuration
--------------------------------------
An error raised while enumerating, staging or deciding one configuration
(:class:`~repro.core.sweep.NoFeasibleCandidate` from a filter that
admits no host, say) is that configuration's outcome, and an error in the
shared kernel call the outcome of every configuration in it; the others
are answered as in a clean batch.  ``decide()`` then raises the error if
every request failed with it, else a :class:`PartialBatchError` carrying
each request's answer or error.

Cross-call reuse (the always-on daemon's amortisation)
------------------------------------------------------
Everything derived from one *pool state* — pair tables, candidate sets,
batch inputs, plan continuations and whole answers per request
configuration — is memoised on its :class:`~repro.nws.snapshot.ForecastSnapshot`.
A service constructed with ``reuse=True`` keeps the snapshot alive
across ``decide()`` calls, dropping it the moment
:attr:`ForecastSnapshot.stale` turns true (the NWS advanced, so the pool
is in a new state).  A configuration's staging lives only within the
call that answers it: once answered, the answer serves it.  Every
memoised value is a pure function of the snapshot, so reuse is
bit-identical by the same argument as the snapshot itself; it only
changes how often the same floats are recomputed.  Reuse requires an
attached NWS (staleness is keyed on the NWS clock/epoch).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.coordinator import AppLeSAgent
from repro.core.resources import ResourcePool
from repro.core.selector import ResourceSelector
# Not called here: perfbench/layers.py rebinds these names on this module
# and fails on a missing one.
from repro.core.sweep import materialise_winner, objective_bounds, replay_sweep  # noqa: F401
from repro.jacobi.apples import evaluate_strip_batch, make_jacobi_agent
from repro.nws.service import NetworkWeatherService
from repro.nws.snapshot import ForecastSnapshot
from repro.obs.trace import get_tracer
from repro.service.requests import DecisionRequest, ServiceAnswer
from repro.sim.testbeds import Testbed

__all__ = ["PartialBatchError", "SchedulingService"]


class PartialBatchError(RuntimeError):
    """Some requests of a ``decide()`` batch failed and some did not:
    ``outcomes`` holds each request's :class:`ServiceAnswer` or error, in
    request order."""

    def __init__(self, outcomes: list) -> None:
        super().__init__(outcomes)
        self.outcomes = outcomes

    def __str__(self) -> str:
        errors = [o for o in self.outcomes if isinstance(o, Exception)]
        return (f"{len(errors)} of {len(self.outcomes)} requests failed; "
                f"first: {type(errors[0]).__name__}: {errors[0]}")


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
        Keep the snapshot and answers alive across ``decide()`` calls
        while the pool state is unchanged (see the module docstring).
        Requires ``nws``; the always-on daemon turns this on, the
        one-shot batch API defaults to off.
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
        self._snapshot: ForecastSnapshot | None = None

    # -- public API -------------------------------------------------------
    def decide(self, requests: Sequence[DecisionRequest]) -> list[ServiceAnswer]:
        """Answer every request, grouped by decision instant (ascending).

        The shared NWS is advanced monotonically to each distinct ``at``;
        requests at one instant share one forecast snapshot.  Returns
        answers in request order, or raises (see "Failures stay with their
        configuration" above).
        """
        answers: list = [None] * len(requests)
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
        errors = [a for a in answers if isinstance(a, Exception)]
        if not errors:
            return answers
        if len(errors) == len(answers) and all(e is errors[0] for e in errors):
            raise errors[0]
        raise PartialBatchError(answers)

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

    def _agent(self, request: DecisionRequest, key) -> AppLeSAgent:
        agent = self._agents.get(key)
        if agent is None:
            agent = make_jacobi_agent(
                self.testbed,
                request.problem,
                self.nws,
                userspec=request.userspec,
                selector=self.selector,
                account_memory=request.account_memory,
            )
            if self._reuse:
                self._agents[key] = agent
        return agent

    def _pool_snapshot(self) -> ForecastSnapshot:
        """The forecast snapshot of the current NWS instant.

        With reuse on, the previous snapshot survives while it is fresh;
        :attr:`ForecastSnapshot.stale` is the sole invalidation signal (the
        NWS epoch/clock), so a mutated pool can never serve a stale answer.
        Without reuse, every call takes a private snapshot.
        """
        snapshot = self._snapshot
        if snapshot is not None and not snapshot.stale:
            tracer = get_tracer()
            if tracer.enabled:
                tracer.metrics.counter("service.reuse.snapshot_hits").inc()
            return snapshot
        snapshot = ResourcePool(self.testbed.topology, self.nws).snapshot()
        if self._reuse:
            self._snapshot = snapshot
        return snapshot

    def _decide_group(self, requests, group, at, answers) -> None:
        """Answer one instant's requests: stage, batch-evaluate, decide;
        a configuration's requests get its answer or its error."""
        # One snapshot for the whole instant: every agent's pool wraps the
        # same topology and NWS, so forecasts read through this snapshot
        # are the same floats each agent's private snapshot would return.
        # With reuse on, the snapshot — and the answers decided from it —
        # survive from earlier calls at the same pool state.
        snapshot = self._pool_snapshot()
        decided = snapshot.derived("service-answers", dict)
        tracer = get_tracer()

        configs: dict = {}  # config_key -> [request indices]
        for i in group:
            configs.setdefault(requests[i].config_key(), []).append(i)

        # Phase A: per unique config, build the agent, then enumerate and
        # stage its candidate sets inside a shared-snapshot decision scope
        # (like schedule()), so every configuration reads one pair table.
        pending = []  # (indices, config key, agent, StagedDecision)
        for key, idxs in configs.items():
            answer = decided.get(key)
            if answer is not None:
                # This configuration was already decided at this pool
                # state — the decision is a pure function of (config,
                # snapshot), so the earlier answer *is* the answer.
                if tracer.enabled:
                    tracer.metrics.counter("service.reuse.answer_hits").inc()
                for i in idxs:
                    answers[i] = answer
                continue
            try:
                agent = self._agent(requests[idxs[0]], key)
                with agent.info.decision_scope(snapshot):
                    staged = agent.stage(agent.candidate_sets())
            except Exception as exc:
                for i in idxs:
                    answers[i] = exc
                continue
            if tracer.enabled and staged.job is None:
                tracer.metrics.counter("service.scalar_configs").inc()
            pending.append((idxs, key, agent, staged))

        # Phase B: one batched evaluation over every candidate set of every
        # configuration that batches, then one decision per configuration.
        jobs = [staged.job for *_, staged in pending if staged.job is not None]
        try:
            evaluations = evaluate_strip_batch(jobs)
        except Exception as exc:  # the outcome of every job in the call
            evaluations = [exc] * len(jobs)
        if tracer.enabled and jobs and not isinstance(evaluations[0], Exception):
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
        batched = iter(evaluations)
        for idxs, key, agent, staged in pending:
            ev = next(batched) if staged.job is not None else None
            try:
                if isinstance(ev, Exception):
                    raise ev
                with agent.info.decision_scope(snapshot):
                    decision = agent.decide(staged, ev)
            except Exception as exc:
                for i in idxs:
                    answers[i] = exc
                continue
            answer = decided[key] = ServiceAnswer.from_decision(decision, at)
            if tracer.enabled:
                # Every decision is counted by how it was scored, so the
                # obs stream shows how many the batched core served.
                tracer.metrics.counter(
                    "service.solo_vectorised" if decision.vectorised
                    else "service.solo_scalar"
                ).inc()
            for i in idxs:
                answers[i] = answer
