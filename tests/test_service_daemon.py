"""The scheduling daemon's contracts: admission, batching, isolation,
drain, cross-call reuse staleness, and bit-identity with the service.

The daemon adds queueing and amortisation — never arithmetic.  These
tests pin the edges of that claim:

- admission control answers explicitly (shed on a full queue, reject on
  a stale instant or after shutdown) instead of blocking or dropping;
- micro-batch policy lingers only when arrivals will fill the batch;
- shards are isolated (a backlogged pool does not stall another's
  answers) and drain-on-shutdown answers everything already queued;
- the cross-call reuse layer (`SchedulingService(reuse=True)`, which
  keeps one `ForecastSnapshot`, and every value derived on it, while the
  snapshot is fresh) never serves an answer derived from a stale pool
  state — the regression tests mutate the NWS between calls and compare
  against fresh solo agents — and a retry after a batch that raised
  answers like a fresh service;
- a Hypothesis property: however a request multiset is sliced into
  submissions, daemon answers equal one `SchedulingService.decide()`;
- a process pool whose workers were killed is rebuilt for later batches;
- one request's failure stays its own: a filter that admits no host is
  REJECTED alone, a configuration raising in staging or deciding fails
  only its tickets, and an error in the shared kernel call fails the call;
- traced and untraced daemon runs are bit-identical, with the queue
  gauge / admission counters / batch spans present when traced;
- both lanes walk one lifecycle: a mixed load ends every ticket alike
  whether pumped or served by a started worker, `stats()` counts each
  status the replies carry, a request of the other lane's type is
  refused before the shard changes, and every ticket resolved from a
  batch carries the batch's size.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.service.core as service_core
from repro.core.coordinator import AppLeSAgent
from repro.core.resources import ResourcePool
from repro.core.sweep import NoFeasibleCandidate
from repro.core.userspec import UserSpecification
from repro.jacobi.apples import make_jacobi_agent
from repro.jacobi.grid import JacobiProblem
from repro.nws import NetworkWeatherService
from repro.nws.snapshot import ForecastSnapshot
from repro.obs.trace import tracing
from repro.service import (
    DecisionRequest,
    MicroBatcher,
    SchedulingDaemon,
    SchedulingService,
    ServiceAnswer,
    ShardSpec,
)
from repro.service.core import PartialBatchError
from repro.service.daemon import ANSWERED, BOOKED, FAILED, REJECTED, SHED
from repro.service.loadgen import (
    SyntheticPopulation,
    open_loop_events,
    run_closed_loop,
    run_open_loop,
)
from repro.sim import casa_testbed, nile_testbed, sdsc_pcl_testbed

AT = 420.0


def _request(k: int = 0, at: float = AT) -> DecisionRequest:
    userspec = UserSpecification(max_machines=3) if k % 3 == 1 else UserSpecification()
    return DecisionRequest(
        problem=JacobiProblem(n=600 + 100 * (k % 3), iterations=20 + k),
        userspec=userspec,
        account_memory=(k % 4 != 2),
        at=at,
    )


def _spec(name="sdsc", builder=sdsc_pcl_testbed, seed=1996) -> ShardSpec:
    return ShardSpec(name, builder, seed=seed, nws_seed=7, warmup_s=0.0)


def _service_answers(requests, builder=sdsc_pcl_testbed, seed=1996):
    testbed = builder(seed=seed)
    nws = NetworkWeatherService.for_testbed(testbed, seed=7)
    return SchedulingService(testbed, nws).decide(requests)


def _reference_decisions(requests, builder=sdsc_pcl_testbed, seed=1996):
    """The decision oracle: one ``schedule_reference()`` per request."""
    testbed = builder(seed=seed)
    nws = NetworkWeatherService.for_testbed(testbed, seed=7)
    decisions = []
    for r in requests:
        if r.at > nws.now:
            nws.advance_to(r.at)
        agent = make_jacobi_agent(
            testbed, r.problem, nws,
            userspec=r.userspec, account_memory=r.account_memory,
        )
        decisions.append(agent.schedule_reference())
    return decisions


def _sig(answer, pruning=True):
    return (
        answer.best_objective,
        answer.predicted_time,
        answer.machines,
        answer.pruning if pruning else None,
        tuple(a.work_units for a in answer.best.allocations),
    )


# -- admission control ----------------------------------------------------
class TestAdmission:
    def test_queue_full_sheds_explicitly(self):
        daemon = SchedulingDaemon([_spec()], queue_capacity=2)
        tickets = daemon.submit_many("sdsc", [_request(k) for k in range(5)])
        replies = [t._reply for t in tickets]
        assert [r.status if r else "pending" for r in replies] == [
            "pending", "pending", SHED, SHED, SHED,
        ]
        shed = tickets[2].result(0.0)
        assert shed.status == SHED
        assert shed.reason == "queue-full"
        assert shed.answer is None
        daemon.pump()
        assert [t.result(0.0).status for t in tickets[:2]] == [ANSWERED] * 2
        stats = daemon.stats()["sdsc"]
        assert stats["shed"] == 3 and stats["answered"] == 2

    def test_stale_instant_rejected(self):
        daemon = SchedulingDaemon([_spec()], queue_capacity=8)
        daemon.submit("sdsc", _request(0, at=AT))
        late = daemon.submit("sdsc", _request(1, at=AT - 60.0))
        reply = late.result(0.0)
        assert reply.status == REJECTED
        assert "stale-instant" in reply.reason
        daemon.pump()
        assert daemon.stats()["sdsc"]["rejected"] == 1

    def test_unknown_shard_raises(self):
        daemon = SchedulingDaemon([_spec()], queue_capacity=8)
        with pytest.raises(KeyError, match="unknown shard"):
            daemon.submit("nope", _request())

    def test_submit_after_shutdown_rejected(self):
        daemon = SchedulingDaemon([_spec()], queue_capacity=8)
        daemon.shutdown()
        reply = daemon.submit("sdsc", _request()).result(0.0)
        assert reply.status == REJECTED
        assert reply.reason == "shutdown"

    def test_duplicate_shard_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate shard"):
            SchedulingDaemon([_spec(), _spec()])

    def test_shards_must_be_specs(self):
        testbed = sdsc_pcl_testbed(seed=1996)
        nws = NetworkWeatherService.for_testbed(testbed, seed=7)
        with pytest.raises(TypeError, match="ShardSpec"):
            SchedulingDaemon({"sdsc": (testbed, nws)})
        with pytest.raises(TypeError, match="ShardSpec"):
            SchedulingDaemon([_spec(), (testbed, nws)])

    @pytest.mark.parametrize("lane", ["decision", "reservation"])
    def test_a_wrong_request_type_changes_nothing(self, lane):
        """Admission checks the request's type before it touches the
        shard: the lane refuses the other lane's request with a
        ``TypeError``, every counter and depth as it was."""
        daemon = SchedulingDaemon([_spec()], queue_capacity=8)
        daemon.submit("sdsc", _request(0))
        daemon.submit_reservation("sdsc", _reservation(0))
        before = daemon.stats()
        with pytest.raises(TypeError):
            if lane == "decision":
                daemon.submit("sdsc", _reservation(1))
            else:
                daemon.submit_reservation("sdsc", _request(1))
        assert daemon.stats() == before
        daemon.shutdown(drain=False)


# -- shutdown and drain ---------------------------------------------------
class TestShutdown:
    def test_drain_on_shutdown_answers_queued(self):
        daemon = SchedulingDaemon([_spec()], queue_capacity=16)
        tickets = daemon.submit_many("sdsc", [_request(k) for k in range(4)])
        daemon.shutdown(drain=True)  # never start()ed: drains in this thread
        assert [t.result(0.0).status for t in tickets] == [ANSWERED] * 4

    def test_shutdown_without_drain_rejects_queued(self):
        daemon = SchedulingDaemon([_spec()], queue_capacity=16)
        tickets = daemon.submit_many("sdsc", [_request(k) for k in range(3)])
        daemon.shutdown(drain=False)
        replies = [t.result(0.0) for t in tickets]
        assert all(r.status == REJECTED and r.reason == "shutdown" for r in replies)

    def test_shutdown_without_drain_records_what_it_rejects(self):
        """A traced daemon, never started, with three decisions and one
        reservation queued: shut down without draining, it counts and
        times each rejected ticket as it does a worked one, and both
        lanes' depth gauges fall to 0."""
        with tracing() as tr:
            daemon = SchedulingDaemon([_spec()], queue_capacity=16)
            tickets = daemon.submit_many("sdsc", [_request(k) for k in range(3)])
            tickets.append(daemon.submit_reservation("sdsc", _reservation(0)))
            daemon.shutdown(drain=False)
        assert [(r.status, r.reason) for r in (t.result(0.0) for t in tickets)] == [
            (REJECTED, "shutdown")
        ] * 4
        metrics = tr.metrics.as_dict()
        assert metrics["daemon.rejected"]["value"] == 4
        assert metrics["daemon.latency_s"]["count"] == 4
        assert metrics["daemon.queue_depth.sdsc"]["value"] == 0
        assert metrics["daemon.reservation_depth.sdsc"]["value"] == 0
        stats = daemon.stats()["sdsc"]
        assert (stats["submitted"], stats["reservations"], stats["rejected"]) == (3, 1, 4)
        assert stats["answered"] == stats["batches"] == stats["queue_depth"] == 0
        assert stats["reservation_depth"] == 0

    def test_threaded_drain_on_shutdown(self):
        daemon = SchedulingDaemon([_spec()], queue_capacity=64)
        daemon.start()
        tickets = daemon.submit_many("sdsc", [_request(k) for k in range(6)])
        daemon.shutdown(drain=True)
        assert [t.result(1.0).status for t in tickets] == [ANSWERED] * 6

    def test_shutdown_idempotent_and_context_manager(self):
        with SchedulingDaemon([_spec()], queue_capacity=8) as daemon:
            ticket = daemon.submit("sdsc", _request())
        assert ticket.result(0.0).status == ANSWERED
        daemon.shutdown()  # second call is a no-op

    def test_result_timeout(self):
        daemon = SchedulingDaemon([_spec()], queue_capacity=8)
        ticket = daemon.submit("sdsc", _request())
        with pytest.raises(TimeoutError):
            ticket.result(0.01)  # nothing pumps this daemon
        daemon.shutdown(drain=False)


# -- batching policy ------------------------------------------------------
class TestMicroBatcher:
    def test_saturated_queue_dispatches_immediately(self):
        mb = MicroBatcher(max_batch=64, target_batch=32, max_linger_s=0.005)
        assert mb.wait_budget(32, 0.0) == 0.0
        assert mb.wait_budget(64, 0.0) == 0.0

    def test_no_rate_estimate_never_lingers(self):
        mb = MicroBatcher()
        assert mb.wait_budget(1, 0.0) == 0.0

    def test_lingers_only_while_arrivals_will_fill(self):
        mb = MicroBatcher(max_batch=64, target_batch=4, max_linger_s=0.010)
        for i in range(8):  # 1 ms gaps -> ewma ~1 ms
            mb.note_arrival(i * 0.001)
        wait = mb.wait_budget(2, oldest_wait_s=0.0)
        assert 0.0 < wait <= 0.010  # 2 more needed at ~1 ms each
        # Trickle traffic (1 s gaps): filling 2 more would blow the
        # linger budget, so dispatch now.
        slow = MicroBatcher(max_batch=64, target_batch=4, max_linger_s=0.010)
        for i in range(4):
            slow.note_arrival(i * 1.0)
        assert slow.wait_budget(2, oldest_wait_s=0.0) == 0.0

    def test_linger_budget_exhausted_dispatches(self):
        mb = MicroBatcher(max_batch=64, target_batch=32, max_linger_s=0.005)
        for i in range(8):
            mb.note_arrival(i * 0.0001)
        assert mb.wait_budget(2, oldest_wait_s=0.005) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            MicroBatcher(max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(max_batch=8, target_batch=16)
        with pytest.raises(ValueError):
            MicroBatcher(max_linger_s=-1.0)

    def test_max_batch_bounds_dispatch(self):
        daemon = SchedulingDaemon(
            [_spec()], queue_capacity=64,
            batcher=MicroBatcher(max_batch=3, target_batch=2),
        )
        tickets = daemon.submit_many("sdsc", [_request(k) for k in range(7)])
        daemon.pump()
        sizes = {t.result(0.0).batch_size for t in tickets}
        assert max(sizes) <= 3
        assert daemon.stats()["sdsc"]["batches"] == 3  # 3 + 3 + 1


# -- shard isolation ------------------------------------------------------
class TestShardIsolation:
    def test_backlogged_shard_does_not_stall_another(self):
        daemon = SchedulingDaemon(
            [_spec("slow", nile_testbed), _spec("fast", sdsc_pcl_testbed)],
            queue_capacity=64,
        )
        daemon.start()
        # Backlog the slow shard (12-machine pool, 4095 candidate sets per
        # request), then ask the fast shard for one answer.
        slow_tickets = daemon.submit_many("slow", [_request(k) for k in range(10)])
        fast_ticket = daemon.submit("fast", _request())
        reply = fast_ticket.result(120.0)  # generous: reference path is slow
        assert reply.status == ANSWERED
        # The point of shard-per-pool workers: the fast answer must not
        # have waited for the slow backlog to clear.
        assert not all(t.done for t in slow_tickets)
        daemon.shutdown(drain=True, timeout=600.0)
        assert all(t.result(0.0).status == ANSWERED for t in slow_tickets)

    def test_pump_processes_all_shards(self):
        daemon = SchedulingDaemon(
            [_spec("a", sdsc_pcl_testbed), _spec("b", casa_testbed)],
            queue_capacity=8,
        )
        ta = daemon.submit_many("a", [_request(k) for k in range(2)])
        tb = daemon.submit_many("b", [_request(k) for k in range(2)])
        assert daemon.pump() == 4
        assert all(t.result(0.0).status == ANSWERED for t in ta + tb)

    def test_shard_failure_resolves_tickets(self):
        daemon = SchedulingDaemon([_spec()], queue_capacity=8)
        request = DecisionRequest(problem=JacobiProblem(n=600, iterations=10), at=AT)
        ticket = daemon.submit("sdsc", request)
        # Force a failure inside the batch: monkeypatch the shard service.
        shard = daemon.shards["sdsc"]

        class _Boom:
            def decide(self, requests):
                raise RuntimeError("boom")

        shard.service = _Boom()
        daemon.pump()
        reply = ticket.result(0.0)  # resolved, never hung
        assert reply.status == FAILED
        assert "boom" in reply.reason
        assert daemon.stats()["sdsc"]["failed"] == 1
        # The shard keeps serving once the fault clears.
        shard.service = None
        healed = daemon.submit("sdsc", request)
        daemon.pump()
        assert healed.result(0.0).status == ANSWERED


# -- one request's failure stays its own ---------------------------------
def _nile_requests(count: int = 8) -> list[DecisionRequest]:
    """Capped requests in both memory policies at one instant on nile."""
    return [
        DecisionRequest(
            problem=JacobiProblem(n=(600, 700, 800)[k % 3], iterations=50),
            userspec=UserSpecification(max_machines=(4, 3, 2)[k % 3]),
            account_memory=k % 2 == 0,
            at=600.0,
        )
        for k in range(count)
    ]


def _pump_nile(requests, workers=1):
    daemon = SchedulingDaemon(
        [_spec("nile", nile_testbed, seed=3)], queue_capacity=16, workers=workers
    )
    try:
        tickets = daemon.submit_many("nile", requests)
        daemon.pump()
        return [t.result(0.0) for t in tickets], daemon.stats()["nile"]
    finally:
        daemon.shutdown()


def _poisoned(requests, k: int = 3):
    """``requests`` with request ``k`` behind a filter that admits no host."""
    bad = replace(requests[k], userspec=UserSpecification(
        accessible_machines=frozenset({"no-such-host"})
    ))
    return requests[:k] + [bad] + requests[k + 1:]


class TestFailureIsolation:
    @pytest.mark.parametrize(
        "workers", [1, pytest.param(2, marks=pytest.mark.slow)]
    )
    def test_an_unsatisfiable_request_is_rejected_alone(self, workers):
        """Inline and pooled: the request whose filter admits no host is
        REJECTED with its own ``NoFeasibleCandidate``; its batch-mates
        get the answers of the same batch without it."""
        requests = _nile_requests()
        replies, stats = _pump_nile(_poisoned(requests), workers)
        clean, _ = _pump_nile(requests[:3] + requests[4:], workers)
        assert [r.status for r in replies] == [ANSWERED] * 3 + [REJECTED] + [ANSWERED] * 4
        assert "NoFeasibleCandidate" in replies[3].reason
        got = [r for k, r in enumerate(replies) if k != 3]
        assert [_sig(r.answer) for r in got] == [_sig(r.answer) for r in clean]
        assert (stats["answered"], stats["rejected"], stats["failed"]) == (7, 1, 0)

    @pytest.mark.parametrize("phase", ["stage", "decide"])
    def test_a_raising_configuration_fails_only_its_tickets(self, phase):
        """A configuration that raises while staging or deciding fails its
        own tickets (FAILED, with the error); the others are answered."""
        requests = _nile_requests()
        doomed = replace(requests[5], problem=JacobiProblem(n=600, iterations=13))
        original = getattr(AppLeSAgent, phase)

        def raising(agent, *args):
            if agent.info.hat.structure.iterations == 13:
                raise RuntimeError(f"{phase} boom")
            return original(agent, *args)

        with mock.patch.object(AppLeSAgent, phase, autospec=True, side_effect=raising):
            replies, _ = _pump_nile(requests[:5] + [doomed] + requests[6:])
        clean, _ = _pump_nile(requests[:5] + requests[6:])
        assert replies[5].status == FAILED and f"{phase} boom" in replies[5].reason
        got = [r for k, r in enumerate(replies) if k != 5]
        assert [_sig(r.answer) for r in got] == [_sig(r.answer) for r in clean]

    def test_every_ticket_of_a_batch_carries_its_size(self):
        """A ticket resolved from a batch reads the batch's size whatever
        its status: 0 means it never reached a batch."""
        replies, _ = _pump_nile(_poisoned(_nile_requests(3), k=1))
        assert [r.status for r in replies] == [ANSWERED, REJECTED, ANSWERED]
        assert [r.batch_size for r in replies] == [3, 3, 3]
        with mock.patch.object(
            service_core, "evaluate_strip_batch",
            side_effect=RuntimeError("kernel boom"),
        ):
            replies, _ = _pump_nile(_nile_requests(3))
        assert [(r.status, r.batch_size) for r in replies] == [(FAILED, 3)] * 3

    def test_a_kernel_error_fails_every_configuration_in_the_call(self):
        with mock.patch.object(
            service_core, "evaluate_strip_batch",
            side_effect=RuntimeError("kernel boom"),
        ):
            replies, stats = _pump_nile(_nile_requests())
        assert {r.status for r in replies} == {FAILED}
        assert all("kernel boom" in r.reason for r in replies)
        assert stats["failed"] == 8

    def test_the_service_reports_each_request_outcome(self):
        """``decide()`` raises one ``PartialBatchError`` carrying the
        answers and the error; a lone failing request raises its own error."""
        requests = _nile_requests()
        with pytest.raises(PartialBatchError) as info:
            _service_answers(_poisoned(requests), builder=nile_testbed, seed=3)
        outcomes = info.value.outcomes
        assert isinstance(outcomes[3], NoFeasibleCandidate)
        clean = _service_answers(requests[:3] + requests[4:], builder=nile_testbed, seed=3)
        assert [_sig(a) for a in outcomes[:3] + outcomes[4:]] == [_sig(a) for a in clean]
        with pytest.raises(NoFeasibleCandidate):
            _service_answers(_poisoned(requests)[3:4], builder=nile_testbed, seed=3)


# -- bit-identity with the service ---------------------------------------
class TestBitIdentity:
    def test_pump_equals_service(self):
        requests = [_request(k) for k in range(6)]
        daemon = SchedulingDaemon([_spec()], queue_capacity=16)
        tickets = daemon.submit_many("sdsc", requests)
        daemon.pump()
        reference = _service_answers(requests)
        for ticket, ref in zip(tickets, reference):
            assert _sig(ticket.result(0.0).answer) == _sig(ref)

    def test_threaded_equals_service_across_instants(self):
        requests = [_request(k) for k in range(4)]
        later = [_request(k, at=AT + 120.0) for k in range(4)]
        daemon = SchedulingDaemon([_spec()], queue_capacity=32)
        daemon.start()
        tickets = daemon.submit_many("sdsc", requests)
        for t in tickets:  # force instant separation: first wave answered
            t.result(10.0)
        tickets += daemon.submit_many("sdsc", later)
        daemon.shutdown(drain=True)
        reference = _service_answers(requests + later)
        for ticket, ref in zip(tickets, reference):
            assert _sig(ticket.result(0.0).answer) == _sig(ref)

    def test_oracle_gate_equals_its_service(self):
        """Daemon answers equal the decision oracle's, search statistics
        aside (the oracle prunes nothing by design)."""
        requests = [_request(k) for k in range(3)]
        daemon = SchedulingDaemon([_spec()], queue_capacity=8)
        tickets = daemon.submit_many("sdsc", requests)
        daemon.pump()
        for ticket, ref in zip(tickets, _reference_decisions(requests)):
            got = ticket.result(0.0).answer
            assert _sig(got, pruning=False) == _sig(
                ServiceAnswer.from_decision(ref, at=AT), pruning=False
            )

    @pytest.mark.slow
    def test_process_mode_equals_service(self):
        requests = [_request(k) for k in range(5)]
        daemon = SchedulingDaemon(
            [_spec("sdsc"), _spec("casa", casa_testbed)],
            queue_capacity=16, workers=2,
        )
        daemon.start()
        ta = daemon.submit_many("sdsc", requests)
        tb = daemon.submit_many("casa", requests)
        daemon.shutdown(drain=True)
        for ticket, ref in zip(ta, _service_answers(requests)):
            assert _sig(ticket.result(0.0).answer) == _sig(ref)
        for ticket, ref in zip(tb, _service_answers(requests, builder=casa_testbed)):
            assert _sig(ticket.result(0.0).answer) == _sig(ref)

    @pytest.mark.slow
    def test_dead_pool_is_rebuilt(self):
        """SIGKILL every pool worker: the batch that meets the dead pool
        fails, the pool is dropped, and later batches are answered by a
        fresh one, bit-identical to a one-shot service."""
        requests = [_request(k) for k in range(3)]
        daemon = SchedulingDaemon([_spec()], queue_capacity=8, workers=2)
        try:
            first = daemon.submit("sdsc", requests[0])
            daemon.pump()
            assert first.result(0.0).status == ANSWERED
            pool = daemon._runner._pool
            workers = list(pool._processes.values())
            assert workers
            for proc in workers:
                os.kill(proc.pid, signal.SIGKILL)
            for proc in workers:
                proc.join(10.0)
            deadline = time.monotonic() + 10.0
            while not pool._broken and time.monotonic() < deadline:
                time.sleep(0.01)

            doomed = daemon.submit("sdsc", requests[1])
            daemon.pump()
            reply = doomed.result(0.0)
            assert reply.status == FAILED
            assert "BrokenProcessPool" in reply.reason
            assert daemon.stats()["sdsc"]["pool_rebuilds"] == 1

            later = daemon.submit("sdsc", requests[2])
            daemon.pump()
            answer = later.result(0.0)
            assert answer.status == ANSWERED
            (fresh,) = _service_answers([requests[2]])
            assert _sig(answer.answer) == _sig(fresh)
            assert daemon.stats()["sdsc"]["pool_rebuilds"] == 1
        finally:
            daemon.shutdown()

    @settings(
        max_examples=12, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        ks=st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=8),
        split=st.integers(min_value=1, max_value=4),
    )
    def test_property_any_multiset_matches_service(self, ks, split):
        """However the multiset is sliced into submissions, daemon
        answers equal one SchedulingService.decide() over the same list."""
        requests = [_request(k) for k in ks]
        daemon = SchedulingDaemon(
            [_spec()], queue_capacity=len(requests),
            batcher=MicroBatcher(max_batch=max(1, split), target_batch=1),
        )
        tickets = []
        for i in range(0, len(requests), split):
            tickets += daemon.submit_many("sdsc", requests[i : i + split])
            daemon.pump()
        reference = _service_answers(requests)
        for ticket, ref in zip(tickets, reference):
            assert _sig(ticket.result(0.0).answer) == _sig(ref)


# -- cross-call reuse staleness (the satellite regression) ----------------
class TestReuseStaleness:
    def test_snapshot_goes_stale_and_a_scope_refuses_it(self):
        testbed = sdsc_pcl_testbed(seed=1996)
        nws = NetworkWeatherService.for_testbed(testbed, seed=7)
        agent = make_jacobi_agent(
            testbed, JacobiProblem(n=600, iterations=10), nws
        )
        with agent.info.decision_scope() as snapshot:
            assert isinstance(snapshot, ForecastSnapshot)
            assert not snapshot.stale
        nws.advance_to(100.0)
        assert snapshot.stale
        with pytest.raises(ValueError, match="stale"):
            with agent.info.decision_scope(snapshot):
                pass

    def test_reusing_service_renews_a_stale_snapshot(self):
        """A reusing service keeps its snapshot while it is fresh; once the
        NWS advances it takes a new one, on which nothing derived from the
        old pool state is found."""
        testbed = sdsc_pcl_testbed(seed=1996)
        nws = NetworkWeatherService.for_testbed(testbed, seed=7)
        service = SchedulingService(testbed, nws, reuse=True)
        taken = []
        real = ResourcePool.snapshot

        def snapshot(pool, machines=None):
            taken.append(real(pool, machines))
            return taken[-1]

        with mock.patch.object(ResourcePool, "snapshot", snapshot):
            service.decide([_request(0)])
            taken[0].derived(("probe",), lambda: "from-stale-state")
            service.decide([_request(1)])  # same pool state, same snapshot
            assert len(taken) == 1
            service.decide([_request(0, at=AT + 60.0)])
        assert len(taken) == 2
        assert taken[0].stale and not taken[1].stale
        assert taken[1].derived(("probe",), lambda: "fresh") == "fresh"

    def test_another_snapshot_sees_no_derived_values(self):
        testbed = sdsc_pcl_testbed(seed=1996)
        nws = NetworkWeatherService.for_testbed(testbed, seed=7)
        info = make_jacobi_agent(
            testbed, JacobiProblem(n=600, iterations=10), nws
        ).info
        with info.decision_scope():
            info.derived(("probe",), lambda: 42)
        other = info.pool.snapshot()
        with info.decision_scope(other) as snapshot:
            assert snapshot is other
            assert info.derived(("probe",), lambda: "other") == "other"

    def test_same_fresh_snapshot_sees_derived_values(self):
        testbed = sdsc_pcl_testbed(seed=1996)
        nws = NetworkWeatherService.for_testbed(testbed, seed=7)
        info = make_jacobi_agent(
            testbed, JacobiProblem(n=600, iterations=10), nws
        ).info
        with info.decision_scope() as snapshot:
            info.derived(("probe",), lambda: 42)
        with info.decision_scope(snapshot) as again:
            assert again is snapshot
            assert info.derived(("probe",), lambda: "rebuilt") == 42

    def test_reuse_requires_nws(self):
        testbed = sdsc_pcl_testbed(seed=1996)
        with pytest.raises(ValueError, match="reuse"):
            SchedulingService(testbed, None, reuse=True)

    def test_mutated_pool_never_serves_stale_decision(self):
        """The regression the daemon path depends on: advance the NWS
        between decides of one reusing service; every answer must equal a
        fresh solo agent's at that instant, never the cached earlier one."""
        requests = [_request(k) for k in range(3)]
        testbed = sdsc_pcl_testbed(seed=1996)
        nws = NetworkWeatherService.for_testbed(testbed, seed=7)
        service = SchedulingService(testbed, nws, reuse=True)
        first = service.decide(requests)
        again = service.decide(requests)  # same pool state: cached answers
        for a, b in zip(first, again):
            assert _sig(a) == _sig(b)
        # Mutate the pool (the NWS advances; snapshot goes stale).
        later = [_request(k, at=AT + 300.0) for k in range(3)]
        moved = service.decide(later)
        # Fresh world, fresh solo agents, same instants: the oracle.
        oracle = _service_answers(requests + later)
        for answer, ref in zip(first + moved, oracle):
            assert _sig(answer) == _sig(ref)
        # And the moved answers must differ from a stale replay wherever
        # the pool state actually changed the prediction.
        assert [a.at for a in moved] == [AT + 300.0] * 3

    def test_retry_after_a_failed_batch_answers_like_a_fresh_service(self):
        """A ``decide()`` that raises after staging leaves nothing behind
        but the snapshot: a retry at the same pool state restages every
        configuration and answers bit-identically to a fresh service."""
        requests = [_request(k) for k in range(4)]
        testbed = sdsc_pcl_testbed(seed=1996)
        nws = NetworkWeatherService.for_testbed(testbed, seed=7)
        service = SchedulingService(testbed, nws, reuse=True)
        with mock.patch.object(
            service_core, "evaluate_strip_batch",
            side_effect=RuntimeError("batch failed"),
        ):
            with pytest.raises(RuntimeError, match="batch failed"):
                service.decide(requests)
        retried = service.decide(requests)
        fresh = _service_answers(requests)
        assert [_sig(a) for a in retried] == [_sig(a) for a in fresh]

    def test_daemon_path_staleness(self):
        """Same regression through the daemon: one shard, two instants."""
        daemon = SchedulingDaemon([_spec()], queue_capacity=16)
        early = [_request(k) for k in range(2)]
        late = [_request(k, at=AT + 240.0) for k in range(2)]
        t_early = daemon.submit_many("sdsc", early)
        daemon.pump()
        t_late = daemon.submit_many("sdsc", late)
        daemon.pump()
        reference = _service_answers(early + late)
        for ticket, ref in zip(t_early + t_late, reference):
            assert _sig(ticket.result(0.0).answer) == _sig(ref)


# -- observability --------------------------------------------------------
class TestObservability:
    def test_traced_untraced_bit_identical_with_instruments(self):
        requests = [_request(k) for k in range(5)]
        daemon = SchedulingDaemon([_spec()], queue_capacity=16)
        tickets = daemon.submit_many("sdsc", requests)
        daemon.pump()
        base = [_sig(t.result(0.0).answer) for t in tickets]

        with tracing() as tr:
            traced_daemon = SchedulingDaemon([_spec()], queue_capacity=16)
            traced_tickets = traced_daemon.submit_many("sdsc", requests)
            traced_daemon.pump()
        assert [_sig(t.result(0.0).answer) for t in traced_tickets] == base

        metrics = tr.metrics.as_dict()
        assert metrics["daemon.submitted"]["value"] == len(requests)
        assert metrics["daemon.answered"]["value"] == len(requests)
        assert metrics["daemon.batches"]["value"] >= 1
        assert "daemon.queue_depth.sdsc" in metrics
        assert metrics["daemon.batch_size"]["count"] >= 1
        assert any(
            r["kind"] == "span" and r["name"] == "daemon.batch"
            for r in tr.records()
        )

    def test_shed_and_reject_counters(self):
        with tracing() as tr:
            daemon = SchedulingDaemon([_spec()], queue_capacity=1)
            daemon.submit_many("sdsc", [_request(k) for k in range(3)])
            daemon.submit("sdsc", _request(0, at=AT - 60.0))
            daemon.pump()
        metrics = tr.metrics.as_dict()
        assert metrics["daemon.shed"]["value"] == 2
        assert metrics["daemon.rejected"]["value"] == 1

    def test_solo_decision_path_counters(self):
        """Every answered request is attributed to exactly one decision
        path: ``service.solo_vectorised`` (the one-shot tensor sweep /
        batched core) or ``service.solo_scalar`` (the per-candidate
        loop).  The counters are how operators see the split."""
        requests = [_request(k) for k in range(4)]
        with tracing() as tr:
            daemon = SchedulingDaemon([_spec()], queue_capacity=16)
            tickets = daemon.submit_many("sdsc", requests)
            daemon.pump()
        assert all(t.result(0.0).status == ANSWERED for t in tickets)
        metrics = tr.metrics.as_dict()
        vectorised = metrics.get("service.solo_vectorised", {}).get("value", 0)
        scalar = metrics.get("service.solo_scalar", {}).get("value", 0)
        assert vectorised + scalar == len(requests)
        # Strip-only requests all ride the batched/vectorised core.
        assert vectorised == len(requests) and scalar == 0

    def test_scalar_config_counts_as_scalar_solo(self):
        """A configuration the batched core cannot take (two active
        decomposition families) is answered by a solo scalar decision —
        and counted as one."""
        spec = UserSpecification(decomposition_preference=("strip", "blocked"))
        request = DecisionRequest(
            problem=JacobiProblem(n=600, iterations=10), userspec=spec, at=AT
        )
        with tracing() as tr:
            daemon = SchedulingDaemon([_spec()], queue_capacity=8)
            ticket = daemon.submit("sdsc", request)
            daemon.pump()
        assert ticket.result(0.0).status == ANSWERED
        metrics = tr.metrics.as_dict()
        assert metrics["service.solo_scalar"]["value"] == 1
        assert "service.solo_vectorised" not in metrics
        assert metrics["service.scalar_configs"]["value"] == 1


# -- load generator -------------------------------------------------------
class TestLoadGenerator:
    def test_population_deterministic(self):
        pop = SyntheticPopulation(["a", "b"], seed=5)
        assert pop.requests(6) == SyntheticPopulation(["a", "b"], seed=5).requests(6)
        shards = [s for s, _ in pop.requests(6)]
        assert shards == ["a", "b", "a", "b", "a", "b"]

    def test_population_instants_advance_by_index(self):
        pop = SyntheticPopulation(
            ["a"], seed=5, base_at=100.0, step_s=50.0, instant_every=2
        )
        ats = [r.at for _, r in pop.requests(5)]
        assert ats == [100.0, 100.0, 150.0, 150.0, 200.0]

    def test_open_loop_events_seeded(self):
        pop = SyntheticPopulation(["a"], seed=5)
        one = open_loop_events(pop, rate_hz=100.0, n_requests=10)
        two = open_loop_events(pop, rate_hz=100.0, n_requests=10)
        assert one == two
        offsets = [e.offset_s for e in one]
        assert offsets == sorted(offsets)
        assert all(o > 0 for o in offsets)

    def test_open_loop_run_answers_match_service(self):
        pop = SyntheticPopulation(["sdsc"], seed=5, instant_every=0)
        events = open_loop_events(pop, rate_hz=2000.0, n_requests=6)
        daemon = SchedulingDaemon([_spec()], queue_capacity=16)
        daemon.start()
        tickets = run_open_loop(daemon, events, speed=100.0)
        daemon.shutdown(drain=True)
        reference = _service_answers([e.request for e in events])
        for ticket, ref in zip(tickets, reference):
            assert _sig(ticket.result(0.0).answer) == _sig(ref)

    def test_closed_loop_multiset_matches_population(self):
        pop = SyntheticPopulation(["sdsc"], seed=5, instant_every=0)
        daemon = SchedulingDaemon([_spec()], queue_capacity=32)
        daemon.start()
        tickets = run_closed_loop(daemon, pop, users=3, requests_per_user=2)
        daemon.shutdown(drain=True)
        assert len(tickets) == 6
        assert all(t.result(0.0).status == ANSWERED for t in tickets)
        submitted = sorted(
            (t.request.problem.n, t.request.problem.iterations) for t in tickets
        )
        expected = sorted(
            (r.problem.n, r.problem.iterations) for _, r in pop.requests(6)
        )
        assert submitted == expected


# -- the reservation lane --------------------------------------------------


def _reservation(k: int = 0, priority: int = 2, **overrides):
    from repro.reserve import ReservationRequest

    kwargs = dict(
        request_id=f"res-{k:03d}",
        problem=JacobiProblem(n=300 + 100 * (k % 2), iterations=10),
        earliest_start=60.0 + 30.0 * k,
        deadline=2400.0 + 30.0 * k,
        priority=priority,
    )
    kwargs.update(overrides)
    return ReservationRequest(**kwargs)


class TestReservationLane:
    def test_books_through_the_lane(self):
        daemon = SchedulingDaemon([_spec()], queue_capacity=8)
        ticket = daemon.submit_reservation("sdsc", _reservation(0))
        assert ticket._reply is None  # queued, not answered synchronously
        daemon.pump()
        reply = ticket.result(0.0)
        assert reply.status == BOOKED
        assert reply.bookings and reply.bookings[0].request_id == "res-000"
        sh = daemon.shards["sdsc"]
        assert len(sh.ledger) == 1
        stats = daemon.stats()["sdsc"]
        assert stats["reservations"] == 1 and stats["booked"] == 1
        assert stats["reservation_depth"] == 0

    def test_lane_ledger_stays_conflict_free(self):
        from repro.reserve import verify_ledger
        daemon = SchedulingDaemon([_spec()], queue_capacity=8)
        requests = [_reservation(k) for k in range(3)]
        tickets = [
            daemon.submit_reservation("sdsc", r) for r in requests
        ]
        daemon.pump()
        assert all(t.result(0.0).status == BOOKED for t in tickets)
        ledger = daemon.shards["sdsc"].ledger
        assert len(ledger) == 3
        assert verify_ledger(ledger, requests) == []

    def test_priority_classes_plan_first(self):
        daemon = SchedulingDaemon([_spec()], queue_capacity=8)
        weak = daemon.submit_reservation("sdsc", _reservation(0, priority=3))
        strong = daemon.submit_reservation("sdsc", _reservation(1, priority=1))
        daemon.pump()
        assert weak.result(0.0).status == BOOKED
        assert strong.result(0.0).status == BOOKED
        # The class-1 request was planned first despite arriving second.
        ledger = daemon.shards["sdsc"].ledger
        assert [b.request_id for b in ledger.bookings] == [
            "res-001", "res-000",
        ]

    def test_unplaceable_resolves_rejected(self):
        daemon = SchedulingDaemon([_spec()], queue_capacity=8)
        ticket = daemon.submit_reservation(
            "sdsc", _reservation(0, min_machines=99)
        )
        daemon.pump()
        reply = ticket.result(0.0)
        assert reply.status == REJECTED
        assert reply.reason == "no-feasible-candidate"
        assert daemon.stats()["sdsc"]["rejected"] == 1

    def test_full_lane_sheds_explicitly(self):
        daemon = SchedulingDaemon(
            [_spec()], queue_capacity=8, reservation_capacity=1
        )
        daemon.submit_reservation("sdsc", _reservation(0))
        shed = daemon.submit_reservation("sdsc", _reservation(1))
        reply = shed.result(0.0)
        assert reply.status == SHED
        assert reply.reason == "reservation-lane-full"
        assert daemon.stats()["sdsc"]["shed"] == 1

    def test_unknown_shard_raises(self):
        daemon = SchedulingDaemon([_spec()], queue_capacity=8)
        with pytest.raises(KeyError, match="unknown shard"):
            daemon.submit_reservation("nope", _reservation(0))

    def test_shutdown_rejects_queued_reservations(self):
        daemon = SchedulingDaemon([_spec()], queue_capacity=8)
        queued = daemon.submit_reservation("sdsc", _reservation(0))
        daemon.shutdown(drain=False)
        assert queued.result(0.0).status == REJECTED
        assert queued.result(0.0).reason == "shutdown"
        late = daemon.submit_reservation("sdsc", _reservation(1))
        assert late.result(0.0).status == REJECTED

    def test_threaded_lane_books(self):
        daemon = SchedulingDaemon([_spec()], queue_capacity=8)
        daemon.start()
        ticket = daemon.submit_reservation("sdsc", _reservation(0))
        reply = ticket.result(30.0)
        assert reply.status == BOOKED
        daemon.shutdown(drain=True)
        assert daemon.stats()["sdsc"]["booked"] == 1

    def test_decision_lane_unaffected_by_reservations(self):
        # The reservation lane plans over a private world: the decision
        # lane's answers are bit-identical with and without lane traffic.
        daemon = SchedulingDaemon([_spec()], queue_capacity=8)
        daemon.submit_reservation("sdsc", _reservation(0))
        mixed = daemon.submit("sdsc", _request(0))
        daemon.pump()
        reference = _service_answers([_request(0)])
        assert _sig(mixed.result(0.0).answer) == _sig(reference[0])


# -- one lifecycle for both lanes and both modes ---------------------------
def _booking_sig(booking):
    return (
        booking.booking_id, booking.request_id, booking.occurrence,
        booking.start, booking.end, booking.machines, booking.points,
        booking.objective,
    )


def _outcome(reply):
    return (
        reply.status,
        reply.reason,
        _sig(reply.answer) if reply.answer is not None else None,
        tuple(_booking_sig(b) for b in reply.bookings),
    )


def _mixed_load(daemon, between, end):
    """Submit one mixed load in two waves, calling ``between`` after the
    first and ``end`` after the second; returns every ticket in order.

    The first wave holds four decisions, one whose filter admits no
    host, and four reservations of which one is unplaceable and one
    finds the three-place lane full.  The second wave holds a decision
    at a later instant and one behind the clock that instant set.
    """
    nowhere = UserSpecification(accessible_machines=frozenset({"no-such-host"}))
    tickets = daemon.submit_many("sdsc", [_request(k) for k in range(4)])
    tickets.append(daemon.submit("sdsc", replace(_request(4), userspec=nowhere)))
    tickets += [
        daemon.submit_reservation("sdsc", r)
        for r in (
            _reservation(0), _reservation(1, priority=1),
            _reservation(2, min_machines=99), _reservation(3),
        )
    ]
    between()
    tickets.append(daemon.submit("sdsc", _request(5, at=AT + 120.0)))
    tickets.append(daemon.submit("sdsc", _request(6)))
    end()
    return tickets


class TestOneLifecycle:
    """Both lanes, pumped or served by a started worker, walk one
    admission, take and settle: every ticket ends alike."""

    EXPECTED = [ANSWERED] * 4 + [REJECTED, BOOKED, BOOKED, REJECTED, SHED, ANSWERED, REJECTED]

    def _daemon(self):
        return SchedulingDaemon([_spec()], queue_capacity=16, reservation_capacity=3)

    def _check(self, daemon, tickets):
        replies = [t.result(0.0) for t in tickets]
        assert [r.status for r in replies] == self.EXPECTED
        assert "NoFeasibleCandidate" in replies[4].reason
        assert replies[7].reason == "no-feasible-candidate"
        assert replies[8].reason == "reservation-lane-full"
        assert replies[10].reason.startswith("stale-instant")
        stats = daemon.stats()["sdsc"]
        statuses = [r.status for r in replies]
        for status in (ANSWERED, BOOKED, SHED, REJECTED, FAILED):
            assert stats[status] == statuses.count(status), status
        assert stats["queue_depth"] == stats["reservation_depth"] == 0
        return [_outcome(r) for r in replies]

    def test_pump_and_started_worker_end_every_ticket_alike(self):
        pumped = self._daemon()
        tickets = _mixed_load(pumped, pumped.pump, pumped.pump)
        pumped_outcomes = self._check(pumped, tickets)
        pumped.shutdown()

        served = self._daemon()
        try:
            tickets = _mixed_load(served, served.start, lambda: served.drain(120.0))
            assert self._check(served, tickets) == pumped_outcomes
        finally:
            served.shutdown()

    def test_shutdown_without_drain_rejects_both_lanes_of_a_started_daemon(self):
        """While the worker holds one batch, queued decisions and
        reservations are rejected at once; the held batch is answered."""
        daemon = SchedulingDaemon([_spec()], queue_capacity=8)
        shard = daemon.shards["sdsc"]
        service = shard.ensure_service()
        holding, release = threading.Event(), threading.Event()

        class _Held:
            def decide(self, requests):
                holding.set()
                release.wait(60.0)
                return service.decide(requests)

        shard.service = _Held()
        daemon.start()
        held = daemon.submit("sdsc", _request(0))
        assert holding.wait(60.0)
        queued = daemon.submit_many("sdsc", [_request(k) for k in (1, 2)])
        queued += [daemon.submit_reservation("sdsc", _reservation(k)) for k in (0, 1)]
        stopper = threading.Thread(target=daemon.shutdown, kwargs={"drain": False})
        stopper.start()
        try:
            replies = [t.result(60.0) for t in queued]
        finally:
            release.set()
            stopper.join(60.0)
        assert not stopper.is_alive() and not shard.thread.is_alive()
        assert all(r.status == REJECTED and r.reason == "shutdown" for r in replies)
        assert held.result(0.0).status == ANSWERED
        stats = daemon.stats()["sdsc"]
        assert (stats["answered"], stats["rejected"]) == (1, 4)
        assert stats["queue_depth"] == stats["reservation_depth"] == 0
        assert daemon.submit_reservation("sdsc", _reservation(2)).result(0.0).reason == "shutdown"
