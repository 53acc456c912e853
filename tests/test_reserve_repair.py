"""Planner and incremental repair: the differential harness.

The repair engine's contract, on small exactly-checkable scenarios over a
6-host synthetic world:

- repair reaches a ledger the standalone :func:`verify_ledger` accepts;
- every booking repair did not touch is *the same object* afterwards
  (``is``-identity, not tolerance);
- the repaired ledger books the same ``(request, occurrence)`` set a
  from-scratch replan books, while spending strictly fewer decisions;
- the whole pipeline is bit-identical whether the expander rewinds its
  world's NWS over the forecast history or (``rebuild_on_every_rewind``)
  rebuilds every rewound world from seeds.
"""

from __future__ import annotations

import pytest

from repro.jacobi.grid import JacobiProblem
from repro.reserve import (
    RepairSweep,
    ReservationLedger,
    ReservationPlanner,
    ReservationRequest,
    seeded_requests,
    verify_ledger,
)

WORLD = {
    "generator": "synthetic",
    "n_hosts": 6,
    "n_segments": 2,
    "seed": 21,
    "nws_seed": 22,
    "warmup_s": 300.0,
}

#: The 8-host SDSC/PCL world ``seeded_requests`` workloads are sized for.
SDSC_WORLD = {
    "generator": "sdsc",
    "n_hosts": 8,
    "n_segments": None,
    "seed": 1996,
    "nws_seed": 1997,
    "warmup_s": 600.0,
}


def small_workload(count: int = 6) -> list[ReservationRequest]:
    """Heavily overlapping windows on the 6-host world."""
    return seeded_requests(
        count, seed=7, base_at=360.0, stagger_s=60.0, window_s=1500.0
    )


def fresh_plan(requests):
    planner = ReservationPlanner(world=WORLD, label="test")
    return planner, planner.plan(list(requests))


def occurrence_set(ledger: ReservationLedger) -> set[tuple[str, int]]:
    return {(b.request_id, b.occurrence) for b in ledger.bookings}


@pytest.fixture(scope="module")
def workload():
    return small_workload()


@pytest.fixture(scope="module")
def planned(workload):
    """One booked baseline shared by the read-only tests."""
    return fresh_plan(workload)


class TestPlan:
    def test_books_a_verified_partition(self, workload, planned):
        planner, outcome = planned
        # Booked plus rejected is exactly the occurrence set; whatever was
        # rejected failed its own constraints (here: min_machines asks for
        # more machines than the best decision uses), not bookkeeping.
        want = sum(r.repeat_count for r in workload)
        assert len(outcome.booked) + len(outcome.rejected) == want
        assert len(outcome.booked) >= want - 2
        by_id = {r.request_id: r for r in workload}
        assert all(
            by_id[rid].min_machines > 1 for rid, _ in outcome.rejected
        )
        assert verify_ledger(outcome.ledger, workload) == []

    def test_deterministic(self, workload, planned):
        _, again = fresh_plan(workload)
        assert again.ledger.bookings == planned[1].ledger.bookings
        assert again.booked == planned[1].booked

    def test_priority_classes_plan_first(self, workload, planned):
        _, outcome = planned
        ledger = planned[0].requests
        order = [ledger[b.request_id].priority
                 for b in planned[1].ledger.bookings]
        assert order == sorted(order)

    def test_impossible_request_rejected_not_raised(self):
        impossible = ReservationRequest(
            request_id="too-big",
            problem=JacobiProblem(n=300, iterations=10),
            earliest_start=360.0,
            deadline=1500.0,
            min_machines=99,
        )
        _, outcome = fresh_plan([impossible])
        assert outcome.booked == ()
        assert outcome.rejected == (("too-big", 0),)


class TestDifferentialRepair:
    """Repair vs from-scratch replan, exact on small scenarios."""

    def _urgent(self) -> ReservationRequest:
        return ReservationRequest(
            request_id="urgent",
            problem=JacobiProblem(n=300, iterations=10),
            earliest_start=400.0,
            deadline=1900.0,
            priority=1,
        )

    def test_new_request_arrival(self, workload):
        planner, outcome = fresh_plan(workload)
        ledger = outcome.ledger
        before = {b.booking_id: b for b in ledger.bookings}
        urgent = self._urgent()

        repair = planner.repair(ledger, new_requests=[urgent])
        assert verify_ledger(ledger, list(workload) + [urgent]) == []
        assert ("urgent", 0) in occurrence_set(ledger)
        for bid in repair.untouched:
            assert ledger.get(bid) is before[bid]

        _, replan = fresh_plan(list(workload) + [urgent])
        assert occurrence_set(ledger) == occurrence_set(replan.ledger)
        assert repair.stats.decisions < replan.decisions

    def test_invalidation_forces_reexpansion(self, workload):
        planner, outcome = fresh_plan(workload)
        ledger = outcome.ledger
        stale = outcome.booked[0]
        before = {b.booking_id: b for b in ledger.bookings}

        repair = planner.repair(ledger, invalidate=(stale,))
        assert repair.repaired[stale] == "re-expand"
        assert repair.stats.invalidated == 1
        assert verify_ledger(ledger, workload) == []
        # Everything else is the same object.
        assert set(repair.untouched) == set(before) - {stale}
        for bid in repair.untouched:
            assert ledger.get(bid) is before[bid]
        assert occurrence_set(ledger) == occurrence_set(outcome.ledger)

    def test_forced_conflict_resolved(self, workload):
        planner, outcome = fresh_plan(workload)
        ledger = outcome.ledger
        # Shove the last booking onto the first one's machines and
        # interval: a forced overlap the conflict detector must find and
        # repair must resolve.
        import dataclasses

        first = ledger.get(outcome.booked[0])
        # The victim must have been individually valid before and stay so
        # after the forced move (repair fixes conflicts, it does not grant
        # constraints the booking never met) — pick a min_machines=1 one.
        victim_id = next(
            bid
            for bid in reversed(outcome.booked)
            if bid != first.booking_id
            and planner.requests[ledger.get(bid).request_id].min_machines == 1
        )
        victim = ledger.remove(victim_id)
        share = sum(victim.points) / len(first.machines)
        forced = dataclasses.replace(
            victim,
            start=first.start,
            end=first.start + victim.duration,
            machines=first.machines,
            points=tuple(share for _ in first.machines),
        )
        ledger.book(forced, force=True)
        assert ledger.conflicts(), "scenario failed to create a conflict"

        repair = planner.repair(ledger)
        assert verify_ledger(ledger, workload) == []
        assert repair.stats.conflicts_found > 0
        assert occurrence_set(ledger) == occurrence_set(outcome.ledger)
        # The loser (lower class, later order) was repaired, not the winner.
        assert first.booking_id not in repair.repaired

    def test_repair_on_clean_ledger_is_a_noop(self, workload, planned):
        planner, outcome = planned
        before = tuple(outcome.ledger.bookings)
        repair = planner.repair(outcome.ledger)
        assert repair.actions == ()
        assert repair.stats.decisions == 0
        assert tuple(outcome.ledger.bookings) == before
        assert set(repair.untouched) == {b.booking_id for b in before}

    def test_loaded_ledger_repairs_with_requests_kwarg(
        self, tmp_path, workload
    ):
        from repro.reserve import load_bookings, save_bookings

        _, outcome = fresh_plan(workload)
        path = tmp_path / "bookings.jsonl"
        save_bookings(path, outcome.ledger)
        loaded = load_bookings(path)

        fresh = ReservationPlanner(world=WORLD, label="test")
        repair = fresh.repair(
            loaded,
            new_requests=[self._urgent()],
            requests=workload,
        )
        assert ("urgent", 0) in occurrence_set(loaded)
        assert verify_ledger(loaded, list(workload) + [self._urgent()]) == []
        assert repair.booked != ()


def rebuild_on_every_rewind(expander) -> None:
    """The oracle: every NWS the expander builds refuses to rewind, so each
    rewind takes the production fallback, a from-seeds rebuild."""
    build = expander._build

    def refuse(t: float) -> None:
        raise ValueError("oracle: rebuild from seeds")

    def build_refusing() -> None:
        build()
        expander._nws.rewind_to = refuse

    expander._build = build_refusing


class TestGateEquivalence:
    """The expander's NWS rewinds vs the rebuild-from-seeds oracle."""

    def _run(self, rewind: bool):
        workload = small_workload(4)
        planner = ReservationPlanner(world=WORLD, label="test")
        if not rewind:
            rebuild_on_every_rewind(planner.expander)
        outcome = planner.plan(list(workload))
        urgent = ReservationRequest(
            request_id="urgent",
            problem=JacobiProblem(n=300, iterations=10),
            earliest_start=400.0,
            deadline=1900.0,
            priority=1,
        )
        planner.repair(
            outcome.ledger,
            new_requests=[urgent],
            invalidate=(outcome.booked[0],),
        )
        return planner, tuple(outcome.ledger.bookings)

    def test_rewind_bit_identical_to_rebuilds(self):
        """Rewinding the NWS over its history equals rebuilding from seeds
        and advancing, bit for bit (the warm-cache argument)."""
        planner, rewound = self._run(rewind=True)
        oracle, rebuilt = self._run(rewind=False)
        assert rewound == rebuilt
        assert planner.expander.stats.restores > 0, (
            "scenario never exercised the rewind path"
        )
        assert oracle.expander.stats.restores == 0
        assert oracle.expander.stats.rebuilds > 0
        assert oracle.expander.stats.rebuilds == planner.expander.stats.rebuilds

    def test_fast_path_actually_restores(self, workload):
        planner, outcome = fresh_plan(workload)
        stats = planner.expander.stats
        assert stats.rebuilds > 0, "workload never rewound the clock"
        assert stats.restores > 0, "rewinds never served from the history"


class TestErrors:
    def test_unknown_invalidation_fails_before_mutation(self, workload):
        planner, outcome = fresh_plan(workload)
        before = tuple(outcome.ledger.bookings)
        with pytest.raises(KeyError, match="unknown booking"):
            planner.repair(outcome.ledger, invalidate=("nope",))
        assert tuple(outcome.ledger.bookings) == before

    def test_unregistered_request_is_an_error(self, workload):
        _, outcome = fresh_plan(workload)
        stranger = ReservationPlanner(world=WORLD, label="test")
        with pytest.raises(ValueError, match="not registered"):
            stranger.repair(outcome.ledger, invalidate=(outcome.booked[0],))

    def test_register_rejects_conflicting_content(self, workload):
        planner, _ = fresh_plan(workload)
        changed = ReservationRequest(
            request_id=workload[0].request_id,
            problem=workload[0].problem,
            earliest_start=workload[0].earliest_start,
            deadline=workload[0].deadline + 1.0,
        )
        with pytest.raises(ValueError, match="already registered"):
            planner.register([changed])

    def test_expander_propagates_decision_defects(self, monkeypatch):
        # Only an empty instant (no candidate set, or no feasible one) is
        # skipped; a defect such as the batched/scalar cross-check failing
        # must surface instead of silently dropping the instant.
        import repro.core.coordinator as coordinator
        from repro.reserve.expand import Expander

        def diverged(agent, csets, result):
            raise RuntimeError(
                "batched objective diverged from the scalar planner for "
                "candidate () — fast-path defect"
            )

        monkeypatch.setattr(coordinator, "materialise_winner", diverged)
        expander = Expander(world=SDSC_WORLD)
        request = seeded_requests(8, seed=3)[0]
        with pytest.raises(RuntimeError, match="fast-path defect"):
            expander.expand(request, 0, ReservationLedger())

    def test_expander_skips_instants_without_a_feasible_candidate(
        self, monkeypatch
    ):
        import repro.core.coordinator as coordinator
        from repro.core import NoFeasibleCandidate
        from repro.reserve.expand import Expander

        def nothing(agent, csets, result):
            raise NoFeasibleCandidate("no feasible schedule")

        monkeypatch.setattr(coordinator, "materialise_winner", nothing)
        expander = Expander(world=SDSC_WORLD)
        request = seeded_requests(8, seed=3)[0]
        assert expander.expand(request, 0, ReservationLedger()) is None
        assert expander.stats.decisions > 0

    def test_expander_requires_exactly_one_world(self):
        from repro.reserve.expand import Expander

        with pytest.raises(ValueError, match="exactly one"):
            Expander()
        with pytest.raises(ValueError, match="exactly one"):
            Expander(world=WORLD, factory=lambda: None)


class TestRepairSweep:
    def test_seeded_sweep_decides_and_remembers(self, testbed, warmed_nws):
        sweep = RepairSweep(
            testbed, JacobiProblem(n=400, iterations=20), warmed_nws
        )
        decision = sweep.decide()
        assert decision.best.resource_set
        # The winner was fed back: the next sweep's neighbourhood seeds
        # include the adopted resource set.
        winners = sweep.selector._winners
        assert tuple(sorted(decision.best.resource_set)) in winners
