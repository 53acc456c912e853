"""Reservation requests: validation, occurrence geometry, JSONL round-trip.

The request is the reservation layer's public contract: every structural
violation is a ``ValueError`` naming the field, occurrence windows are
pure arithmetic over the repetition pattern, the decision bridge carries
constraints into the User Specification filter, and the JSONL form
round-trips bit-for-bit like every other frozen artifact in the repo.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.jacobi.grid import JacobiProblem
from repro.reserve import (
    REQUEST_SCHEMA,
    ReservationRequest,
    load_requests,
    save_requests,
    seeded_requests,
)


def _request(**overrides) -> ReservationRequest:
    kwargs = dict(
        request_id="r1",
        problem=JacobiProblem(n=400, iterations=20),
        earliest_start=600.0,
        deadline=3000.0,
    )
    kwargs.update(overrides)
    return ReservationRequest(**kwargs)


class TestValidation:
    def test_defaults_are_valid(self):
        r = _request()
        assert r.priority == 2
        assert r.min_machines == 1 and r.max_machines is None

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"request_id": ""}, "request_id"),
            ({"earliest_start": -1.0}, "earliest_start"),
            ({"deadline": 600.0}, "deadline"),
            ({"preferred_windows": ((100.0, 200.0),)}, "preferred window"),
            ({"preferred_windows": ((700.0, 700.0),)}, "preferred window"),
            ({"repeat_count": 0}, "repeat_count"),
            ({"repeat_count": 2}, "repeat_period_s"),
            ({"min_machines": 0}, "min_machines"),
            ({"min_machines": 3, "max_machines": 2}, "max_machines"),
            ({"priority": 0}, "priority classes start at 1"),
            ({"earliest_start": float("nan")}, "earliest_start"),
            ({"deadline": float("nan")}, "deadline"),
            ({"deadline": float("inf")}, "deadline"),
            ({"preferred_windows": ((700.0, float("nan")),)}, "preferred window"),
            ({"preferred_windows": ((float("-inf"), 700.0),)}, "preferred window"),
            ({"repeat_period_s": float("nan")}, "repeat_period_s"),
            ({"repeat_count": 2, "repeat_period_s": float("inf")}, "repeat_period_s"),
        ],
    )
    def test_violations_raise(self, overrides, match):
        with pytest.raises(ValueError, match=match):
            _request(**overrides)


class TestOccurrenceGeometry:
    def test_single_occurrence_interval(self):
        r = _request()
        assert r.occurrence_interval(0) == (600.0, 3000.0)
        with pytest.raises(ValueError, match="occurrence"):
            r.occurrence_interval(1)

    def test_repetition_shifts_whole_interval(self):
        r = _request(repeat_count=3, repeat_period_s=4000.0)
        assert r.occurrence_interval(0) == (600.0, 3000.0)
        assert r.occurrence_interval(2) == (8600.0, 11000.0)

    def test_windows_default_to_whole_interval(self):
        r = _request(repeat_count=2, repeat_period_s=4000.0)
        assert r.occurrence_windows(1) == ((4600.0, 7000.0),)

    def test_preferred_windows_shift_with_occurrence(self):
        r = _request(
            preferred_windows=((700.0, 1200.0), (2000.0, 2500.0)),
            repeat_count=2,
            repeat_period_s=4000.0,
        )
        assert r.occurrence_windows(0) == ((700.0, 1200.0), (2000.0, 2500.0))
        assert r.occurrence_windows(1) == ((4700.0, 5200.0), (6000.0, 6500.0))


class TestDecisionBridge:
    def test_constraints_reach_the_userspec(self):
        r = _request(max_machines=4)
        dreq = r.decision_request(700.0, exclude={"a", "b"})
        assert dreq.at == 700.0
        assert dreq.problem is r.problem
        assert dreq.userspec.excluded_machines == frozenset({"a", "b"})
        assert dreq.userspec.max_machines == 4
        assert dreq.userspec.accessible_machines is None

    def test_shrink_overrides(self):
        r = _request(max_machines=4)
        dreq = r.decision_request(
            700.0, accessible={"a", "c"}, max_machines=2
        )
        assert dreq.userspec.accessible_machines == frozenset({"a", "c"})
        assert dreq.userspec.max_machines == 2


class TestRoundTrip:
    def test_jsonl_round_trip_exact(self, tmp_path):
        requests = seeded_requests(7, seed=99)
        path = tmp_path / "requests.jsonl"
        save_requests(path, requests)
        assert load_requests(path) == requests

    def test_rewrite_is_bit_identical(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        save_requests(path, seeded_requests(5, seed=3))
        first = path.read_bytes()
        save_requests(path, load_requests(path))
        assert path.read_bytes() == first

    def test_schema_checked(self):
        payload = _request().to_json_dict()
        assert payload["schema"] == REQUEST_SCHEMA
        payload["schema"] = "repro.reserve.request/v0"
        with pytest.raises(ValueError, match="unsupported request schema"):
            ReservationRequest.from_json_dict(payload)

    def test_malformed_record_names_the_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        lines = [json.dumps(_request().to_json_dict()), "{nope"]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"bad\.jsonl:2"):
            load_requests(path)

    def test_missing_key_is_a_value_error(self, tmp_path):
        payload = _request().to_json_dict()
        del payload["deadline"]
        path = tmp_path / "short.jsonl"
        path.write_text(json.dumps(payload) + "\n")
        with pytest.raises(ValueError, match="malformed request record"):
            load_requests(path)

    def test_refuses_empty_writes_and_reads(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            save_requests(tmp_path / "x.jsonl", [])
        empty = tmp_path / "none.jsonl"
        empty.write_text("\n")
        with pytest.raises(ValueError, match="no request records"):
            load_requests(empty)


class TestSeededWorkload:
    def test_deterministic_from_seed(self):
        assert seeded_requests(10, seed=5) == seeded_requests(10, seed=5)

    def test_seeds_never_collide(self):
        a = {r.request_id for r in seeded_requests(10, seed=5)}
        b = {r.request_id for r in seeded_requests(10, seed=6)}
        assert not (a & b)

    def test_workload_exercises_every_feature(self):
        requests = seeded_requests(15, seed=1)
        assert any(r.preferred_windows for r in requests)
        assert any(r.repeat_count > 1 for r in requests)
        assert any(r.min_machines > 1 for r in requests)
        assert any(r.max_machines is not None for r in requests)
        assert {r.priority for r in requests} == {1, 2, 3}

    def test_bad_count_rejected(self):
        with pytest.raises(ValueError, match="count"):
            seeded_requests(0)


class TestImmutability:
    def test_frozen(self):
        r = _request()
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.priority = 1
