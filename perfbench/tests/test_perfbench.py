"""The benchmark's own tests: arithmetic, determinism, trace neutrality.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import math

import pytest

import layers
from harness import ROOT, canonical, digest, percentile
from calibrate import REFERENCE_S, Calibrator
from run import END_TO_END, PER_LAYER, measure_traced
from workloads import (
    WORKLOADS, DaemonOpen, ReserveRepair, SimEnsemble, SoloExhaustive,
)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


# -- percentile arithmetic -----------------------------------------------------
def test_percentile_interpolates_between_order_statistics():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == 2.5
    # rank 0.95 * 3 = 2.85 -> 3 + 0.85 * (4 - 3)
    assert percentile(values, 95) == pytest.approx(3.85)


def test_percentile_of_one_sample_is_that_sample():
    assert percentile([7.5], 50) == 7.5
    assert percentile([7.5], 95) == 7.5


@pytest.mark.parametrize("values,q", [([], 50), ([1.0], -1), ([1.0], 101)])
def test_percentile_rejects_bad_input(values, q):
    with pytest.raises(ValueError):
        percentile(values, q)


def test_host_scale_is_local_in_time():
    cal = Calibrator()
    # A host at reference speed for 10 s, then twice as slow.
    cal.samples = [(t * 0.1, REFERENCE_S) for t in range(100)]
    cal.samples += [(10.0 + t * 0.1, 2 * REFERENCE_S) for t in range(100)]
    assert cal.scale_at(3.0) == 1.0
    assert cal.scale_at(17.0) == 2.0
    assert cal.at_reference([(3.0, 0.5), (17.0, 0.5)]) == [(3.0, 0.5), (17.0, 0.25)]
    # Far from every sample, the nearest ones decide.
    assert cal.scale_at(100.0) == 2.0


def test_host_scale_falls_back_to_the_nearest_samples():
    cal = Calibrator()
    cal.samples = [(0.0, REFERENCE_S), (50.0, 3 * REFERENCE_S)]
    assert cal.scale_at(49.0) == 2.0  # median of both


# -- self-time arithmetic ------------------------------------------------------
def _span(sid, parent, name, wall, t0=0.0, **attrs):
    return {"kind": "span", "id": sid, "parent": parent, "name": name,
            "layer": "", "t0": t0, "t1": t0 + wall, "clock": "wall",
            "wall_s": wall, "attrs": attrs}


RECORDS = [
    _span(1, None, "bench.decision", 1.0),
    _span(2, 1, "wrap.core.schedule", 0.9),
    _span(3, 2, "core.decision", 0.5),             # program span: inherits
    _span(4, 3, "wrap.sweep.replay", 0.3, rows=7),
    _span(5, 2, "wrap.apples.evaluate_batch", 0.2, rows=10),
    _span(6, None, "daemon.batch", 0.4),           # program bucket at the root
    _span(7, 6, "wrap.service.decide", 0.35),
    _span(8, None, "wrap.nws.advance", 0.05),
    _span(9, 8, "wrap.nws.advance", 0.01),         # re-entrant call
]


def test_self_time_is_wall_minus_direct_children():
    own = layers.self_times([r for r in RECORDS if r["kind"] == "span"])
    assert own[1] == pytest.approx(0.1)
    assert own[2] == pytest.approx(0.2)
    assert own[3] == pytest.approx(0.2)
    assert own[4] == pytest.approx(0.3)
    assert own[6] == pytest.approx(0.05)


def test_layer_table_charges_program_spans_to_the_enclosing_bucket():
    table = layers.layer_table(RECORDS)
    assert table["core.schedule"]["self_s"] == pytest.approx(0.4)  # 0.2 + 0.2
    assert table["core.schedule"]["calls"] == 1
    assert table["sweep.replay"]["self_s"] == pytest.approx(0.3)
    assert table["daemon.batch"]["self_s"] == pytest.approx(0.05)
    assert table["service.decide"]["self_s"] == pytest.approx(0.35)
    assert table["bench"]["self_s"] == pytest.approx(0.1)
    # Re-entrant spans count as calls but not twice in wall time.
    assert table["nws.advance"]["calls"] == 2
    assert table["nws.advance"]["wall_s"] == pytest.approx(0.05)
    assert table["nws.advance"]["self_s"] == pytest.approx(0.05)
    # Every second is charged exactly once.
    total = sum(row["self_s"] for row in table.values())
    assert total == pytest.approx(1.0 + 0.4 + 0.05)


def test_op_coverage_and_attribute_totals():
    explained, wall = layers.op_coverage(RECORDS)
    assert wall == pytest.approx(1.0)
    assert explained == pytest.approx(0.9)
    assert layers.attr_total(RECORDS, "apples.evaluate_batch", "rows") == 10
    assert layers.attr_total(RECORDS, "sweep.replay", "rows") == 7


def test_wrappers_are_restored_after_the_block():
    import repro.service.core as service_core
    from repro.service import SchedulingService

    before = (service_core.replay_sweep, SchedulingService.__dict__["decide"])
    with pytest.raises(RuntimeError), layers.wrapped():
        assert service_core.replay_sweep is not before[0]
        raise RuntimeError("leave the block")
    assert (service_core.replay_sweep, SchedulingService.__dict__["decide"]) == before


# -- determinism ---------------------------------------------------------------
def test_digest_is_exact_on_floats():
    assert canonical(0.1 + 0.2) == repr(0.30000000000000004)
    assert digest([[1.0, "a"]]) == digest([[1.0, "a"]])
    assert digest([[1.0]]) != digest([[math.nextafter(1.0, 2.0)]])


def test_same_seed_gives_same_inputs():
    a, b, c = DaemonOpen(3), DaemonOpen(3), DaemonOpen(4)
    assert a.population.requests(40) == b.population.requests(40)
    assert a.population.requests(40) != c.population.requests(40)
    assert SoloExhaustive(3).problem(5) == SoloExhaustive(3).problem(5)
    assert SoloExhaustive(3).offset == SoloExhaustive(3).offset
    assert ReserveRepair(3).requests == ReserveRepair(3).requests
    assert ReserveRepair(3).requests != ReserveRepair(4).requests
    for x, y in zip(SimEnsemble(3).specs(), SimEnsemble(3).specs()):
        assert x.assignments == y.assignments and x.t0 == y.t0


@pytest.mark.parametrize("cls", [SimEnsemble, SoloExhaustive])
def test_same_seed_gives_same_answer_digest(cls):
    first = digest(cls(5).measure(0.0).answers)
    assert digest(cls(5).measure(0.0).answers) == first
    assert digest(cls(6).measure(0.0).answers) != first


@pytest.mark.parametrize("cls", [SimEnsemble, SoloExhaustive])
def test_traced_and_untraced_runs_answer_identically(cls):
    plain = cls(2).measure(0.0)
    traced, records = measure_traced(cls(2), 0.0)
    assert digest(traced.answers) == digest(plain.answers)
    assert any(r["kind"] == "span" and r["name"].startswith("wrap.") for r in records)
