"""Tests for the schedule data model and performance estimators."""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.estimator import (
    CostEstimator,
    ExecutionTimeEstimator,
    SpeedupEstimator,
    make_estimator,
)
from repro.core.hat import (
    CommunicationCharacteristics,
    HeterogeneousApplicationTemplate,
    StructureInfo,
    TaskCharacteristics,
)
from repro.core.infopool import InformationPool
from repro.core.resources import ResourcePool
from repro.core.schedule import Allocation, Schedule
from repro.core.sweep import BatchedObjective
from repro.core.userspec import UserSpecification
from strip_bounds_reference import member_masks_over


def _schedule(predicted=10.0, machines=("a", "b")):
    return Schedule(
        allocations=[Allocation(machine=m, task="t", work_units=1.0) for m in machines],
        predicted_time=predicted,
    )


def _info(testbed, userspec=None):
    hat = HeterogeneousApplicationTemplate(
        name="x", paradigm="data-parallel",
        tasks=(TaskCharacteristics("t", 1.0),),
        communication=CommunicationCharacteristics(),
        structure=StructureInfo(total_units=1.0),
    )
    return InformationPool(
        pool=ResourcePool(testbed.topology), hat=hat,
        userspec=userspec or UserSpecification(),
    )


class TestSchedule:
    def test_resource_set_dedup_ordered(self):
        s = Schedule(
            allocations=[
                Allocation("m1", "a", 1.0),
                Allocation("m2", "a", 1.0),
                Allocation("m1", "b", 1.0),
            ],
            predicted_time=1.0,
        )
        assert s.resource_set == ("m1", "m2")

    def test_duplicate_machine_task_rejected(self):
        with pytest.raises(ValueError):
            Schedule(
                allocations=[Allocation("m", "a", 1.0), Allocation("m", "a", 2.0)],
                predicted_time=1.0,
            )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Schedule(allocations=[], predicted_time=1.0)

    def test_total_work(self):
        s = _schedule()
        assert s.total_work_units == 2.0

    def test_allocation_lookup(self):
        s = _schedule()
        assert s.allocation_for("a").machine == "a"
        with pytest.raises(KeyError):
            s.allocation_for("zzz")

    def test_describe_mentions_machines(self):
        text = _schedule().describe()
        assert "a" in text and "b" in text

    def test_negative_units_rejected(self):
        with pytest.raises(ValueError):
            Allocation("m", "t", -1.0)


class TestEstimators:
    def test_execution_time(self, testbed):
        est = ExecutionTimeEstimator()
        info = _info(testbed)
        assert est.objective(_schedule(12.0), info) == 12.0
        assert est.metric_value(_schedule(12.0), info) == 12.0

    def test_speedup(self, testbed):
        est = SpeedupEstimator(baseline=100.0)
        info = _info(testbed)
        s = _schedule(predicted=25.0)
        assert est.metric_value(s, info) == pytest.approx(4.0)
        # Lower objective = better: faster schedule wins.
        assert est.objective(_schedule(10.0), info) < est.objective(_schedule(20.0), info)

    def test_speedup_callable_baseline(self, testbed):
        est = SpeedupEstimator(baseline=lambda info: 50.0)
        assert est.metric_value(_schedule(25.0), _info(testbed)) == pytest.approx(2.0)

    def test_speedup_bad_baseline(self, testbed):
        est = SpeedupEstimator(baseline=0.0)
        with pytest.raises(ValueError):
            est.objective(_schedule(), _info(testbed))

    def test_cost(self, testbed):
        us = UserSpecification(
            performance_metric="cost",
            cost_per_cpu_second={"a": 2.0, "b": 1.0},
        )
        est = CostEstimator()
        info = _info(testbed, us)
        # 10 s on machines costing 3.0/s total.
        assert est.metric_value(_schedule(10.0), info) == pytest.approx(30.0)

    def test_cost_prefers_cheap_machines(self, testbed):
        us = UserSpecification(
            performance_metric="cost",
            cost_per_cpu_second={"expensive": 10.0, "cheap": 0.1},
        )
        info = _info(testbed, us)
        est = CostEstimator()
        fast_pricey = _schedule(predicted=5.0, machines=("expensive",))
        slow_cheap = _schedule(predicted=20.0, machines=("cheap",))
        assert est.objective(slow_cheap, info) < est.objective(fast_pricey, info)

    def test_factory(self):
        assert isinstance(make_estimator("execution_time"), ExecutionTimeEstimator)
        assert isinstance(make_estimator("speedup", baseline=1.0), SpeedupEstimator)
        assert isinstance(make_estimator("cost"), CostEstimator)

    def test_factory_speedup_needs_baseline(self):
        with pytest.raises(ValueError):
            make_estimator("speedup")

    def test_factory_unknown(self):
        with pytest.raises(ValueError):
            make_estimator("karma")


class TestEstimatorArrayHooks:
    """The array hooks score a whole candidate space with the floats of the
    Schedule-based objective and of the per-set bound formula."""

    @staticmethod
    def _world(testbed):
        names = ResourcePool(testbed.topology).machine_names()
        rates = {names[0]: 0.37, names[1]: 1.9, names[3]: 0.011, "elsewhere": 5.0}
        spec = UserSpecification(
            performance_metric="cost", cost_per_cpu_second=rates
        )
        return names, rates, _info(testbed, spec)

    @staticmethod
    def _estimators():
        return (
            ExecutionTimeEstimator(),
            SpeedupEstimator(baseline=37.5),
            CostEstimator(time_weight=0.3),
        )

    def test_objectives_equal_the_schedule_objective(self, testbed):
        names, _, info = self._world(testbed)
        rng = np.random.default_rng(5)
        kept = rng.random((64, len(names))) < 0.5
        kept[~kept.any(axis=1), 2] = True
        predicted = rng.uniform(0.1, 500.0, size=64)
        for est in self._estimators():
            got = est.objectives_from_predictions(predicted, kept, names, info)
            for p, row, obj in zip(predicted, kept, got):
                machines = [nm for nm, k in zip(names, row) if k]
                expected = est.objective(_schedule(float(p), machines), info)
                assert obj == expected, type(est).__name__

    def test_cost_rate_sum_is_plain_left_to_right(self, testbed):
        # A compensated sum (math.fsum, or sum() from Python 3.12 on) of
        # these rates rounds differently from plain left-to-right addition;
        # the scalar objective must add them exactly as the cumsum hook does.
        names, rates, info = self._world(testbed)
        machines = [names[0], names[1], names[3]]
        plain = (0.37 + 1.9) + 0.011
        assert plain != math.fsum(rates[m] for m in machines)
        est = CostEstimator(time_weight=0.3)
        sched = _schedule(100.0, machines)
        assert est.metric_value(sched, info) == 100.0 * plain
        kept = np.array([[nm in machines for nm in names]])
        (obj,) = est.objectives_from_predictions(
            np.array([100.0]), kept, names, info
        )
        assert obj == est.objective(sched, info) == 100.0 * plain + 0.3 * 100.0

    def test_bounds_equal_the_per_set_formula(self, testbed):
        names, rates, info = self._world(testbed)
        rng = np.random.default_rng(9)
        csets = [()] + [
            tuple(nm for nm in names if rng.random() < 0.4) for _ in range(63)
        ]
        time_lbs = rng.uniform(0.1, 500.0, size=64)
        time_lbs[::7] = np.inf  # no usable member: inf * a zero rate is NaN

        def cost(t, rset, est):
            if not rset:
                return est.time_weight * t
            return t * min(rates.get(m, 0.0) for m in rset) + est.time_weight * t

        formulas = (
            lambda t, rset, est: t,
            lambda t, rset, est: t / 37.5,
            cost,
        )
        for est, formula in zip(self._estimators(), formulas):
            expected = np.array([
                formula(float(t), rset, est) for t, rset in zip(time_lbs, csets)
            ])
            # The membership may come over the pool's names in any order
            # (a batched decision passes its locality-rank names).
            for order in (names, names[::-1]):
                members = member_masks_over(csets, order)
                got = est.objective_lower_bounds(time_lbs, members, order, info)
                assert np.array_equal(got, expected, equal_nan=True)

    def test_speedup_baseline_stays_lazy_without_certified_rows(self):
        calls = []
        est = SpeedupEstimator(baseline=lambda info: calls.append(info) or 40.0)
        agent = SimpleNamespace(estimator=est, info="info", planner=None)
        inputs = SimpleNamespace(rank_names=("a", "b"))
        csets = [("a",), ("b",), ("a", "b")]
        ev = SimpleNamespace(
            feasible=np.zeros(3, dtype=bool),
            fallback=np.array([True, False, True]),
            predicted=np.full(3, np.inf),
            kept=np.zeros((3, 2), dtype=bool),
        )
        objective = BatchedObjective(agent, csets, inputs, ev)
        assert calls == []  # nothing certified, nothing scored
        assert objective.lazy.tolist() == [True, False, True]
        assert objective.objectives.tolist() == [np.inf] * 3

        ev.feasible[1], ev.fallback[1], ev.predicted[1] = True, False, 20.0
        ev.kept[1, 1] = True
        objective = BatchedObjective(agent, csets, inputs, ev)
        assert calls == ["info"]
        assert objective.objectives.tolist() == [np.inf, 0.5, np.inf]
