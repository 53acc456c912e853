"""Tests for the time-balancing planner machinery."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.hat import (
    CommunicationCharacteristics,
    HeterogeneousApplicationTemplate,
    StructureInfo,
    TaskCharacteristics,
)
from repro.core.infopool import InformationPool
from repro.core.planner import (
    TimeBalancedPlanner,
    _balance_reference,
    balance_divisible_work,
    balance_divisible_work_batched,
    balance_prefix_exact_batched,
    ordered_sum,
)
from repro.core.resources import ResourcePool


class TestBalanceDivisibleWork:
    def test_equal_machines_split_evenly(self):
        r = balance_divisible_work([10.0, 10.0], [0.0, 0.0], 100.0)
        assert r is not None
        assert r.allocations == pytest.approx([50.0, 50.0])
        assert r.makespan == pytest.approx(5.0)

    def test_faster_machine_gets_more(self):
        r = balance_divisible_work([30.0, 10.0], [0.0, 0.0], 100.0)
        assert r.allocations == pytest.approx([75.0, 25.0])
        assert r.makespan == pytest.approx(2.5)

    def test_fixed_costs_shift_work(self):
        # Machine 1 pays 1 s of communication; it must receive less work so
        # both finish together.
        r = balance_divisible_work([10.0, 10.0], [0.0, 1.0], 100.0)
        t0 = r.allocations[0] / 10.0
        t1 = r.allocations[1] / 10.0 + 1.0
        assert t0 == pytest.approx(t1)
        assert r.allocations[0] > r.allocations[1]

    def test_useless_machine_dropped(self):
        # Machine 1's fixed cost exceeds any balanced completion time.
        r = balance_divisible_work([100.0, 1.0], [0.0, 50.0], 10.0)
        assert r.allocations[1] == 0.0
        assert 1 in r.dropped
        assert r.makespan == pytest.approx(0.1)

    def test_capacity_clamps_and_redistributes(self):
        r = balance_divisible_work([10.0, 10.0], [0.0, 0.0], 100.0, capacities=[20.0, None])
        assert r.allocations[0] == pytest.approx(20.0)
        assert r.allocations[1] == pytest.approx(80.0)
        assert 0 in r.saturated

    def test_infeasible_capacities(self):
        r = balance_divisible_work([10.0, 10.0], [0.0, 0.0], 100.0, capacities=[10.0, 10.0])
        assert r is None

    def test_capacities_exactly_sufficient(self):
        r = balance_divisible_work([10.0, 10.0], [0.0, 0.0], 100.0, capacities=[50.0, 50.0])
        assert r is not None
        assert sum(r.allocations) == pytest.approx(100.0)

    def test_single_machine(self):
        r = balance_divisible_work([5.0], [2.0], 10.0)
        assert r.allocations == pytest.approx([10.0])
        assert r.makespan == pytest.approx(4.0)

    def test_zero_rate_rejected(self):
        # NaN and inf rates would otherwise balance to NaN allocations
        # with makespan 0.0 — a perfect-looking schedule.
        for rate in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                balance_divisible_work([rate], [0.0], 10.0)
            with pytest.raises(ValueError):
                balance_divisible_work([1.0, rate], [0.0, 0.0], 10.0)

    def test_negative_cost_rejected(self):
        for cost in (-1.0, float("nan")):
            with pytest.raises(ValueError):
                balance_divisible_work([1.0], [cost], 10.0)
            with pytest.raises(ValueError):
                balance_divisible_work([1.0, 1.0], [0.0, cost], 10.0)

    def test_infinite_cost_drops_machine(self):
        r = balance_divisible_work([10.0, 10.0], [0.0, float("inf")], 100.0)
        assert r.allocations == [100.0, 0.0]
        assert r.dropped == (1,)
        assert r.makespan == 10.0

    def test_empty_returns_none(self):
        assert balance_divisible_work([], [], 10.0) is None

    @given(
        rates=st.lists(st.floats(min_value=0.5, max_value=100.0), min_size=1, max_size=8),
        total=st.floats(min_value=1.0, max_value=1e5),
    )
    def test_property_conservation_and_balance(self, rates, total):
        costs = [0.0] * len(rates)
        r = balance_divisible_work(rates, costs, total)
        assert r is not None
        assert sum(r.allocations) == pytest.approx(total, rel=1e-6)
        # With zero fixed costs everything is loaded and all finish together.
        times = [a / rate for a, rate in zip(r.allocations, rates)]
        assert max(times) == pytest.approx(min(times), rel=1e-6)

    @given(
        rates=st.lists(st.floats(min_value=0.5, max_value=100.0), min_size=2, max_size=6),
        costs=st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=2, max_size=6),
        total=st.floats(min_value=10.0, max_value=1e4),
    )
    def test_property_makespan_beats_single_machine(self, rates, costs, total):
        n = min(len(rates), len(costs))
        rates, costs = rates[:n], costs[:n]
        r = balance_divisible_work(rates, costs, total)
        assert r is not None
        # The balanced makespan can never exceed doing everything on the
        # single best machine alone.
        best_single = min(total / rate + cost for rate, cost in zip(rates, costs))
        assert r.makespan <= best_single + 1e-6

    @given(
        rates=st.lists(st.floats(min_value=0.5, max_value=100.0), min_size=1, max_size=6),
        total=st.floats(min_value=1.0, max_value=1e4),
    )
    def test_property_allocations_nonnegative(self, rates, total):
        r = balance_divisible_work(rates, [0.1] * len(rates), total)
        assert r is not None
        assert all(a >= 0.0 for a in r.allocations)


class TestClosedFormBalanceEquivalence:
    """The closed-form batched balance reproduces the seed loop: a one-row
    batch either flags ``needs_reference`` or matches
    :func:`_balance_reference` bit for bit."""

    def _both(self, rates, costs, total):
        rates = [float(r) for r in rates]
        costs = [float(c) for c in costs]
        ref = _balance_reference(rates, costs, float(total), [None] * len(rates))
        row = balance_prefix_exact_batched(
            np.array([rates]), np.array([costs]), np.array([float(total)])
        )
        return rates, costs, float(total), ref, row

    def _assert_identical(self, rates, costs, total, ref, row):
        if row.needs_reference[0]:
            return  # the scalar planner answers this row
        assert ref is not None
        kept = [i for i in range(len(rates)) if i not in ref.dropped]
        assert row.active[0].tolist() == [i in kept for i in range(len(rates))]
        assert row.allocations[0].tolist() == ref.allocations  # exact, not approx
        # The row's allocations give the makespan the loop reports.
        assert max(
            row.allocations[0][i] / rates[i] + costs[i] for i in kept
        ) == ref.makespan

    def _check(self, rates, costs, total):
        both = self._both(rates, costs, total)
        self._assert_identical(*both)
        return both[-1]

    @given(
        rates=st.lists(st.floats(min_value=0.5, max_value=100.0), min_size=1, max_size=8),
        costs=st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=8),
        total=st.floats(min_value=0.5, max_value=1e5),
    )
    def test_property_bit_identical(self, rates, costs, total):
        n = min(len(rates), len(costs))
        self._check(rates[:n], costs[:n], total)

    @given(
        rates=st.lists(st.floats(min_value=0.5, max_value=50.0), min_size=2, max_size=6),
        total=st.floats(min_value=10.0, max_value=1e4),
    )
    def test_property_bit_identical_staggered_costs(self, rates, total):
        self._check(rates, [0.1 * i for i in range(len(rates))], total)

    def test_tied_costs(self):
        row = self._check([10.0, 20.0, 30.0], [1.0, 1.0, 1.0], 100.0)
        assert not row.needs_reference[0]

    def test_cost_exactly_at_drop_boundary(self):
        # Construct c_1 == final T so the >= drop predicate is exercised:
        # with machine 0 alone, T = 10/10 + 0 = 1.0; give machine 1 cost 1.0.
        row = self._check([10.0, 10.0], [0.0, 1.0], 10.0)
        assert row.active[0].tolist() == [True, False]

    def test_cascade_of_drops(self):
        row = self._check([100.0, 1.0, 1.0, 1.0], [0.0, 5.0, 50.0, 500.0], 10.0)
        assert not row.needs_reference[0]


class TestOrderedSum:
    """The scalar balance adds left to right, as the batched ``cumsum``."""

    RATES = [0.37, 1.9, 0.011]  # a compensated sum rounds these differently

    def test_plain_left_to_right(self):
        assert ordered_sum(self.RATES) == (0.37 + 1.9) + 0.011
        assert ordered_sum(self.RATES) != math.fsum(self.RATES)
        assert ordered_sum([]) == 0.0

    def test_batched_balance_matches_reference(self):
        ref = _balance_reference(self.RATES, [0.0] * 3, 1.0, [None] * 3)
        batched = balance_prefix_exact_batched(
            np.array([self.RATES]), np.zeros((1, 3)), np.array([1.0])
        )
        assert not batched.needs_reference[0]
        T = 1.0 / ((0.37 + 1.9) + 0.011)
        assert batched.allocations[0].tolist() == [r * T for r in self.RATES]
        assert batched.allocations[0].tolist() == ref.allocations


class TestBatchedBalance:
    """The batched water-filler must agree with per-set scalar calls."""

    def _scalar_uncapped(self, rates, costs, total, members):
        idx = [i for i, m in enumerate(members) if m]
        sub = balance_divisible_work(
            [rates[i] for i in idx], [costs[i] for i in idx], total
        )
        return sub.makespan

    @given(
        rates=st.lists(st.floats(min_value=0.5, max_value=100.0), min_size=2, max_size=6),
        costs=st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=2, max_size=6),
        total=st.floats(min_value=1.0, max_value=1e4),
        mask_bits=st.integers(min_value=1, max_value=63),
    )
    def test_property_matches_scalar(self, rates, costs, total, mask_bits):
        n = min(len(rates), len(costs))
        rates, costs = rates[:n], costs[:n]
        members = [bool(mask_bits & (1 << i)) for i in range(n)]
        if not any(members):
            members[0] = True
        makespans = balance_divisible_work_batched(
            rates, costs, total, [members]
        )
        makespan = self._scalar_uncapped(rates, costs, total, members)
        assert makespans[0] == pytest.approx(makespan, rel=1e-12)

    def test_many_sets_at_once(self):
        rates = [10.0, 20.0, 30.0, 40.0]
        costs = [0.0, 0.5, 1.0, 2.0]
        sets = [
            [True, False, False, False],
            [True, True, False, False],
            [True, True, True, True],
            [False, False, False, True],
        ]
        out = balance_divisible_work_batched(rates, costs, 500.0, sets)
        assert out.shape == (4,)
        for row, members in enumerate(sets):
            makespan = self._scalar_uncapped(rates, costs, 500.0, members)
            assert out[row] == pytest.approx(makespan, rel=1e-12)

    def test_empty_set_gets_inf(self):
        out = balance_divisible_work_batched(
            [10.0, 20.0], [0.0, 0.0], 100.0, [[False, False], [True, False]]
        )
        assert out[0] == float("inf")
        assert np.isfinite(out[1])

    def test_default_members_is_full_universe(self):
        out = balance_divisible_work_batched([10.0, 10.0], [0.0, 0.0], 100.0)
        assert out.shape == (1,)
        assert out[0] == pytest.approx(5.0)

    def test_superset_never_slower(self):
        """Monotonicity that makes subset pruning admissible."""
        rates = [10.0, 20.0, 5.0]
        costs = [0.1, 0.2, 0.3]
        out = balance_divisible_work_batched(
            rates, costs, 1000.0,
            [[True, True, True], [True, True, False], [True, False, False]],
        )
        assert out[0] <= out[1] <= out[2]

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            balance_divisible_work_batched([1.0, 2.0], [0.0], 10.0)
        with pytest.raises(ValueError):
            balance_divisible_work_batched([1.0], [0.0], 10.0, [[True, False]])


class TestTimeBalancedPlanner:
    def make_info(self, testbed, nws=None, bytes_per_unit=0.0):
        hat = HeterogeneousApplicationTemplate(
            name="toy", paradigm="data-parallel",
            tasks=(TaskCharacteristics("work", flop_per_unit=1e-3,
                                       bytes_per_unit=bytes_per_unit),),
            communication=CommunicationCharacteristics(),
            structure=StructureInfo(total_units=1e6, iterations=1),
        )
        return InformationPool(pool=ResourcePool(testbed.topology, nws), hat=hat)

    def test_plan_covers_all_work(self, testbed):
        info = self.make_info(testbed)
        sched = TimeBalancedPlanner().plan(["alpha1", "alpha2"], info)
        assert sched is not None
        assert sched.total_work_units == pytest.approx(1e6)

    def test_plan_empty_set_none(self, testbed):
        info = self.make_info(testbed)
        assert TimeBalancedPlanner().plan([], info) is None

    def test_dynamic_info_shifts_allocation(self, testbed, warmed_nws):
        nominal = TimeBalancedPlanner().plan(
            ["alpha1", "rs6000a"], self.make_info(testbed)
        )
        dynamic = TimeBalancedPlanner().plan(
            ["alpha1", "rs6000a"], self.make_info(testbed, warmed_nws)
        )
        # rs6000a is heavily loaded; the NWS-informed plan gives it less.
        nom_share = nominal.allocation_for("rs6000a").work_units
        dyn_share = dynamic.allocation_for("rs6000a").work_units
        assert dyn_share < nom_share

    def test_memory_capacity_respected(self, testbed):
        # 8 bytes/unit, 1e6 units = 8 MB total; cap sparc2 (26 MB avail)
        # cannot be exceeded anyway — use a big problem instead.
        hat = HeterogeneousApplicationTemplate(
            name="big", paradigm="data-parallel",
            tasks=(TaskCharacteristics("work", flop_per_unit=1e-3,
                                       bytes_per_unit=16.0),),
            communication=CommunicationCharacteristics(),
            structure=StructureInfo(total_units=4e6, iterations=1),  # 64 MB
        )
        info = InformationPool(pool=ResourcePool(testbed.topology), hat=hat)
        sched = TimeBalancedPlanner().plan(["sparc2", "alpha1"], info)
        assert sched is not None
        cap = info.pool.machine_info("sparc2").memory_available_mb * 1e6 / 16.0
        assert sched.allocation_for("sparc2").work_units <= cap + 1.0

    def test_lower_bounds_admissible(self, testbed, warmed_nws):
        """Bounds never exceed the true predicted time of any candidate."""
        info = self.make_info(testbed, warmed_nws, bytes_per_unit=8.0)
        planner = TimeBalancedPlanner()
        names = info.pool.machine_names()
        candidate_sets = [
            (names[0],),
            (names[0], names[1]),
            tuple(names[:4]),
            tuple(names),
        ]
        bounds = planner.lower_bounds(candidate_sets, info)
        assert len(bounds) == len(candidate_sets)
        for rset, lb in zip(candidate_sets, bounds):
            sched = planner.plan(rset, info)
            assert sched is not None
            assert lb <= sched.predicted_time + 1e-9
