"""Property-based invariants of the batched evaluation kernels.

The scheduling service's vectorised core must behave like a bag of
independent scalar evaluations: the batch is an optimisation, never a
semantic.  Hypothesis drives the kernels with synthetic pools and checks:

- **batch-order invariance** — permuting the candidate rows (or the jobs
  of a batch) permutes the results bitwise, nothing else, and neither
  block boundaries nor batch plan continuation change anything;
- **the oracle's bounds** — every row's pruning bound equals the
  name-space bound of ``tests/strip_bounds_reference.py`` bit for bit,
  tie order included, whatever the blocks, stacking or continuation;
- **bounded memory** — an exhaustive 14-machine call's pass temporaries
  are block-sized, not as tall as the call;
- **the helper thread** — a pass's blocks give the same bytes on one
  thread or two, a failing block fails only its own call, a forked child
  gets a helper of its own, and concurrent callers get lone answers;
- **conservation** — integerised strip rows sum exactly to the grid size
  for every row the kernel certifies as exact, with every positive-area
  member keeping at least one row;
- **monotonicity** — more background load (uniformly slower machines)
  never predicts a *faster* application;
- **degenerate-input rejection** — NaN rates/costs, non-positive totals,
  and non-finite areas raise instead of propagating garbage.
"""

from __future__ import annotations

import contextlib
import functools
import multiprocessing
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.jacobi.apples as apples
from repro.core.planner import balance_prefix_exact_batched
from repro.core.resources import ResourcePool
from repro.experiments.fig6 import run_fig6
from repro.jacobi.apples import (
    StripBatchEvaluation,
    StripBatchInputs,
    batched_locality_orders,
    evaluate_strip_batch,
    make_jacobi_agent,
)
from repro.jacobi.cost import batched_neighbor_comm_costs
from repro.jacobi.grid import JacobiProblem
from repro.jacobi.partition import batched_largest_remainder_rows
from repro.obs.trace import tracing
from repro.sim.testbeds import sdsc_pcl_with_sp2
from repro.sim.warmcache import warmed_state

from strip_bounds_reference import inputs_bounds

# -- synthetic worlds -----------------------------------------------------

finite_rate = st.floats(min_value=1e3, max_value=1e7, allow_nan=False)
transfer_s = st.floats(min_value=1e-6, max_value=5.0, allow_nan=False)


@st.composite
def synthetic_inputs(draw, min_machines: int = 2, max_machines: int = 5):
    """A StripBatchInputs over a made-up pool (no testbed, no NWS)."""
    n = draw(st.integers(min_value=min_machines, max_value=max_machines))
    grid_n = draw(st.integers(min_value=40, max_value=400))
    rates = np.array(draw(st.lists(finite_rate, min_size=n, max_size=n)))
    pair = np.array(
        [draw(st.lists(transfer_s, min_size=n, max_size=n)) for _ in range(n)]
    )
    np.fill_diagonal(pair, 0.0)
    bytes_per_point = 16.0
    avail_mb = np.full(n, 1e6)  # roomy: memory never binds here
    problem = JacobiProblem(n=grid_n, iterations=draw(st.integers(1, 50)))
    return StripBatchInputs(
        rank_names=tuple(f"m{j}" for j in range(n)),
        # Locality rank and pool order need not agree.
        pool_positions=np.array(draw(st.permutations(range(n)))),
        rates=rates,
        caps=avail_mb * 1e6 / bytes_per_point,
        avail_mb=avail_mb,
        pair=pair,
        sync_overhead_s=draw(st.floats(min_value=0.0, max_value=0.1)),
        total_points=float(problem.total_points),
        grid_n=grid_n,
        bytes_per_point=bytes_per_point,
        iterations=problem.iterations,
        risk_aversion=draw(st.floats(min_value=0.0, max_value=3.0)),
        risks=np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))),
        account_memory=True,
    )


def dead_links(max_machines: int = 5):
    """A few machine pairs whose link is down (possibly none)."""
    machine = st.integers(0, max_machines - 1)
    return st.lists(st.tuples(machine, machine), max_size=2)


def _kill_links(inputs: StripBatchInputs, dead) -> StripBatchInputs:
    """``inputs`` with the listed links down (infinite transfer time)."""
    n = len(inputs.rank_names)
    pair = inputs.pair.copy()
    for a, b in dead:
        if a < n and b < n and a != b:
            pair[a, b] = pair[b, a] = np.inf
    return replace(inputs, pair=pair)


def squeezed_memory(max_machines: int = 5):
    """Real memory per machine as a fraction of the whole grid's footprint,
    or ``None`` for the roomy default: below a machine's balanced share,
    its capacity binds."""
    fraction = st.floats(min_value=0.05, max_value=1.5)
    return st.one_of(
        st.none(),
        st.lists(fraction, min_size=max_machines, max_size=max_machines),
    )


def _squeeze_memory(inputs: StripBatchInputs, fractions) -> StripBatchInputs:
    """``inputs`` with each machine's memory cut to ``fractions`` of the
    grid's footprint (unchanged for ``None``)."""
    if fractions is None:
        return inputs
    k = len(inputs.rank_names)
    whole_mb = inputs.total_points * inputs.bytes_per_point / 1e6
    avail_mb = np.array(fractions[:k]) * whole_mb
    return replace(
        inputs,
        avail_mb=avail_mb,
        caps=avail_mb * 1e6 / inputs.bytes_per_point,
    )


def _all_masks(n: int) -> np.ndarray:
    """Every non-empty subset of ``n`` machines, as mask rows."""
    subsets = np.arange(1, 2**n)
    return (subsets[:, None] >> np.arange(n)[None, :]) & 1 == 1


def _space(k: int, n: int, cap: int | None = None) -> np.ndarray:
    """Every non-empty subset of the first ``k`` of ``n`` machines with at
    most ``cap`` members (any size for ``None``), as mask rows."""
    masks = _all_masks(k)
    if cap is not None:
        masks = masks[masks.sum(axis=1) <= cap]
    return np.pad(masks, ((0, 0), (0, n - k)))


def _assert_unusable_rows_infeasible(inputs, masks, result) -> None:
    """Rows with no positive-rate member plan nothing: infeasible, and not
    surrendered to the scalar path."""
    unusable = ~(masks & (inputs.rates > 0.0)).any(axis=1)
    assert not (result.feasible | result.fallback)[unusable].any()


def _assert_same_evaluation(one, two) -> None:
    """Bitwise equality of two evaluations of the same rows."""
    np.testing.assert_array_equal(one.feasible, two.feasible)
    np.testing.assert_array_equal(one.fallback, two.fallback)
    np.testing.assert_array_equal(one.kept, two.kept)
    assert np.array_equal(one.predicted, two.predicted)
    assert np.array_equal(one.bounds, two.bounds)


def _assert_oracle_bounds(inputs, masks, result) -> None:
    """Every row's bound is the name-space oracle's float."""
    assert np.array_equal(result.bounds, inputs_bounds(inputs, masks))


def _row_by_row(inputs: StripBatchInputs, masks: np.ndarray) -> StripBatchEvaluation:
    """``masks`` evaluated one row per call, the outcomes concatenated: a
    one-row call has no other row to continue into."""
    calls = [evaluate_strip_batch([(inputs, masks[i:i + 1])])[0]
             for i in range(len(masks))]
    return StripBatchEvaluation(*(
        np.concatenate([getattr(c, f.name) for c in calls])
        for f in fields(StripBatchEvaluation)
    ))


def _cpus(cpus: int):
    """The kernel seeing ``cpus`` usable CPUs: its helper thread joins
    multi-block passes at two, never at one."""
    return mock.patch.object(apples, "usable_cpus", return_value=cpus)


@contextlib.contextmanager
def _counting(*names: str):
    """Count the calls of the named ``apples`` functions, made from any
    thread, under one lock; yields the name -> count mapping."""
    counts = dict.fromkeys(names, 0)
    lock = threading.Lock()

    def counted(name, fn):
        def call(*args, **kwargs):
            with lock:
                counts[name] += 1
            return fn(*args, **kwargs)
        return call

    with contextlib.ExitStack() as stack:
        for name in names:
            stack.enter_context(mock.patch.object(
                apples, name, counted(name, getattr(apples, name))
            ))
        yield counts


def _block_plan(widths: np.ndarray, cells: int) -> int:
    """How many blocks one pass over rows of member counts ``widths``
    takes: one when every row fits at the widest count; else, over the
    counts in ascending order, a block takes rows while its row count
    times its newest (widest) count stays within ``cells``."""
    widths = np.sort(widths)
    if len(widths) * widths[-1] <= cells:
        return 1
    blocks, size = 1, 0
    for width in widths:
        if size and (size + 1) * width > cells:
            blocks, size = blocks + 1, 0
        size += 1
    return blocks


# -- batch-order invariance ----------------------------------------------


class TestBatchOrderInvariance:
    @given(inputs=synthetic_inputs(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_row_permutation_is_a_permutation_of_results(self, inputs, seed):
        masks = _all_masks(len(inputs.rank_names))
        perm = np.random.default_rng(seed).permutation(len(masks))
        base = evaluate_strip_batch([(inputs, masks)])[0]
        shuffled = evaluate_strip_batch([(inputs, masks[perm])])[0]
        np.testing.assert_array_equal(shuffled.feasible, base.feasible[perm])
        np.testing.assert_array_equal(shuffled.fallback, base.fallback[perm])
        np.testing.assert_array_equal(shuffled.kept, base.kept[perm])
        both = base.feasible[perm] & ~base.fallback[perm]
        # Bitwise: same candidate set, same floats, any batch order.
        assert np.array_equal(
            shuffled.predicted[both], base.predicted[perm][both]
        )

    @given(
        a=synthetic_inputs(max_machines=4),
        b=synthetic_inputs(max_machines=4),
        cap=st.integers(1, 4),
        universe=st.integers(4, 14),
        dead=dead_links(),
        memory=squeezed_memory(),
    )
    @settings(max_examples=25, deadline=None)
    def test_job_order_does_not_couple_jobs(
        self, a, b, cap, universe, dead, memory
    ):
        """A narrow job (at most ``cap`` members per set) stacked with a
        wide one (every subset) in one call: each job's result is the
        same in either job order, alone, and one row at a time — whatever
        the call's widest set.  Both jobs' sets range over the larger
        job's machines, so the smaller job's rows take in its padding:
        zero-rate members, and rows of padding alone that empty before
        any balance."""
        ka, kb = len(a.rank_names), len(b.rank_names)
        # Pad both universes so the jobs can share one batch.
        span = max(ka, kb)
        n = max(span, universe)
        a = _pad(_squeeze_memory(_kill_links(a, dead), memory), n)
        b = _pad(b, n)
        ma, mb = _space(span, n, cap), _space(span, n)
        ra1, rb1 = evaluate_strip_batch([(a, ma), (b, mb)])
        rb2, ra2 = evaluate_strip_batch([(b, mb), (a, ma)])
        for inputs, masks, stacked in ((a, ma, (ra1, ra2)), (b, mb, (rb1, rb2))):
            alone = evaluate_strip_batch([(inputs, masks)])[0]
            single = _row_by_row(inputs, masks)
            _assert_unusable_rows_infeasible(inputs, masks, alone)
            _assert_oracle_bounds(inputs, masks, alone)
            for other in (*stacked, single):
                _assert_same_evaluation(alone, other)

    @given(
        inputs=synthetic_inputs(),
        rows=st.integers(1, 7),
        subset_seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
        dead=dead_links(),
        cap=st.one_of(st.none(), st.integers(1, 4)),
        universe=st.integers(2, 14),
        spill=st.integers(0, 2),
        memory=squeezed_memory(),
    )
    @settings(max_examples=40, deadline=None)
    def test_block_boundaries_are_invisible(
        self, inputs, rows, subset_seed, dead, cap, universe, spill, memory
    ):
        """A call whose passes run in width-ordered blocks of ``rows``
        universe-wide rows' worth of cells, on one thread or with the
        helper, equals the one-block call and the one-row oracle, in which
        no row can continue into another: neither block boundaries, nor
        the thread a block runs on, nor batch plan continuation, which
        links rows across blocks, change a result.
        Random subsets of the exhaustive masks leave some shrunk sets
        without a row to continue into, and dead links force member drops.
        Capped spaces in universes padded with unusable machines keep every
        set far narrower than the universe; sets that ``spill`` into the
        padding hold zero-rate members, or padding alone; and squeezed
        memory makes capacities bind."""
        k = len(inputs.rank_names)
        inputs = _squeeze_memory(_kill_links(inputs, dead), memory)
        inputs = _pad(inputs, max(k, universe))
        n = len(inputs.rank_names)
        masks = _space(min(k + spill, n), n, cap)
        if subset_seed is not None:
            keep = np.random.default_rng(subset_seed).random(len(masks)) < 0.5
            keep[-1] = True
            masks = masks[keep]
        with mock.patch.object(apples, "_BLOCK_CELLS", masks.size):
            whole = evaluate_strip_batch([(inputs, masks)])[0]
        _assert_unusable_rows_infeasible(inputs, masks, whole)
        _assert_oracle_bounds(inputs, masks, whole)
        for cpus in (1, 2):
            with mock.patch.object(apples, "_BLOCK_CELLS", rows * n), _cpus(cpus):
                blocks = evaluate_strip_batch([(inputs, masks)])[0]
            _assert_same_evaluation(whole, blocks)
        _assert_same_evaluation(whole, _row_by_row(inputs, masks))


class TestBatchPlanContinuation:
    @given(
        inputs=synthetic_inputs(),
        cap=st.one_of(st.none(), st.integers(1, 4)),
        dead=dead_links(),
        rows=st.one_of(st.none(), st.integers(1, 3)),
    )
    @settings(max_examples=30, deadline=None)
    def test_exhaustive_spaces_need_one_pass(self, inputs, cap, dead, rows):
        """Every shrunk set of an exhaustive (or size-capped) space starts
        a row of its own, so the drop/re-balance fixpoint ends after a
        single balancing pass — and finalising its converged rows reuses
        that pass's strip orders instead of deriving them again.  In
        width-ordered blocks of ``rows`` universe-wide rows' worth of
        cells (the default block for ``None``), on one thread or with the
        helper, a shrunk row still continues into a row of another block,
        so every ``_strip_pass`` call is one of the first pass's blocks.
        The call that builds the space's row structure derives the first
        pass's strip orders once per block; a repeat call reads them back
        and derives none, and both answer as each row alone."""
        inputs = _kill_links(inputs, dead)
        n = len(inputs.rank_names)
        masks = _all_masks(n)
        if cap is not None:
            masks = masks[masks.sum(axis=1) <= cap]
        cells = apples._BLOCK_CELLS if rows is None else rows * n
        # Every row is distinct and usable, so all are pending in pass 1.
        blocks = _block_plan(masks.sum(axis=1), cells)
        alone = _row_by_row(inputs, masks)
        for cpus in (1, 2):
            apples._structures.clear()
            for orders in (blocks, 0):  # built, then read back
                with mock.patch.object(apples, "_BLOCK_CELLS", cells), _cpus(cpus):
                    with _counting("balance_prefix_exact_batched", "_strip_pass",
                                   "batched_locality_orders") as calls:
                        result = evaluate_strip_batch([(inputs, masks)])[0]
                assert calls["balance_prefix_exact_batched"] <= blocks
                assert calls["_strip_pass"] == blocks
                assert calls["batched_locality_orders"] == orders
                _assert_same_evaluation(result, alone)

    def test_blocks_are_width_ordered(self):
        """An exhaustive 14-machine pass is cut in member-count order into
        blocks of at most ``_BLOCK_CELLS`` cells at their widest set: 8
        blocks of 121,430 cells, 114,688 of them members, where the same
        8 blocks in key order (the parent's plan) held 201,282."""
        masks = _all_masks(14)
        rows = np.arange(len(masks))
        blocks = apples._pass_blocks(rows, masks)
        widths = [masks[b].sum(axis=1) for b in blocks]
        assert len(blocks) == _block_plan(masks.sum(axis=1), apples._BLOCK_CELLS) == 8
        np.testing.assert_array_equal(np.sort(np.concatenate(blocks)), rows)
        cells = [len(b) * w.max() for b, w in zip(blocks, widths)]
        assert max(cells) <= apples._BLOCK_CELLS and sum(cells) == 121_430
        flat = np.concatenate(widths)
        assert (np.diff(flat) >= 0).all()
        # Stable: rows of one width keep their order.
        assert all((np.diff(np.concatenate(blocks)[flat == k]) > 0).all()
                   for k in range(1, 15))
        # A pass that fits one block keeps its rows in order.
        few = rows[:100]
        assert [b.tolist() for b in apples._pass_blocks(few, masks)] == [few.tolist()]

    @given(
        inputs=synthetic_inputs(),
        bound=st.integers(1, 3),
        dead=dead_links(),
    )
    @settings(max_examples=30, deadline=None)
    def test_continuation_counts_toward_the_pass_bound(self, inputs, bound, dead):
        """Under a tight structural pass bound, a continued row is
        surrendered exactly when iterating it would have run out of
        passes: continuation never rescues a row the bound would stop."""
        inputs = _kill_links(inputs, dead)
        masks = _all_masks(len(inputs.rank_names))
        with mock.patch.object(apples, "_MAX_BATCH_PASSES", bound):
            whole = evaluate_strip_batch([(inputs, masks)])[0]
            alone = _row_by_row(inputs, masks)
        np.testing.assert_array_equal(whole.fallback, alone.fallback)
        np.testing.assert_array_equal(whole.feasible, alone.feasible)
        np.testing.assert_array_equal(whole.kept, alone.kept)
        assert np.array_equal(whole.predicted, alone.predicted)

    def test_shrinking_rows_continue_into_their_subsets(self):
        """A chatty member is dropped by the balance; its row takes the
        outcome of the row that starts from the kept members."""
        rates = np.array([1e6, 1e6, 1e3])
        pair = np.full((3, 3), 1e-4)
        pair[2, :] = 2.0  # machine 2's border exchange is slow
        np.fill_diagonal(pair, 0.0)
        problem = JacobiProblem(n=400, iterations=10)
        inputs = StripBatchInputs(
                rank_names=("m0", "m1", "m2"),
            pool_positions=np.arange(3),
            rates=rates,
            caps=np.full(3, 1e12),
            avail_mb=np.full(3, 1e6),
            pair=pair,
            sync_overhead_s=0.0,
            total_points=float(problem.total_points),
            grid_n=problem.n,
            bytes_per_point=16.0,
            iterations=problem.iterations,
            risk_aversion=0.0,
            risks=np.zeros(3),
            account_memory=True,
        )
        masks = np.array([[True, True, True], [True, True, False]])
        with mock.patch.object(
            apples, "balance_prefix_exact_batched",
            wraps=apples.balance_prefix_exact_batched,
        ) as balance:
            whole = evaluate_strip_batch([(inputs, masks)])[0]
        assert balance.call_count == 1  # row 0 never re-balances
        alone = _row_by_row(inputs, masks)
        assert whole.feasible.all() and not whole.fallback.any()
        np.testing.assert_array_equal(whole.kept[0], [True, True, False])
        assert whole.predicted[0] == whole.predicted[1]
        np.testing.assert_array_equal(whole.kept, alone.kept)
        assert np.array_equal(whole.predicted, alone.predicted)


@st.composite
def tied_inputs(draw):
    """Synthetic inputs whose transfers take two or three values, so many
    members of a set share one floor cost, in a pool whose order is not
    the locality order."""
    inputs = draw(synthetic_inputs(min_machines=3, max_machines=7))
    n = len(inputs.rank_names)
    values = draw(st.lists(transfer_s, min_size=2, max_size=3, unique=True))
    pair = np.array(
        [draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))
         for _ in range(n)]
    )
    np.fill_diagonal(pair, 0.0)
    positions = draw(
        st.permutations(range(n)).filter(lambda p: list(p) != sorted(p))
    )
    return replace(inputs, pair=pair, pool_positions=np.array(positions))


class TestKernelBounds:
    @given(inputs=tied_inputs(), one_row=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_tied_floor_costs_add_in_pool_order(self, inputs, one_row):
        """With equal floor costs the water-fill adds tied members in pool
        order, as the name-space bound's stable sort does — not in the
        locality order the kernel's strip arrays list them in.  Every
        subset, singletons included, one row at a time or all at once."""
        masks = _all_masks(len(inputs.rank_names))
        result = (
            _row_by_row(inputs, masks) if one_row
            else evaluate_strip_batch([(inputs, masks)])[0]
        )
        _assert_oracle_bounds(inputs, masks, result)
        # JacobiPlanner.lower_bounds runs the same routine.
        member = masks & (inputs.rates > 0.0)
        order, cnt = batched_locality_orders(member)
        alone = apples._strip_bounds(
            member, order, cnt, np.zeros(len(masks), dtype=np.int64),
            apples._ClassTables.stack([inputs]),
        )
        assert np.array_equal(alone, result.bounds)

    def test_continued_rows_keep_their_own_bounds(self):
        """A fast but chatty member is dropped by the balance, so its row
        continues into the row of the kept members and takes that row's
        outcome — not its bound, which the fast member's singleton
        relaxation keeps far lower."""
        rates = np.array([1e6, 1e6, 1e7])
        pair = np.full((3, 3), 1e-4)
        pair[2, :] = 2.0  # machine 2's border exchange is slow
        np.fill_diagonal(pair, 0.0)
        problem = JacobiProblem(n=400, iterations=10)
        inputs = StripBatchInputs(
                rank_names=("m0", "m1", "m2"),
            pool_positions=np.array([2, 0, 1]),
            rates=rates,
            caps=np.full(3, 1e12),
            avail_mb=np.full(3, 1e6),
            pair=pair,
            sync_overhead_s=0.0,
            total_points=float(problem.total_points),
            grid_n=problem.n,
            bytes_per_point=16.0,
            iterations=problem.iterations,
            risk_aversion=0.0,
            risks=np.zeros(3),
            account_memory=True,
        )
        masks = np.array([[True, True, True], [True, True, False]])
        whole = evaluate_strip_batch([(inputs, masks)])[0]
        np.testing.assert_array_equal(whole.kept[0], [True, True, False])
        assert whole.predicted[0] == whole.predicted[1]
        # Row 0's bound: m2 alone, U / 1e7 per iteration.
        assert whole.bounds[0] == problem.total_points / 1e7 * 10
        assert whole.bounds[0] < whole.bounds[1]
        _assert_oracle_bounds(inputs, masks, whole)
        _assert_same_evaluation(whole, _row_by_row(inputs, masks))


def _chatty_fourteen() -> StripBatchInputs:
    """A fixed 14-machine world whose first three machines pay slow border
    exchanges, so most sets drop them and continue into smaller sets."""
    rng = np.random.default_rng(14)
    n = 14
    problem = JacobiProblem(n=1000, iterations=50)
    pair = rng.uniform(1e-4, 2e-2, (n, n))
    pair[:, :3] *= 40.0
    np.fill_diagonal(pair, 0.0)
    avail_mb = np.full(n, 1e6)
    return StripBatchInputs(
        rank_names=tuple(f"m{j}" for j in range(n)),
        pool_positions=rng.permutation(n),
        rates=rng.uniform(2e5, 2e6, n),
        caps=avail_mb * 1e6 / 16.0,
        avail_mb=avail_mb,
        pair=pair,
        sync_overhead_s=0.01,
        total_points=float(problem.total_points),
        grid_n=problem.n,
        bytes_per_point=16.0,
        iterations=problem.iterations,
        risk_aversion=0.5,
        risks=rng.uniform(0.0, 0.2, n),
        account_memory=True,
    )


# Every 16th row of the exhaustive chatty call: evaluating all 16,383 rows
# one per call takes tens of seconds.
_SAMPLE = slice(None, None, 16)


@functools.lru_cache(maxsize=1)
def _chatty_rows_alone() -> StripBatchEvaluation:
    """The sampled rows of the chatty exhaustive call, each evaluated alone."""
    return _row_by_row(_chatty_fourteen(), _all_masks(14)[_SAMPLE])


class TestKernelMemory:
    def test_exhaustive_call_peaks_in_blocks(self):
        """An exhaustive 14-machine call (16,383 rows) peaks under 8 MB of
        traced allocations, on one thread and with the helper's block in
        flight too: its pass temporaries are block-sized, where one block
        holding every row peaks near 24 MB.  Either way it equals the call
        run as one block, bounds included, and its sampled rows equal each
        row evaluated alone."""
        inputs, masks = _chatty_fourteen(), _all_masks(14)
        blocked = {}
        for cpus in (1, 2):
            tracing_already = tracemalloc.is_tracing()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                with _cpus(cpus):
                    blocked[cpus] = evaluate_strip_batch([(inputs, masks)])[0]
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                if not tracing_already:
                    tracemalloc.stop()
            assert peak < 8e6, cpus
        with mock.patch.object(apples, "_BLOCK_CELLS", masks.size):
            whole = evaluate_strip_batch([(inputs, masks)])[0]
        for result in blocked.values():
            _assert_same_evaluation(result, whole)
            _assert_same_evaluation(result.rows(_SAMPLE), _chatty_rows_alone())
        # Most rows shrink and continue, many into rows of other blocks.
        assert (whole.kept != masks).any(axis=1).sum() > len(masks) // 2


@contextlib.contextmanager
def _helper_takes_a_block(timeout: float = 10.0):
    """Force the helper thread on, and hold the calling thread's blocks
    until the helper has started one (or ``timeout`` passes): a
    multi-block pass then runs blocks on both threads.  Yields the list
    of threads, ``"caller"`` or ``"helper"``, in the order their blocks
    started."""
    caller, started, lock = threading.get_ident(), threading.Event(), threading.Lock()
    threads: list[str] = []
    strip_pass = apples._strip_pass

    def held(*args, **kwargs):
        mine = threading.get_ident() == caller
        with lock:
            threads.append("caller" if mine else "helper")
        if mine:
            started.wait(timeout)
        else:
            started.set()
        return strip_pass(*args, **kwargs)

    with _cpus(2), mock.patch.object(apples, "_strip_pass", held):
        yield threads


def _call_in_child(send, inputs, masks) -> None:
    """A forked child's multi-block call: its outcomes and how many blocks
    its helper thread ran, sent back to the parent."""
    with tracing() as tr, _helper_takes_a_block():
        result = evaluate_strip_batch([(inputs, masks)])[0]
    send.send((result, tr.metrics.as_dict()["apples.helper_blocks"]["value"]))


class TestKernelHelper:
    """The caller and the helper thread take a pass's blocks from one
    cursor: a failing block fails only its own call, a forked child gets
    a helper of its own, and concurrent callers get lone answers."""

    @pytest.mark.parametrize("where", ["caller", "helper"])
    def test_a_failing_block_fails_its_call_alone(self, where):
        """The first block the caller (or the helper) runs raises.  The
        call raises that error once every started block has finished, no
        block starts after it returns, and the next call answers as a
        clean one does."""
        inputs, masks = _chatty_fourteen(), _all_masks(14)
        clean = evaluate_strip_batch([(inputs, masks)])[0]
        caller, lock = threading.get_ident(), threading.Lock()
        helper_started = threading.Event()
        started, finished = [], []
        strip_pass = apples._strip_pass

        def failing(*args, **kwargs):
            thread = "caller" if threading.get_ident() == caller else "helper"
            with lock:
                first = thread not in started
                started.append(thread)
            try:
                if thread == "caller":
                    helper_started.wait(10.0)
                else:
                    helper_started.set()
                    if where == "caller":
                        time.sleep(0.05)  # still running when the caller fails
                if first and thread == where:
                    raise RuntimeError(f"{thread} block failed")
                return strip_pass(*args, **kwargs)
            finally:
                with lock:
                    finished.append(thread)

        with _cpus(2), mock.patch.object(apples, "_strip_pass", failing):
            with pytest.raises(RuntimeError, match=f"{where} block failed"):
                evaluate_strip_batch([(inputs, masks)])
            assert len(finished) == len(started) < 8
            ran = len(started)
            # The helper runs its tasks in order: once this no-op has run,
            # no earlier task of the failed call can still start a block.
            apples._helper[1].submit(lambda: None).result(timeout=10.0)
            assert len(started) == ran
            assert {"caller", "helper"} <= set(started)
        with _cpus(2):
            _assert_same_evaluation(evaluate_strip_batch([(inputs, masks)])[0], clean)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
    )
    @pytest.mark.filterwarnings("ignore:.*fork:DeprecationWarning")
    def test_a_forked_child_starts_its_own_helper(self):
        """After a multi-block call has started the helper thread, a child
        forked from the process inherits the executor but not its thread.
        The child's multi-block call must start a helper of its own: its
        blocks run on both of its threads, and it answers as the parent."""
        inputs, masks = _chatty_fourteen(), _all_masks(14)
        with _helper_takes_a_block() as threads:
            parent = evaluate_strip_batch([(inputs, masks)])[0]
        assert "helper" in threads
        context = multiprocessing.get_context("fork")
        receive, send = context.Pipe(duplex=False)
        child = context.Process(target=_call_in_child, args=(send, inputs, masks))
        child.start()
        try:
            assert receive.poll(60.0), "the forked child's call did not answer"
            result, helped = receive.recv()
            child.join(10.0)
            assert child.exitcode == 0
        finally:
            if child.is_alive():
                child.kill()
                child.join()
        _assert_same_evaluation(result, parent)
        assert helped >= 1

    def test_concurrent_callers_get_lone_answers(self):
        """Three threads call the kernel at once, as daemon shards would,
        sharing the one helper thread — more threads than this host's two
        CPUs, switching every 10 us: each gets the outcomes of its call
        made alone, so no block's writes are lost or crossed."""
        base, masks = _chatty_fourteen(), _all_masks(14)
        jobs = [(base, masks),
                (replace(base, risk_aversion=1.5, sync_overhead_s=0.02), masks),
                (replace(base, iterations=80), masks[::3])]
        alone = [evaluate_strip_batch([job])[0] for job in jobs]
        barrier = threading.Barrier(len(jobs))

        def call(job):
            barrier.wait(10.0)
            return evaluate_strip_batch([job])[0]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with _cpus(2), ThreadPoolExecutor(len(jobs)) as callers:
                for _ in range(3):
                    answers = callers.map(call, jobs, timeout=60.0)
                    for got, want in zip(answers, alone):
                        _assert_same_evaluation(got, want)
        finally:
            sys.setswitchinterval(interval)


# -- row-structure reuse --------------------------------------------------


def _cold(jobs) -> list[StripBatchEvaluation]:
    """``evaluate_strip_batch(jobs)`` with the row-structure memo cleared
    first, so the call builds its structure."""
    apples._structures.clear()
    return evaluate_strip_batch(jobs)


def _traced_call(jobs) -> tuple[list[StripBatchEvaluation], dict]:
    """One traced kernel call: its outcomes and its metrics."""
    with tracing() as tr:
        result = evaluate_strip_batch(jobs)
    return result, tr.metrics.as_dict()


def _built(metrics: dict) -> int:
    """How many row structures a traced run built."""
    return metrics.get("apples.structures_built", {}).get("value", 0)


def _reuse_in_child(send, jobs) -> None:
    """A forked child's kernel call: its outcomes and how many row
    structures it built, sent back to the parent."""
    result, metrics = _traced_call(jobs)
    send.send((result, _built(metrics)))


class TestRowStructureReuse:
    """A candidate space's row structure is built on its first call and
    read back by every later call over it, from any thread or forked
    child: a call served from the memo answers as a cold call."""

    @given(
        inputs=synthetic_inputs(max_machines=4),
        cap=st.one_of(st.none(), st.integers(1, 3)),
        universe=st.sampled_from([4, 64]),
        dead=dead_links(),
        memory=squeezed_memory(),
    )
    @settings(max_examples=25, deadline=None)
    def test_reuse_changes_no_answer(self, inputs, cap, universe, dead, memory):
        """Exhaustive and capped spaces, in a 4-machine universe or padded
        to 64 machines (byte row keys), one job alone (every row distinct)
        or stacked with its memory-blind twin and a job of another
        arithmetic: the call served from the memo equals the cold call,
        every outcome and bound byte for byte, and each row alone."""
        k = len(inputs.rank_names)
        mem = _pad(_squeeze_memory(_kill_links(inputs, dead), memory), universe)
        masks = _space(k, universe, cap)
        slow = replace(mem, rates=mem.rates * 0.5)
        for jobs in ([(mem, masks)],
                     [(mem, masks), (_blind(mem), masks), (slow, masks)]):
            cold = _cold(jobs)
            warm, metrics = _traced_call(jobs)
            assert metrics["apples.structure_hits"]["value"] == 1
            for (job, job_masks), one, two in zip(jobs, cold, warm):
                _assert_same_evaluation(one, two)
                _assert_same_evaluation(two, _row_by_row(job, job_masks))

    @pytest.mark.parametrize("change", ["rate-drops-to-zero", "class-vector"])
    def test_a_changed_space_builds_its_own(self, change):
        """The same masks with a machine's rate dropped to 0 (other usable
        members), and the same usable-member matrix with another class
        vector (a job of another arithmetic where a memory twin stood):
        each second call builds its own structure and answers as a cold
        call does."""
        base, masks = _chatty_fourteen(), _space(6, 14)
        if change == "rate-drops-to-zero":
            rates = base.rates.copy()
            rates[2] = 0.0
            first, second = [(base, masks)], [(replace(base, rates=rates), masks)]
        else:
            other = replace(base, iterations=80)
            first = [(base, masks), (_blind(base), masks)]
            second = [(base, masks), (other, masks)]
        _cold(first)
        got, metrics = _traced_call(second)
        assert _built(metrics) == 1
        for one, two in zip(got, _cold(second)):
            _assert_same_evaluation(one, two)

    def test_a_job_without_rows(self):
        """A job with no candidate rows, alone or stacked with one that has
        some, gets an empty evaluation when its structure is built and when
        it is read back."""
        inputs, masks = _chatty_fourteen(), _space(4, 14)
        empty = masks[:0]
        want = _cold([(inputs, masks)])[0]
        for jobs in ([(inputs, empty)], [(inputs, empty), (inputs, masks)]):
            for result in (_cold(jobs), evaluate_strip_batch(jobs)):
                assert result[0].kept.shape == (0, 14) and result[0].bounds.size == 0
                if len(jobs) == 2:
                    _assert_same_evaluation(result[1], want)

    def test_the_block_size_keys_the_structure(self):
        """A call under a patched ``_BLOCK_CELLS`` never reads the
        structure built under the default: it plans its own blocks."""
        inputs, masks = _chatty_fourteen(), _space(10, 14)
        default = _cold([(inputs, masks)])[0]
        with mock.patch.object(apples, "_BLOCK_CELLS", 1000):
            (small,), metrics = _traced_call([(inputs, masks)])
        assert _built(metrics) == 1
        assert metrics["apples.blocks"]["value"] == _block_plan(masks.sum(axis=1), 1000)
        _assert_same_evaluation(small, default)

    def test_threads_share_the_memo_while_it_evicts(self):
        """Six threads, more than this host's CPUs, switching every 10 us,
        call the kernel over three spaces in turn while the memo keeps
        only two structures, so entries are evicted while other threads
        read them: every call equals its cold call."""
        base = _chatty_fourteen()
        spaces = [
            [(base, _space(12, 14))],
            [(replace(base, iterations=80), _space(11, 14, 5))],
            [(base, _space(10, 14)), (_blind(base), _space(12, 14, 3))],
        ]
        cold = [_cold(jobs) for jobs in spaces]
        barrier, errors = threading.Barrier(6), []

        def call(t):
            try:
                barrier.wait(10.0)
                for r in range(6):
                    i = (t + r) % len(spaces)
                    for got, want in zip(evaluate_strip_batch(spaces[i]), cold[i]):
                        _assert_same_evaluation(got, want)
            except Exception as exc:  # raised again by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with mock.patch.object(apples, "_STRUCTURES_KEPT", 2), _cpus(2):
                threads = [threading.Thread(target=call, args=(t,)) for t in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(120.0)
                    assert not thread.is_alive()
                assert len(apples._structures) <= 2
        finally:
            sys.setswitchinterval(interval)
        if errors:
            raise errors[0]

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
    )
    @pytest.mark.filterwarnings("ignore:.*fork:DeprecationWarning")
    def test_a_forked_child_reads_the_parents_structure(self):
        """The parent fills the memo with a multi-block space; a child
        forked from it answers the same call as the parent, within the
        timeout, from the structure it inherited."""
        jobs = [(_chatty_fourteen(), _all_masks(14))]
        parent = _cold(jobs)
        context = multiprocessing.get_context("fork")
        receive, send = context.Pipe(duplex=False)
        child = context.Process(target=_reuse_in_child, args=(send, jobs))
        child.start()
        try:
            assert receive.poll(60.0), "the forked child's call did not answer"
            result, built = receive.recv()
            child.join(10.0)
            assert not child.is_alive() and child.exitcode == 0
        finally:
            if child.is_alive():
                child.kill()
                child.join(10.0)
        assert built == 0
        for got, want in zip(result, parent):
            _assert_same_evaluation(got, want)


def _pad(inputs: StripBatchInputs, n: int) -> StripBatchInputs:
    """Grow a synthetic universe to ``n`` machines with unusable padding."""
    k = len(inputs.rank_names)
    if k == n:
        return inputs
    extra = n - k
    pair = np.full((n, n), np.inf)
    pair[:k, :k] = inputs.pair
    np.fill_diagonal(pair, 0.0)
    return StripBatchInputs(
        rank_names=inputs.rank_names + tuple(f"pad{j}" for j in range(extra)),
        pool_positions=np.concatenate([inputs.pool_positions, np.arange(k, n)]),
        rates=np.concatenate([inputs.rates, np.zeros(extra)]),
        caps=np.concatenate([inputs.caps, np.zeros(extra)]),
        avail_mb=np.concatenate([inputs.avail_mb, np.zeros(extra)]),
        pair=pair,
        sync_overhead_s=inputs.sync_overhead_s,
        total_points=inputs.total_points,
        grid_n=inputs.grid_n,
        bytes_per_point=inputs.bytes_per_point,
        iterations=inputs.iterations,
        risk_aversion=inputs.risk_aversion,
        risks=np.concatenate([inputs.risks, np.zeros(extra)]),
        account_memory=inputs.account_memory,
    )


# -- conservation ---------------------------------------------------------


class TestRowConservation:
    @given(
        grid=st.integers(min_value=10, max_value=2000),
        areas=st.lists(
            st.floats(min_value=1.0, max_value=1e6), min_size=1, max_size=8
        ),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_exact_rows_conserve_the_grid(self, grid, areas, seed):
        n = len(areas)
        rng = np.random.default_rng(seed)
        scale = grid / sum(areas)
        padded = np.zeros((1, n + 2))
        padded[0, :n] = np.array(areas) * scale  # realistic magnitudes
        rows, exact = batched_largest_remainder_rows(
            np.array([grid]), padded, np.array([n])
        )
        if exact[0]:
            assert rows[0].sum() == grid
            assert (rows[0, :n] >= 1).all()  # every member keeps a strip
            assert (rows[0, n:] == 0).all()  # padding gets nothing
        del rng  # reserved for future shuffles

    @given(inputs=synthetic_inputs())
    @settings(max_examples=30, deadline=None)
    def test_kept_members_are_members(self, inputs):
        masks = _all_masks(len(inputs.rank_names))
        result = evaluate_strip_batch([(inputs, masks)])[0]
        # The planner may keep a subset, never a superset.
        assert not (result.kept & ~masks).any()
        feasible = result.feasible & ~result.fallback
        assert (result.kept[feasible].sum(axis=1) >= 1).all()
        assert np.isfinite(result.predicted[feasible]).all()


# -- monotonicity in background load -------------------------------------


class TestLoadMonotonicity:
    @given(
        inputs=synthetic_inputs(),
        slowdown=st.floats(min_value=0.1, max_value=0.95),
    )
    @settings(max_examples=40, deadline=None)
    def test_uniformly_slower_machines_never_predict_faster(
        self, inputs, slowdown
    ):
        """More background load = lower deliverable rates = larger T.

        The theorem holds per *kept member set*: when both worlds converge
        on the same machines, the slow world's continuous balanced time
        dominates the fast world's, and the integerised step time sits
        within one grid row of the continuous optimum.  (Across different
        kept sets the planner is a heuristic and no ordering is promised —
        dropping a chatty member at high rates can legitimately predict
        slower than keeping it at low rates.)
        """
        masks = _all_masks(len(inputs.rank_names))
        fast_world = evaluate_strip_batch([(inputs, masks)])[0]
        loaded = StripBatchInputs(
                rank_names=inputs.rank_names,
            pool_positions=inputs.pool_positions,
            rates=inputs.rates * slowdown,
            caps=inputs.caps,
            avail_mb=inputs.avail_mb,
            pair=inputs.pair,
            sync_overhead_s=inputs.sync_overhead_s,
            total_points=inputs.total_points,
            grid_n=inputs.grid_n,
            bytes_per_point=inputs.bytes_per_point,
            iterations=inputs.iterations,
            risk_aversion=inputs.risk_aversion,
            risks=inputs.risks,
            account_memory=inputs.account_memory,
        )
        slow_world = evaluate_strip_batch([(loaded, masks)])[0]
        comparable = (
            fast_world.feasible
            & ~fast_world.fallback
            & slow_world.feasible
            & ~slow_world.fallback
            & (fast_world.kept == slow_world.kept).all(axis=1)
        )
        for i in np.flatnonzero(comparable):
            kept = fast_world.kept[i]
            # T_fast exceeds its continuous optimum by at most one grid row
            # on the slowest kept machine (largest-remainder apportionment
            # hands out at most one extra row); T_slow is never below its
            # own continuous optimum, which dominates the fast one.
            risk_mult = 1.0 + inputs.risk_aversion * inputs.risks[kept].max()
            slack = (
                inputs.grid_n / inputs.rates[kept].min()
                * inputs.iterations
                * risk_mult
            )
            assert slow_world.predicted[i] >= (
                fast_world.predicted[i] - slack
            ) * (1.0 - 1e-9)

    @given(
        rates=st.lists(finite_rate, min_size=2, max_size=6),
        costs=st.lists(
            st.floats(min_value=0.0, max_value=2.0), min_size=2, max_size=6
        ),
        total=st.floats(min_value=1e2, max_value=1e8),
        slowdown=st.floats(min_value=0.05, max_value=1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_balanced_time_monotone_in_rates(
        self, rates, costs, total, slowdown
    ):
        n = min(len(rates), len(costs))
        r = np.array([rates[:n], [x * slowdown for x in rates[:n]]])
        c = np.array([costs[:n], costs[:n]])
        res = balance_prefix_exact_batched(r, c, np.array([total, total]))
        if not res.needs_reference.any():
            # Each row's makespan, max(A_i / r_i + c_i) over its active slots.
            fast, slow = (
                max(a / x + y for a, x, y in zip(
                    res.allocations[i][on], r[i][on], c[i][on]
                ))
                for i, on in enumerate(res.active)
            )
            assert slow >= fast * (1.0 - 1e-12)


# -- degenerate inputs ----------------------------------------------------


class TestDegenerateRejection:
    def test_nan_rates_rejected(self):
        with pytest.raises(ValueError):
            balance_prefix_exact_batched(
                np.array([[1.0, np.nan]]),
                np.array([[0.1, 0.2]]),
                np.array([100.0]),
            )

    def test_nan_costs_rejected(self):
        with pytest.raises(ValueError):
            balance_prefix_exact_batched(
                np.array([[1.0, 2.0]]),
                np.array([[0.1, np.nan]]),
                np.array([100.0]),
            )

    def test_zero_rate_member_rejected(self):
        with pytest.raises(ValueError):
            balance_prefix_exact_batched(
                np.array([[1.0, 0.0]]),
                np.array([[0.1, 0.2]]),  # both finite => both members
                np.array([100.0]),
            )

    def test_negative_cost_member_rejected(self):
        with pytest.raises(ValueError):
            balance_prefix_exact_batched(
                np.array([[1.0, 2.0]]),
                np.array([[0.1, -0.2]]),
                np.array([100.0]),
            )

    @given(total=st.floats(max_value=0.0, allow_nan=False))
    @settings(max_examples=20, deadline=None)
    def test_nonpositive_totals_rejected(self, total):
        with pytest.raises(ValueError):
            balance_prefix_exact_batched(
                np.array([[1.0]]), np.array([[0.1]]), np.array([total])
            )

    def test_nonfinite_areas_rejected(self):
        with pytest.raises(ValueError):
            batched_largest_remainder_rows(
                np.array([100]),
                np.array([[np.inf, 1.0]]),
                np.array([2]),
            )

    def test_dead_links_yield_inf_not_nan(self):
        pair = np.array([[0.0, np.inf], [np.inf, 0.0]])
        order = np.array([[0, 1]])
        costs, transfers = batched_neighbor_comm_costs(
            pair, order, np.array([2]), 0.01
        )
        for values in (costs, transfers):
            assert np.isinf(values).all() and not np.isnan(values).any()

    def test_locality_orders_require_2d(self):
        with pytest.raises(ValueError):
            batched_locality_orders(np.array([True, False]))

    @pytest.mark.parametrize(
        "masks, match",
        [
            (np.array([True]), r"job 1: candidate masks must be 2-D, got shape \(1,\)"),
            (np.array([[[True]]]), r"job 1: candidate masks must be 2-D"),
            (np.array(True), r"job 1: candidate masks must be 2-D"),
            (np.array([[True, True]]), "one machine universe size"),
        ],
        ids=["1-d", "3-d", "0-d", "universe"],
    )
    def test_malformed_jobs_are_rejected(self, masks, match):
        """Masks that are not ``(rows, machines)`` name their job; a job
        over another universe size is refused before any work."""
        inputs = StripBatchInputs(
            rank_names=("m0",),
            pool_positions=np.array([0]),
            rates=np.array([1e6]),
            caps=np.array([1e12]),
            avail_mb=np.array([1e6]),
            pair=np.zeros((1, 1)),
            sync_overhead_s=0.0,
            total_points=1600.0,
            grid_n=40,
            bytes_per_point=16.0,
            iterations=1,
            risk_aversion=0.0,
            risks=np.zeros(1),
            account_memory=True,
        )
        with mock.patch.object(apples._ClassTables, "of") as classes:
            with pytest.raises(ValueError, match=match):
                evaluate_strip_batch([(inputs, np.array([[True]])), (inputs, masks)])
        classes.assert_not_called()


# -- shared rows and the memory veto -------------------------------------


def _blind(inputs: StripBatchInputs) -> StripBatchInputs:
    """``inputs``' memory-blind twin: the same arithmetic, no capacities."""
    return replace(inputs, account_memory=False, caps=None)


def _assert_each_alone(jobs) -> None:
    """Every job of ``jobs``, stacked in either order, equals itself alone
    one row at a time, in every field."""
    for stacked in (jobs, jobs[::-1]):
        for (inputs, masks), got in zip(stacked, evaluate_strip_batch(stacked)):
            _assert_same_evaluation(got, _row_by_row(inputs, masks))


def _arithmetic(inputs: StripBatchInputs) -> tuple:
    """The bits of every field the memory-blind plan reads."""
    return tuple(
        np.asarray(value).tobytes()
        for value in (
            inputs.rates, inputs.pair, inputs.sync_overhead_s,
            inputs.total_points, inputs.grid_n, inputs.iterations,
            inputs.risk_aversion, inputs.risks, inputs.pool_positions,
        )
    )


def _chatty_world(caps: np.ndarray) -> StripBatchInputs:
    """Three equal machines in strip order m0, m1, m2 whose m2 pays a slow
    border exchange with m1 (the pair is asymmetric), so the balance drops
    m2 and the set {m0, m1, m2} shrinks to {m0, m1}.  Without m2, m1's
    border cost falls: its share rises from 79,950 to 80,000 points and
    m0's falls from 80,050 to 80,000."""
    pair = np.full((3, 3), 1e-4)
    pair[2, 1] = 1.0
    np.fill_diagonal(pair, 0.0)
    problem = JacobiProblem(n=400, iterations=10)
    return StripBatchInputs(
        rank_names=("m0", "m1", "m2"),
        pool_positions=np.arange(3),
        rates=np.full(3, 1e6),
        caps=caps,
        avail_mb=caps * 16.0 / 1e6,
        pair=pair,
        sync_overhead_s=0.0,
        total_points=float(problem.total_points),
        grid_n=problem.n,
        bytes_per_point=16.0,
        iterations=problem.iterations,
        risk_aversion=0.0,
        risks=np.zeros(3),
        account_memory=True,
    )


class TestSharedRows:
    """Jobs of one arithmetic class share the kernel's rows, and memory
    capacity only vetoes a memory-accounting job's rows: stacking never
    changes what a job gets alone."""

    @given(
        inputs=synthetic_inputs(max_machines=4),
        cap=st.integers(1, 3),
        universe=st.integers(4, 8),
        dead=dead_links(),
        memory=squeezed_memory(),
    )
    @settings(max_examples=30, deadline=None)
    def test_memory_twins_and_sub_spaces(self, inputs, cap, universe, dead, memory):
        """A memory-accounting job, its memory-blind twin and a capped
        sub-space of the job, over squeezed memory and dead links."""
        k = len(inputs.rank_names)
        mem = _pad(_squeeze_memory(_kill_links(inputs, dead), memory), universe)
        full = _space(k, universe)
        _assert_each_alone(
            [(mem, full), (_blind(mem), full), (mem, _space(k, universe, cap))]
        )

    @pytest.mark.parametrize(
        "caps, vetoed",
        [
            # m0's cap sits between its shares: over cap in pass 1, then
            # the blind plan shrinks into {m0, m1}, which fits.
            ([80020.0, 1e9, 1e9], [True, False]),
            # m1's cap sits between its shares: pass 1 fits, then the row
            # shrinks into {m0, m1}, which is over cap.
            ([1e9, 79975.0, 1e9], [True, True]),
        ],
        ids=["over-cap-then-shrinks", "shrinks-into-over-cap"],
    )
    def test_vetoes_follow_the_continuation_chain(self, caps, vetoed):
        mem = _chatty_world(np.array(caps))
        # The two balances' shares, as the docstring of _chatty_world says.
        shares = balance_prefix_exact_batched(
            np.array([[1e6, 1e6, 1e6], [1e6, 1e6, 0.0]]),
            np.array([[1e-4, 2e-4, 1.0], [1e-4, 1e-4, np.inf]]),
            np.full(2, mem.total_points),
        ).allocations
        np.testing.assert_allclose(
            shares[:, :2], [[80050, 79950], [80000, 80000]], rtol=1e-12
        )
        masks = np.array([[True, True, True], [True, True, False]])
        got, twin = evaluate_strip_batch([(mem, masks), (_blind(mem), masks)])
        np.testing.assert_array_equal(got.fallback, vetoed)
        assert twin.feasible.all() and not twin.fallback.any()
        np.testing.assert_array_equal(twin.kept, [[True, True, False]] * 2)
        assert not got.kept[got.fallback].any()
        assert np.isinf(got.predicted[got.fallback]).all()
        np.testing.assert_array_equal(got.bounds, twin.bounds)
        _assert_each_alone([(mem, masks), (_blind(mem), masks), (mem, masks[:1])])

    @pytest.mark.parametrize(
        "caps, avail_mb, vetoed",
        [
            # m0's 79,900 points fit its cap, but its largest remainder
            # rounds it up to 200 rows, over its row cap of 199.
            ([79950.0, 1e9], None, True),
            ([80010.0, 1e9], None, False),  # a row cap of 200 fits
            # Roomy caps, but m0's 1.28 MB strip does not fit 0.5 MB.
            ([1e9, 1e9], [0.5, 1e6], True),
        ],
        ids=["row-cap", "row-cap-fits", "paging"],
    )
    def test_final_checks_veto(self, caps, avail_mb, vetoed):
        """Integer rows over a row cap, or a strip outside real memory,
        veto a memory-accounting row that no pass found over cap."""
        problem = JacobiProblem(n=400, iterations=10)
        caps = np.array(caps)
        mem = StripBatchInputs(
                rank_names=("m0", "m1"),
            pool_positions=np.arange(2),
            rates=np.array([7.99e5, 8.01e5]),
            caps=caps,
            avail_mb=caps * 16.0 / 1e6 if avail_mb is None else np.array(avail_mb),
            pair=np.array([[0.0, 1e-4], [1e-4, 0.0]]),
            sync_overhead_s=0.0,
            total_points=float(problem.total_points),
            grid_n=problem.n,
            bytes_per_point=16.0,
            iterations=problem.iterations,
            risk_aversion=0.0,
            risks=np.zeros(2),
            account_memory=True,
        )
        masks = np.array([[True, True]])
        got, twin = evaluate_strip_batch([(mem, masks), (_blind(mem), masks)])
        assert got.fallback[0] == vetoed and got.feasible[0] != vetoed
        assert twin.feasible[0] and not twin.fallback[0]
        _assert_each_alone([(mem, masks), (_blind(mem), masks)])

    @given(
        inputs=synthetic_inputs(),
        zero=st.lists(st.integers(0, 4), min_size=1, max_size=2),
        seed=st.integers(0, 2**32 - 1),
        dead=dead_links(),
        memory=squeezed_memory(),
    )
    @settings(max_examples=30, deadline=None)
    def test_repeated_and_zero_rate_rows(self, inputs, zero, seed, dead, memory):
        """Repeated rows, and rows that differ only in zero-rate members,
        share one plan and one bound: each equals its own evaluation."""
        inputs = _squeeze_memory(_kill_links(inputs, dead), memory)
        rates = inputs.rates.copy()
        rates[[z for z in zero if z < len(rates)]] = 0.0
        inputs = replace(inputs, rates=rates)
        space = _all_masks(len(rates))
        rng = np.random.default_rng(seed)
        masks = space[rng.integers(0, len(space), size=2 * len(space))]
        whole = evaluate_strip_batch([(inputs, masks)])[0]
        _assert_same_evaluation(whole, _row_by_row(inputs, masks))
        _assert_oracle_bounds(inputs, masks, whole)

    @given(
        inputs=synthetic_inputs(),
        first=squeezed_memory(),
        second=squeezed_memory(),
        dead=dead_links(),
    )
    @settings(max_examples=30, deadline=None)
    def test_memory_variants_of_one_arithmetic(self, inputs, first, second, dead):
        """Two memory-accounting jobs with equal arithmetic but their own
        capacities, and a memory-blind twin: each equals itself alone."""
        base = _kill_links(inputs, dead)
        one, two = _squeeze_memory(base, first), _squeeze_memory(base, second)
        masks = _all_masks(len(base.rank_names))
        _assert_each_alone([(one, masks), (_blind(one), masks), (two, masks)])

    @given(
        inputs=synthetic_inputs(),
        cap=st.one_of(st.none(), st.integers(1, 3)),
        dead=dead_links(),
        memory=squeezed_memory(),
    )
    @settings(max_examples=15, deadline=None)
    def test_wide_universes(self, inputs, cap, dead, memory):
        """A memory-accounting job, its blind twin and a job of another
        arithmetic, padded to 64 machines, evaluate as in their own
        universe."""
        k = len(inputs.rank_names)
        mem = _squeeze_memory(_kill_links(inputs, dead), memory)
        masks = _space(k, k, cap)
        wide, wide_masks = _pad(mem, 64), _space(k, 64, cap)
        slow = replace(mem, rates=mem.rates * 0.5)  # another arithmetic
        narrow = evaluate_strip_batch(
            [(mem, masks), (_blind(mem), masks), (slow, masks)]
        )
        jobs = [(wide, wide_masks), (_blind(wide), wide_masks),
                (_pad(slow, 64), wide_masks)]
        for small, got in zip(narrow, evaluate_strip_batch(jobs)):
            assert not got.kept[:, k:].any()
            _assert_same_evaluation(small, replace(got, kept=got.kept[:, :k]))
        _assert_each_alone(jobs)

    @given(
        inputs=synthetic_inputs(max_machines=4),
        other=synthetic_inputs(max_machines=4),
        cap=st.integers(1, 3),
        memory=squeezed_memory(),
    )
    @settings(max_examples=30, deadline=None)
    def test_each_distinct_row_is_bounded_once(self, inputs, other, cap, memory):
        """The kernel bounds exactly the distinct (class, usable-member
        set) rows, and its traced counters say so."""
        universe = 4
        mem = _pad(_squeeze_memory(inputs, memory), universe)
        other = _pad(other, universe)
        assume(_arithmetic(other) != _arithmetic(mem))
        full = _space(universe, universe)
        jobs = [(mem, full), (_blind(mem), full),
                (mem, _space(universe, universe, cap)), (other, full)]
        distinct = {
            (_arithmetic(i), row.tobytes())
            for i, masks in jobs for row in masks & (i.rates > 0.0)
        }
        apples._structures.clear()
        with mock.patch.object(
            apples, "_strip_bounds", wraps=apples._strip_bounds
        ) as bounds, tracing() as tr:
            evaluate_strip_batch(jobs)
        assert sum(len(c.args[0]) for c in bounds.call_args_list) == len(distinct)
        metrics = tr.metrics.as_dict()
        rows = sum(len(masks) for _, masks in jobs)
        assert metrics["apples.rows_computed"]["value"] == len(distinct)
        assert metrics["apples.rows_shared"]["value"] == rows - len(distinct)


@pytest.fixture(scope="module")
def fig6_world():
    """The Figure 6 testbed, where real-memory capacities bind."""
    return warmed_state(
        sdsc_pcl_with_sp2, seed=1996, warmup_s=300.0,
        builder_kwargs={"crossover_n": 3700},
    )


class TestMemoryVetoOnFig6:
    @pytest.mark.parametrize("n", [3000, 4200])
    def test_rows_against_the_scalar_planner(self, fig6_world, n):
        """Each row of a memory-accounting job stacked with its blind
        twin: a certified row equals ``JacobiPlanner.plan`` with its own
        memory policy, and a row whose memory-aware and memory-blind
        plans differ is surrendered in the memory job."""
        testbed, nws = fig6_world
        problem = JacobiProblem(n=n, iterations=10)
        snapshot = ResourcePool(testbed.topology, nws).snapshot()
        agents = [make_jacobi_agent(testbed, problem, nws, account_memory=m)
                  for m in (True, False)]
        jobs = []
        for agent in agents:
            with agent.info.decision_scope(snapshot):
                jobs.append(agent.stage(agent.candidate_sets()).job)
        results = evaluate_strip_batch(jobs)
        plans = []
        for agent, (inputs, masks), ev in zip(agents, jobs, results):
            names = np.array(inputs.rank_names)
            with agent.info.decision_scope(snapshot):
                plans.append(
                    [agent.planner.plan(list(names[row]), agent.info) for row in masks]
                )
            for row, plan in enumerate(plans[-1]):
                if ev.fallback[row]:
                    continue
                assert ev.feasible[row] == (plan is not None)
                if plan is not None:
                    assert ev.predicted[row] == plan.predicted_time
                    assert set(names[ev.kept[row]]) == set(plan.resource_set)
        mem = results[0]
        assert mem.fallback.any() and not results[1].fallback.all()
        for row, (aware, blind) in enumerate(zip(*plans)):
            same = (aware is None) == (blind is None) and (
                aware is None
                or (aware.predicted_time, aware.resource_set)
                == (blind.predicted_time, blind.resource_set)
            )
            assert same or mem.fallback[row]

    def test_fig6_quick_case_surrenders_as_before(self):
        """The Figure 6 quick case surrenders 1,477 of its 2,046 rows."""
        results = []
        real = apples.evaluate_strip_batch

        def spy(jobs, *args, **kwargs):
            out = real(jobs, *args, **kwargs)
            results.extend(out)
            return out

        with mock.patch.object(apples, "evaluate_strip_batch", side_effect=spy):
            run_fig6(sizes=(3000, 4200), iterations=10, seed=1996, warmup_s=300.0)
        assert sum(len(ev.fallback) for ev in results) == 2046
        assert sum(int(ev.fallback.sum()) for ev in results) == 1477
