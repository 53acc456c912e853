"""Ensemble tensor backend: batched struct-of-arrays replica execution.

Monte-Carlo confidence intervals on every figure require executing
*hundreds* of replica simulations — seeds × load regimes × testbeds —
and a Python loop over one :class:`~repro.sim.execution_fast.CompiledExecution`
per replica pays the interpreter tax once per replica per iteration.
This module adds the missing leading **ensemble axis**: a batch of
``(topology, assignments, t0, seed)`` replicas is compiled into shared
NumPy tensors and every barrier step advances *all* replicas at once.

Layout
------
All per-host plans of all vectorisable replicas are flattened into one
*entry* axis (replicas stay contiguous, so per-replica reductions are
``reduceat`` segments):

- ``rates[row, epoch]`` — per-host deliverable-rate tables, copied from
  the read-only exports of :meth:`repro.sim.host.Host.capacity_prefix`;
  each row is materialised lazily to its own doubling horizon, so a
  short-horizon replica never pays for the epochs a long-horizon
  batch-mate walks.  Rows are **shared-world deduplicated**: replicas
  that differ only in assignments (Monte-Carlo sweeps over allocations
  of one world) reference one row per ``(host, footprint)`` instead of
  stacking identical copies — the entry axis maps into the row axis via
  ``_row[entry]``.  Table content is epoch-indexed from absolute time
  zero, so sharing is t0-safe by construction.
- ``pair_bw[pair, epoch]`` — per-pair bottleneck-bandwidth tables
  (:meth:`repro.sim.topology.Topology.pair_bandwidth_table`), deduplicated
  by route content — the resolved ``(link, flow count)`` sequence — so
  identical pairs collapse across replicas of one world, not just within
  a replica; latencies and flow counts resolve at compile time.
- comm *slots* — the ``s``-th communication entry of every host forms one
  vector, so per-peer charges accumulate slot by slot: the float additions
  happen in exactly the reference loop's per-host order while each slot is
  a single vectorised gather.

Bit-identity contract
---------------------
Every replica of an ensemble pass must match the reference loop run solo,
float-for-float (``tests/test_ensemble_equivalence.py``).  The vectorised
step therefore replays the reference arithmetic elementwise:

- The common single-epoch compute exit evaluates the reference's exact
  expression ``(t + work/rate) - t0`` as array ops (IEEE double either
  way).  Multi-epoch integrations run an *epoch-synchronous* vector walk:
  all straddling entries advance one epoch per pass, each replaying the
  reference's subtraction sequence elementwise (the capacity subtracted
  per epoch is the identical ``rate * window`` float, in the identical
  order per entry), with the capacity prefix presizing the shared
  tensors so growth happens at most a few times per run.
- Per-iteration maxima are order-free (max is exact), so segment
  ``reduceat`` reductions are bit-identical to the sequential scan.

Replicas the tensor backend cannot compile — mutable injected loads,
non-tabular routes, heterogeneous per-replica iteration counts —
**surrender individually** to :class:`CompiledExecution`; the rest of the
batch stays vectorised.  The differential tests compare every replica
against :func:`~repro.sim.execution.simulate_iterations_reference`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.obs.trace import get_tracer
from repro.sim.execution import (
    IterationResult,
    WorkAssignment,
    check_clock,
    count_flows,
    validate_assignments,
)
from repro.sim.host import _MAX_EPOCHS
from repro.sim.link import Link
from repro.sim.load import epoch_cached
from repro.sim.testbeds import Testbed, synthetic_metacomputer
from repro.sim.topology import Topology
from repro.util.rng import derive_seed
from repro.util.stats import MeanCI, mean_ci
from repro.util.validation import check_positive

__all__ = [
    "ReplicaSpec",
    "EnsembleExecution",
    "run_ensemble",
    "replicated",
    "ring_assignments",
    "ensemble_summary",
]

#: Epochs materialised by the first growth of any shared table row.
_GROW_MIN = 64


@dataclass(frozen=True)
class ReplicaSpec:
    """One replica of an ensemble: a world plus an allocation to execute.

    Parameters
    ----------
    topology:
        The replica's metacomputer (typically built from its own seed).
    assignments:
        One :class:`~repro.sim.execution.WorkAssignment` per host.
    t0:
        Simulated start time of this replica.
    iterations:
        Optional per-replica override of the batch iteration count; a
        replica whose override differs from the batch count surrenders to
        the per-replica executor (the tensor step advances all vectorised
        replicas in lock-step).
    label:
        Free-form tag carried through to reports.
    """

    topology: Topology
    assignments: list[WorkAssignment]
    t0: float = 0.0
    iterations: int | None = None
    label: str = ""


class _CommSlot:
    """The s-th communication entry of every host that has one."""

    __slots__ = ("idx", "nbytes", "latency", "pair", "same_dt")

    def __init__(self, idx, nbytes, latency, pair) -> None:
        self.idx = np.asarray(idx, dtype=np.intp)
        self.nbytes = np.asarray(nbytes, dtype=np.float64)
        self.latency = np.asarray(latency, dtype=np.float64)
        self.pair = np.asarray(pair, dtype=np.intp)
        # Set after the pair dt table exists: True when every pair epoch
        # length matches its entry's host epoch length, letting the
        # executor reuse the compute-side epoch indices directly.
        self.same_dt = False


class EnsembleExecution:
    """A one-time compilation of a *batch* of replicas.

    Construction validates every replica, partitions the batch into
    vectorisable and surrendered replicas, and builds the shared tensors;
    :meth:`run` steps all vectorised replicas at once and the surrendered
    ones through :class:`~repro.sim.execution_fast.CompiledExecution`,
    returning results in input order.
    """

    def __init__(
        self,
        replicas: Sequence[ReplicaSpec],
        iterations: int,
    ) -> None:
        if not replicas:
            raise ValueError("need at least one replica")
        check_positive("iterations", iterations)
        tracer = get_tracer()
        compile_t0 = time.perf_counter() if tracer.enabled else 0.0
        self.iterations = int(iterations)
        self.replicas = list(replicas)
        for spec in self.replicas:
            validate_assignments(spec.topology, spec.assignments)

        self._vec: list[int] = []          # replica indices, vectorised
        self._surrendered: list[int] = []  # replica indices, per-replica
        self.surrender_reasons: dict[int, str] = {}
        for r, spec in enumerate(self.replicas):
            reason = self._surrender_reason(spec)
            if reason is None:
                self._vec.append(r)
            else:
                self._surrendered.append(r)
                self.surrender_reasons[r] = reason

        self._compile_vectorised()
        self.compile_report = {
            "replicas": len(self.replicas),
            "vectorised": len(self._vec),
            "surrendered": len(self._surrendered),
            "entries": self._n_entries,
            "rate_rows": self._n_rows,
            "pairs": len(self._pair_links),
            "pair_refs": self._pair_refs,
            "comm_slots": len(self._slots),
        }
        if tracer.enabled:
            wall = time.perf_counter() - compile_t0
            tracer.event(
                "sim.ensemble.compile", layer="sim",
                wall_s=wall, **self.compile_report,
            )
            tracer.metrics.counter("sim.ensemble.compiles").inc()
            tracer.metrics.counter("sim.ensemble.replicas_vectorised").inc(
                len(self._vec)
            )
            tracer.metrics.counter("sim.ensemble.replicas_surrendered").inc(
                len(self._surrendered)
            )
            tracer.metrics.histogram("sim.ensemble.compile_wall_s").observe(wall)

    # -- compilation ---------------------------------------------------------
    def _surrender_reason(self, spec: ReplicaSpec) -> str | None:
        """Why ``spec`` cannot join the tensor pass (None = it can)."""
        if spec.iterations is not None and int(spec.iterations) != self.iterations:
            return "heterogeneous-iterations"
        topology = spec.topology
        for wa in spec.assignments:
            if not epoch_cached(topology.host(wa.host).load):
                return "mutable-host-load"
            for peer, nbytes in wa.comm_bytes.items():
                if nbytes <= 0 or peer == wa.host:
                    continue
                links = topology.route(wa.host, peer)
                if not links:
                    continue
                # The same conditions under which pair_bandwidth_table
                # returns None, checked without building any table.
                if any(not epoch_cached(link.load) for link in links):
                    return "non-tabular-route"
                if len({link.load.dt for link in links}) != 1:
                    return "non-tabular-route"
        return None

    def _compile_vectorised(self) -> None:
        """Flatten vectorised replicas into the shared entry-axis tensors."""
        entry_hosts: list[tuple] = []     # (host, footprint_mb) per entry
        entry_rows: list[int] = []        # entry -> shared rate-table row
        row_index: dict[tuple, int] = {}  # (id(host), footprint) -> row
        row_hosts: list[tuple] = []       # (host, footprint_mb) per row
        work: list[float] = []
        overhead: list[float] = []
        dts: list[float] = []
        seg_starts: list[int] = []
        rep_counts: list[int] = []
        t0s: list[float] = []
        # Pair-table bookkeeping: dedupe by resolved route content (the
        # (link, flow count) sequence), so the same pair of one shared
        # world compiles to one row however many replicas reference it.
        pair_index: dict[tuple, int] = {}
        pair_links: list[list[tuple[Link, int]]] = []
        pair_dts: list[float] = []
        pair_refs = 0  # references before dedupe (the delta's denominator)
        # comm[s] collects the s-th comm entry of every host that has one.
        comm_raw: list[list[tuple[int, float, float, int]]] = []

        for r in self._vec:
            spec = self.replicas[r]
            topology = spec.topology
            flows = count_flows(topology, spec.assignments)
            seg_starts.append(len(entry_hosts))
            rep_counts.append(len(spec.assignments))
            t0s.append(float(spec.t0))
            for wa in spec.assignments:
                host = topology.host(wa.host)
                entry = len(entry_hosts)
                entry_hosts.append((host, wa.footprint_mb))
                # Rate-table row: shared across every entry whose table
                # would be byte-identical — same host object (covers the
                # shared-topology case), same memory footprint.  Epoch
                # tables are absolute-time-indexed, so t0 never enters.
                row_key = (id(host), float(wa.footprint_mb))
                row = row_index.get(row_key)
                if row is None:
                    row = len(row_hosts)
                    row_index[row_key] = row
                    row_hosts.append((host, wa.footprint_mb))
                entry_rows.append(row)
                work.append(float(wa.work_mflop))
                overhead.append(float(wa.overhead_s))
                dts.append(float(host.load.dt))
                slot = 0
                for peer, nbytes in wa.comm_bytes.items():
                    if nbytes <= 0 or peer == wa.host:
                        continue
                    if not topology.route(wa.host, peer):
                        continue
                    # Resolve the route and per-link flow counts once;
                    # fills min-reduce the link tables directly instead
                    # of re-walking route/flow lookups per deepening.
                    links = topology.route(wa.host, peer)
                    resolved = [
                        (link, max(1, flows.get(link.name, 1)))
                        for link in links
                    ]
                    pair_refs += 1
                    key = tuple((id(link), fc) for link, fc in resolved)
                    pair = pair_index.get(key)
                    if pair is None:
                        pair = len(pair_links)
                        pair_index[key] = pair
                        pair_links.append(resolved)
                        # dt is uniform along the route (surrender-screened)
                        pair_dts.append(links[0].load.dt)
                    latency = topology.path_latency(wa.host, peer)
                    if slot >= len(comm_raw):
                        comm_raw.append([])
                    comm_raw[slot].append((entry, float(nbytes), latency, pair))
                    slot += 1

        self._entry_hosts = entry_hosts
        self._n_entries = len(entry_hosts)
        self._row_hosts = row_hosts
        self._n_rows = len(row_hosts)
        self._row = np.asarray(entry_rows, dtype=np.intp)
        self._pair_refs = pair_refs
        self._work = np.asarray(work, dtype=np.float64)
        self._overhead = np.asarray(overhead, dtype=np.float64)
        self._dt = np.asarray(dts, dtype=np.float64)
        self._seg_starts = np.asarray(seg_starts, dtype=np.intp)
        self._rep_counts = np.asarray(rep_counts, dtype=np.intp)
        self._t0 = np.asarray(t0s, dtype=np.float64)
        self._pair_links = pair_links
        self._slots = [_CommSlot(*zip(*entries)) for entries in comm_raw]
        # Entry index of each replica's time (t_ent = t[_rep_index]).
        self._rep_index = np.repeat(
            np.arange(len(self._vec), dtype=np.intp), self._rep_counts
        )

        # Shared tensors.  Width (the epoch axis) grows by reallocation
        # only; *generation* is per row: ``_fill[i]`` epochs of row
        # ``i``'s tables are materialised, everything beyond is garbage
        # that is never read.  Rows deepen on their own doubling schedule,
        # so a short-horizon replica never pays for the epochs a
        # long-horizon batch-mate walks — the same generation economics
        # as one table per replica, without giving up the shared axis.
        # Entries address rows through ``_row``; deduped entries share
        # one row's generation work and memory.
        self._epochs = 0
        self._rates = np.zeros((self._n_rows, 0))
        self._fill = np.zeros(self._n_rows, dtype=np.intp)
        self._pair_epochs = 0
        self._pair_bw = np.zeros((len(pair_links), 0))
        self._pair_dt = np.asarray(pair_dts, dtype=np.float64)
        self._pair_fill = np.zeros(len(pair_links), dtype=np.intp)
        for slot in self._slots:
            slot.same_dt = bool(
                np.all(self._pair_dt[slot.pair] == self._dt[slot.idx])
            )

    def _grow_rates(self, n_target: int) -> None:
        """Widen the rate tensor (reallocation only, no generation)."""
        n_new = max(_GROW_MIN, int(n_target), 2 * self._epochs)
        rates = np.empty((self._n_rows, n_new))
        if self._epochs:
            rates[:, : self._epochs] = self._rates
        self._rates = rates
        self._epochs = n_new

    def _fill_rows(self, rows: np.ndarray, needs: np.ndarray) -> None:
        """Deepen rate rows so row ``i`` is materialised past ``needs``.

        ``rows`` are *row* indices (map entries through ``_row`` first;
        duplicates are fine — later occurrences see the updated fill).
        Each row doubles independently (bounded below by the global
        minimum), exactly like a per-replica table would, and each is
        regenerated from the same ``capacity_prefix`` export a private
        table would copy — prefix-stable, so a row deepened for one
        sharer is byte-identical to what any other sharer would build.
        """
        depths = np.maximum(needs, np.maximum(2 * self._fill[rows], _GROW_MIN))
        if int(depths.max()) > self._epochs:
            self._grow_rates(int(depths.max()))
        for i, depth in zip(rows, depths):
            d = int(depth)
            if d <= int(self._fill[i]):
                continue
            host, footprint_mb = self._row_hosts[int(i)]
            self._rates[i, :d] = host.capacity_prefix(d, footprint_mb)[0]
            self._fill[i] = d

    def _fill_pair_rows(self, rows: np.ndarray, needs: np.ndarray) -> None:
        """Deepen pair rows so row ``p`` is materialised past ``needs``.

        Min-reduces the route's per-link bandwidth tables (resolved at
        compile time) — the same stacking
        :meth:`~repro.sim.topology.Topology.pair_bandwidth_table` performs,
        without re-walking routes and flow lookups per deepening.
        """
        depths = np.maximum(needs, np.maximum(2 * self._pair_fill[rows], _GROW_MIN))
        if int(depths.max()) > self._pair_epochs:
            n_new = max(_GROW_MIN, int(depths.max()), 2 * self._pair_epochs)
            bw = np.empty((len(self._pair_links), n_new))
            if self._pair_epochs:
                bw[:, : self._pair_epochs] = self._pair_bw
            self._pair_bw = bw
            self._pair_epochs = n_new
        for p, depth in zip(rows, depths):
            d = int(depth)
            if d <= int(self._pair_fill[p]):
                continue
            tables = [
                link.bandwidth_table(d, fc)
                for link, fc in self._pair_links[int(p)]
            ]
            self._pair_bw[p, :d] = (
                tables[0] if len(tables) == 1 else np.minimum.reduce(tables)
            )
            self._pair_fill[p] = d

    # -- the multi-epoch walk: vectorised reference replay -------------------
    def _multi_epoch_times(
        self,
        compute: np.ndarray,
        multi: np.ndarray,
        k: np.ndarray,
        t_ent: np.ndarray,
        upper: np.ndarray,
    ) -> None:
        """Fill ``compute[multi]`` by replaying the reference walk in bulk.

        Epoch-synchronous form of the reference subtraction sequence: every
        straddling entry advances one epoch per pass, the active set
        shrinking as entries complete.  Each entry sees the identical
        floats in the identical order as the scalar loop — the per-epoch
        capacity ``rate * window`` is an elementwise product either way,
        and a zero-rate epoch subtracts an exact ``0.0`` (a no-op on the
        remaining work, just as the scalar loop's skipped branch is).
        Rows deepen per pass under the doubling schedule of
        :meth:`_fill_rows`, so even a deep walk grows its tables only
        O(log) times.
        """
        km = k[multi]
        # First epoch, unrolled: membership in ``multi`` already proves no
        # entry completes here (the single-epoch exit screened them), so
        # the opening pass needs no completion test and no compression —
        # drain the first window (``upper`` is exactly its capacity) and
        # land every entry on its epoch boundary in straight elementwise
        # ops.
        idx = multi
        t0_m = t_ent[multi]
        dt_m = self._dt[multi]
        t_m = (km + 1) * dt_m
        rem = self._work[multi] - upper[multi]
        k_m = (t_m / dt_m).astype(np.int64)
        np.maximum(k_m, 0, out=k_m)
        for _ in range(_MAX_EPOCHS):
            rows = self._row[idx]
            wlag = np.nonzero(k_m + 2 > self._fill[rows])[0]
            if wlag.size:
                self._fill_rows(rows[wlag], k_m[wlag] + 2)
            rate = self._rates[rows, k_m]
            epoch_end = (k_m + 1) * dt_m
            cap = rate * (epoch_end - t_m)
            fits = (rate > 0.0) & (rem <= cap)
            if fits.any():
                f = np.nonzero(fits)[0]
                compute[idx[f]] = (t_m[f] + rem[f] / rate[f]) - t0_m[f]
                live = np.nonzero(~fits)[0]
                if live.size == 0:
                    return
                idx = idx[live]
                k_m = k_m[live]
                rem = rem[live] - cap[live]
                t_m = epoch_end[live]
                t0_m = t0_m[live]
                dt_m = dt_m[live]
            else:
                rem -= cap
                t_m = epoch_end
            k_m = (t_m / dt_m).astype(np.int64)
            np.maximum(k_m, 0, out=k_m)
        name = self._entry_hosts[int(idx[0])][0].name
        raise RuntimeError(
            f"host {name!r}: work integration exceeded {_MAX_EPOCHS} epochs "
            "(availability pinned near zero?)"
        )

    # -- execution -----------------------------------------------------------
    def run(self) -> list[IterationResult]:
        """Execute the whole batch; one result per replica, input order."""
        tracer = get_tracer()
        results: list[IterationResult | None] = [None] * len(self.replicas)
        if self._vec:
            for r, result in zip(self._vec, self._run_vectorised()):
                results[r] = result
        for r in self._surrendered:
            from repro.sim.execution_fast import CompiledExecution

            spec = self.replicas[r]
            its = self.iterations if spec.iterations is None else spec.iterations
            results[r] = CompiledExecution(
                spec.topology, spec.assignments
            ).run(its, spec.t0)
        if tracer.enabled:
            tracer.metrics.counter("sim.ensemble.runs").inc()
            tracer.metrics.counter("sim.ensemble.replica_iterations").inc(
                self.iterations * len(self.replicas)
            )
        return results  # type: ignore[return-value]

    def _run_vectorised(self) -> list[IterationResult]:
        n = self._n_entries
        work = self._work
        dt = self._dt
        t = self._t0.copy()
        busy = np.zeros(n)
        comm = np.empty(n)
        n_vec = len(self._vec)
        step_maxes = np.empty((self.iterations, n_vec))

        with np.errstate(divide="ignore", invalid="ignore"):
            for it in range(self.iterations):
                # Clocks only grow from finite starts, so the max is
                # non-finite exactly when some replica's clock is.
                check_clock(float(t.max()))
                t_ent = t[self._rep_index]
                # -- compute: single-epoch vector exit, bulk walk otherwise.
                # Truncation equals floor for non-negative quotients, and
                # both land on the same clamped 0 for negative ones.
                k = (t_ent / dt).astype(np.int64)
                np.maximum(k, 0, out=k)
                lag = np.nonzero(k + 2 > self._fill[self._row])[0]
                if lag.size:
                    self._fill_rows(self._row[lag], k[lag] + 2)
                rate = self._rates[self._row, k]
                upper = rate * ((k + 1) * dt - t_ent)
                single = (rate > 0.0) & (work <= upper)
                compute = np.where(single, (t_ent + work / rate) - t_ent, 0.0)
                multi = np.nonzero(~single & (work > 0.0))[0]
                if multi.size:
                    self._multi_epoch_times(compute, multi, k, t_ent, upper)
                # -- comm: slot-ordered accumulation over the pair tensors.
                comm.fill(0.0)
                for slot in self._slots:
                    if slot.same_dt:
                        e = k[slot.idx]
                    else:
                        te = t_ent[slot.idx]
                        pdt = self._pair_dt[slot.pair]
                        e = (te / pdt).astype(np.int64)
                        np.maximum(e, 0, out=e)
                    plag = np.nonzero(e + 2 > self._pair_fill[slot.pair])[0]
                    if plag.size:
                        self._fill_pair_rows(slot.pair[plag], e[plag] + 2)
                    bw = self._pair_bw[slot.pair, e]
                    contrib = slot.latency + slot.nbytes / bw
                    if bw.min() > 0.0:
                        # Slot indices are unique (one per host), so the
                        # fancy in-place add accumulates exactly once each.
                        comm[slot.idx] += contrib
                    else:
                        comm[slot.idx] = np.where(
                            bw > 0.0, comm[slot.idx] + contrib, np.inf
                        )
                step = (compute + comm) + self._overhead
                busy += step
                step_max = np.maximum.reduceat(step, self._seg_starts)
                step_maxes[it] = step_max
                t += step_max

        out = []
        for v, r in enumerate(self._vec):
            spec = self.replicas[r]
            lo = int(self._seg_starts[v])
            hi = lo + int(self._rep_counts[v])
            out.append(
                IterationResult(
                    total_time=float(t[v] - self._t0[v]),
                    iteration_times=step_maxes[:, v].tolist(),
                    host_busy_time={
                        wa.host: float(busy[i])
                        for wa, i in zip(spec.assignments, range(lo, hi))
                    },
                )
            )
        return out


def run_ensemble(
    replicas: Sequence[ReplicaSpec], iterations: int
) -> list[IterationResult]:
    """Execute a batch of replicas; one result per replica, input order.

    The batch is compiled into the struct-of-arrays tensors of
    :class:`EnsembleExecution` and stepped together, with per-replica
    surrender for shapes the tensors cannot hold.  Every replica's result
    is bit-identical to
    :func:`~repro.sim.execution.simulate_iterations_reference` run solo
    and independent of its batch-mates.
    """
    check_positive("iterations", iterations)
    tracer = get_tracer()
    with tracer.span(
        "sim.ensemble.execute", layer="sim",
        replicas=len(replicas), iterations=int(iterations),
    ):
        return EnsembleExecution(replicas, iterations).run()


def ring_assignments(
    testbed: Testbed,
    work_mflop: float = 8.0,
    comm_bytes: float = 100_000.0,
    footprint_mb: float = 8.0,
    overhead_s: float = 0.001,
) -> list[WorkAssignment]:
    """A border-exchange ring over every host — the Jacobi-strip shape."""
    names = testbed.host_names
    n = len(names)
    return [
        WorkAssignment(
            name, work_mflop,
            {
                names[(i + 1) % n]: comm_bytes,
                names[(i - 1) % n]: comm_bytes,
            } if n > 1 else {},
            footprint_mb=footprint_mb,
            overhead_s=overhead_s,
        )
        for i, name in enumerate(names)
    ]


def replicated(
    n_replicas: int,
    n_hosts: int = 8,
    seed: int = 1996,
    regimes: Sequence[float] = (1.0,),
    t0: float = 0.0,
    builder: Callable[..., Testbed] = synthetic_metacomputer,
    make_assignments: Callable[[Testbed], list[WorkAssignment]] | None = None,
    **assignment_kwargs,
) -> list[ReplicaSpec]:
    """Build ``n_replicas`` × ``len(regimes)`` replicas for one ensemble pass.

    Each replica gets its own testbed from ``builder(n_hosts, seed=...)``
    with a seed derived from ``(seed, regime index, replica index)`` —
    the same :func:`~repro.util.rng.derive_seed` spawn-key scheme the
    parallel runner uses, so a replica's world depends only on its own
    coordinates, never on batch composition.  ``regimes`` are load-regime
    work multipliers applied to the default ring allocation (a regime of
    2.0 doubles per-host work and border traffic); pass
    ``make_assignments`` to supply a custom allocation shape instead.
    """
    check_positive("n_replicas", n_replicas)
    if not regimes:
        raise ValueError("need at least one load regime")
    specs = []
    for ri, regime in enumerate(regimes):
        check_positive(f"regimes[{ri}]", regime)
        for i in range(int(n_replicas)):
            testbed = builder(
                n_hosts, seed=derive_seed(seed, "ensemble", ri, i)
            )
            if make_assignments is not None:
                assignments = make_assignments(testbed)
            else:
                kwargs = dict(assignment_kwargs)
                kwargs["work_mflop"] = kwargs.get("work_mflop", 8.0) * regime
                kwargs["comm_bytes"] = kwargs.get("comm_bytes", 100_000.0) * regime
                assignments = ring_assignments(testbed, **kwargs)
            specs.append(
                ReplicaSpec(
                    testbed.topology, assignments, t0=t0,
                    label=f"seed{i}-x{regime:g}",
                )
            )
    return specs


@dataclass(frozen=True)
class _Metric:
    name: str
    extract: Callable[[IterationResult], float] = field(repr=False)


_METRICS = (
    _Metric("total_time", lambda r: r.total_time),
    _Metric("mean_iteration_time", lambda r: r.mean_iteration_time),
    _Metric("efficiency", lambda r: r.efficiency()),
)


def ensemble_summary(
    results: Sequence[IterationResult],
    level: float = 0.95,
    method: str = "normal",
    seed: int = 0,
) -> dict[str, MeanCI]:
    """Mean/CI per metric over an ensemble's results.

    Returns ``{"total_time": MeanCI, "mean_iteration_time": MeanCI,
    "efficiency": MeanCI}`` — the summary rows the experiment tables
    consume.  ``method`` and ``seed`` pass through to
    :func:`repro.util.stats.mean_ci`.
    """
    if not results:
        raise ValueError("ensemble_summary needs at least one result")
    return {
        m.name: mean_ci(
            [m.extract(r) for r in results],
            level=level, method=method, seed=seed,
        )
        for m in _METRICS
    }
