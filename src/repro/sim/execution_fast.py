"""Vectorised (compiled) execution of work allocations.

:func:`repro.sim.execution.simulate_iterations` is the funnel every
experiment drains through — fig5/fig6 execution curves, multi-application
contention, the adaptive rescheduling loop — and the reference
implementation re-resolves routes, re-queries epoch load traces and
re-derives bandwidth shares on every barrier step.  This module compiles
``(topology, assignments)`` **once** into struct-of-arrays form and then
steps all hosts per iteration against precomputed tables:

- **Per-host capacity tables** — each epoch-cached availability process is
  bulk-materialised (:meth:`repro.sim.load.LoadProcess.availability_array`)
  into a per-epoch deliverable-rate table
  (:meth:`repro.sim.host.Host.rate_table`) with a cumulative-capacity
  prefix sum alongside; a work integration brackets its completion epoch
  by a *searchsorted inversion* of that prefix (``bisect`` over cumulative
  capacity) instead of discovering it one epoch-cache query at a time.
- **Per-pair route tables** — routes, latencies and flow counts are
  resolved at compile time; each communicating pair's bottleneck
  bandwidth becomes a NumPy min-reduce over the stacked link-bandwidth
  tables (:meth:`repro.sim.topology.Topology.pair_bandwidth_table`), so
  the per-iteration comm charge is a single epoch-index lookup.
- **Batched stepping** — one tight loop advances every host per barrier
  step with no per-step route resolution, no per-step latency summation
  and no per-step epoch-cache bookkeeping.

Bit-identity contract
---------------------
The executor must reproduce the reference loop *float-for-float*
(``tests/test_execution_equivalence.py`` proves it on every canned
testbed).  Two consequences shape the implementation:

- The reference work integrator drains work by **sequential** floating
  subtraction (``remaining -= rate * window``), whose rounding history a
  naive prefix-sum inversion cannot reproduce (``a - b - c`` ≠
  ``a - (b + c)`` in floats).  The prefix sum is therefore used to
  *bracket and bulk-materialise* the epochs a computation will span; the
  final answer comes from replaying the reference's exact subtraction
  sequence over the precomputed rate table.  Min-reduction, by contrast,
  is exact (order-free, no rounding), so bandwidth bottlenecks are taken
  straight from the combined tables.
- Mutable availability processes (:class:`repro.sim.load.IntervalLoad`
  under a :class:`~repro.sim.load.DynamicCompositeLoad`, as the
  multi-application load injectors install) are not functions of the
  epoch index, so they cannot be tabled; hosts and routes carrying them
  fall back to live queries at exactly the instants the reference loop
  would issue them.

:func:`repro.sim.execution.simulate_iterations_reference` stays live as
the differential oracle.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left

from repro.obs.trace import get_tracer
from repro.sim.execution import (
    IterationResult,
    WorkAssignment,
    check_clock,
    count_flows,
    validate_assignments,
)
from repro.sim.host import _MAX_EPOCHS, Host
from repro.sim.link import Link
from repro.sim.load import epoch_cached
from repro.sim.topology import Topology
from repro.util.validation import check_positive

__all__ = ["CompiledExecution"]

#: Epochs materialised by the first growth of any table.
_GROW_MIN = 64


class _TableCompute:
    """Work integrator over a precomputed per-epoch rate table.

    Replays :meth:`repro.sim.host.Host.time_to_compute` float-for-float:
    same epoch indexing (clamped floor), same completion test, same
    sequential subtraction, same final division — but against a
    bulk-materialised rate table instead of per-epoch cache queries, with
    the cumulative-capacity prefix (searchsorted inversion) sizing the
    materialisation for multi-epoch integrations.
    """

    __slots__ = ("name", "load", "dt", "footprint_mb", "host", "rates", "prefix", "n")

    def __init__(self, host: Host, footprint_mb: float) -> None:
        self.name = host.name
        self.host = host
        self.load = host.load
        self.dt = host.load.dt
        self.footprint_mb = footprint_mb
        self.rates: list[float] = []
        self.prefix: list[float] = []
        self.n = 0

    def _materialise(self, n_target: int) -> None:
        """Grow the rate/prefix tables to at least ``n_target`` epochs."""
        n_new = max(_GROW_MIN, n_target, 2 * self.n)
        # The prefix holds approximate full-epoch capacities; it is used
        # only to bracket the completion epoch, never to produce a result
        # float.
        rates, prefix = self.host.capacity_prefix(n_new, self.footprint_mb)
        self.rates = rates.tolist()
        self.prefix = prefix.tolist()
        self.n = n_new

    def _presize(self, k0: int, work: float) -> None:
        """Materialise through the bracketed completion epoch of ``work``.

        Searchsorted inversion of the cumulative-capacity prefix: the
        first epoch whose cumulative capacity reaches the outstanding
        work bounds the integration span, so the table is extended in one
        bulk step instead of epoch by epoch.  A small margin covers the
        bracket being approximate (the walk guards the exact boundary).
        """
        prefix = self.prefix
        base = prefix[k0 - 1] if k0 > 0 else 0.0
        target = base + work
        j = bisect_left(prefix, target)
        while j >= self.n and self.n < k0 + _MAX_EPOCHS:
            self._materialise(2 * self.n)
            prefix = self.prefix
            j = bisect_left(prefix, target)
        if j + 3 > self.n:
            self._materialise(j + 3)

    def time(self, work, t0: float) -> float:
        if work == 0.0:
            return 0.0
        dt = self.dt
        t = float(t0)
        k = int(math.floor(t / dt))
        if k < 0:
            k = 0
        if k + 2 > self.n:
            self._materialise(k + 2)
        rate = self.rates[k]
        # Single-epoch exit: the common case once tables are warm.
        if rate > 0.0:
            if work <= rate * ((k + 1) * dt - t):
                return (t + work / rate) - t0
        # Multi-epoch: bracket via the prefix inversion, then replay the
        # reference's exact sequential subtraction over the table.
        self._presize(k, work)
        rates = self.rates
        n = self.n
        remaining = work
        for _ in range(_MAX_EPOCHS):
            if k >= n:
                self._materialise(k + 2)
                rates = self.rates
                n = self.n
            rate = rates[k]
            epoch_end = (k + 1) * dt
            if rate > 0.0:
                cap = rate * (epoch_end - t)
                if remaining <= cap:
                    return (t + remaining / rate) - t0
                remaining -= cap
            t = epoch_end
            k = int(math.floor(t / dt))
            if k < 0:
                k = 0
        raise RuntimeError(
            f"host {self.name!r}: work integration exceeded {_MAX_EPOCHS} epochs "
            "(availability pinned near zero?)"
        )


class _LiveCompute:
    """Work integrator for mutable loads: defer to the reference method."""

    __slots__ = ("host", "footprint_mb")

    def __init__(self, host: Host, footprint_mb: float) -> None:
        self.host = host
        self.footprint_mb = footprint_mb

    def time(self, work, t0: float) -> float:
        return self.host.time_to_compute(work, t0, self.footprint_mb)


class _PairTable:
    """Epoch-indexed bottleneck bandwidth for one communicating pair."""

    __slots__ = ("topology", "a", "b", "flows", "dt", "values", "n")

    def __init__(
        self, topology: Topology, a: str, b: str, flows: dict[str, int]
    ) -> None:
        self.topology = topology
        self.a = a
        self.b = b
        self.flows = flows
        self.dt = 0.0
        self.values: list[float] = []
        self.n = 0

    def try_compile(self) -> bool:
        """Build the min-reduced table; False if the route is not tabular."""
        out = self.topology.pair_bandwidth_table(
            self.a, self.b, _GROW_MIN, self.flows
        )
        if out is None:
            return False
        table, dt = out
        self.values = table.tolist()
        self.dt = dt
        self.n = len(self.values)
        return True

    def _materialise(self, n_target: int) -> None:
        n_new = max(_GROW_MIN, n_target, 2 * self.n)
        table, _ = self.topology.pair_bandwidth_table(
            self.a, self.b, n_new, self.flows
        )
        self.values = table.tolist()
        self.n = n_new

    def bandwidth(self, t: float) -> float:
        e = int(math.floor(t / self.dt))
        if e < 0:
            e = 0
        if e >= self.n:
            self._materialise(e + 2)
        return self.values[e]


class _LiveRoute:
    """Bottleneck bandwidth by live link queries (mutable link loads)."""

    __slots__ = ("links",)

    def __init__(self, links: list[tuple[Link, int]]) -> None:
        self.links = links

    def bandwidth(self, t: float) -> float:
        return min(link.deliverable_bandwidth(t, f) for link, f in self.links)


class _HostPlan:
    """One assignment compiled: work, overhead, integrator, comm entries."""

    __slots__ = ("name", "work", "overhead", "compute", "comm")

    def __init__(self, name, work, overhead, compute, comm) -> None:
        self.name = name
        self.work = work
        self.overhead = overhead
        self.compute = compute
        self.comm = comm

    def step(self, t: float) -> float:
        """Compute + comm + overhead for one barrier step starting at ``t``.

        Mirrors the reference loop body exactly, including the
        short-circuit to ``inf`` when a bottleneck delivers nothing.
        """
        compute = self.compute.time(self.work, t)
        comm = 0.0
        for nbytes, latency, route in self.comm:
            bw = route.bandwidth(t)
            if bw <= 0.0:
                comm = float("inf")
                break
            comm += latency + nbytes / bw
        return compute + comm + self.overhead


class CompiledExecution:
    """A one-time compilation of ``(topology, assignments)``.

    Construction resolves routes, latencies and flow counts and builds
    the per-host capacity and per-pair bandwidth tables; :meth:`run`
    steps the whole ensemble.  The object may be reused across multiple
    :meth:`run` calls (the adaptive runner executes the same schedule in
    chunks at successive start times) — the tables are deterministic
    functions of the frozen load processes, and mutable loads are queried
    live, so reuse never stales.
    """

    def __init__(
        self, topology: Topology, assignments: list[WorkAssignment]
    ) -> None:
        tracer = get_tracer()
        compile_t0 = time.perf_counter() if tracer.enabled else 0.0
        validate_assignments(topology, assignments)
        flows = count_flows(topology, assignments)
        live_hosts = 0
        live_routes = 0
        tabled_routes = 0
        plans: list[_HostPlan] = []
        for wa in assignments:
            host = topology.host(wa.host)
            if epoch_cached(host.load):
                compute: _TableCompute | _LiveCompute = _TableCompute(
                    host, wa.footprint_mb
                )
            else:
                compute = _LiveCompute(host, wa.footprint_mb)
                live_hosts += 1
            comm = []
            for peer, nbytes in wa.comm_bytes.items():
                if nbytes <= 0 or peer == wa.host:
                    continue
                links = topology.route(wa.host, peer)
                if not links:
                    continue
                latency = topology.path_latency(wa.host, peer)
                pair = _PairTable(topology, wa.host, peer, flows)
                route: _PairTable | _LiveRoute = pair
                if pair.try_compile():
                    tabled_routes += 1
                else:
                    route = _LiveRoute(
                        [
                            (link, max(1, flows.get(link.name, 1)))
                            for link in links
                        ]
                    )
                    live_routes += 1
                comm.append((nbytes, latency, route))
            plans.append(
                _HostPlan(wa.host, wa.work_mflop, wa.overhead_s, compute, comm)
            )
        self._plans = plans
        if tracer.enabled:
            tracer.event(
                "sim.compile", layer="sim",
                hosts=len(plans), live_hosts=live_hosts,
                tabled_routes=tabled_routes, live_routes=live_routes,
                wall_s=time.perf_counter() - compile_t0,
            )
            tracer.metrics.counter("sim.compiles").inc()
            tracer.metrics.counter("sim.live_fallback_hosts").inc(live_hosts)
            tracer.metrics.counter("sim.live_fallback_routes").inc(live_routes)
            tracer.metrics.histogram("sim.compile_wall_s").observe(
                time.perf_counter() - compile_t0
            )

    def run(self, iterations: int, t0: float = 0.0) -> IterationResult:
        """Simulate ``iterations`` barrier steps; see ``simulate_iterations``."""
        check_positive("iterations", iterations)
        plans = self._plans
        t = float(t0)
        iteration_times: list[float] = []
        busy = [0.0] * len(plans)
        append = iteration_times.append
        for _ in range(int(iterations)):
            check_clock(t)
            step_max = 0.0
            for i, plan in enumerate(plans):
                step = plan.step(t)
                busy[i] += step
                if step > step_max:
                    step_max = step
            append(step_max)
            t += step_max
        return IterationResult(
            total_time=t - t0,
            iteration_times=iteration_times,
            host_busy_time={
                plan.name: b for plan, b in zip(plans, busy)
            },
        )
