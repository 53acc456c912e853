"""Epoch-based execution of work allocations.

Iterative data-parallel codes (Jacobi2D is the paper's example) run as a
sequence of barrier-synchronised steps: every host computes its region, then
exchanges borders with its neighbours.  The executor charges each step at
the simulated time it actually happens, so availability changes *during*
the run are felt — this is what separates a schedule built from good
forecasts from one built from nominal speeds.

Model per iteration ``k`` beginning at time ``t_k``:

``step_i = compute_i(t_k) + comm_i(t_k)``  and  ``t_{k+1} = t_k + max_i step_i``

Compute time integrates work through the host's availability trace
(:meth:`repro.sim.host.Host.time_to_compute`); communication is charged at
the bottleneck deliverable bandwidth with flow counts derived from the
allocation (concurrent border exchanges share segments).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from repro.obs.trace import get_tracer
from repro.sim.topology import RouteError, Topology
from repro.util.validation import check_nonnegative, check_positive

__all__ = [
    "WorkAssignment",
    "IterationResult",
    "simulate_iterations",
    "simulate_iterations_reference",
    "validate_assignments",
    "count_flows",
    "check_clock",
]


@dataclass
class WorkAssignment:
    """Per-host work for one iteration of a data-parallel step.

    Parameters
    ----------
    host:
        Host name in the topology.
    work_mflop:
        Floating-point work per iteration.
    comm_bytes:
        Mapping peer-host-name → bytes exchanged with that peer per
        iteration (counted once; the exchange is symmetric).
    footprint_mb:
        Resident working set on this host (drives the paging model).
    overhead_s:
        Fixed per-iteration runtime overhead charged to this host
        (synchronisation, region setup).
    """

    host: str
    work_mflop: float
    comm_bytes: dict[str, float] = field(default_factory=dict)
    footprint_mb: float = 0.0
    overhead_s: float = 0.0

    def __post_init__(self) -> None:
        check_nonnegative("work_mflop", self.work_mflop)
        check_nonnegative("footprint_mb", self.footprint_mb)
        check_nonnegative("overhead_s", self.overhead_s)
        for peer, nbytes in self.comm_bytes.items():
            check_nonnegative(f"comm_bytes[{peer!r}]", nbytes)


@dataclass(frozen=True)
class IterationResult:
    """Outcome of a simulated run.

    Attributes
    ----------
    total_time:
        Wall-clock seconds for all iterations.
    iteration_times:
        Per-iteration durations.
    host_busy_time:
        Per-host total busy (compute+comm) seconds; the rest is barrier wait.
    """

    total_time: float
    iteration_times: list[float]
    host_busy_time: dict[str, float]

    @property
    def mean_iteration_time(self) -> float:
        """Average seconds per iteration."""
        if not self.iteration_times:
            return 0.0
        return self.total_time / len(self.iteration_times)

    def efficiency(self) -> float:
        """Mean fraction of the makespan each host spent busy (1.0 = perfectly balanced)."""
        if not self.host_busy_time or self.total_time <= 0.0:
            return 1.0
        fractions = [busy / self.total_time for busy in self.host_busy_time.values()]
        return sum(fractions) / len(fractions)


def check_clock(t: float) -> None:
    """Refuse to start an iteration from a non-finite simulated clock.

    A bottleneck that delivers zero bandwidth (or a host pinned at zero
    availability) makes one step take forever; the next step would then
    index load epochs at ``inf``.  Every executor calls this at the top of
    each iteration, so all of them fail the same way at the same step.
    """
    if not math.isfinite(t):
        raise RuntimeError(
            "simulated time became non-finite "
            "(a bottleneck delivered zero bandwidth?)"
        )


def count_flows(topology: Topology, assignments: list[WorkAssignment]) -> dict[str, int]:
    """Number of concurrent flows each link carries during an exchange phase.

    Each communicating (host, peer) pair contributes one flow to every link
    on its route.  Pairs are deduplicated (an exchange is one bidirectional
    flow for bandwidth-sharing purposes).
    """
    pairs: set[tuple[str, str]] = set()
    for wa in assignments:
        for peer, nbytes in wa.comm_bytes.items():
            if nbytes > 0 and peer != wa.host:
                pairs.add(tuple(sorted((wa.host, peer))))  # type: ignore[arg-type]
    flows: Counter[str] = Counter()
    for a, b in pairs:
        for link in topology.route(a, b):
            flows[link.name] += 1
    return dict(flows)


def validate_assignments(
    topology: Topology, assignments: list[WorkAssignment]
) -> None:
    """Check an allocation against the topology before simulating it.

    Raises ``ValueError`` naming the offending host when an assignment
    references a host missing from the topology, and naming the pair when
    a ``comm_bytes`` peer has no route — instead of the opaque ``KeyError``
    the execution loop would otherwise surface mid-run.
    """
    if not assignments:
        raise ValueError("need at least one work assignment")
    names = [wa.host for wa in assignments]
    if len(set(names)) != len(names):
        raise ValueError("duplicate host in assignments")
    for wa in assignments:
        if wa.host not in topology.hosts:
            raise ValueError(
                f"assignment names host {wa.host!r} which is not in the "
                f"topology (hosts: {sorted(topology.hosts)})"
            )
        for peer, nbytes in wa.comm_bytes.items():
            if nbytes <= 0 or peer == wa.host:
                continue
            try:
                topology.route(wa.host, peer)
            except RouteError:
                raise ValueError(
                    f"assignment for host {wa.host!r} names comm peer "
                    f"{peer!r} with no route in the topology"
                ) from None
            except KeyError:
                raise ValueError(
                    f"assignment for host {wa.host!r} names comm peer "
                    f"{peer!r} which is not a node in the topology"
                ) from None


def simulate_iterations(
    topology: Topology,
    assignments: list[WorkAssignment],
    iterations: int,
    t0: float = 0.0,
) -> IterationResult:
    """Simulate ``iterations`` barrier-synchronised steps of an allocation.

    The allocation is compiled once into struct-of-arrays form and stepped
    by the vectorised executor
    (:class:`repro.sim.execution_fast.CompiledExecution`), which is
    bit-identical to the reference loop
    (:func:`simulate_iterations_reference`, the differential oracle).

    Parameters
    ----------
    topology:
        The metacomputer.
    assignments:
        One :class:`WorkAssignment` per participating host.
    iterations:
        Number of steps.
    t0:
        Simulated start time (lets experiments start under different load
        conditions).
    """
    check_positive("iterations", iterations)
    validate_assignments(topology, assignments)
    # Deferred: the compiled executor builds on this module's types.
    from repro.sim.execution_fast import CompiledExecution

    tracer = get_tracer()
    with tracer.span(
        "sim.execute", layer="sim", t=t0,
        hosts=len(assignments), iterations=int(iterations),
    ) as span:
        result = CompiledExecution(topology, assignments).run(iterations, t0)
        if tracer.enabled:
            span.set_end(t0 + result.total_time)
            span.attrs["total_time"] = result.total_time
            tracer.metrics.counter("sim.iterations").inc(int(iterations))
    return result


def simulate_iterations_reference(
    topology: Topology,
    assignments: list[WorkAssignment],
    iterations: int,
    t0: float = 0.0,
) -> IterationResult:
    """The straightforward per-iteration × per-host × per-peer loop.

    This is the seed implementation, kept live as the differential oracle
    the vectorised executor is proven against float-for-float
    (``tests/test_execution_equivalence.py``).
    """
    check_positive("iterations", iterations)
    validate_assignments(topology, assignments)
    hosts = {wa.host: topology.host(wa.host) for wa in assignments}
    flows = count_flows(topology, assignments)

    t = float(t0)
    iteration_times: list[float] = []
    busy: dict[str, float] = {wa.host: 0.0 for wa in assignments}

    for _ in range(int(iterations)):
        check_clock(t)
        step_max = 0.0
        for wa in assignments:
            host = hosts[wa.host]
            compute = host.time_to_compute(wa.work_mflop, t, wa.footprint_mb)
            comm = 0.0
            for peer, nbytes in wa.comm_bytes.items():
                if nbytes <= 0 or peer == wa.host:
                    continue
                links = topology.route(wa.host, peer)
                if not links:
                    continue
                bw = min(
                    link.deliverable_bandwidth(t, max(1, flows.get(link.name, 1)))
                    for link in links
                )
                if bw <= 0.0:
                    comm = float("inf")
                    break
                comm += topology.path_latency(wa.host, peer) + nbytes / bw
            step = compute + comm + wa.overhead_s
            busy[wa.host] += step
            step_max = max(step_max, step)
        iteration_times.append(step_max)
        t += step_max

    return IterationResult(
        total_time=t - t0,
        iteration_times=iteration_times,
        host_busy_time=busy,
    )
