"""Standalone allocation verifier: score any schedule from the instance alone.

This module deliberately imports **no scheduler code** — no selector, no
planner, no cost model, no pool.  Everything it needs is frozen in the
:class:`~repro.arena.instances.ArenaInstance`: machine forecasts, the
latency/bandwidth matrices, the request, and the planning parameters.
That independence is the point: a verifier that shared code with the
policies could inherit their bugs; this one re-derives the reference
(seed) objective arithmetic from first principles, so any policy's
claim can be checked against an implementation it cannot influence.

Feasibility checks (each failure is a named reason):

- ``unknown-machine`` / ``duplicate-machine`` / ``shape-mismatch`` —
  structural.
- ``non-positive-points`` — every strip must hold work (the planners never
  emit zero-area strips).
- ``work-dropped`` — work conservation: the points must sum to exactly
  ``n²``.
- ``capacity-overflow`` — a strip must fit the machine's real memory
  (checked only when the instance's ``account_memory`` is set).
- ``zero-rate`` — a member whose conservative speed forecast is zero
  cannot finish any work before the barrier.
- ``unroutable`` — a border exchange over a dead link takes forever.

The objective replicates, term for term, the reference estimator path for
the ``execution_time`` metric::

    speed_i = speed_mflops * max(avail - sigmas*err, 0.05*avail)
    rate_i  = speed_i / flop_per_point
    T_i     = area_i * (1/rate_i) + transfer(prev) + transfer(next) + sync
    exec    = max_i T_i * iterations
    score   = exec * (1 + risk_aversion * max_i err_i / max(avail_i, 0.05))

with ``transfer(a, b) = latency[a][b] + exchange_bytes / bandwidth[a][b]``
and the predecessor transfer added before the successor, matching the
reference summation order bit-for-bit.  Memory paging multiplies in a
slowdown of exactly 1.0 whenever the strip fits in real memory, which the
capacity check guarantees — so the verifier can omit the paging model
entirely and still be bit-identical on every feasible allocation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arena.instances import ArenaAllocation, ArenaInstance
from repro.obs import get_tracer

__all__ = ["VerifierReport", "verify_allocation", "score_allocation"]


@dataclass(frozen=True)
class VerifierReport:
    """The verdict on one allocation."""

    feasible: bool
    reasons: tuple[str, ...] = ()
    objective: float = float("inf")
    step_time: float = float("inf")
    risk: float = 0.0
    machine_times: tuple[float, ...] = field(default_factory=tuple)

    @property
    def reason(self) -> str:
        return "; ".join(self.reasons) if self.reasons else "ok"


def _transfer_seconds(
    instance: ArenaInstance, idx: dict[str, int], a: str, b: str, nbytes: float
) -> float:
    """``predicted_transfer_time`` re-derived from the frozen matrices."""
    if a == b or nbytes <= 0:
        return 0.0
    bw = instance.bandwidth_bps[idx[a]][idx[b]]
    if bw <= 0.0:
        return float("inf")
    return instance.latency_s[idx[a]][idx[b]] + nbytes / bw


def verify_allocation(
    instance: ArenaInstance, allocation: ArenaAllocation
) -> VerifierReport:
    """Check feasibility and compute the exact reference objective.

    Pure function of the two frozen records; never consults the policy
    that produced the allocation (it cannot — the policy is just a string
    label here).
    """
    tracer = get_tracer()
    with tracer.span(
        "arena.verify",
        instance=instance.instance_id,
        policy=allocation.policy,
    ):
        report = _verify(instance, allocation)
        if tracer.enabled:
            tracer.metrics.counter("arena.verifier.checked").inc()
            if not report.feasible:
                tracer.metrics.counter("arena.verifier.rejected").inc()
                for reason in report.reasons:
                    tracer.metrics.counter(
                        "arena.verifier.rejected." + reason
                    ).inc()
        return report


def _verify(instance: ArenaInstance, allocation: ArenaAllocation) -> VerifierReport:
    reasons: list[str] = []
    machines = allocation.machines
    points = allocation.points
    known = set(instance.machine_names)

    if len(machines) != len(points) or not machines:
        return VerifierReport(False, ("shape-mismatch",))
    for m in machines:
        if m not in known:
            reasons.append(f"unknown-machine:{m}")
    if len(set(machines)) != len(machines):
        reasons.append("duplicate-machine")
    if reasons:
        return VerifierReport(False, tuple(reasons))

    for m, pts in zip(machines, points):
        if pts <= 0.0:
            reasons.append(f"non-positive-points:{m}")
    # Work conservation is exact: areas are integer row counts times n,
    # far below 2^53, so float equality is the right test.
    if sum(points) != instance.total_points:
        reasons.append("work-dropped")

    params = instance.params
    problem = instance.problem
    sigmas = float(params["conservatism_sigmas"])
    risk_aversion = float(params["risk_aversion"])
    account_memory = bool(params["account_memory"])
    flop_per_point = float(problem["flop_per_point"])
    bytes_per_point = float(problem["bytes_per_point"])
    sync = float(problem["sync_overhead_s"])
    exchange = 2.0 * float(problem["n"]) * float(problem["border_bytes_per_point"])
    idx = {m.name: j for j, m in enumerate(instance.machines)}

    states = [instance.machine(m) for m in machines]
    rates = []
    for state, pts in zip(states, points):
        # Conservative deliverable speed, exactly as the pool derives it.
        pessimistic = max(
            state.availability - sigmas * state.availability_error,
            0.05 * state.availability,
        )
        speed = state.speed_mflops * pessimistic
        rate = 0.0 if speed <= 0.0 else speed / flop_per_point
        rates.append(rate)
        if rate <= 0.0:
            reasons.append(f"zero-rate:{state.name}")
        if account_memory:
            capacity = state.memory_available_mb * 1e6 / bytes_per_point
            footprint_mb = pts * bytes_per_point / 1e6
            # Both faces of the memory constraint: the balancer's capacity
            # cap and the paging model's fits-in-real-memory check (the
            # latter is what makes the slowdown factor exactly 1.0).
            if pts > capacity or footprint_mb > state.memory_available_mb:
                reasons.append(f"capacity-overflow:{state.name}")

    comms = []
    for i, m in enumerate(machines):
        c = 0.0
        for nbr_idx in (i - 1, i + 1):
            if 0 <= nbr_idx < len(machines):
                c += _transfer_seconds(
                    instance, idx, m, machines[nbr_idx], exchange
                )
        if c == float("inf"):
            reasons.append(f"unroutable:{m}")
        comms.append(c)

    if reasons:
        return VerifierReport(False, tuple(reasons))

    # T_i = A_i * P_i + C_i + sync — the reference machine_time loop.
    times = tuple(
        pts * (1.0 / rate) + c + sync
        for pts, rate, c in zip(points, rates, comms)
    )
    step = max(times)
    execution = step * float(problem["iterations"])

    # Worst relative availability-forecast error across the members.
    risk = 0.0
    for state in states:
        if state.availability > 0:
            risk = max(
                risk,
                state.availability_error / max(state.availability, 0.05),
            )
    objective = execution * (1.0 + risk_aversion * risk)
    return VerifierReport(
        feasible=True,
        objective=objective,
        step_time=step,
        risk=risk,
        machine_times=times,
    )


def score_allocation(
    instance: ArenaInstance, allocation: ArenaAllocation
) -> float:
    """The verified objective, ``inf`` for infeasible allocations."""
    return verify_allocation(instance, allocation).objective
