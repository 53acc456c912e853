"""Design ablations: what each ingredient of AppLeS is worth.

Two ablations called out in DESIGN.md:

- **ABL-A2 (information)** — the same planner run with three information
  regimes: *nominal* (no NWS; the compile-time information a careful user
  has), *NWS* (forecasts; what AppLeS uses), and *oracle* (the simulator's
  exact availability at schedule time; an upper bound on what measurement
  could provide).  §3.2/§3.6 argue dynamic prediction is the heart of the
  approach — this quantifies it.
- **ABL-A3 (selection)** — the value of choosing a resource *subset*:
  AppLeS full selection vs being forced to use every feasible machine vs
  the best single machine.  §5 notes minimal execution time is *not*
  achieved through maximal resource utilisation; this measures that.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.infopool import InformationPool
from repro.core.resources import ResourcePool
from repro.core.selector import ResourceSelector
from repro.jacobi.apples import JacobiPlanner, make_jacobi_agent
from repro.jacobi.grid import JacobiProblem, jacobi_hat
from repro.jacobi.runtime import simulated_execution
from repro.runner import ParallelRunner, Task
from repro.sim.testbeds import sdsc_pcl_testbed
from repro.sim.warmcache import warmed_state
from repro.util.tables import Table

__all__ = [
    "OraclePool",
    "InformationAblationResult",
    "run_information_ablation",
    "SelectionAblationResult",
    "run_selection_ablation",
]


class OraclePool(ResourcePool):
    """A resource pool that predicts with the simulator's ground truth.

    Predictions use the exact availability at a fixed instant ``t_oracle``
    (the moment the schedule will start).  Still not clairvoyant — load
    changes *during* the run remain unseen — which is exactly the best any
    measurement system could do.
    """

    def __init__(self, topology, t_oracle: float) -> None:
        super().__init__(topology, nws=None)
        self.t_oracle = float(t_oracle)

    def predicted_availability(self, name: str) -> float:
        return self.topology.host(name).availability(self.t_oracle)

    def predicted_speed(self, name: str) -> float:
        host = self.topology.host(name)
        return host.speed_mflops * host.availability(self.t_oracle)

    def predicted_link_bandwidth(self, link) -> float:
        return link.deliverable_bandwidth(self.t_oracle)


@dataclass
class InformationAblationResult:
    """Execution times under the three information regimes."""

    n: int
    nominal_s: float
    nws_s: float
    oracle_s: float

    def table(self) -> Table:
        t = Table(
            ["information", "execution (s)", "vs oracle"],
            title=f"ABL-A2 — value of dynamic information (Jacobi2D n={self.n})",
        )
        for name, value in (
            ("nominal (static user)", self.nominal_s),
            ("NWS forecasts (AppLeS)", self.nws_s),
            ("oracle (truth at t0)", self.oracle_s),
        ):
            t.add(name, value, value / self.oracle_s)
        return t


def _information_trial(
    regime: str,
    n: int,
    iterations: int,
    seed: int,
    warmup_s: float,
) -> float:
    """One information regime ("nominal", "nws" or "oracle") → execution time."""
    testbed, nws = warmed_state(sdsc_pcl_testbed, seed=seed, warmup_s=warmup_s)
    problem = JacobiProblem(n=n, iterations=iterations)
    if regime == "nominal":
        pool: ResourcePool = ResourcePool(testbed.topology, nws=None)
    elif regime == "nws":
        pool = ResourcePool(testbed.topology, nws)
    elif regime == "oracle":
        pool = OraclePool(testbed.topology, warmup_s)
    else:  # pragma: no cover - driver bug
        raise ValueError(f"unknown information regime {regime!r}")

    info = InformationPool(pool=pool, hat=jacobi_hat(problem))
    from repro.core.coordinator import AppLeSAgent

    agent = AppLeSAgent(
        info, planner=JacobiPlanner(problem), selector=ResourceSelector()
    )
    sched = agent.schedule().best
    return simulated_execution(testbed.topology, sched, warmup_s).total_time


def run_information_ablation(
    n: int = 1600,
    iterations: int = 60,
    seed: int = 1996,
    warmup_s: float = 600.0,
    workers: int | None = 1,
) -> InformationAblationResult:
    """Run ABL-A2: same planner, three information sources, same window."""
    kwargs = dict(n=n, iterations=iterations, seed=seed, warmup_s=warmup_s)
    tasks = [
        Task(_information_trial, dict(regime=regime, **kwargs), key=(regime,))
        for regime in ("nominal", "nws", "oracle")
    ]
    prime = lambda: warmed_state(sdsc_pcl_testbed, seed=seed, warmup_s=warmup_s)  # noqa: E731
    nominal, with_nws, oracle = ParallelRunner(workers).run(tasks, prime=prime)
    return InformationAblationResult(
        n=n, nominal_s=nominal, nws_s=with_nws, oracle_s=oracle
    )


@dataclass
class SelectionAblationResult:
    """Execution times under the three selection regimes."""

    n: int
    apples_s: float
    apples_machines: int
    all_machines_s: float
    best_single_s: float

    def table(self) -> Table:
        t = Table(
            ["selection", "machines", "execution (s)"],
            title=f"ABL-A3 — value of resource selection (Jacobi2D n={self.n})",
        )
        t.add("AppLeS subset selection", self.apples_machines, self.apples_s)
        t.add("use every machine", 8, self.all_machines_s)
        t.add("best single machine", 1, self.best_single_s)
        return t


def _selection_trial(
    candidate: str,
    n: int,
    iterations: int,
    seed: int,
    warmup_s: float,
) -> tuple[float, int] | float | None:
    """One selection regime → execution time.

    ``candidate`` is ``"apples"`` (full subset selection; returns
    ``(time, machines_used)``), ``"everything"`` (all feasible machines),
    or a single host name (``None`` when no feasible plan exists).
    """
    testbed, nws = warmed_state(sdsc_pcl_testbed, seed=seed, warmup_s=warmup_s)
    problem = JacobiProblem(n=n, iterations=iterations)
    agent = make_jacobi_agent(testbed, problem, nws)

    if candidate == "apples":
        full = agent.schedule().best
        t = simulated_execution(testbed.topology, full, warmup_s).total_time
        return (t, len(full.resource_set))

    planner = JacobiPlanner(problem)
    hosts = testbed.host_names if candidate == "everything" else [candidate]
    sched = planner.plan(hosts, agent.info)
    if sched is None:
        return None
    return simulated_execution(testbed.topology, sched, warmup_s).total_time


def run_selection_ablation(
    n: int = 1600,
    iterations: int = 60,
    seed: int = 1996,
    warmup_s: float = 600.0,
    workers: int | None = 1,
) -> SelectionAblationResult:
    """Run ABL-A3 with NWS information throughout (isolating selection)."""
    host_names = list(sdsc_pcl_testbed(seed=seed).host_names)
    kwargs = dict(n=n, iterations=iterations, seed=seed, warmup_s=warmup_s)
    candidates = ["apples", "everything", *host_names]
    tasks = [
        Task(_selection_trial, dict(candidate=c, **kwargs), key=(c,))
        for c in candidates
    ]
    prime = lambda: warmed_state(sdsc_pcl_testbed, seed=seed, warmup_s=warmup_s)  # noqa: E731
    results = ParallelRunner(workers).run(tasks, prime=prime)

    apples_time, apples_machines = results[0]
    all_time = results[1]
    singles = [t for t in results[2:] if t is not None]
    best_single = min(singles) if singles else float("inf")

    return SelectionAblationResult(
        n=n,
        apples_s=apples_time,
        apples_machines=apples_machines,
        all_machines_s=all_time,
        best_single_s=best_single,
    )
