"""The 3D-REACT AppLeS agent.

"An AppLeS agent for 3D-REACT would behave as follows: ... the Resource
Selector would determine viable pairs of resources for the application ...
For each viable resource pair, the Planner would identify a candidate
schedule using the selected model, parameterized by forecasts of network
and machine load from the Network Weather Service. ... the performance
model calculates the transfer unit size between LHSF and Log-D which
yields the necessary overlap" (§4.2).

:class:`ReactPlanner` implements exactly that: for a candidate resource
set it considers every placement of (LHSF, LogD) on an ordered pair of
members (including both on one machine — the single-site schedule),
parameterises the analytic model with forecast rates and link bandwidth,
optimises the pipeline size, and returns the best placement as a Schedule.
"""

from __future__ import annotations

from itertools import product
from typing import Sequence

from repro.core.coordinator import AppLeSAgent
from repro.core.infopool import InformationPool
from repro.core.resources import ResourcePool
from repro.core.schedule import Allocation, Schedule
from repro.core.selector import ResourceSelector
from repro.core.userspec import UserSpecification
from repro.nws.service import NetworkWeatherService
from repro.react.model import ReactPerformanceModel
from repro.react.tasks import ReactProblem, react_hat
from repro.sim.testbeds import Testbed

__all__ = ["ReactPlanner", "make_react_agent"]


class ReactPlanner:
    """Plan 3D-REACT on a candidate resource set.

    Placements considered: every ordered pair (LHSF machine, LogD machine)
    of set members whose architectures have implementations of the
    respective tasks, plus every single machine running both phases
    serially.
    """

    def __init__(self, problem: ReactProblem) -> None:
        self.problem = problem

    def plan(self, resource_set: Sequence[str], info: InformationPool) -> Schedule | None:
        machines = list(resource_set)
        hat = info.hat
        lhsf_task = hat.task("LHSF")
        logd_task = hat.task("LogD-ASY")
        forecasts = info.forecasts
        best: Schedule | None = None

        for lhsf_m, logd_m in product(machines, machines):
            lhsf_info = info.machine_info(lhsf_m)
            logd_info = info.machine_info(logd_m)
            lhsf_eff = lhsf_task.efficiency_on(lhsf_info.arch)
            logd_eff = logd_task.efficiency_on(logd_info.arch)
            if lhsf_eff <= 0.0 or logd_eff <= 0.0:
                continue
            lhsf_rate = forecasts.predicted_speed(lhsf_m) * lhsf_eff
            logd_rate = forecasts.predicted_speed(logd_m) * logd_eff
            if lhsf_rate <= 0.0 or logd_rate <= 0.0:
                continue
            candidate = (
                self._single_site(lhsf_m, lhsf_rate, logd_rate)
                if lhsf_m == logd_m
                else self._pipelined(info, lhsf_m, logd_m, lhsf_rate, logd_rate,
                                     lhsf_info.arch != logd_info.arch)
            )
            if candidate is None:
                continue
            if best is None or candidate.predicted_time < best.predicted_time:
                best = candidate
        return best

    def _single_site(self, machine: str, lhsf_rate: float, logd_rate: float) -> Schedule:
        predicted = ReactPerformanceModel.single_site_time(
            self.problem, lhsf_rate, logd_rate
        )
        n = float(self.problem.surface_functions)
        return Schedule(
            allocations=[
                Allocation(machine=machine, task="LHSF", work_units=n),
                Allocation(machine=machine, task="LogD-ASY", work_units=n),
            ],
            predicted_time=predicted,
            decomposition="single-site",
            metadata={"problem": self.problem, "lhsf_host": machine,
                      "logd_host": machine, "pipeline_size": None},
        )

    def _pipelined(
        self,
        info: InformationPool,
        lhsf_m: str,
        logd_m: str,
        lhsf_rate: float,
        logd_rate: float,
        convert: bool,
    ) -> Schedule | None:
        bandwidth = info.forecasts.predicted_bandwidth(lhsf_m, logd_m)
        if bandwidth <= 0.0 or bandwidth == float("inf"):
            return None
        latency = info.forecasts.topology.path_latency(lhsf_m, logd_m)
        model = ReactPerformanceModel(
            self.problem,
            lhsf_rate_mflops=lhsf_rate,
            logd_rate_mflops=logd_rate,
            link_bandwidth_Bps=bandwidth,
            link_latency_s=latency,
            convert=convert,
        )
        estimate = model.optimal()
        n = float(self.problem.surface_functions)
        per_step_bytes = estimate.pipeline_size * self.problem.bytes_per_sf
        return Schedule(
            allocations=[
                Allocation(machine=lhsf_m, task="LHSF", work_units=n,
                           comm_bytes={logd_m: per_step_bytes}),
                Allocation(machine=logd_m, task="LogD-ASY", work_units=n),
            ],
            predicted_time=estimate.makespan_s,
            decomposition="pipeline",
            metadata={
                "problem": self.problem,
                "lhsf_host": lhsf_m,
                "logd_host": logd_m,
                "pipeline_size": estimate.pipeline_size,
                "estimate": estimate,
            },
        )


def make_react_agent(
    testbed: Testbed,
    problem: ReactProblem,
    nws: NetworkWeatherService | None = None,
    userspec: UserSpecification | None = None,
) -> AppLeSAgent:
    """Assemble the 3D-REACT AppLeS agent for a testbed (CASA by default).

    The selector limit is small — viable resource sets for a two-task
    pipeline are pairs — so exhaustive enumeration is always used.
    """
    pool = ResourcePool(testbed.topology, nws)
    us = userspec if userspec is not None else UserSpecification(max_machines=2)
    info = InformationPool(pool=pool, hat=react_hat(problem), userspec=us)
    planner = ReactPlanner(problem)
    info.register_model("react-pipeline", ReactPerformanceModel)
    return AppLeSAgent(info, planner=planner, selector=ResourceSelector())
