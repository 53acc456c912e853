"""A data-parallel AppLeS agent for NILE event analysis.

CLEO/NILE is the paper's data-parallel exemplar: independent events,
expensive data movement, heterogeneous non-dedicated workers.  The planner
places event shares on candidate hosts with each host's effective rate
discounted by the cost of streaming its share from the data host — so the
schedule naturally concentrates work near the data ("Movement of data is
expensive and often neither desirable nor feasible", §2.1), spilling to
remote sites only when their compute advantage beats the shipping cost.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.coordinator import AppLeSAgent
from repro.core.hat import (
    CommunicationCharacteristics,
    HeterogeneousApplicationTemplate,
    StructureInfo,
    TaskCharacteristics,
)
from repro.core.infopool import InformationPool
from repro.core.planner import balance_divisible_work
from repro.core.resources import ResourcePool
from repro.core.schedule import Allocation, Schedule
from repro.core.selector import ResourceSelector
from repro.core.userspec import UserSpecification
from repro.nile.analysis import AnalysisProgram
from repro.nile.storage import StoredDataset
from repro.nws.service import NetworkWeatherService
from repro.sim.testbeds import Testbed

__all__ = ["NileAnalysisPlanner", "nile_hat", "make_nile_agent"]


def nile_hat(dataset: StoredDataset, program: AnalysisProgram) -> HeterogeneousApplicationTemplate:
    """HAT for one event-analysis job over one dataset."""
    return HeterogeneousApplicationTemplate(
        name=f"nile:{program.name}:{dataset.name}",
        paradigm="data-parallel",
        tasks=(
            TaskCharacteristics(
                name="event-analysis",
                flop_per_unit=program.mflop_per_event,
                bytes_per_unit=float(dataset.events.fmt.bytes_per_event),
                divisible=True,
            ),
        ),
        communication=CommunicationCharacteristics(pattern="gather"),
        structure=StructureInfo(
            total_units=float(dataset.nevents),
            iterations=1,
            io_bytes=float(dataset.size_bytes),
            unifying_structure="event-stream",
        ),
    )


class NileAnalysisPlanner:
    """Place an analysis over a candidate host set, data-locality aware."""

    def __init__(self, dataset: StoredDataset, program: AnalysisProgram) -> None:
        self.dataset = dataset
        self.program = program

    def plan(self, resource_set: Sequence[str], info: InformationPool) -> Schedule | None:
        bytes_per_event = self.dataset.events.fmt.bytes_per_event
        forecasts = info.forecasts
        rates: list[float] = []
        usable: list[str] = []
        for h in resource_set:
            speed = forecasts.predicted_speed(h)
            if speed <= 0:
                continue
            per_event = self.program.mflop_per_event / speed
            if h != self.dataset.host:
                bw = forecasts.predicted_bandwidth(self.dataset.host, h)
                if bw <= 0:
                    continue
                per_event += bytes_per_event / bw
            rates.append(1.0 / per_event)
            usable.append(h)
        if not usable:
            return None
        result = balance_divisible_work(
            rates, [0.0] * len(usable), float(self.dataset.nevents)
        )
        if result is None:
            return None
        access = self.dataset.read_time()
        allocations = []
        for h, units in zip(usable, result.allocations):
            if units <= 0:
                continue
            comm = (
                {self.dataset.host: units * bytes_per_event}
                if h != self.dataset.host
                else {}
            )
            allocations.append(
                Allocation(
                    machine=h,
                    task="event-analysis",
                    work_units=units,
                    comm_bytes=comm,
                )
            )
        if not allocations:
            return None
        return Schedule(
            allocations=allocations,
            predicted_time=access + result.makespan,
            decomposition="event-parallel",
            metadata={
                "dataset": self.dataset.name,
                "program": self.program.name,
                "access_s": access,
                "compute_s": result.makespan,
            },
        )


def make_nile_agent(
    testbed: Testbed,
    dataset: StoredDataset,
    program: AnalysisProgram,
    nws: NetworkWeatherService | None = None,
    userspec: UserSpecification | None = None,
) -> AppLeSAgent:
    """Assemble an event-analysis AppLeS agent.

    The default User Specification applies the paper's NILE constraint:
    every processor must run a CORBA ORB (§3.5).
    """
    pool = ResourcePool(testbed.topology, nws)
    us = userspec if userspec is not None else UserSpecification(
        required_capabilities=frozenset({"corba-orb"})
    )
    info = InformationPool(pool=pool, hat=nile_hat(dataset, program), userspec=us)
    planner = NileAnalysisPlanner(dataset, program)
    return AppLeSAgent(info, planner=planner, selector=ResourceSelector())
