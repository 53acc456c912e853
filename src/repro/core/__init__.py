"""The AppLeS application-level scheduling framework (the paper's §4).

An AppLeS agent is organised as a single active **Coordinator** plus four
subsystems sharing an **Information Pool**:

- the **Resource Selector** chooses and filters resource combinations,
- the **Planner** turns a resource combination into a candidate schedule,
- the **Performance Estimator** scores candidate schedules in the *user's*
  performance metric,
- the **Actuator** implements the chosen schedule on the target resource
  management system (here: the simulator, or the in-process Jacobi runtime).

The Information Pool is fed by the Network Weather Service
(:mod:`repro.nws`), the Heterogeneous Application Template
(:mod:`repro.core.hat`), performance Models (supplied by each
application's planner), and User Specifications
(:mod:`repro.core.userspec`).
"""

from repro.core.actuator import Actuator, RecordingActuator
from repro.core.coordinator import (
    AppLeSAgent,
    CandidateEvaluation,
    NoFeasibleCandidate,
    PruningStats,
    ScheduleDecision,
)
from repro.core.distance import logical_distance, rank_by_distance
from repro.core.estimator import (
    CostEstimator,
    ExecutionTimeEstimator,
    PerformanceEstimator,
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
from repro.core.planner import (
    Planner,
    TimeBalancedPlanner,
    balance_divisible_work,
    balance_divisible_work_batched,
)
from repro.core.resources import MachineInfo, ResourcePool
from repro.core.schedule import Allocation, Schedule
from repro.core.selector import ResourceSelector
from repro.core.userspec import UserSpecification
from repro.core.wait_or_run import Reservation, WaitOrRunDecision, decide_wait_or_run

__all__ = [
    "AppLeSAgent",
    "ScheduleDecision",
    "CandidateEvaluation",
    "NoFeasibleCandidate",
    "PruningStats",
    "Actuator",
    "RecordingActuator",
    "logical_distance",
    "rank_by_distance",
    "PerformanceEstimator",
    "ExecutionTimeEstimator",
    "SpeedupEstimator",
    "CostEstimator",
    "make_estimator",
    "HeterogeneousApplicationTemplate",
    "TaskCharacteristics",
    "CommunicationCharacteristics",
    "StructureInfo",
    "InformationPool",
    "Planner",
    "TimeBalancedPlanner",
    "balance_divisible_work",
    "balance_divisible_work_batched",
    "MachineInfo",
    "ResourcePool",
    "Allocation",
    "Schedule",
    "ResourceSelector",
    "UserSpecification",
    "Reservation",
    "WaitOrRunDecision",
    "decide_wait_or_run",
]
