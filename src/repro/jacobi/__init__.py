"""Jacobi2D: the paper's preliminary-results application (§5).

Jacobi2D solves the finite-difference approximation to Poisson's equation
on an N×N grid by iterating a five-point-stencil average.  "All data are
updated simultaneously and all processors operate concurrently, hence the
partitioning problem and the scheduling problem for Jacobi2D are the same."

Modules:

- :mod:`repro.jacobi.grid` — problem definition and HAT factory,
- :mod:`repro.jacobi.solver` — vectorised reference solver,
- :mod:`repro.jacobi.partition` — strip/blocked partition geometry,
- :mod:`repro.jacobi.cost` — the paper's ``T_i = A_i * P_i + C_i`` model,
- :mod:`repro.jacobi.apples` — the Jacobi2D AppLeS agent and the
  compile-time baseline planners it is compared against,
- :mod:`repro.jacobi.runtime` — KeLP-like execution: numeric sweeps over
  the partition plus simulated timing.
"""

from repro.jacobi.adaptive import (
    AdaptiveJacobiRunner,
    AdaptiveResult,
    RescheduleEvent,
    migration_cost_s,
)
from repro.jacobi.apples import (
    ApplesBlockedPlanner,
    BlockedPlanner,
    PreferencePlanner,
    JacobiPlanner,
    StaticStripPlanner,
    UniformStripPlanner,
    make_jacobi_agent,
)
from repro.jacobi.cost import StripCostModel
from repro.jacobi.grid import JacobiProblem, jacobi_hat
from repro.jacobi.partition import (
    Block,
    generalized_block_partition,
    BlockPartition,
    Strip,
    StripPartition,
    apples_strip,
    blocked_partition,
    nonuniform_strip,
    uniform_strip,
)
from repro.jacobi.runtime import (
    assignments_from_schedule,
    execute_block_partition,
    execute_strip_partition,
    simulated_execution,
)
from repro.jacobi.solver import jacobi_reference, make_test_grid, residual_norm, solve_until

__all__ = [
    "AdaptiveJacobiRunner",
    "AdaptiveResult",
    "RescheduleEvent",
    "migration_cost_s",
    "JacobiProblem",
    "jacobi_hat",
    "jacobi_reference",
    "make_test_grid",
    "residual_norm",
    "solve_until",
    "Strip",
    "StripPartition",
    "Block",
    "BlockPartition",
    "uniform_strip",
    "nonuniform_strip",
    "apples_strip",
    "blocked_partition",
    "StripCostModel",
    "JacobiPlanner",
    "StaticStripPlanner",
    "UniformStripPlanner",
    "BlockedPlanner",
    "ApplesBlockedPlanner",
    "PreferencePlanner",
    "generalized_block_partition",
    "make_jacobi_agent",
    "execute_strip_partition",
    "execute_block_partition",
    "assignments_from_schedule",
    "simulated_execution",
]
