"""Simulated metacomputer substrate.

The paper's experiments ran on the 1996 SDSC/PCL testbed (Figure 2): a
heterogeneous collection of non-dedicated workstations on shared Ethernet
segments and an FDDI ring, joined by a gateway.  This subpackage replaces
that hardware with an explicit simulation:

- :mod:`repro.sim.engine` — a deterministic discrete-event engine,
- :mod:`repro.sim.load` — stochastic background-load (availability) processes,
- :mod:`repro.sim.host` — hosts with nominal speed, memory and load,
- :mod:`repro.sim.memory` — real-memory/paging model,
- :mod:`repro.sim.link` / :mod:`repro.sim.topology` — links, shared segments
  and routed paths,
- :mod:`repro.sim.contention` — time-sharing slowdown model,
- :mod:`repro.sim.execution` — epoch-based execution of work allocations,
- :mod:`repro.sim.execution_fast` — the vectorised (compiled) executor
  :func:`~repro.sim.execution.simulate_iterations` runs on,
- :mod:`repro.sim.execution_ensemble` — the ensemble tensor backend that
  batches many replicas into one struct-of-arrays pass,
- :mod:`repro.sim.testbeds` — canned topologies (Figure 2 and variants,
  plus the parameterised :func:`~repro.sim.testbeds.synthetic_metacomputer`
  for scaling studies).
"""

from repro.sim.contention import availability_from_load, timeshared_slowdown
from repro.sim.engine import Process, Signal, Simulator
from repro.sim.execution import (
    IterationResult,
    WorkAssignment,
    simulate_iterations,
    simulate_iterations_reference,
    validate_assignments,
)
from repro.sim.execution_ensemble import (
    EnsembleExecution,
    ReplicaSpec,
    ensemble_summary,
    replicated,
    ring_assignments,
    run_ensemble,
)
from repro.sim.execution_fast import CompiledExecution
from repro.sim.host import Host
from repro.sim.jobs import BackgroundJob, JobWorkload, generate_jobs, make_injectable
from repro.sim.link import Link, SharedSegment
from repro.sim.load import (
    AR1Load,
    CompositeLoad,
    ConstantLoad,
    DynamicCompositeLoad,
    IntervalLoad,
    LoadProcess,
    MarkovLoad,
    SpikeLoad,
    TraceLoad,
    epoch_cached,
)
from repro.sim.memory import MemoryModel
from repro.sim.testbeds import (
    Testbed,
    casa_testbed,
    nile_testbed,
    sdsc_pcl_testbed,
    sdsc_pcl_with_sp2,
    synthetic_metacomputer,
)
from repro.sim.topology import Topology
from repro.sim.trace_io import load_trace, record_trace, save_trace

__all__ = [
    "Simulator",
    "Process",
    "Signal",
    "LoadProcess",
    "ConstantLoad",
    "AR1Load",
    "MarkovLoad",
    "SpikeLoad",
    "CompositeLoad",
    "DynamicCompositeLoad",
    "IntervalLoad",
    "TraceLoad",
    "Host",
    "BackgroundJob",
    "JobWorkload",
    "generate_jobs",
    "make_injectable",
    "MemoryModel",
    "Link",
    "SharedSegment",
    "Topology",
    "save_trace",
    "load_trace",
    "record_trace",
    "timeshared_slowdown",
    "availability_from_load",
    "WorkAssignment",
    "IterationResult",
    "simulate_iterations",
    "simulate_iterations_reference",
    "validate_assignments",
    "CompiledExecution",
    "EnsembleExecution",
    "ReplicaSpec",
    "run_ensemble",
    "replicated",
    "ring_assignments",
    "ensemble_summary",
    "epoch_cached",
    "Testbed",
    "sdsc_pcl_testbed",
    "sdsc_pcl_with_sp2",
    "casa_testbed",
    "nile_testbed",
    "synthetic_metacomputer",
]
