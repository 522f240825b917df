"""Deterministic concurrency substrate: scheduling control + virtual time.

Extends the paper's infrastructure with a cooperative scheduler and a
virtual clock so performance testing of CPU-bound fork-join code works
under CPython's GIL (DESIGN.md §3).  The paper's future-work item of
influencing thread scheduling to catch synchronization bugs is
:mod:`repro.execution.exploration`.
"""

from repro.simulation.backend import (
    ConcurrencyBackend,
    SimulationBackend,
    ThreadingBackend,
    current_backend,
    last_makespan,
    record_makespan,
    use_backend,
)
from repro.simulation.clock import VirtualClock
from repro.simulation.scheduler import (
    CooperativeScheduler,
    RoundRobinPolicy,
    SchedulePolicy,
    SerializedPolicy,
)
from repro.simulation.workload_model import (
    UNIT_COST_MODEL,
    CostModel,
    trial_division_cost,
)

__all__ = [
    "ConcurrencyBackend",
    "ThreadingBackend",
    "SimulationBackend",
    "current_backend",
    "use_backend",
    "last_makespan",
    "record_makespan",
    "VirtualClock",
    "CooperativeScheduler",
    "SchedulePolicy",
    "RoundRobinPolicy",
    "SerializedPolicy",
    "CostModel",
    "UNIT_COST_MODEL",
    "trial_division_cost",
]
