"""Program-execution layer: invoke tested programs, collect output/trace."""

from repro.execution.registry import (
    MainFunction,
    UnknownMainError,
    register_main,
    registered_mains,
    resolve_main,
    unregister_main,
)
from repro.execution.runner import (
    DEFAULT_TIMEOUT,
    ExecutionResult,
    ProgramRunner,
    in_process_session_lock,
)
from repro.execution.equivalence import (
    ScheduleOracle,
    SimulatedRun,
    canonical_form,
    happens_before_key,
)
from repro.execution.scheduling import (
    BoundedPreemptionStrategy,
    ControlledScheduler,
    ExhaustiveStrategy,
    PCTStrategy,
    RandomWalkStrategy,
    ReplayStrategy,
    ScheduleAbort,
    ScheduleDivergenceError,
    ScheduleTrace,
    ScheduledBackend,
    bounded_preemption_sweep,
    resolve_schedule_strategy,
)
from repro.execution.taxonomy import (
    RETRYABLE_KINDS,
    FailureKind,
    classify_execution,
    classify_returncode,
    detect_garbled_lines,
)
from repro.execution.timing import (
    DEFAULT_TIMED_RUNS,
    TimingResult,
    TimingSample,
    speedup,
    time_program,
)

#: Supervisor names resolved lazily (PEP 562): the supervisor imports
#: the grading layer, which imports back into execution — eager import
#: here would make that a cycle.
_LAZY_SUPERVISOR = {
    "GradingSupervisor",
    "SubmissionOutcome",
    "BatchReport",
    "suite_failure_kind",
}

#: Explorer names resolved lazily (PEP 562): the explorer imports the
#: core checker, which imports back into execution.
_LAZY_EXPLORATION = {
    "ScheduleExplorer",
    "ExplorationReport",
    "ExplorationFinding",
    "ExhaustiveSearch",
    "ExhaustiveResult",
    "STRATEGY_CHOICES",
    "checker_runs",
    "failure_reasons",
}


def __getattr__(name: str):
    if name in _LAZY_SUPERVISOR:
        from repro.execution import supervisor

        return getattr(supervisor, name)
    if name in _LAZY_EXPLORATION:
        from repro.execution import exploration

        return getattr(exploration, name)
    if name in ("SubprocessRunner", "kill_active_child", "active_child_count"):
        from repro.execution import subprocess_runner

        return getattr(subprocess_runner, name)
    if name in ("WorkerPool", "PoolResult", "PoolError", "pooled_child_env"):
        from repro.execution import worker_pool

        return getattr(worker_pool, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "FailureKind",
    "RETRYABLE_KINDS",
    "classify_execution",
    "classify_returncode",
    "detect_garbled_lines",
    "GradingSupervisor",
    "SubmissionOutcome",
    "BatchReport",
    "suite_failure_kind",
    "SubprocessRunner",
    "kill_active_child",
    "active_child_count",
    "WorkerPool",
    "PoolResult",
    "PoolError",
    "pooled_child_env",
    "MainFunction",
    "UnknownMainError",
    "register_main",
    "registered_mains",
    "resolve_main",
    "unregister_main",
    "ProgramRunner",
    "ExecutionResult",
    "in_process_session_lock",
    "ScheduledBackend",
    "ControlledScheduler",
    "ScheduleTrace",
    "ScheduleAbort",
    "ScheduleDivergenceError",
    "RandomWalkStrategy",
    "BoundedPreemptionStrategy",
    "PCTStrategy",
    "ExhaustiveStrategy",
    "ReplayStrategy",
    "bounded_preemption_sweep",
    "resolve_schedule_strategy",
    "ScheduleExplorer",
    "ExplorationReport",
    "ExplorationFinding",
    "ExhaustiveSearch",
    "ExhaustiveResult",
    "STRATEGY_CHOICES",
    "checker_runs",
    "failure_reasons",
    "ScheduleOracle",
    "SimulatedRun",
    "canonical_form",
    "happens_before_key",
    "DEFAULT_TIMEOUT",
    "DEFAULT_TIMED_RUNS",
    "TimingResult",
    "TimingSample",
    "speedup",
    "time_program",
]
