"""Timed repetition of tested-program runs for performance checking.

The performance checker runs the tested program with low-thread and
high-thread arguments a default number of times (10 in the paper) and
compares the times.  This module owns that repetition: prints are
hidden automatically so tracing cannot perturb the measurement, and the
basic statistics needed for a defensible verdict (total, mean, min,
standard deviation) are collected.  Following the profiling guidance of
the HPC course notes — *no optimization (or grading!) without measuring*
— the raw per-run samples are kept so a skeptical instructor can inspect
variance rather than trust a single ratio.

Under a substitute clock (a virtual makespan) a run's duration is a
function of the program and its arguments alone, so repeating it
measures the same number again: the repetition count is then a cap, and
the loop ends as soon as a clean run reads what the clean run before it
read.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.execution.runner import ExecutionResult, ProgramRunner
from repro.obs import get_registry as _obs_registry

__all__ = ["TimingSample", "TimingResult", "time_program", "speedup"]

#: Paper default: each argument set is run 10 times.
DEFAULT_TIMED_RUNS = 10


@dataclass
class TimingSample:
    """One timed run of the program."""

    duration: float
    ok: bool
    reason: str = ""
    #: Failure-taxonomy kind of the run (``"ok"`` for clean runs).
    kind: str = "ok"


@dataclass
class TimingResult:
    """Aggregate of repeated timed runs with one argument set."""

    identifier: str
    args: List[str]
    samples: List[TimingSample] = field(default_factory=list)
    #: Timed runs allowed (``time_program``'s ``runs``); ``None`` when
    #: the result was not built by :func:`time_program`.
    cap: Optional[int] = None
    #: True when the loop ended because a clean run read the same
    #: duration as the clean run just before it.
    repeated: bool = False

    @property
    def runs(self) -> int:
        """Number of timed runs, clean or not."""
        return len(self.samples)

    @property
    def clean_samples(self) -> List[TimingSample]:
        """The samples that actually measure the program (``kind == "ok"``).

        A timed-out or crashed run's duration measures the harness's
        timeout or the crash path, not the program; including it in the
        totals inflated the low-thread side and handed out speedup credit
        for broken programs.
        """
        return [s for s in self.samples if s.kind == "ok"]

    @property
    def clean_runs(self) -> int:
        """Number of clean (``kind == "ok"``) runs."""
        return len(self.clean_samples)

    @property
    def all_ok(self) -> bool:
        """True when every timed run completed cleanly."""
        return all(s.ok for s in self.samples)

    def first_failure(self) -> str:
        """Reason of the first failed run (``""`` when all ok)."""
        for sample in self.samples:
            if not sample.ok:
                return sample.reason
        return ""

    def first_failure_kind(self) -> str:
        """Taxonomy kind of the first failed run (``""`` when all ok)."""
        for sample in self.samples:
            if not sample.ok:
                return sample.kind
        return ""

    @property
    def total(self) -> float:
        """Total duration of the *clean* runs only."""
        return sum(s.duration for s in self.clean_samples)

    @property
    def mean(self) -> float:
        """Mean duration of the clean runs (``nan`` when none)."""
        clean = self.clean_runs
        return self.total / clean if clean else math.nan

    @property
    def minimum(self) -> float:
        """Fastest clean run (``nan`` when none)."""
        return min((s.duration for s in self.clean_samples), default=math.nan)

    @property
    def stdev(self) -> float:
        """Sample standard deviation of the clean runs (0.0 below 2)."""
        if self.clean_runs < 2:
            return 0.0
        return statistics.stdev(s.duration for s in self.clean_samples)

    def describe(self) -> str:
        """One-line summary: totals, mean, min, stdev, excluded runs."""
        clean = self.clean_runs
        runs = (
            f"{self.runs} run{'' if self.runs == 1 else 's'}"
            if clean == self.runs
            else f"{clean} clean runs ({self.runs - clean} failed run(s) excluded)"
        )
        if self.repeated:
            runs += f", stopped on a repeat (cap {self.cap})"
        return (
            f"{self.identifier} {self.args}: total {self.total:.4f}s over "
            f"{runs} (mean {self.mean:.4f}s, min {self.minimum:.4f}s, "
            f"stdev {self.stdev:.4f}s)"
        )


def time_program(
    identifier: str,
    args: List[str],
    *,
    runs: int = DEFAULT_TIMED_RUNS,
    runner: Optional[ProgramRunner] = None,
    duration_of: Optional[Callable[[ExecutionResult], float]] = None,
    warmup_runs: int = 1,
) -> TimingResult:
    """Run *identifier* with *args* repeatedly, prints hidden, and time it.

    ``duration_of`` lets a caller substitute a different notion of elapsed
    time — the virtual-clock mode of :mod:`repro.simulation` reads the
    simulated makespan off the run instead of the wall clock, giving a
    deterministic, GIL-independent speedup measurement.  A repeated
    deterministic duration adds no information, so with ``duration_of``
    *runs* is a cap: the timed loop ends at the first clean run that
    reads the same duration as the clean run just before it, the last
    warm-up run included.  A failed run never agrees with anything.
    Without ``duration_of`` (the wall clock) every one of the *runs*
    timed runs is made.

    ``warmup_runs`` untimed runs absorb import and allocator warm-up so
    the first timed sample is not an outlier (standard measurement
    hygiene from the profiling guides).  They never enter the samples.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    runner = runner if runner is not None else ProgramRunner()
    result = TimingResult(identifier=identifier, args=list(args), cap=runs)
    obs = _obs_registry()
    per_run = obs.histogram("perf.run.seconds")
    with obs.span("perf.time_program", identifier=identifier, runs=runs) as span:
        # Under duration_of: the clean duration the next run would repeat.
        previous: Optional[float] = None
        for _ in range(max(0, warmup_runs)):
            execution = runner.run(identifier, args, hide_prints=True)
            clean = duration_of is not None and execution.failure_kind.value == "ok"
            previous = duration_of(execution) if clean else None
        for _ in range(runs):
            started = time.perf_counter()
            execution = runner.run(identifier, args, hide_prints=True)
            wall = time.perf_counter() - started
            duration = duration_of(execution) if duration_of is not None else wall
            per_run.observe(duration)
            kind = execution.failure_kind.value
            result.samples.append(
                TimingSample(
                    duration=duration,
                    ok=execution.ok,
                    reason=execution.failure_reason(),
                    kind=kind,
                )
            )
            if duration_of is None:
                continue
            if kind == "ok" and duration == previous:
                result.repeated = True
                break
            previous = duration if kind == "ok" else None
        span.set(
            clean=result.clean_runs,
            total=round(result.total, 6),
            made=result.runs,
        )
    return result


def speedup(low_threads: TimingResult, high_threads: TimingResult) -> float:
    """Speedup of the high-thread configuration over the low-thread one.

    The ratio of the per-run means of the *clean* runs of each side
    (failed runs measure the harness, not the program).  With the same
    number of clean runs on both sides that is the paper's ratio of
    total times; only the means stay right when the two sides stopped
    at different counts.  Returns ``math.nan`` when either side has no
    clean run at all — a distinct "nothing was measured" outcome the
    caller must report rather than grade — and 0.0 when the high-thread
    mean is non-positive (degenerate clock) so the caller deducts points
    rather than dividing by zero.
    """
    if not low_threads.clean_runs or not high_threads.clean_runs:
        return math.nan
    if high_threads.mean <= 0.0:
        return 0.0
    return low_threads.mean / high_threads.mean
