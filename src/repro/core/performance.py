"""``AbstractConcurrencyPerformanceChecker``: performance-based testing.

The performance tester (Fig. 7 of the paper) is the simplest checker: the
test program supplies the tested program's name and two argument vectors
— one forcing a low thread count, one a high thread count — plus a
minimum required speedup.  The infrastructure runs each configuration a
default 10 times *with all intercepted prints disabled* (so tracing does
not perturb the timing), computes the speedup from the per-run mean
times, and awards full points when it meets the minimum, zero otherwise
— always reporting the difference between expected and actual.

``duration_source`` lets deployments that cannot rely on wall-clock
parallelism (pure-Python CPU-bound code under the GIL) substitute the
virtual-time makespan measured by :mod:`repro.simulation`.  Such a
duration is deterministic, so ``num_timed_runs()`` is then a cap: each
configuration stops once a clean run repeats the clean run before it
(:func:`~repro.execution.timing.time_program`).
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional

from repro.core.messages import Messages
from repro.core.outcome import Aspect
from repro.execution.registry import UnknownMainError
from repro.execution.runner import ExecutionResult, ProgramRunner
from repro.execution.timing import (
    DEFAULT_TIMED_RUNS,
    TimingResult,
    speedup,
    time_program,
)
from repro.testfw.case import ScoredTestCase
from repro.testfw.result import AspectOutcome, AspectStatus, TestResult

__all__ = ["AbstractConcurrencyPerformanceChecker"]


def _timed_runs(timing: TimingResult) -> str:
    """How many timed runs *timing*'s total covers, e.g. ``1 timed run``."""
    count = timing.clean_runs
    return f"{count} timed run{'' if count == 1 else 's'}"


class AbstractConcurrencyPerformanceChecker(ScoredTestCase):
    """Base class of all fork-join performance test programs."""

    # ------------------------------------------------------------------
    # Parameter methods
    # ------------------------------------------------------------------
    def main_class_identifier(self) -> str:
        """Registered identifier of the tested program (must override)."""
        raise NotImplementedError(
            f"{type(self).__name__} must override main_class_identifier()"
        )

    def low_thread_args(self) -> List[str]:
        """Arguments forcing the minimum threading level."""
        raise NotImplementedError(
            f"{type(self).__name__} must override low_thread_args()"
        )

    def high_thread_args(self) -> List[str]:
        """Arguments forcing the raised threading level."""
        raise NotImplementedError(
            f"{type(self).__name__} must override high_thread_args()"
        )

    def expected_minimum_speedup(self) -> float:
        """Required speedup of high- over low-thread configuration."""
        return 1.5

    def num_timed_runs(self) -> int:
        """Timed repetitions per configuration (paper default: 10).

        A cap under :meth:`duration_source`: the loop stops once a clean
        run reads what the clean run before it read.
        """
        return DEFAULT_TIMED_RUNS

    def partial_speedup_credit(self) -> bool:
        """Opt-in: award proportional credit below the required speedup.

        The paper's checker is all-or-nothing (full points at or above
        the minimum, zero below).  With this returning True, a submission
        that achieved speedup ``s < required`` earns
        ``max(0, (s - 1) / (required - 1))`` of the points — no credit at
        or below 1.0x (no parallelism), linear up to the bar.  Useful for
        homework where "some speedup" deserves something.
        """
        return False

    def warmup_runs(self) -> int:
        """Untimed warm-up repetitions per configuration."""
        return 1

    def duration_source(self) -> Optional[Callable[[ExecutionResult], float]]:
        """Optional substitute notion of elapsed time per run.

        Return a callable mapping an :class:`ExecutionResult` to seconds
        — e.g. ``lambda execution: execution.makespan or 0.0``, the
        virtual makespan the run published (a failed run publishes
        none) — or ``None`` for wall-clock timing.
        """
        return None

    def make_runner(self) -> ProgramRunner:
        """Runner used for every timed run (override to configure)."""
        return ProgramRunner()

    # ------------------------------------------------------------------
    # Checking
    # ------------------------------------------------------------------
    #: Filled by :meth:`run` for inspection by benchmarks and examples.
    last_low: Optional[TimingResult] = None
    last_high: Optional[TimingResult] = None
    last_speedup: Optional[float] = None

    def run(self) -> TestResult:
        """Time both configurations and grade the measured speedup."""
        identifier = self.main_class_identifier()
        runner = self.make_runner()
        duration_of = self.duration_source()
        try:
            low = time_program(
                identifier,
                self.low_thread_args(),
                runs=self.num_timed_runs(),
                runner=runner,
                duration_of=duration_of,
                warmup_runs=self.warmup_runs(),
            )
            high = time_program(
                identifier,
                self.high_thread_args(),
                runs=self.num_timed_runs(),
                runner=runner,
                duration_of=duration_of,
                warmup_runs=self.warmup_runs(),
            )
        except UnknownMainError as exc:
            return TestResult(
                test_name=self.name,
                score=0.0,
                max_score=self.max_score,
                fatal=str(exc),
                failure_kind="infra-error",
            )
        self.last_low, self.last_high = low, high

        for config, timing in (("low-thread", low), ("high-thread", high)):
            if not timing.all_ok:
                # Without the run's own kind, a timed-out (or killed)
                # measurement run would read as a harness error upstream.
                return TestResult(
                    test_name=self.name,
                    score=0.0,
                    max_score=self.max_score,
                    fatal=Messages.performance_run_failed(
                        config, timing.first_failure()
                    ),
                    failure_kind=timing.first_failure_kind(),
                )

        actual = speedup(low, high)
        self.last_speedup = actual
        if math.isnan(actual):
            # No clean run on one side (speedup() had nothing to
            # measure); the all_ok gate above normally catches this, but
            # subclasses overriding the gate must still not be graded on
            # a NaN ratio.
            return TestResult(
                test_name=self.name,
                score=0.0,
                max_score=self.max_score,
                fatal=(
                    "performance could not be measured: no clean timed run "
                    "in at least one configuration"
                ),
                failure_kind=(
                    low.first_failure_kind()
                    or high.first_failure_kind()
                    or "infra-error"
                ),
            )
        expected = self.expected_minimum_speedup()
        ok = actual >= expected
        if ok:
            earned = self.max_score
        elif self.partial_speedup_credit() and expected > 1.0:
            fraction = max(0.0, (actual - 1.0) / (expected - 1.0))
            earned = round(self.max_score * min(1.0, fraction), 6)
        else:
            earned = 0.0
        outcome = AspectOutcome(
            aspect=Aspect.SPEEDUP,
            status=AspectStatus.PASSED if ok else AspectStatus.FAILED,
            message=(
                f"speedup {actual:.2f} >= required {expected:g} "
                f"(low total {low.total:.4f}s over {_timed_runs(low)}, "
                f"high total {high.total:.4f}s over {_timed_runs(high)})"
                if ok
                else Messages.insufficient_speedup(expected, actual)
            ),
            points_earned=earned,
            points_possible=self.max_score,
        )
        return TestResult(
            test_name=self.name,
            score=earned,
            max_score=self.max_score,
            outcomes=[outcome],
        )
