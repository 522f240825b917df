"""Tests of the performance checker (Fig. 7 semantics)."""

from __future__ import annotations

import time
from typing import Callable, List, Optional

import pytest

from repro.core.performance import AbstractConcurrencyPerformanceChecker
from repro.execution.registry import register_main, unregister_main
from repro.execution.runner import ExecutionResult, ProgramRunner
from repro.graders.suites import build_named_suite
from repro.testfw.annotations import max_value
from repro.tracing import print_property


@register_main("perf.test.scalable")
def _scalable(args: List[str]) -> None:
    """Sleep-based program whose duration divides by its thread arg."""
    threads = int(args[1]) if len(args) > 1 else 1
    # Tracing output that must be disabled during timing:
    print_property("Config", args)
    time.sleep(0.03 / threads)


@register_main("perf.test.flat")
def _flat(args: List[str]) -> None:
    """A program whose duration ignores the thread argument."""
    time.sleep(0.01)


@max_value(25)
class _PerfChecker(AbstractConcurrencyPerformanceChecker):
    def __init__(
        self,
        identifier: str = "perf.test.scalable",
        *,
        minimum: float = 1.5,
        runs: int = 3,
        duration: Optional[Callable[[ExecutionResult], float]] = None,
    ) -> None:
        self._identifier = identifier
        self._minimum = minimum
        self._runs = runs
        self._duration = duration

    def main_class_identifier(self) -> str:
        return self._identifier

    def low_thread_args(self) -> List[str]:
        return ["100", "1"]

    def high_thread_args(self) -> List[str]:
        return ["100", "4"]

    def expected_minimum_speedup(self) -> float:
        return self._minimum

    def num_timed_runs(self) -> int:
        return self._runs

    def duration_source(self):
        return self._duration


class TestSpeedupVerdicts:
    def test_scalable_program_earns_full_points(self):
        checker = _PerfChecker()
        result = checker.run()
        assert result.score == pytest.approx(25.0)
        assert checker.last_speedup is not None and checker.last_speedup >= 1.5
        [outcome] = result.outcomes
        assert "speedup" in outcome.aspect

    def test_flat_program_earns_zero_with_reason(self):
        checker = _PerfChecker("perf.test.flat")
        result = checker.run()
        assert result.score == 0.0
        [outcome] = result.outcomes
        assert "expected a speedup of at least 1.5" in outcome.message
        assert "measured" in outcome.message

    def test_reported_message_contains_totals_on_success(self):
        result = _PerfChecker().run()
        [outcome] = result.outcomes
        assert "low total" in outcome.message and "high total" in outcome.message

    def test_duration_source_overrides_wall_clock(self):
        # Virtual durations: low args -> 4.0, high args -> 1.0.
        def fake_duration(execution: ExecutionResult) -> float:
            return 4.0 if execution.args[-1] == "1" else 1.0

        checker = _PerfChecker("perf.test.flat", duration=fake_duration)
        result = checker.run()
        assert result.score == pytest.approx(25.0)
        assert checker.last_speedup == pytest.approx(4.0)

    def test_timing_results_kept_for_inspection(self):
        checker = _PerfChecker()
        checker.run()
        assert checker.last_low is not None and checker.last_low.runs == 3
        assert checker.last_high is not None and checker.last_high.runs == 3

    def test_the_message_says_how_many_runs_each_total_covers(self):
        def fake_duration(execution: ExecutionResult) -> float:
            return 4.0 if execution.args[-1] == "1" else 1.0

        checker = _PerfChecker("perf.test.flat", duration=fake_duration)
        [outcome] = checker.run().outcomes
        assert (
            "(low total 4.0000s over 1 timed run, "
            "high total 1.0000s over 1 timed run)"
        ) in outcome.message
        [wall] = _PerfChecker().run().outcomes
        assert "over 3 timed runs" in wall.message


class TestVirtualClockGradesAreUnchanged:
    """Pinned with every configuration timed ten times, as the paper does."""

    @pytest.mark.parametrize(
        "suite, pinned",
        [("primes", 3.9408673065433395), ("pi", 4.0), ("odds", 4.0)],
    )
    def test_same_grade_from_five_runs(self, suite, pinned, monkeypatch):
        calls = []
        run = ProgramRunner.run

        def counting(self, *args, **kwargs):
            calls.append(args[0])
            return run(self, *args, **kwargs)

        monkeypatch.setattr(ProgramRunner, "run", counting)
        built = build_named_suite(suite)
        results = built.run().results
        performance = built.tests[1]
        assert [r.score for r in results] == [40.0, 20.0]
        assert performance.last_speedup == pytest.approx(pinned, rel=1e-12)
        # The functionality run, then warm-up + one timed run per
        # configuration: 23 runs with ten timed runs each.
        assert len(calls) == 5


class TestPrintsDisabled:
    def test_trace_prints_hidden_during_timing(self, capsys):
        checker = _PerfChecker()
        checker.run()
        # The tested program prints "Config" every run; none may escape.
        assert "Config" not in capsys.readouterr().out

    def test_timed_runs_have_no_events(self):
        checker = _PerfChecker()
        checker.run()
        assert checker.last_low.all_ok  # runs happened
        # time_program hides prints; verify via a direct probe:
        from repro.execution.timing import time_program

        result = time_program("perf.test.scalable", ["100", "1"], runs=1, warmup_runs=0)
        assert result.all_ok


class TestFatalPaths:
    def test_unknown_program_is_fatal(self):
        result = _PerfChecker("perf.test.missing").run()
        assert result.score == 0
        assert "no tested program" in result.fatal

    def test_crashing_program_names_the_configuration(self):
        @register_main("perf.test.crash")
        def crash(args):
            raise RuntimeError("boom")

        try:
            result = _PerfChecker("perf.test.crash").run()
        finally:
            unregister_main("perf.test.crash")
        assert result.score == 0
        assert "low-thread configuration" in result.fatal
        assert "boom" in result.fatal

    def test_unimplemented_parameter_methods_raise(self):
        class Bare(AbstractConcurrencyPerformanceChecker):
            def main_class_identifier(self):
                return "perf.test.flat"

        result = Bare().run_safely()
        assert "must override low_thread_args" in result.fatal


class TestDefaults:
    def test_paper_defaults(self):
        class Minimal(AbstractConcurrencyPerformanceChecker):
            def main_class_identifier(self):
                return "x"

            def low_thread_args(self):
                return []

            def high_thread_args(self):
                return []

        checker = Minimal()
        assert checker.expected_minimum_speedup() == 1.5
        assert checker.num_timed_runs() == 10
        assert checker.warmup_runs() == 1
        assert checker.duration_source() is None
