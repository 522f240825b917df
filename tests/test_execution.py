"""Unit tests of the program-execution layer (registry, runner, timing)."""

from __future__ import annotations

import threading
import time

import pytest

from repro.execution.registry import (
    UnknownMainError,
    register_main,
    registered_mains,
    resolve_main,
    unregister_main,
)
from repro.execution.runner import ProgramRunner
from repro.execution.timing import TimingResult, TimingSample, speedup, time_program
from repro.simulation.backend import record_makespan
from repro.tracing import print_property


class TestRegistry:
    def test_register_and_resolve(self):
        @register_main("test.registry.demo")
        def demo(args):
            pass

        try:
            assert resolve_main("test.registry.demo") is demo
            assert "test.registry.demo" in registered_mains()
        finally:
            unregister_main("test.registry.demo")

    def test_reregistration_replaces(self):
        @register_main("test.registry.replace")
        def first(args):
            pass

        @register_main("test.registry.replace")
        def second(args):
            pass

        try:
            assert resolve_main("test.registry.replace") is second
        finally:
            unregister_main("test.registry.replace")

    def test_dotted_path_resolution(self):
        func = resolve_main("repro.workloads.primes.correct:main")
        assert callable(func)

    def test_dotted_path_default_main(self):
        func = resolve_main("repro.workloads.primes.correct")
        assert callable(func)

    def test_unknown_identifier_raises(self):
        with pytest.raises(UnknownMainError, match="no tested program"):
            resolve_main("does.not.exist.anywhere")

    def test_non_callable_attribute_raises(self):
        with pytest.raises(UnknownMainError):
            resolve_main("repro.workloads.primes.spec:RANDOM_NUMBERS")

    def test_unregister_is_idempotent(self):
        unregister_main("never.registered")  # must not raise


class TestRunner:
    def test_runs_to_completion_and_captures(self, runner):
        @register_main("test.runner.basic")
        def basic(args):
            print_property("Echo", args)

        try:
            result = runner.run("test.runner.basic", ["a", "b"])
        finally:
            unregister_main("test.runner.basic")
        assert result.ok
        assert result.args == ["a", "b"]
        assert result.events[0].value == ["a", "b"]
        assert "Echo" in result.output

    def test_root_thread_is_dedicated(self, runner):
        seen = {}

        @register_main("test.runner.root")
        def root(args):
            seen["thread"] = threading.current_thread()
            print_property("X", 1)

        try:
            result = runner.run("test.runner.root")
        finally:
            unregister_main("test.runner.root")
        assert result.root_thread is seen["thread"]
        assert result.root_thread is not threading.current_thread()
        assert result.events[0].thread is seen["thread"]

    def test_workers_collected_in_first_output_order(self, runner):
        @register_main("test.runner.workers")
        def forky(args):
            def w(i):
                print_property("Index", i)

            threads = [threading.Thread(target=w, args=(i,)) for i in range(3)]
            for t in threads:
                t.start()
                t.join()

        try:
            result = runner.run("test.runner.workers")
        finally:
            unregister_main("test.runner.workers")
        assert len(result.worker_threads) == 3
        assert len(result.worker_events()) == 3
        assert result.root_events() == []

    def test_exception_captured_not_raised(self, runner):
        @register_main("test.runner.crash")
        def crash(args):
            raise RuntimeError("student bug")

        try:
            result = runner.run("test.runner.crash")
        finally:
            unregister_main("test.runner.crash")
        assert not result.ok
        assert isinstance(result.exception, RuntimeError)
        assert "student bug" in result.failure_reason()

    def test_timeout_reported(self):
        @register_main("test.runner.slow")
        def slow(args):
            time.sleep(2.0)

        try:
            result = ProgramRunner(timeout=0.1).run("test.runner.slow")
        finally:
            unregister_main("test.runner.slow")
        assert result.timed_out
        assert not result.ok
        assert "did not terminate" in result.failure_reason()

    def test_hidden_run_has_no_events_or_output(self, runner):
        result = runner.run("primes.correct", ["4", "2"], hide_prints=True)
        assert result.ok
        assert result.hidden
        assert result.events == []
        assert result.output == ""

    def test_run_callable_identifier_preserved(self, runner):
        def anon(args):
            print_property("Y", 2)

        result = runner.run_callable(anon, identifier="anon-prog")
        assert result.identifier == "anon-prog"
        assert result.ok

    def test_session_not_leaked_after_crash(self, runner):
        from repro.tracing.session import current_session

        @register_main("test.runner.crash2")
        def crash(args):
            raise ValueError

        try:
            runner.run("test.runner.crash2")
        finally:
            unregister_main("test.runner.crash2")
        assert current_session() is None


class TestTiming:
    def test_samples_collected(self):
        result = time_program("primes.correct", ["3", "2"], runs=3, warmup_runs=0)
        assert result.runs == 3
        assert result.all_ok
        assert result.total > 0
        assert result.minimum <= result.mean

    def test_invalid_runs_rejected(self):
        with pytest.raises(ValueError):
            time_program("primes.correct", [], runs=0)

    def test_duration_override(self):
        result = time_program(
            "primes.correct",
            ["3", "2"],
            runs=2,
            warmup_runs=0,
            duration_of=lambda _execution: 1.5,
        )
        assert result.total == pytest.approx(3.0)

    def test_failure_recorded_per_sample(self):
        @register_main("test.timing.crash")
        def crash(args):
            raise RuntimeError("nope")

        try:
            result = time_program("test.timing.crash", [], runs=2, warmup_runs=0)
        finally:
            unregister_main("test.timing.crash")
        assert not result.all_ok
        assert "nope" in result.first_failure()

    def test_speedup_ratio(self):
        low = TimingResult("x", [], [TimingSample(2.0, True)])
        high = TimingResult("x", [], [TimingSample(1.0, True)])
        assert speedup(low, high) == pytest.approx(2.0)

    def test_speedup_degenerate_high_time(self):
        low = TimingResult("x", [], [TimingSample(2.0, True)])
        high = TimingResult("x", [], [TimingSample(0.0, True)])
        assert speedup(low, high) == 0.0

    def test_stdev_zero_for_single_run(self):
        result = TimingResult("x", [], [TimingSample(1.0, True)])
        assert result.stdev == 0.0

    def test_describe_mentions_stats(self):
        result = TimingResult("prog", ["1"], [TimingSample(1.0, True), TimingSample(2.0, True)])
        text = result.describe()
        assert "total 3.0000s" in text and "2 runs" in text

    def test_failed_samples_excluded_from_aggregates(self):
        # A timed-out run's duration measures the harness, not the
        # program — it must not count toward total/mean/min/stdev.
        result = TimingResult(
            "x",
            [],
            [
                TimingSample(1.0, True),
                TimingSample(20.0, False, "timed out", kind="timeout"),
                TimingSample(3.0, True),
            ],
        )
        assert result.runs == 3 and result.clean_runs == 2
        assert result.total == pytest.approx(4.0)
        assert result.mean == pytest.approx(2.0)
        assert result.minimum == pytest.approx(1.0)
        assert "2 clean runs (1 failed run(s) excluded)" in result.describe()

    def test_speedup_nan_when_no_clean_run(self):
        import math

        clean = TimingResult("x", [], [TimingSample(1.0, True)])
        dirty = TimingResult(
            "x", [], [TimingSample(20.0, False, "timed out", kind="timeout")]
        )
        assert math.isnan(speedup(clean, dirty))
        assert math.isnan(speedup(dirty, clean))
        assert math.isnan(speedup(dirty, dirty))


# ----------------------------------------------------------------------
# The virtual-clock stopping rule
# ----------------------------------------------------------------------
@pytest.fixture
def readings():
    """A program whose n-th run publishes makespan ``readings[n]``.

    ``None`` makes that run crash instead.
    """
    script = []

    @register_main("test.timing.scripted")
    def scripted(args):
        reading = script.pop(0)
        if reading is None:
            raise RuntimeError("scripted crash")
        record_makespan(reading)

    yield script
    unregister_main("test.timing.scripted")


class CountingRunner(ProgramRunner):
    """Counts the program runs the timing loop makes."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = 0

    def run(self, *args, **kwargs):
        self.calls += 1
        return super().run(*args, **kwargs)


def time_scripted(script, values, *, virtual=True, runs=10, warmup_runs=1):
    """Time the scripted program; returns the result and runs made."""
    script.extend(values)
    runner = CountingRunner()
    result = time_program(
        "test.timing.scripted",
        [],
        runs=runs,
        runner=runner,
        duration_of=(lambda execution: execution.makespan or 0.0) if virtual else None,
        warmup_runs=warmup_runs,
    )
    return result, runner.calls


class TestVirtualClockStopsOnARepeat:
    def test_a_constant_source_makes_warm_up_and_one_timed_run(self, readings):
        result, calls = time_scripted(readings, [2.0] * 11)
        assert calls == 2
        assert [s.duration for s in result.samples] == [2.0]
        assert result.repeated and result.cap == 10
        assert "1 run, stopped on a repeat (cap 10)" in result.describe()

    def test_it_runs_until_two_consecutive_samples_agree(self, readings):
        # The warm-up reads 5.0, an outlier the mean must not see.
        result, calls = time_scripted(readings, [5.0, 3.0, 2.0, 2.0, 2.0])
        assert calls == 4
        assert [s.duration for s in result.samples] == [3.0, 2.0, 2.0]
        assert result.mean == pytest.approx(7.0 / 3.0)

    def test_a_source_that_never_repeats_runs_the_full_cap(self, readings):
        result, calls = time_scripted(readings, [float(n) for n in range(11)])
        assert calls == 11
        assert result.runs == 10 and not result.repeated
        assert "stopped" not in result.describe()

    def test_a_failed_run_between_equal_readings_does_not_stop(self, readings):
        result, calls = time_scripted(readings, [2.0, None, 2.0, 2.0, 2.0])
        assert calls == 4
        assert [s.kind for s in result.samples] == ["crash", "ok", "ok"]
        assert result.clean_runs == 2 and result.repeated

    def test_without_warm_up_two_timed_samples_must_agree(self, readings):
        result, calls = time_scripted(readings, [2.0] * 10, warmup_runs=0)
        assert calls == 2
        assert [s.duration for s in result.samples] == [2.0, 2.0]

    def test_the_wall_clock_makes_warm_up_and_every_timed_run(self, readings):
        result, calls = time_scripted(readings, [2.0] * 4, virtual=False, runs=3)
        assert calls == 4
        assert result.runs == 3 and not result.repeated

    def test_speedup_divides_means_not_totals(self):
        low = TimingResult("x", [], [TimingSample(4.0, True)] * 3)
        high = TimingResult("x", [], [TimingSample(1.0, True)])
        # The ratio of totals would read 12.0.
        assert speedup(low, high) == 4.0
