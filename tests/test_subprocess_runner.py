"""Tests of subprocess execution of tested programs."""

from __future__ import annotations

import textwrap

import pytest

from repro.execution.registry import UnknownMainError
from repro.execution.runner import ProgramRunner
from repro.execution.subprocess_runner import SubprocessRunner, active_child_count
from repro.execution.taxonomy import FailureKind
from repro.execution.worker_pool import WorkerPool
from repro.graders import HelloFunctionality, PrimesFunctionality


@pytest.fixture(scope="module")
def runner():
    return SubprocessRunner(timeout=60.0)


class TestReconstruction:
    def test_correct_primes_trace_rebuilt(self, runner):
        result = runner.run("primes.correct", ["7", "4"])
        assert result.ok
        assert result.root_thread_id == 23
        assert len(result.worker_threads) == 4
        names = [e.name for e in result.events]
        assert names[0] == "Random Numbers"
        assert names[-1] == "Total Num Primes"
        assert names.count("Index") == 7
        # Values are text at this level; typed parsing happens in the
        # phased-trace builder.
        assert isinstance(result.events[0].value, str)

    def test_root_marker_not_part_of_output(self, runner):
        result = runner.run("primes.correct", ["4", "2"])
        assert "__root__" not in result.output

    def test_plain_print_lines_attributed_via_annotations(self, runner):
        result = runner.run("hello.correct", ["3"])
        assert result.output.count("Hello Concurrent World") == 3
        assert len(result.worker_threads) == 3
        assert all(e.thread is not result.root_thread for e in result.events)

    def test_no_fork_hello_attributed_to_root(self, runner):
        result = runner.run("hello.no_fork", ["1"])
        assert result.worker_threads == []
        assert len(result.root_events()) == 1

    def test_hidden_run_produces_nothing(self, runner):
        result = runner.run("primes.correct", ["5", "2"], hide_prints=True)
        assert result.ok
        assert result.events == []
        assert result.output == ""

    def test_torn_lines_do_not_occur(self, runner):
        """Concurrent prints in the child must never interleave within a
        line (the child buffers per thread and writes lines atomically)."""
        for _ in range(3):
            result = runner.run("primes.correct", ["12", "4"])
            for event in result.events:
                assert event.raw_line.count("Thread ") == 1, event.raw_line


class TestFailureModes:
    def test_unknown_identifier_raises(self, runner):
        with pytest.raises(UnknownMainError):
            runner.run("totally.unknown.program")

    def test_program_exception_reported(self, runner):
        with pytest.raises(UnknownMainError):
            # resolvable module but non-callable attr -> unknown-main exit
            runner.run("repro.workloads.primes.spec:RANDOM_NUMBERS")

    def test_timeout_reported(self, tmp_path):
        slow = tmp_path / "slow.py"
        slow.write_text(
            textwrap.dedent(
                """
                import time

                def main(args):
                    time.sleep(30)
                """
            )
        )
        result = SubprocessRunner(timeout=2.0).run(str(slow))
        assert result.timed_out
        assert not result.ok

    def test_crashing_file_reported(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def main(args):\n    raise ValueError('student bug')\n")
        runner = SubprocessRunner(timeout=30.0)
        result = runner.run(str(bad))
        assert not result.ok
        assert "student bug" in result.failure_reason()


class TestFailureTaxonomyPaths:
    """The failure shapes a batch of real submissions actually produces."""

    def test_timeout_preserves_partial_output(self):
        result = SubprocessRunner(timeout=2.0).run("faults.hang")
        assert result.timed_out
        assert not result.ok
        assert result.failure_kind is FailureKind.TIMEOUT
        # The child flushed before hanging: the evidence survives the kill.
        assert "Fault:hang" in result.output
        assert "Progress:1" in result.output
        assert active_child_count() == 0

    def test_signal_killed_child_distinct_from_timeout(self):
        result = SubprocessRunner(timeout=30.0).run("faults.signal", ["9"])
        assert not result.timed_out
        assert not result.ok
        assert result.signal_number == 9
        assert result.failure_kind is FailureKind.SIGNAL
        assert "SIGKILL" in result.failure_reason()
        assert "Fault:signal" in result.output

    def test_simulated_segfault(self):
        result = SubprocessRunner(timeout=30.0).run("faults.signal", ["11"])
        assert result.signal_number == 11
        assert result.failure_kind is FailureKind.SIGNAL
        assert "SIGSEGV" in result.failure_reason()

    def test_crash_carries_child_error_text(self, runner):
        result = runner.run("faults.crash")
        assert not result.ok
        assert result.failure_kind is FailureKind.CRASH
        assert "injected crash" in result.failure_reason()

    def test_garbled_property_lines_flagged(self, runner):
        result = runner.run("faults.garble")
        assert result.exception is None
        assert result.signal_number is None
        assert result.failure_kind is FailureKind.GARBLED_TRACE
        assert "Thread 9->NoColonHere" in result.garbled_lines
        assert "Thread notanumber->X:1" in result.garbled_lines

    def test_trace_truncated_mid_line_flagged(self, runner):
        result = runner.run("faults.truncate")
        assert result.failure_kind is FailureKind.GARBLED_TRACE
        # The torn line parses as a property — only the missing newline
        # betrays it.
        assert result.garbled_lines == ["Thread 9->Index:4"]

    def test_clean_fault_program_is_ok(self, runner):
        result = runner.run("faults.ok")
        assert result.ok
        assert result.failure_kind is FailureKind.OK
        assert result.garbled_lines == []

    def test_whitespace_only_stderr_on_unknown_main_exit(self, tmp_path):
        # A child that dies with the unknown-main status but writes only
        # whitespace to stderr used to raise IndexError in the parent.
        fake = tmp_path / "fake-python"
        fake.write_text("#!/bin/sh\nprintf '\\n' >&2\nexit 71\n")
        fake.chmod(0o755)
        runner = SubprocessRunner(timeout=10.0, python=str(fake))
        with pytest.raises(UnknownMainError):
            runner.run("whatever")


class TestGradingStudentFiles:
    """The real-world path: grade an actual .py file submission."""

    SUBMISSION = textwrap.dedent(
        """
        import threading
        import time
        from repro.tracing import print_property

        def main(args):
            num_randoms = int(args[0]); num_threads = int(args[1])
            randoms = [509, 578, 796, 129, 272, 594, 714][:num_randoms]
            print_property("Random Numbers", randoms)
            counts = []
            lock = threading.Lock()
            barrier = threading.Barrier(num_threads)

            def worker(lo, hi):
                barrier.wait()
                count = 0
                for i in range(lo, hi):
                    n = randoms[i]
                    print_property("Index", i)
                    print_property("Number", n)
                    prime = n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))
                    print_property("Is Prime", prime)
                    if prime:
                        count += 1
                    time.sleep(0.002)
                print_property("Num Primes", count)
                with lock:
                    counts.append(count)

            base, extra = divmod(num_randoms, num_threads)
            threads, start = [], 0
            for t in range(num_threads):
                size = base + (1 if t < extra else 0)
                threads.append(threading.Thread(target=worker, args=(start, start + size)))
                start += size
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            print_property("Total Num Primes", sum(counts))
        """
    )

    def test_student_file_earns_full_marks(self, tmp_path):
        submission = tmp_path / "alice_primes.py"
        submission.write_text(self.SUBMISSION)

        class SubprocessPrimes(PrimesFunctionality):
            def make_runner(self):
                return SubprocessRunner(timeout=60.0)

        result = SubprocessPrimes(str(submission)).run()
        assert result.percent == pytest.approx(100.0), result.render()

    def test_registered_variants_grade_identically_in_both_regimes(self):
        class SubprocessPrimes(PrimesFunctionality):
            def make_runner(self):
                return SubprocessRunner(timeout=60.0)

        for identifier, expected in [
            ("primes.serialized", 80.0),
            ("primes.syntax_error", 10.0),
            ("primes.no_fork", 5.0),
        ]:
            result = SubprocessPrimes(identifier).run()
            assert result.percent == pytest.approx(expected), identifier

    def test_hello_checker_via_subprocess(self):
        class SubprocessHello(HelloFunctionality):
            def make_runner(self):
                return SubprocessRunner(timeout=60.0)

        assert SubprocessHello("hello.correct").run().percent == 100.0
        assert SubprocessHello("hello.no_fork").run().percent == 0.0


#: Hides its prints mid-run, as a tested program may: a property, a
#: plain print and an ``input()`` prompt while hidden, then unhides.
SELF_HIDING = textwrap.dedent(
    """
    from repro.tracing import print_property, set_hide_redirected_prints

    def main(args):
        print_property("Before", 1)
        set_hide_redirected_prints(True)
        print_property("Hidden", 2)
        print("plain hidden")
        answer = input("Hidden prompt? ")
        set_hide_redirected_prints(False)
        print_property("After", answer)
    """
)


class TestProgramHidesItsOwnPrints:
    """``set_hide_redirected_prints`` works in every regime, not only
    under an in-process session."""

    def test_events_and_output_match_in_process(self, tmp_path):
        program = tmp_path / "self_hiding.py"
        program.write_text(SELF_HIDING)
        with WorkerPool(1) as pool:
            runs = {
                "in-process": ProgramRunner(timeout=60.0),
                "pooled": SubprocessRunner(timeout=60.0, pool=pool),
                "cold": SubprocessRunner(timeout=60.0),
            }
            seen = {}
            for regime, runner in runs.items():
                result = runner.run(str(program), [], stdin_lines=["yes"])
                assert result.ok, (regime, result.failure_reason())
                seen[regime] = (
                    [(e.name, e.raw_line) for e in result.events],
                    result.output,
                )
        assert [name for name, _ in seen["in-process"][0]] == ["Before", "After"]
        assert seen["in-process"][0][1][1].endswith("After:yes")
        assert seen["pooled"] == seen["in-process"]
        assert seen["cold"] == seen["in-process"]


class TestColdChildEnvironment:
    def test_a_cold_child_imports_repro_without_pythonpath(self, monkeypatch):
        """The child gets this package's root on its path, as a pool
        worker does, however the parent found the package."""
        monkeypatch.delenv("PYTHONPATH", raising=False)
        result = SubprocessRunner(timeout=60.0).run("hello.correct", ["2"])
        assert result.ok, result.failure_reason()
        assert result.output.count("Hello Concurrent World") == 2
