"""Tests of scripted stdin and the Gradescope / markdown exports."""

from __future__ import annotations

import json
import sys
from typing import List

import pytest

from repro.execution.registry import register_main, unregister_main
from repro.execution.runner import ProgramRunner
from repro.execution.stdin_feed import ScriptedInputExhausted, StdinFeed
from repro.grading import (
    Gradebook,
    gradebook_markdown,
    gradescope_document,
    suite_result_markdown,
    write_gradescope_results,
)
from repro.grading.records import SubmissionRecord
from repro.testfw.result import (
    AspectOutcome,
    AspectStatus,
    SuiteResult,
    TestResult,
)
from repro.tracing import print_property


class TestStdinFeed:
    def test_lines_served_in_order(self):
        feed = StdinFeed(["a", "b"])
        assert feed.next_line() == "a"
        assert feed.next_line() == "b"
        assert feed.consumed_lines() == ["a", "b"]
        assert feed.remaining == 0

    def test_exhaustion_raises_eoferror_subclass(self):
        feed = StdinFeed([])
        with pytest.raises(EOFError):
            feed.next_line()
        with pytest.raises(ScriptedInputExhausted):
            feed.next_line()

    def test_install_replaces_input_and_stdin(self):
        feed = StdinFeed(["42"])
        feed.install()
        try:
            assert input() == "42"
        finally:
            feed.uninstall()

    def test_double_install_rejected(self):
        feed = StdinFeed([])
        feed.install()
        try:
            with pytest.raises(RuntimeError):
                feed.install()
        finally:
            feed.uninstall()

    def test_stream_reads(self):
        feed = StdinFeed(["x", "y"])
        feed.install()
        try:
            assert sys.stdin.readline() == "x\n"
            assert sys.stdin.read() == "y\n"
            assert sys.stdin.readline() == ""  # EOF
        finally:
            feed.uninstall()

    def test_iteration(self):
        feed = StdinFeed(["1", "2"])
        feed.install()
        try:
            assert list(sys.stdin) == ["1\n", "2\n"]
        finally:
            feed.uninstall()


class TestRunnerWithStdin:
    def test_program_reads_scripted_input(self, runner):
        @register_main("stdin.echo")
        def echo(args: List[str]) -> None:
            count = int(input("how many? "))
            for _ in range(count):
                print_property("Line", input())

        try:
            result = runner.run("stdin.echo", [], stdin_lines=["2", "alpha", "beta"])
        finally:
            unregister_main("stdin.echo")
        assert result.ok
        values = [e.value for e in result.events if e.name == "Line"]
        assert values == ["alpha", "beta"]
        # The prompt went through the intercepted stdout.
        assert "how many?" in result.output

    def test_underprovisioned_input_fails_the_run(self, runner):
        @register_main("stdin.greedy")
        def greedy(args: List[str]) -> None:
            input()
            input()

        try:
            result = runner.run("stdin.greedy", [], stdin_lines=["only one"])
        finally:
            unregister_main("stdin.greedy")
        assert not result.ok
        assert "more input than the test provided" in result.failure_reason()

    def test_input_restored_after_run(self, runner):
        import builtins

        before = builtins.input
        runner.run("primes.correct", ["3", "2"], stdin_lines=["unused"])
        assert builtins.input is before

    def test_unscripted_run_reads_eof_not_the_graders_stdin(
        self, monkeypatch, capsys
    ):
        """A test that scripts no input gives the program an empty
        stdin in process too: ``primes.stdin`` falls back to its
        defaults whatever the grader itself was fed."""
        import io

        from repro.cli import main

        monkeypatch.setattr(sys, "stdin", io.StringIO("9\n3\n"))
        assert main(["grade", "primes", "--submissions", "primes.stdin"]) == 0
        assert "primes.stdin              100.0%" in capsys.readouterr().out
        assert sys.stdin.read() == "9\n3\n"


def make_suite_result() -> SuiteResult:
    return SuiteResult(
        "primes",
        [
            TestResult(
                "Functionality",
                32.0,
                40.0,
                outcomes=[
                    AspectOutcome(
                        "fork syntax", AspectStatus.PASSED, points_earned=6, points_possible=6
                    ),
                    AspectOutcome(
                        "thread interleaving",
                        AspectStatus.FAILED,
                        message="serialized | in order",
                        points_earned=0,
                        points_possible=4,
                    ),
                    AspectOutcome("iteration semantics", AspectStatus.SKIPPED, points_possible=6),
                ],
            ),
            TestResult("Performance", 20.0, 20.0),
        ],
    )


class TestGradescopeExport:
    def test_document_shape(self):
        document = gradescope_document(make_suite_result(), execution_time=1.25)
        assert document["score"] == pytest.approx(52.0)
        assert document["execution_time"] == 1.25
        assert len(document["tests"]) == 2
        functionality = document["tests"][0]
        assert functionality["name"] == "Functionality"
        assert functionality["max_score"] == 40.0
        assert functionality["status"] == "failed"
        assert "thread interleaving" in functionality["output"]

    def test_fatal_result_in_output(self):
        suite = SuiteResult("s", [TestResult("t", 0, 10, fatal="crashed hard")])
        document = gradescope_document(suite)
        assert "FATAL: crashed hard" in document["tests"][0]["output"]

    def test_written_file_is_valid_json(self, tmp_path):
        path = write_gradescope_results(make_suite_result(), tmp_path / "results.json")
        payload = json.loads(path.read_text())
        assert payload["score"] == pytest.approx(52.0)


class TestMarkdown:
    def test_suite_markdown_contains_tables_and_totals(self):
        text = suite_result_markdown(make_suite_result(), student="alice")
        assert "## primes — alice" in text
        assert "**Total: 52 / 60 (87%)**" in text
        assert "| thread interleaving | FAIL |" in text
        assert "serialized \\| in order" in text  # pipe escaped
        assert "| iteration semantics | skip |" in text

    def test_fatal_marker(self):
        suite = SuiteResult("s", [TestResult("t", 0, 10, fatal="boom")])
        text = suite_result_markdown(suite)
        assert "> **FATAL** — boom" in text

    def test_gradebook_markdown(self):
        book = Gradebook("primes")
        book.record(
            SubmissionRecord.from_suite_result("alice", make_suite_result(), timestamp=1.0)
        )
        book.record(
            SubmissionRecord.from_suite_result("alice", make_suite_result(), timestamp=2.0)
        )
        text = gradebook_markdown(book)
        assert "## Gradebook — primes" in text
        assert "| alice | 87% | 87% | 2 |" in text
