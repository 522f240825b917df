"""Tests of the command-line instructor agent."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands_parse(self):
        parser = build_parser()
        assert parser.parse_args(["list"]).command == "list"
        args = parser.parse_args(["run", "primes", "--submission", "primes.correct"])
        assert args.suite == "primes" and args.submission == "primes.correct"
        args = parser.parse_args(
            ["explore", "primes.racy", "--strategy", "random-walk", "--schedules", "7"]
        )
        assert args.schedules == 7 and args.strategy == "random-walk"


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        assert "primes" in capsys.readouterr().out

    def test_run_hello_exits_zero_on_full_score(self, capsys):
        assert main(["run", "hello"]) == 0
        out = capsys.readouterr().out
        assert "HelloFunctionality" in out
        assert "100%" in out

    def test_run_failing_submission_exits_nonzero(self, capsys):
        code = main(["run", "hello", "--submission", "hello.no_fork"])
        assert code == 1
        assert "must fork" in capsys.readouterr().out

    def test_run_with_trace_prints_phases(self, capsys, round_robin_backend):
        main(["run", "primes", "--submission", "primes.correct", "--trace"])
        out = capsys.readouterr().out
        assert "// pre-fork phase" in out

    def test_unknown_suite_rejected(self):
        # argparse rejects the bad suite name before any suite is built
        with pytest.raises(SystemExit):
            main(["run", "nachos"])

    def test_grade_writes_gradebook(self, tmp_path, capsys, round_robin_backend):
        out_path = tmp_path / "book.json"
        code = main(
            [
                "grade",
                "hello",
                "--submissions",
                "hello.correct,hello.no_fork",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        assert out_path.exists()
        out = capsys.readouterr().out
        assert "hello.correct" in out and "hello.no_fork" in out

    # Schedule fuzzing is seeded random-walk exploration.
    def test_fuzz_detects_racy_submission(self, capsys):
        code = main(
            ["explore", "primes.racy", "--strategy", "random-walk", "--schedules", "4"]
        )
        assert code == 1
        assert "schedules failed" in capsys.readouterr().out

    def test_fuzz_passes_correct_submission(self, capsys):
        code = main(
            ["explore", "primes.correct", "--strategy", "random-walk",
             "--schedules", "3"]
        )
        assert code == 0

    def test_fuzz_other_problems(self, capsys):
        code = main(
            ["explore", "odds.racy", "--problem", "odds",
             "--strategy", "random-walk", "--schedules", "4"]
        )
        assert code == 1
