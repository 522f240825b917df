"""End-to-end scenarios spanning every layer of the infrastructure."""

from __future__ import annotations

import pytest

from repro.grading import ProgressLog, analyze_progress, grade_batch
from repro.graders import PrimesFunctionality, build_primes_suite
from repro.execution.exploration import ScheduleExplorer, checker_runs
from repro.testfw.suite import TestSuite
from repro.testfw.ui import SuiteUI


class TestStudentIterationStory:
    """A student's path from broken to correct, as the paper envisions:
    run the tests on in-progress work, read the pinpointed feedback, fix
    the next problem, repeat."""

    PROGRESSION = [
        ("primes.no_fork", "fork"),           # first attempt: no threads
        ("primes.syntax_error", "Randoms"),    # wrong property name
        ("primes.imbalanced", "imbalanced"),   # lopsided split
        ("primes.racy", ""),                   # race (schedule-dependent)
        ("primes.correct", ""),                # done
    ]

    def test_scores_improve_monotonically(self, round_robin_backend):
        scores = []
        for identifier, _hint in self.PROGRESSION:
            result = PrimesFunctionality(identifier).run()
            scores.append(result.score)
        assert scores == sorted(scores)
        assert scores[-1] == pytest.approx(40.0)

    def test_feedback_names_the_next_problem(self, round_robin_backend):
        for identifier, hint in self.PROGRESSION:
            if not hint:
                continue
            result = PrimesFunctionality(identifier).run()
            text = result.render()
            assert hint in text, f"{identifier}: expected {hint!r} in feedback"

    def test_progress_log_shows_improvement_to_instructor(self, round_robin_backend):
        log = ProgressLog()
        for timestamp, (identifier, _hint) in enumerate(self.PROGRESSION):
            suite = TestSuite("primes", [PrimesFunctionality(identifier)])
            log.log_run("carol", suite.run(), timestamp=float(timestamp))
        report = analyze_progress(log, suite="primes")
        [carol] = report.students
        assert carol.improving
        assert carol.latest_percent == pytest.approx(100.0)
        assert not carol.stuck


class TestWorkshopGradingStory:
    """The instructor's side: batch-grade the class, read awareness."""

    def test_batch_grading_orders_submissions_sensibly(self, round_robin_backend):
        gradebook, _live = grade_batch(
            lambda ident: TestSuite("primes", [PrimesFunctionality(ident)]),
            ["primes.correct", "primes.wrong_total", "primes.syntax_error", "primes.no_fork"],
        )
        p = gradebook.class_percentages()
        assert p["primes.correct"] > p["primes.wrong_total"] > p["primes.syntax_error"] > p["primes.no_fork"]


class TestInteractiveUIStory:
    def test_ui_session_over_suite(self, round_robin_backend):
        suite = build_primes_suite("primes.correct", perf_runs=2)
        ui = SuiteUI(suite)
        listing = ui.render_listing()
        assert "PrimesFunctionality" in listing
        result = ui.run_test_at(1)
        assert result.score == pytest.approx(40.0)
        assert "40 / 40" in ui.render_listing()


class TestFuzzingStory:
    def test_race_hidden_from_one_schedule_found_by_many(self):
        """A single benign schedule can pass the racy program; seeded
        random-walk exploration (paper's future-work item) still finds
        it."""
        from repro.simulation.backend import SimulationBackend, use_backend
        from repro.simulation.scheduler import SerializedPolicy

        # Serialized schedule: the race cannot manifest (no overlap) --
        # though the serialization itself is flagged instead.
        with use_backend(SimulationBackend(policy=SerializedPolicy())):
            result = PrimesFunctionality("primes.racy").run()
        post_join_ok = all(
            o.aspect != "post-join semantics" for o in result.failed_aspects()
        )
        assert post_join_ok  # the race itself was invisible

        report = ScheduleExplorer(
            checker_runs(lambda: PrimesFunctionality("primes.racy")),
            schedules=6,
            strategy="random-walk",
        ).run()
        assert report.bug_found
