"""Lockset/happens-before race analysis and the three-way verdict.

The calibration bar is the acceptance criterion for the race subsystem:
``synclab.lost_update`` (unguarded counter) must produce racing pairs,
``synclab.guarded`` (same program under a lock) must be clean — and the
verdict threaded through the supervisor must distinguish *wrong*
(a failing schedule exists), *racy-lucky* (every explored schedule
passed but a race is present), and *correct*.
"""

from __future__ import annotations

import json

import pytest

from repro.core.credit import race_partial_credit
from repro.execution.exploration import ScheduleExplorer, checker_runs
from repro.execution.races import RaceReport, analyze_trace, merge_reports
from repro.execution.runner import ProgramRunner, in_process_session_lock
from repro.execution.scheduling import RandomWalkStrategy, ScheduledBackend
from repro.execution.supervisor import GradingSupervisor
from repro.execution.taxonomy import ConcurrencyVerdict, concurrency_verdict
from repro.grading.export import gradebook_csv
from repro.grading.html_report import gradebook_html
from repro.grading.records import SubmissionRecord
from repro.graders.suites import build_synclab_suite
from repro.graders.synclab import SyncLabCounterFunctionality
from repro.simulation.backend import use_backend

import repro.workloads  # noqa: F401 - registers the tested programs

LOST = "synclab.lost_update"
GUARDED = "synclab.guarded"


def controlled_trace(identifier, seed):
    backend = ScheduledBackend(RandomWalkStrategy(seed))
    with in_process_session_lock():
        with use_backend(backend):
            ProgramRunner(timeout=30.0).run(identifier, [])
    return backend.schedule_trace(identifier)


def lost_factory():
    return lambda: SyncLabCounterFunctionality(LOST, workers=2, rounds=1)


def guarded_factory():
    return lambda: SyncLabCounterFunctionality(GUARDED, workers=2, rounds=1)


# ----------------------------------------------------------------------
# analyze_trace calibration
# ----------------------------------------------------------------------
class TestAnalyzeTrace:
    def test_lost_update_has_racing_pairs(self):
        report = analyze_trace(controlled_trace(LOST, 0))
        assert report.has_races
        assert report.race_count == len(report.pairs) or report.truncated
        for pair in report.pairs:
            # A race needs two different workers with disjoint locksets;
            # the lost update holds no lock at all.
            assert pair.first.worker != pair.second.worker
            assert not (pair.first.lockset & pair.second.lockset)
        assert any("unlocked" in label for label in report.pair_labels())
        assert report.unguarded, "no unguarded access segments reported"

    @pytest.mark.parametrize("seed", range(4))
    def test_guarded_is_clean_across_seeds(self, seed):
        report = analyze_trace(controlled_trace(GUARDED, seed))
        assert not report.has_races
        assert report.pairs == []
        # The lock itself was exercised: contention is recorded even
        # when no race exists.
        assert any(c.acquisitions > 0 for c in report.contention)

    def test_report_serialization_round_trip(self):
        report = analyze_trace(controlled_trace(LOST, 0))
        clone = RaceReport.from_dict(json.loads(report.to_json()))
        assert clone.to_dict() == report.to_dict()
        assert clone.pair_labels() == report.pair_labels()

    def test_merge_dedups_by_signature(self):
        report = analyze_trace(controlled_trace(LOST, 0))
        merged = merge_reports([report, report])
        # Merging keys on the schedule-independent signature: the same
        # source-level race seen at different steps (or in a second
        # schedule) must not double-count.
        assert merged.race_count == len({p.signature() for p in report.pairs})
        assert merged.schedules_analyzed == 2

    def test_merge_of_nothing_is_clean(self):
        merged = merge_reports([])
        assert not merged.has_races
        assert "no races" in merged.summary()


# ----------------------------------------------------------------------
# The verdict fold and race-aware credit
# ----------------------------------------------------------------------
class TestVerdictAndCredit:
    def test_concurrency_verdict_fold(self):
        assert concurrency_verdict(passed=True, races=False) is ConcurrencyVerdict.CORRECT
        assert concurrency_verdict(passed=True, races=True) is ConcurrencyVerdict.RACY_LUCKY
        assert concurrency_verdict(passed=False, races=True) is ConcurrencyVerdict.WRONG
        assert concurrency_verdict(passed=False, races=False) is ConcurrencyVerdict.WRONG

    def test_racy_lucky_score_is_capped(self):
        score, note = race_partial_credit(
            10.0, 10.0, verdict="racy-lucky", race_count=4
        )
        assert score == 7.0
        assert "capped" in note and "70%" in note

    def test_race_only_wrong_answer_is_floored(self):
        score, note = race_partial_credit(
            0.0, 10.0, verdict="wrong", race_count=8, best_passing_score=10.0
        )
        assert score == 7.0
        assert "race-only bug" in note

    def test_correct_submission_is_untouched(self):
        score, note = race_partial_credit(10.0, 10.0, verdict="correct")
        assert score == 10.0 and note == ""

    def test_wrong_without_passing_attempt_keeps_its_score(self):
        # No schedule ever passed: there is no evidence the algorithm is
        # right, so no floor applies.
        score, note = race_partial_credit(
            2.0, 10.0, verdict="wrong", race_count=3
        )
        assert score == 2.0 and note == ""


# ----------------------------------------------------------------------
# Explorer integration (the --races path)
# ----------------------------------------------------------------------
class TestExplorerRaces:
    def test_lost_update_campaign_collects_race_evidence(self):
        report = ScheduleExplorer(
            checker_runs(lost_factory()), schedules=6, first_seed=0, races=True
        ).run()
        assert report.bug_found
        assert report.race_report is not None
        assert report.race_report.has_races
        assert report.concurrency_verdict is ConcurrencyVerdict.WRONG
        assert "racing pair" in report.summary()

    def test_guarded_campaign_is_exonerated_and_clean(self):
        report = ScheduleExplorer(
            checker_runs(guarded_factory()), schedules=4, first_seed=0, races=True
        ).run()
        assert not report.bug_found
        assert report.race_report is not None
        assert not report.race_report.has_races
        assert report.concurrency_verdict is ConcurrencyVerdict.CORRECT
        assert "no races" in report.summary()

    def test_without_races_flag_no_report_is_built(self):
        report = ScheduleExplorer(
            checker_runs(guarded_factory()), schedules=2, first_seed=0
        ).run()
        assert report.race_report is None
        assert report.concurrency_verdict is None


# ----------------------------------------------------------------------
# Supervisor: the verdict threaded through grading
# ----------------------------------------------------------------------
class TestSupervisorRaceVerdicts:
    @pytest.fixture(scope="class")
    def report(self):
        supervisor = GradingSupervisor(
            build_synclab_suite,
            explore_schedules=6,
            race_detect=True,
            race_credit=True,
        )
        return supervisor.grade({"alice": LOST, "bob": GUARDED})

    def test_failing_schedule_grades_wrong_with_race_evidence(self, report):
        alice = report.gradebook.latest("alice")
        assert alice.concurrency_verdict == "wrong"
        assert alice.race_count > 0
        assert alice.race_pairs
        assert alice.racy

    def test_race_only_bug_gets_partial_credit(self, report):
        alice = report.gradebook.latest("alice")
        assert alice.score == pytest.approx(0.7 * alice.max_score)
        assert "race-only bug" in alice.race_note

    def test_guarded_is_correct_and_not_flaky(self, report):
        bob = report.gradebook.latest("bob")
        assert bob.concurrency_verdict == "correct"
        assert bob.race_count == 0
        assert bob.score == bob.max_score
        # The race sweep reruns a passing submission under controlled
        # schedules; the @s<seed> attempt labels must not read as
        # rerun-vote disagreement.
        assert not bob.flaky

    def test_guarded_record_carries_lock_contention(self, report):
        # The guarded submission actually takes its lock, so its record
        # surfaces the per-lock traffic the analysis counted.
        bob = report.gradebook.latest("bob")
        assert bob.race_contention
        stat = bob.race_contention[0]
        assert stat["acquisitions"] > 0
        assert set(stat) >= {"lock", "acquisitions", "blocks", "try_failures"}

    def test_race_fields_survive_a_dict_round_trip(self, report):
        alice = report.gradebook.latest("alice")
        clone = SubmissionRecord.from_dict(alice.to_dict())
        assert clone.concurrency_verdict == alice.concurrency_verdict
        assert clone.race_count == alice.race_count
        assert clone.race_pairs == alice.race_pairs
        assert clone.race_note == alice.race_note

    def test_report_surfaces_name_the_racing_pair(self, report):
        alice = report.gradebook.latest("alice")
        pair = alice.race_pairs[0]
        assert pair in report.summary()
        assert pair in report.gradebook.render()
        html = gradebook_html(report.gradebook)
        assert "<th>races</th>" in html
        assert pair.replace("×", "&#215;") in html or pair in html
        csv_text = gradebook_csv(report.gradebook)
        alice_row = next(
            r for r in csv_text.splitlines() if r.startswith("alice,")
        )
        assert "wrong" in alice_row

    def test_race_credit_implies_race_detect(self):
        supervisor = GradingSupervisor(build_synclab_suite, race_credit=True)
        assert supervisor.race_detect

    def test_racy_lucky_when_every_schedule_passes(self):
        # One explored schedule, seed 0: the lost update passes it, but
        # the race analysis still sees the unguarded counter.
        supervisor = GradingSupervisor(
            build_synclab_suite,
            explore_schedules=1,
            explore_seed=0,
            race_detect=True,
            race_credit=True,
        )
        batch = supervisor.grade({"carol": LOST})
        carol = batch.gradebook.latest("carol")
        assert carol.concurrency_verdict == "racy-lucky"
        assert carol.racy_lucky
        assert carol.race_count > 0
        assert carol.score == pytest.approx(0.7 * carol.max_score)
        assert "capped" in carol.race_note
        assert "racy-lucky" in batch.summary()
        assert "[racy-lucky" in batch.gradebook.render()
