"""Schedule-search strategies: PCT, happens-before dedup, exhaustive.

Pins the behaviour the verdicts stand on:

* PCT campaigns are deterministic and their findings replay;
* dedup never executes a schedule whose happens-before key was already
  graded (and without it every candidate runs);
* the exhaustive census for the small synclab workloads is *exact* —
  ``8 of 26`` for the lost update, ``0 of 40`` for the guarded variant —
  and identical across runs, and so is the supervisor's dedup
  efficiency on its three default campaigns;
* a simulation the oracle cannot follow (nested locks) is a
  misprediction that fails open, not a crash;
* ``failure_rate`` divides by executed schedules, not enumerated ones;
* the supervisor, gradebook, HTML report, CSV export, and CLI all carry
  the ``N of M interleavings fail`` verdict through unchanged;
* a controlled run is judged once, by ``failure_reasons``, and never on
  the thread-interleaving aspect, so a correct program is not racy;
* a cold-subprocess, pooled or sharded sweep explores exactly what an
  in-process one does.
"""

from __future__ import annotations

import pytest

from repro.cli import build_parser
from repro.cli import main as cli_main
from repro.execution.equivalence import happens_before_key
from repro.execution.exploration import (
    STRATEGY_CHOICES,
    ExhaustiveSearch,
    ExplorationReport,
    ScheduleExplorer,
    checker_runs,
    failure_reasons,
)
from repro.execution.runner import in_process_session_lock
from repro.execution.scheduling import RandomWalkStrategy, ScheduledBackend
from repro.execution.supervisor import GradingSupervisor
from repro.execution.worker_pool import WorkerPool
from repro.grading.export import gradebook_csv
from repro.grading.html_report import gradebook_html
from repro.grading.records import SubmissionRecord
from repro.graders.suites import (
    build_named_suite,
    build_primes_suite,
    build_synclab_suite,
)
from repro.simulation.backend import use_backend
from repro.graders.synclab import (
    SyncLabCounterFunctionality,
    SyncLabStragglerFunctionality,
)
from repro.testfw.result import AspectOutcome, AspectStatus, SuiteResult, TestResult


def lost_update_factory():
    return lambda: SyncLabCounterFunctionality(
        "synclab.lost_update", workers=2, rounds=1
    )

def guarded_factory():
    return lambda: SyncLabCounterFunctionality(
        "synclab.guarded", workers=2, rounds=1
    )

def straggler_factory():
    """PCT's designed target: a depth-1 ordering bug (``--depth 1``)."""
    return lambda: SyncLabStragglerFunctionality("synclab.straggler")


def key_logging(factory, executed_keys):
    """Run callback that records the happens-before key of every
    *executed* run — the dedup guarantee is exactly "this list has no
    repeats"."""
    run_schedule = checker_runs(factory)

    def run(strategy):
        failed, trace, result = run_schedule(strategy)
        executed_keys.append(happens_before_key(trace))
        return failed, trace, result

    return run


# ----------------------------------------------------------------------
# PCT
# ----------------------------------------------------------------------
class TestPCTExploration:
    """PCT at depth 1 on the straggler: 3 of seeds 0-9 fail, the first
    at ``pct:1.d1`` (the ablation's setting)."""

    def campaign(self):
        return ScheduleExplorer(
            checker_runs(straggler_factory()),
            schedules=10,
            first_seed=0,
            strategy="pct",
            depth=1,
        )

    def test_finds_the_racy_bug_and_is_deterministic(self):
        report_a, report_b = self.campaign().run(), self.campaign().run()
        assert report_a.bug_found
        assert report_a.depth == 1
        assert report_a.findings[0].strategy_label == "pct:1.d1"
        assert [f.strategy_label for f in report_a.findings] == [
            f.strategy_label for f in report_b.findings
        ]
        assert report_a.first_failing_seed == report_b.first_failing_seed

    def test_pct_finding_replays_decision_for_decision(self):
        explorer = self.campaign()
        report = explorer.run()
        trace = report.first_failing_trace()
        assert trace is not None
        failed, replayed, result = explorer.replay(trace)
        assert replayed.divergence == ""
        assert failed and result.score < result.max_score
        assert [d.to_dict() for d in replayed.decisions] == [
            d.to_dict() for d in trace.decisions
        ]


# ----------------------------------------------------------------------
# Happens-before dedup
# ----------------------------------------------------------------------
class TestDedup:
    def test_never_reexecutes_a_seen_key(self):
        executed_keys = []
        report = ScheduleExplorer(
            key_logging(lost_update_factory(), executed_keys),
            schedules=20,
            first_seed=0,
        ).run()
        assert report.mispredicted == 0
        assert report.deduped > 0
        assert report.executed + report.deduped == report.schedules_tried
        assert len(set(executed_keys)) == len(executed_keys)
        assert report.distinct == len(executed_keys)

    def test_dedup_off_executes_every_candidate(self):
        report = ScheduleExplorer(
            checker_runs(lost_update_factory()),
            schedules=20,
            first_seed=0,
            dedup=False,
        ).run()
        assert report.executed == report.schedules_tried == 20
        assert report.deduped == 0

    def test_dedup_preserves_the_verdict(self):
        on = ScheduleExplorer(
            checker_runs(lost_update_factory()), schedules=20
        ).run()
        off = ScheduleExplorer(
            checker_runs(lost_update_factory()), schedules=20, dedup=False
        ).run()
        assert on.bug_found == off.bug_found
        # Same seeds, same schedules — the first failing seed agrees.
        assert on.first_failing_seed == off.first_failing_seed


# ----------------------------------------------------------------------
# Exhaustive enumeration: exact, stable censuses
# ----------------------------------------------------------------------
class TestExhaustive:
    def run_exhaustive(self, factory, **kwargs):
        kwargs.setdefault("depth", 2)
        kwargs.setdefault("max_schedules", 256)
        return ScheduleExplorer(
            checker_runs(factory), strategy="exhaustive", **kwargs
        ).run()

    def test_lost_update_census_is_exactly_8_of_26(self):
        report = self.run_exhaustive(lost_update_factory())
        assert report.enumerated == 26
        assert report.failing_interleavings == 8
        assert report.complete is True
        assert "racy: 8 of 26 distinct interleavings fail" in report.summary()

    def test_census_is_identical_across_runs(self):
        first = self.run_exhaustive(lost_update_factory())
        second = self.run_exhaustive(lost_update_factory())
        assert (first.enumerated, first.failing_interleavings, first.complete) == (
            second.enumerated,
            second.failing_interleavings,
            second.complete,
        )

    def test_guarded_census_is_0_of_40(self):
        report = self.run_exhaustive(guarded_factory())
        assert report.enumerated == 40
        assert report.failing_interleavings == 0
        assert report.complete is True
        assert not report.bug_found
        assert "schedule-independence within the bound" in report.summary()

    def test_dedup_shrinks_executions_but_not_the_census(self):
        on = self.run_exhaustive(lost_update_factory())
        off = self.run_exhaustive(lost_update_factory(), dedup=False)
        assert (on.executed, on.deduped) == (14, 12)
        assert (off.executed, off.deduped) == (26, 0)
        assert on.enumerated == off.enumerated == 26
        assert on.failing_interleavings == off.failing_interleavings == 8

    def test_budget_cap_marks_coverage_partial(self):
        report = self.run_exhaustive(lost_update_factory(), max_schedules=5)
        assert report.executed <= 5
        assert report.complete is False
        assert "budget-capped" in report.summary()
        assert "coverage partial" in (report.coverage_statement() or "")


# ----------------------------------------------------------------------
# failure_rate regression (previously divided by enumerated schedules)
# ----------------------------------------------------------------------
class TestFailureRate:
    def finding(self):
        from repro.execution.exploration import ExplorationFinding
        from repro.execution.scheduling import ScheduleTrace

        return ExplorationFinding(
            strategy_label="random-walk:0",
            seed=0,
            messages=["boom"],
            trace=ScheduleTrace(),
        )

    def test_denominator_is_executed_not_tried(self):
        report = ExplorationReport(
            schedules_tried=10,
            strategy="random-walk",
            first_seed=0,
            findings=[self.finding()],
            executed=5,
            deduped=5,
        )
        assert report.failure_rate == pytest.approx(0.2)

    def test_legacy_reports_fall_back_to_tried(self):
        report = ExplorationReport(
            schedules_tried=10,
            strategy="random-walk",
            first_seed=0,
            findings=[self.finding()],
        )
        assert report.failure_rate == pytest.approx(0.1)

    def test_empty_campaign_is_zero(self):
        report = ExplorationReport(
            schedules_tried=0, strategy="random-walk", first_seed=0
        )
        assert report.failure_rate == 0.0


# ----------------------------------------------------------------------
# Supervisor + report surfaces carry the census through
# ----------------------------------------------------------------------
class TestSupervisorExhaustive:
    @pytest.fixture(scope="class")
    def report(self):
        supervisor = GradingSupervisor(
            build_synclab_suite,
            explore_schedules=64,
            explore_strategy="exhaustive",
            explore_depth=2,
        )
        return supervisor.grade(
            {"alice": "synclab.lost_update", "bob": "synclab.guarded"}
        )

    def test_record_carries_the_census(self, report):
        alice = report.gradebook.latest("alice")
        assert alice.racy
        assert alice.schedule_seed is None
        assert alice.schedule_strategy == "exhaustive"
        assert alice.interleavings_failing == 8
        assert alice.interleavings_total == 26
        assert alice.interleavings_complete is True
        assert alice.schedule_tag() == "8 of 26 interleavings fail"
        assert "exhaustive:8of26" in alice.attempt_outcomes

    def test_guarded_submission_is_clean(self, report):
        bob = report.gradebook.latest("bob")
        assert not bob.racy
        assert bob.interleavings_total is None
        assert bob.schedule_tag() == ""

    def test_census_survives_a_dict_round_trip(self, report):
        alice = report.gradebook.latest("alice")
        clone = SubmissionRecord.from_dict(alice.to_dict())
        assert clone.interleavings_failing == 8
        assert clone.interleavings_total == 26
        assert clone.interleavings_complete is True
        assert clone.schedule_tag() == alice.schedule_tag()

    def test_batch_summary_quotes_the_census(self, report):
        assert "alice (8 of 26 interleavings fail)" in report.summary()

    def test_gradebook_render_tags_the_racy_row(self, report):
        assert "[racy 8 of 26 interleavings fail]" in report.gradebook.render()

    def test_html_report_has_a_schedules_column(self, report):
        html = gradebook_html(report.gradebook)
        assert "<th>schedules</th>" in html
        assert "racy: 8 of 26 interleavings fail" in html

    def test_csv_export_has_the_census_columns(self, report):
        csv_text = gradebook_csv(report.gradebook)
        header, *rows = csv_text.splitlines()
        assert header.endswith(
            "interleavings_failing,interleavings_total,"
            "concurrency_verdict,race_count,race_pairs"
        )
        alice_row = next(r for r in rows if r.startswith("alice,"))
        # Race detection was off for this batch: the census columns are
        # populated, the race columns are empty.
        assert alice_row.endswith(",8,26,,,")

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError):
            GradingSupervisor(build_synclab_suite, explore_strategy="chaos")


#: The supervisor's default exhaustive campaigns, as (enumerated,
#: executed, deduped, mispredicted, complete).
PINNED_CAMPAIGNS = {
    "lost_update": (26, 14, 12, 0, True),
    "guarded": (40, 24, 16, 0, True),
    "straggler": (44, 40, 4, 0, False),
}


def default_campaigns(suite_factory, monkeypatch):
    """Grade the three synclab programs with ``--explore 40
    --explore-strategy exhaustive --explore-depth 2 --race-detect`` and
    tally each campaign as :data:`PINNED_CAMPAIGNS` does."""
    searches = []
    run = ExhaustiveSearch.run

    def recording_run(self):
        out = run(self)
        searches.append(out)
        return out

    monkeypatch.setattr(ExhaustiveSearch, "run", recording_run)
    supervisor = GradingSupervisor(
        suite_factory,
        jobs=1,
        explore_schedules=40,
        explore_strategy="exhaustive",
        explore_depth=2,
        race_detect=True,
    )
    campaigns = {}
    for program in PINNED_CAMPAIGNS:
        supervisor.grade({program: f"synclab.{program}"})
        out = searches[-1]
        campaigns[program] = (
            out.enumerated,
            out.executed,
            out.deduped,
            out.mispredicted,
            out.complete,
        )
    return campaigns


class TestSupervisorDedupEfficiency:
    """The supervisor's default exhaustive campaigns, pinned: a change
    that keeps the censuses but loses dedup fails here."""

    def test_default_campaigns_are_pinned(self, monkeypatch):
        assert (
            default_campaigns(build_synclab_suite, monkeypatch)
            == PINNED_CAMPAIGNS
        )


#: Reads the counter unguarded, then writes it under two nested locks:
#: a lost update the oracle's one-lock simulation cannot follow.
NESTED_LOCKS = """\
from repro.simulation.backend import current_backend
from repro.tracing import print_property
from repro.workloads.common import fork_and_join
from repro.workloads.synclab.spec import COUNTER


def main(args):
    backend = current_backend()
    cell = {"value": 0}
    outer, inner = backend.lock(), backend.lock()

    def worker(index):
        def body():
            print(f"synclab worker {index} up")
            snapshot = cell["value"]
            backend.checkpoint()
            with outer:
                with inner:
                    cell["value"] = snapshot + 1
                    backend.checkpoint()

        return body

    fork_and_join([worker(i) for i in range(2)], backend=backend)
    print_property(COUNTER, cell["value"])
"""


class TestDivergingSimulation:
    """The conflated-lock simulation diverges on nested locks; the
    search must count a misprediction and execute, not crash."""

    @pytest.fixture
    def nested(self, tmp_path):
        path = tmp_path / "nested_locks.py"
        path.write_text(NESTED_LOCKS)
        return str(path)

    def explore(self, path, dedup):
        return ScheduleExplorer(
            checker_runs(
                lambda: SyncLabCounterFunctionality(path, workers=2, rounds=1)
            ),
            strategy="exhaustive",
            depth=2,
            max_schedules=256,
            dedup=dedup,
        ).run()

    def test_dedup_fails_open_with_the_same_census(self, nested):
        on = self.explore(nested, dedup=True)
        off = self.explore(nested, dedup=False)
        # The first prediction diverges; the oracle is not consulted
        # again, so every interleaving executes.
        assert on.mispredicted == 1
        assert (on.executed, on.deduped) == (off.executed, 0)
        assert on.complete is off.complete is True
        assert (on.enumerated, on.failing_interleavings) == (
            off.enumerated,
            off.failing_interleavings,
        )
        assert on.failing_interleavings > 0

    def test_supervisor_grade_is_not_an_infra_error(self, nested):
        report = GradingSupervisor(
            build_synclab_suite,
            jobs=1,
            explore_schedules=256,
            explore_strategy="exhaustive",
            explore_depth=2,
            race_detect=True,
        ).grade({"nested": nested})
        record = report.gradebook.latest("nested")
        assert record.failure_kind != "infra-error"
        assert record.racy
        assert record.interleavings_complete is True
        assert 0 < record.interleavings_failing < record.interleavings_total

    def test_cli_reports_the_census(self, nested, capsys):
        status = cli_main(
            ["explore", nested, "--problem", "synclab",
             "--strategy", "exhaustive", "--depth", "2"]
        )
        out = capsys.readouterr().out
        assert status == 1  # a failing interleaving was found
        assert "distinct interleavings fail" in out


class TestCensusEntryIsNotAVote:
    def test_exonerated_census_is_not_flaky(self):
        record = SubmissionRecord.from_suite_result(
            "s",
            SuiteResult("synclab", [TestResult("T", 10.0, 10.0)]),
            attempt_outcomes=["pass", "exhaustive:0of40"],
        )
        assert not record.flaky
        record.attempt_outcomes = ["fail(50%)", "exhaustive:0of40"]
        assert not record.flaky
        record.attempt_outcomes = ["fail(50%)", "pass", "exhaustive:0of40"]
        assert record.flaky


class TestSeededTagStillWorks:
    def test_schedule_tag_prefers_census_over_seed(self):
        record = SubmissionRecord.from_suite_result(
            "s",
            SuiteResult("synclab", [TestResult("T", 0.0, 10.0)]),
            schedule_seed=3,
        )
        assert record.schedule_tag() == "@seed 3"
        record.interleavings_failing = 2
        record.interleavings_total = 9
        assert record.schedule_tag() == "2 of 9+ interleavings fail"
        record.interleavings_complete = True
        assert record.schedule_tag() == "2 of 9 interleavings fail"


# ----------------------------------------------------------------------
# CLI vocabulary stays in lockstep with the strategy registry
# ----------------------------------------------------------------------
class TestCliStrategyChoices:
    def _action(self, command, flag):
        parser = build_parser()
        subparsers = next(
            a for a in parser._actions if hasattr(a, "choices") and a.choices
        )
        sub = subparsers.choices[command]
        return next(a for a in sub._actions if flag in a.option_strings)

    def test_explore_strategy_choices_match_registry(self):
        action = self._action("explore", "--strategy")
        assert tuple(action.choices) == STRATEGY_CHOICES

    def test_grade_exploration_strategies_are_a_registry_subset(self):
        action = self._action("grade", "--explore-strategy")
        choices = tuple(action.choices)
        assert choices == ("random-walk", "pct", "exhaustive")
        assert set(choices) <= set(STRATEGY_CHOICES)


# ----------------------------------------------------------------------
# One judgment for a controlled run, blind to the interleaving aspect
# ----------------------------------------------------------------------
def aspect(name, earned, possible, message=""):
    status = AspectStatus.PASSED if earned >= possible else AspectStatus.FAILED
    return AspectOutcome(name, status, message, earned, possible)


class TestFailureReasons:
    def test_losing_only_the_interleaving_aspect_passes(self):
        # Scores are rounded to 6 places, the lost points are not.
        result = TestResult(
            "T",
            round(40.0 - 40.0 / 15.0, 6),
            40.0,
            outcomes=[
                aspect("fork syntax", 40.0 / 15.0 * 4.0, 40.0 / 15.0 * 4.0),
                aspect("thread interleaving", 0.0, 40.0 / 15.0, "not interleaved"),
            ],
            failure_kind="ok",
        )
        assert failure_reasons([result]) == []

    def test_any_other_lost_aspect_fails_with_its_message(self):
        result = TestResult(
            "T",
            6.0,
            10.0,
            outcomes=[
                aspect("thread interleaving", 0.0, 2.0, "not interleaved"),
                aspect("post-join semantics", 0.0, 2.0, "total 1 != 2"),
            ],
            failure_kind="ok",
        )
        assert failure_reasons([result]) == ["total 1 != 2"]

    def test_fatal_kind_and_unattributed_losses_fail(self):
        assert failure_reasons([TestResult("T", 0.0, 10.0, fatal="hung")]) == ["hung"]
        assert failure_reasons(
            [TestResult("T", 10.0, 10.0, failure_kind="garbled-trace")]
        ) == ["T: garbled-trace"]
        assert failure_reasons([TestResult("T", 5.0, 10.0)]) == ["T scored 5/10"]
        assert failure_reasons([TestResult("T", 10.0, 10.0)]) == []


class TestInterleavingNeverDecides:
    """The parent judged controlled runs on the interleaving aspect:
    these campaigns marked ``primes.correct`` racy (93.3%) and made
    ``explore`` exit 1 on correct programs."""

    def grade(self, **explore):
        supervisor = GradingSupervisor(
            build_primes_suite, race_detect=True, **explore
        )
        return supervisor.grade({"primes.correct": "primes.correct"})

    def assert_clean(self, batch):
        record = batch.gradebook.latest("primes.correct")
        assert record.percent == pytest.approx(100.0)
        assert record.failure_kind == "ok"
        assert not record.racy and not record.flaky
        assert record.concurrency_verdict == "correct"
        assert "racy" not in batch.gradebook.render()
        assert "schedule-dependent" not in batch.summary()
        return record

    def test_pct_race_sweep_keeps_the_free_running_grade(self):
        record = self.assert_clean(
            self.grade(explore_schedules=12, explore_strategy="pct")
        )
        assert record.schedule_seed is None

    def test_exhaustive_race_sweep_finds_no_failing_interleaving(self):
        record = self.assert_clean(
            self.grade(
                explore_schedules=40,
                explore_strategy="exhaustive",
                explore_depth=2,
            )
        )
        assert record.interleavings_failing == 0
        assert record.interleavings_total > 0

    def test_cli_grade_prints_full_marks_and_no_racy_tag(self, capsys):
        status = cli_main(
            ["grade", "primes", "--submissions", "primes.correct",
             "--explore", "12", "--explore-strategy", "pct", "--race-detect"]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "100.0%" in out
        assert "racy" not in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["primes.correct"],
            ["jacobi.correct", "--problem", "jacobi"],
        ],
        ids=["primes.correct", "jacobi.correct"],
    )
    def test_explore_exonerates_correct_programs(self, argv, capsys):
        status = cli_main(
            ["explore", *argv, "--strategy", "pct", "--schedules", "12"]
        )
        assert status == 0
        assert "no failing schedule in 12 explored" in capsys.readouterr().out

    def test_racy_primes_still_fails_at_seed_0(self):
        batch = GradingSupervisor(
            build_primes_suite, explore_schedules=20
        ).grade({"primes.racy": "primes.racy"})
        record = batch.gradebook.latest("primes.racy")
        assert record.percent == pytest.approx(93.3, abs=0.05)
        assert record.schedule_tag() == "@seed 0"


# ----------------------------------------------------------------------
# Exploration gives the same census in every regime
# ----------------------------------------------------------------------
#: The ``grade`` rows of the default synclab race sweep, after the name.
SWEEP_ROWS = {
    "synclab.lost_update": (
        "66.7%  [racy 8 of 26 interleavings fail]  [8 races: "
        "worker-0@1(checkpoint,unlocked) × worker-1@4(checkpoint,unlocked)]"
    ),
    "synclab.guarded": "100.0%",
    "synclab.straggler": (
        "100.0%  [racy-lucky 4 races: worker-2@14(checkpoint,unlocked) × "
        "worker-3@22(checkpoint,unlocked)]"
    ),
}


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(1) as warm:
        yield warm


class TestExplorationInEveryRegime:
    """The schedule travels to the child that runs the program and its
    decisions come back, so a pooled, cold-subprocess or sharded sweep
    explores what an in-process one does.  (Before, the child never saw
    the scheduler: every campaign recorded one empty schedule and graded
    ``synclab.straggler`` 100% race-free, 1 of 1 interleavings.)  With
    two jobs on two pool workers, one submission's exploring attempt
    runs beside another's plain attempt; neither may send or record
    the other's schedule."""

    @pytest.mark.parametrize(
        "flags",
        [
            [],
            ["--subprocess"],
            ["--pool-size", "1"],
            ["--shards", "2", "--pool-size", "1"],
            ["--jobs", "2", "--pool-size", "2"],
        ],
        ids=["in-process", "subprocess", "pool-size", "sharded-pool", "jobs-2-pool"],
    )
    def test_cli_rows_match(self, flags, capsys):
        status = cli_main(
            ["grade", "synclab", "--submissions", ",".join(SWEEP_ROWS),
             "--explore", "40", "--explore-strategy", "exhaustive",
             "--explore-depth", "2", "--race-detect", *flags]
        )
        out = capsys.readouterr().out
        assert status == 0
        rows = {
            line.split()[0]: line.split(None, 1)[1]
            for line in out.splitlines()
            if line.strip().startswith("synclab.")
        }
        assert rows == SWEEP_ROWS

    def test_pooled_campaign_counts_are_pinned(self, pool, monkeypatch):
        """The cold child ships its decisions over the same code path;
        its census is pinned by the ``subprocess`` row test above."""

        def factory(identifier):
            return build_named_suite(
                "synclab", identifier, subprocess_mode=True, pool=pool
            )

        assert default_campaigns(factory, monkeypatch) == PINNED_CAMPAIGNS

    def test_pooled_straggler_is_racy_lucky(self, pool):
        batch = GradingSupervisor(
            build_synclab_suite,
            pool=pool,
            explore_schedules=40,
            explore_strategy="exhaustive",
            explore_depth=2,
            race_detect=True,
        ).grade({"s": "synclab.straggler"})
        record = batch.gradebook.latest("s")
        assert record.concurrency_verdict == "racy-lucky"
        assert record.race_count == 4
        assert (record.interleavings_failing, record.interleavings_total) == (0, 44)
        assert record.interleavings_complete is False

    def test_hidden_runs_keep_the_recorded_schedule(self, pool):
        """A primes suite's 22 hidden performance runs share the ambient
        backend with its functionality run; they record no decision and
        must not erase the functionality run's."""

        def decisions(**mode):
            backend = ScheduledBackend(RandomWalkStrategy(3))
            suite = build_named_suite("primes", "primes.racy", **mode)
            with in_process_session_lock(), use_backend(backend):
                suite.run()
            return backend.schedule_trace().decisions

        in_process = decisions()
        assert in_process
        assert decisions(subprocess_mode=True, pool=pool) == in_process
