"""Tests of the sharded grading service: shards, journals, crash drills.

The service's whole contract is *indistinguishability*: a batch disturbed
by worker kills, heartbeat stalls, torn journal writes, or a coordinator
drain must merge to the same gradebook (modulo timestamps) as an
undisturbed run.  These tests drive real worker processes through the
scripted fault programs of :mod:`repro.execution.faults` and check
exactly that, plus the deterministic plumbing underneath (stable shard
assignment, durable-first journal merge, quarantine of shard-killers).
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import threading
import warnings

import pytest

from repro.execution.faults import (
    SHARD_FAULT_SCENARIOS,
    ShardFaultProgram,
)
from repro.grading import (
    Gradebook,
    GradingJournal,
    GradingService,
    JournalEntry,
    SubmissionRecord,
    TestRecord,
    merge_shard_journals,
    plan_shards,
    shard_of,
)
from repro.obs import ObsRegistry, use_registry


def _worker_env() -> dict:
    """Subprocess env that can import ``repro`` like this process does."""
    import os
    from pathlib import Path

    import repro

    env = dict(os.environ)
    root = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def normalized(book: Gradebook) -> str:
    """Canonical gradebook contents with timing fields zeroed."""
    payload = {}
    for student in book.students():
        history = []
        for record in book.submissions_of(student):
            data = record.to_dict()
            data["timestamp"] = 0.0
            data["elapsed"] = 0.0
            history.append(data)
        payload[student] = history
    return json.dumps(payload, sort_keys=True)


def hello_class(size: int) -> dict:
    return {f"student-{i:03d}": "hello.correct" for i in range(size)}


def entry(student: str, *, suite: str = "hello", marker: str = "") -> JournalEntry:
    """A minimal journal entry; *marker* distinguishes duplicates."""
    return JournalEntry(
        student=student,
        identifier=f"{student}.py",
        record=SubmissionRecord(
            student=student,
            suite=suite,
            timestamp=1.0,
            tests=[TestRecord(test_name=marker or "T", score=1.0, max_score=1.0)],
        ),
    )


# ----------------------------------------------------------------------
# Shard assignment
# ----------------------------------------------------------------------
class TestSharding:
    def test_assignment_is_stable_and_order_independent(self):
        students = [f"s{i}" for i in range(50)]
        forward = {s: shard_of(s, 4) for s in students}
        backward = {s: shard_of(s, 4) for s in reversed(students)}
        assert forward == backward
        assert all(0 <= shard < 4 for shard in forward.values())

    def test_assignment_does_not_depend_on_hash_randomization(self):
        # sha256, not hash(): the same roster maps identically in every
        # interpreter, which is what makes journals resumable across
        # coordinator restarts.
        code = (
            "from repro.grading import shard_of;"
            "print([shard_of(f's{i}', 5) for i in range(20)])"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env=_worker_env(),
        ).stdout.strip()
        assert out == str([shard_of(f"s{i}", 5) for i in range(20)])

    def test_plan_preserves_batch_order_within_shards(self):
        submissions = {f"s{i}": f"id{i}" for i in range(30)}
        plan = plan_shards(submissions, 3)
        assert sum(len(p) for p in plan) == 30
        order = list(submissions)
        for assigned in plan:
            positions = [order.index(student) for student, _ in assigned]
            assert positions == sorted(positions)

    def test_plan_is_reasonably_balanced(self):
        plan = plan_shards({f"student-{i}": "x" for i in range(400)}, 4)
        sizes = [len(p) for p in plan]
        assert min(sizes) > 0
        assert max(sizes) < 2 * (400 // 4)

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError):
            shard_of("alice", 0)


# ----------------------------------------------------------------------
# Journal merge
# ----------------------------------------------------------------------
class TestMerge:
    def test_merge_is_durable_first_within_one_journal(self, tmp_path):
        # A submission graded both before and after a respawn appears
        # twice in one journal; the first (durable-before-the-crash)
        # record wins.
        journal = GradingJournal(tmp_path / "shard-00.jsonl")
        journal.append(entry("alice", marker="first"))
        journal.append(entry("alice", marker="second"))
        book, stats = merge_shard_journals([journal.path], suite="hello")
        assert stats.records == 2
        assert stats.duplicates_dropped == 1
        assert book.latest("alice").tests[0].test_name == "first"

    def test_merge_is_durable_first_across_journals(self, tmp_path):
        a = GradingJournal(tmp_path / "shard-00.jsonl")
        b = GradingJournal(tmp_path / "shard-01.jsonl")
        a.append(entry("alice", marker="shard0"))
        b.append(entry("alice", marker="shard1"))
        b.append(entry("bob", marker="shard1"))
        book, stats = merge_shard_journals([a.path, b.path], suite="hello")
        assert stats.duplicates_dropped == 1
        assert book.latest("alice").tests[0].test_name == "shard0"
        assert book.latest("bob").tests[0].test_name == "shard1"

    def test_merge_output_is_deterministic_in_given_order(self, tmp_path):
        journal = GradingJournal(tmp_path / "shard-00.jsonl")
        for student in ("carol", "alice", "bob"):
            journal.append(entry(student))
        order = ["bob", "alice", "carol", "absent"]
        book, _ = merge_shard_journals(
            [journal.path], suite="hello", order=order
        )
        assert book.students() == ["alice", "bob", "carol"]
        first = normalized(book)
        again, _ = merge_shard_journals(
            [journal.path], suite="hello", order=order
        )
        assert normalized(again) == first

    def test_merge_tolerates_missing_and_torn_journals(self, tmp_path):
        whole = GradingJournal(tmp_path / "shard-00.jsonl")
        whole.append(entry("alice"))
        torn = tmp_path / "shard-01.jsonl"
        torn.write_text('{"student": "bob", "rec')
        with pytest.warns(Warning):
            book, stats = merge_shard_journals(
                [whole.path, torn, tmp_path / "shard-02.jsonl"],
                suite="hello",
            )
        assert book.students() == ["alice"]
        assert stats.journals == 1


# ----------------------------------------------------------------------
# End-to-end service runs (real worker processes)
# ----------------------------------------------------------------------
class TestServiceEndToEnd:
    def grade(self, submissions, tmp_path, **kwargs):
        kwargs.setdefault("shards", 2)
        kwargs.setdefault("heartbeat_interval", 0.2)
        kwargs.setdefault("heartbeat_timeout", 3.0)
        service = GradingService("hello", workdir=tmp_path / "wd", **kwargs)
        return service.grade(dict(submissions))

    def test_sharded_run_matches_in_process_run(self, tmp_path):
        from repro.execution.supervisor import GradingSupervisor
        from repro.graders import build_named_suite

        submissions = hello_class(8)
        inproc = GradingSupervisor(
            lambda ident: build_named_suite("hello", ident)
        ).grade(dict(submissions))
        report = self.grade(submissions, tmp_path)
        assert normalized(report.gradebook) == normalized(inproc.gradebook)
        assert not report.drained
        assert sum(len(s.graded) for s in report.shards) == 8

    def test_resume_skips_durable_grades(self, tmp_path):
        submissions = hello_class(6)
        workdir = tmp_path / "wd"
        first = GradingService(
            "hello", workdir=workdir, shards=2
        ).grade(dict(submissions))
        again = GradingService(
            "hello", workdir=workdir, shards=2
        ).grade(dict(submissions))
        assert sorted(again.resumed) == sorted(submissions)
        assert normalized(again.gradebook) == normalized(first.gradebook)

    @pytest.mark.parametrize(
        "scenario", SHARD_FAULT_SCENARIOS, ids=lambda s: s.name
    )
    def test_fault_scenarios_recover_to_undisturbed_gradebook(
        self, tmp_path, scenario
    ):
        # The acceptance drill: kill -9 mid-batch, a wedged worker gone
        # silent, a write torn between record and fsync — each must end
        # in a gradebook identical (modulo timestamps) to a calm run.
        submissions = hello_class(8)
        calm = self.grade(submissions, tmp_path / "calm")
        warnings.simplefilter("ignore")
        registry = ObsRegistry(enabled=True)
        with use_registry(registry):
            disturbed = self.grade(
                submissions,
                tmp_path / "disturbed",
                faults={0: scenario.fault},
            )
        assert normalized(disturbed.gradebook) == normalized(calm.gradebook)
        assert sum(s.respawns for s in disturbed.shards) >= 1
        assert registry.counter("service.shards_respawned").value >= 1
        if scenario.fault.kind == "heartbeat-stall":
            assert registry.counter("service.heartbeat_timeouts").value >= 1

    def test_repeated_shard_killer_is_quarantined(self, tmp_path):
        # faults.killer SIGKILLs its own worker from inside the graded
        # run; after quarantine_after deaths the coordinator writes a
        # durable crash record and the rest of the shard still grades.
        submissions = dict(hello_class(4))
        submissions["mallory"] = "faults.killer"
        registry = ObsRegistry(enabled=True)
        with use_registry(registry):
            report = self.grade(
                submissions, tmp_path, shards=1, quarantine_after=2
            )
        assert report.quarantined == ["mallory"]
        record = report.gradebook.latest("mallory")
        assert record.failure_kind == "crash"
        assert "quarantined" in record.tests[0].fatal
        for student in hello_class(4):
            assert report.gradebook.latest(student).percent == 100.0
        assert registry.counter("service.submissions_quarantined").value == 1
        # The quarantine is durable: a resume does not retry the killer.
        again = self.grade(submissions, tmp_path, shards=1)
        assert sorted(again.resumed) == sorted(submissions)

    def test_drain_interrupts_resumably(self, tmp_path):
        submissions = {f"s{i:03d}": "primes.correct" for i in range(200)}
        workdir = tmp_path / "wd"
        service = GradingService(
            "primes", workdir=workdir, shards=2, heartbeat_timeout=10.0
        )
        timer = threading.Timer(1.0, service.drain)
        timer.start()
        try:
            report = service.grade(dict(submissions))
        finally:
            timer.cancel()
        if not report.drained:
            pytest.skip("batch finished before the drain fired")
        graded = set(report.gradebook.students())
        assert graded.isdisjoint(report.interrupted)
        assert graded | set(report.interrupted) == set(submissions)
        # Resume completes the batch; nothing durable is regraded.
        resumed = GradingService(
            "primes", workdir=workdir, shards=2
        ).grade(dict(submissions))
        assert not resumed.drained
        assert set(resumed.gradebook.students()) == set(submissions)
        assert set(resumed.resumed) == graded

    def test_worker_sigterm_drains_and_journals_in_flight_work(self, tmp_path):
        # Drive one worker process directly: SIGTERM mid-batch must let
        # the in-flight submission finish and journal, then exit 0 with
        # a drained event naming the remainder.
        from repro.grading.service import shard_journal_path
        from repro.grading.shard_worker import EVENT_PREFIX

        journal = shard_journal_path(tmp_path, 0)
        manifest = tmp_path / "shard-00.manifest.json"
        manifest.write_text(
            json.dumps(
                {
                    "shard": 0,
                    "suite": "primes",
                    "submissions": [
                        [f"s{i}", "primes.correct"] for i in range(100)
                    ],
                    "journal": str(journal),
                    "supervisor": {"jobs": 1},
                    "heartbeat_interval": 0.2,
                    "fault": None,
                }
            )
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.grading.shard_worker", str(manifest)],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=_worker_env(),
        )
        # Signal once the first submission is journaled, so the batch
        # is mid-flight however fast the worker grades.
        lines = []
        first_graded = threading.Event()

        def read_events() -> None:
            for line in proc.stdout:
                lines.append(line)
                if line.startswith(EVENT_PREFIX) and (
                    json.loads(line[len(EVENT_PREFIX):])["event"] == "graded"
                ):
                    first_graded.set()
            first_graded.set()

        reader = threading.Thread(target=read_events, daemon=True)
        reader.start()
        assert first_graded.wait(60)
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=60)
        reader.join(60)
        assert proc.returncode == 0
        events = [
            json.loads(line[len(EVENT_PREFIX):])
            for line in lines
            if line.startswith(EVENT_PREFIX)
        ]
        kinds = [event["event"] for event in events]
        assert "hello" in kinds
        assert "drained" in kinds
        drained = events[kinds.index("drained")]
        durable = set(GradingJournal(journal).completed())
        assert durable, "in-flight work was journaled before exit"
        assert set(drained["remaining"]).isdisjoint(durable)
        assert set(drained["remaining"]) | durable == {
            f"s{i}" for i in range(100)
        }


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------
class TestCli:
    def test_grade_shards_flag_runs_the_service(self, tmp_path, capsys):
        from repro.cli import main

        workdir = tmp_path / "wd"
        out = tmp_path / "book.json"
        code = main(
            [
                "grade",
                "hello",
                "--submissions",
                "hello.correct",
                "--shards",
                "2",
                "--resume",
                str(workdir),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "sharded batch" in printed
        assert Gradebook.load(out).students() == ["hello.correct"]
        assert workdir.exists()

    def test_grade_shards_drain_exits_130_with_resume_hint(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.cli as cli

        class DrainedService:
            def __init__(self, *args, **kwargs):
                self.workdir = kwargs["workdir"]

            def grade(self, submissions):
                from repro.grading.service import MergeStats, ServiceReport

                return ServiceReport(
                    gradebook=Gradebook("hello"),
                    shards=[],
                    merge=MergeStats(),
                    interrupted=list(submissions),
                )

            def merged_dump(self):
                from repro.obs.merge import merge_dumps

                return merge_dumps([])

        import repro.grading

        monkeypatch.setattr(repro.grading, "GradingService", DrainedService)
        code = cli.main(
            [
                "grade",
                "hello",
                "--submissions",
                "hello.correct",
                "--shards",
                "2",
                "--resume",
                str(tmp_path / "wd"),
            ]
        )
        assert code == 130
        assert "rerun with --resume" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Fault program plumbing
# ----------------------------------------------------------------------
class TestShardFaultProgram:
    def test_round_trips_through_manifest_json(self):
        fault = ShardFaultProgram(kind="kill-at-index", index=3, shard=1)
        assert ShardFaultProgram.from_dict(fault.to_dict()) == fault
        assert ShardFaultProgram.from_dict(None).is_none

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ShardFaultProgram(kind="set-fire-to-the-rack")

    def test_scenarios_cover_every_fault_kind(self):
        kinds = {scenario.fault.kind for scenario in SHARD_FAULT_SCENARIOS}
        assert kinds == {"kill-at-index", "heartbeat-stall", "torn-journal-write"}
