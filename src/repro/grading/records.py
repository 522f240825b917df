"""Plain-data records shared by the grading and awareness layers.

These are the serializable shadows of live results: what gets written to
gradebooks and progress logs, and what the awareness analysis reads back.
Keeping them as dicts-of-primitives (via ``to_dict``/``from_dict``) keeps
the JSON round-trip trivial and the analysis decoupled from the live
checker objects.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.testfw.result import AspectStatus, SuiteResult, TestResult

__all__ = ["AspectRecord", "TestRecord", "SubmissionRecord"]


@dataclass
class AspectRecord:
    """Serialized shadow of one graded aspect outcome."""

    aspect: str
    status: str
    message: str
    points_earned: float
    points_possible: float

    def to_dict(self) -> Dict[str, Any]:
        """Primitive-dict form for JSON serialization."""
        return {
            "aspect": self.aspect,
            "status": self.status,
            "message": self.message,
            "points_earned": self.points_earned,
            "points_possible": self.points_possible,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "AspectRecord":
        """Rebuild from :meth:`to_dict` output (tolerant of omissions)."""
        return cls(
            aspect=data["aspect"],
            status=data["status"],
            message=data.get("message", ""),
            points_earned=float(data.get("points_earned", 0.0)),
            points_possible=float(data.get("points_possible", 0.0)),
        )

    @property
    def failed(self) -> bool:
        """True when this aspect was checked and failed."""
        return self.status == AspectStatus.FAILED.value

    @property
    def passed(self) -> bool:
        """True when this aspect was checked and passed."""
        return self.status == AspectStatus.PASSED.value


@dataclass
class TestRecord:
    """Serialized shadow of one test program's result."""

    test_name: str
    score: float
    max_score: float
    fatal: str = ""
    aspects: List[AspectRecord] = field(default_factory=list)
    #: Failure-taxonomy kind of the underlying execution (empty when the
    #: result predates the taxonomy or never ran a program).
    failure_kind: str = ""
    #: Label of the controlled schedule the graded run followed (empty
    #: for a run on free threads); rerunning it reproduces the grade.
    schedule: str = ""

    @classmethod
    def from_result(cls, result: TestResult) -> "TestRecord":
        """Snapshot a live :class:`TestResult` into plain data."""
        return cls(
            test_name=result.test_name,
            score=result.score,
            max_score=result.max_score,
            fatal=result.fatal,
            failure_kind=result.failure_kind,
            schedule=result.schedule,
            aspects=[
                AspectRecord(
                    aspect=o.aspect,
                    status=o.status.value,
                    message=o.message,
                    points_earned=o.points_earned,
                    points_possible=o.points_possible,
                )
                for o in result.outcomes
            ],
        )

    def to_dict(self) -> Dict[str, Any]:
        """Primitive-dict form for JSON serialization; ``schedule`` only
        when the run followed one."""
        data = {
            "test_name": self.test_name,
            "score": self.score,
            "max_score": self.max_score,
            "fatal": self.fatal,
            "failure_kind": self.failure_kind,
            "aspects": [a.to_dict() for a in self.aspects],
        }
        if self.schedule:
            data["schedule"] = self.schedule
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TestRecord":
        """Rebuild from :meth:`to_dict` output (tolerant of omissions)."""
        return cls(
            test_name=data["test_name"],
            score=float(data["score"]),
            max_score=float(data["max_score"]),
            fatal=data.get("fatal", ""),
            failure_kind=data.get("failure_kind", ""),
            schedule=data.get("schedule", ""),
            aspects=[AspectRecord.from_dict(a) for a in data.get("aspects", [])],
        )

    @property
    def percent(self) -> float:
        """Score as a percentage of the maximum (0.0 when unscored)."""
        return 100.0 * self.score / self.max_score if self.max_score else 0.0

    def failed_aspects(self) -> List[str]:
        """Names of the aspects that failed, in check order."""
        return [a.aspect for a in self.aspects if a.failed]


@dataclass
class SubmissionRecord:
    """One student's (or one variant's) graded suite at one point in time."""

    student: str
    suite: str
    timestamp: float
    tests: List[TestRecord] = field(default_factory=list)
    #: Free-form tag: "final" for submissions, "progress" for in-progress
    #: self-test runs logged for instructor awareness.
    kind: str = "final"
    #: Failure-taxonomy kind for the submission as a whole (``"ok"``,
    #: ``"flaky-pass"``, ``"timeout"``, ``"crash"``, ``"signal"``,
    #: ``"garbled-trace"``, ``"infra-error"``).
    failure_kind: str = "ok"
    #: How many grading attempts this record reflects (> 1 after retries).
    attempts: int = 1
    #: Per-attempt failure kinds, oldest first — the rerun-vote history
    #: that lets a grader tell "deterministically wrong" from "flaky".
    attempt_outcomes: List[str] = field(default_factory=list)
    #: Seed of the controlled schedule under which the recorded failure
    #: reproduces (``None`` for free-running grades); an instructor can
    #: replay the student's race with ``explore --seed <seed>``.
    schedule_seed: Optional[int] = None
    #: Which schedule family exploration used (``"random-walk"``,
    #: ``"pct"``, ``"exhaustive"``; empty when the grade never explored).
    schedule_strategy: str = ""
    #: Exhaustive exploration coverage: how many of the
    #: ``interleavings_total`` distinct interleavings failed (N of M).
    #: ``None`` for seeded strategies, which sample instead of counting.
    interleavings_failing: Optional[int] = None
    #: Exhaustive exploration coverage: distinct interleavings
    #: enumerated within the preemption bound (M).
    interleavings_total: Optional[int] = None
    #: The exhaustive enumeration covered the whole bound (``False``
    #: when the execution budget capped it, so M is a lower bound).
    interleavings_complete: bool = False
    #: Three-way race-aware verdict (``"correct"`` / ``"racy-lucky"`` /
    #: ``"wrong"``); empty when race detection was off for this grade.
    concurrency_verdict: str = ""
    #: Distinct racing pairs found by lockset/happens-before analysis.
    race_count: int = 0
    #: Human-facing labels of the racing pairs (capped upstream), e.g.
    #: ``worker-0@3(checkpoint,unlocked) × worker-1@7(checkpoint,unlocked)``.
    race_pairs: List[str] = field(default_factory=list)
    #: Why (and how) race-aware credit adjusted this record's score —
    #: empty when ``--race-credit`` was off or no adjustment applied.
    race_note: str = ""
    #: Per-lock traffic dicts (``lock``/``acquisitions``/``blocks``/
    #: ``try_failures``) summed across the analyzed schedules — the
    #: contention table the HTML timing report renders.
    race_contention: List[Dict[str, Any]] = field(default_factory=list)
    #: Monotonic seconds since the grading batch started (``time.time``
    #: wall timestamps above can jump with clock adjustments; this field
    #: is what resume-ordering may rely on).
    elapsed: float = 0.0

    @classmethod
    def from_suite_result(
        cls,
        student: str,
        result: SuiteResult,
        *,
        kind: str = "final",
        timestamp: float | None = None,
        failure_kind: str = "ok",
        attempts: int = 1,
        attempt_outcomes: List[str] | None = None,
        schedule_seed: Optional[int] = None,
        schedule_strategy: str = "",
        interleavings_failing: Optional[int] = None,
        interleavings_total: Optional[int] = None,
        interleavings_complete: bool = False,
        concurrency_verdict: str = "",
        race_count: int = 0,
        race_pairs: List[str] | None = None,
        race_note: str = "",
        race_contention: List[Dict[str, Any]] | None = None,
        elapsed: float = 0.0,
    ) -> "SubmissionRecord":
        """Snapshot a live :class:`SuiteResult` into plain data."""
        return cls(
            student=student,
            suite=result.suite_name,
            timestamp=time.time() if timestamp is None else timestamp,
            tests=[TestRecord.from_result(r) for r in result.results],
            kind=kind,
            failure_kind=failure_kind,
            attempts=attempts,
            attempt_outcomes=list(attempt_outcomes or []),
            schedule_seed=schedule_seed,
            schedule_strategy=schedule_strategy,
            interleavings_failing=interleavings_failing,
            interleavings_total=interleavings_total,
            interleavings_complete=interleavings_complete,
            concurrency_verdict=concurrency_verdict,
            race_count=race_count,
            race_pairs=list(race_pairs or []),
            race_note=race_note,
            race_contention=[dict(c) for c in race_contention or []],
            elapsed=elapsed,
        )

    def to_dict(self) -> Dict[str, Any]:
        """Primitive-dict form for JSON serialization."""
        return {
            "student": self.student,
            "suite": self.suite,
            "timestamp": self.timestamp,
            "elapsed": self.elapsed,
            "kind": self.kind,
            "failure_kind": self.failure_kind,
            "attempts": self.attempts,
            "attempt_outcomes": list(self.attempt_outcomes),
            "schedule_seed": self.schedule_seed,
            "schedule_strategy": self.schedule_strategy,
            "interleavings_failing": self.interleavings_failing,
            "interleavings_total": self.interleavings_total,
            "interleavings_complete": self.interleavings_complete,
            "concurrency_verdict": self.concurrency_verdict,
            "race_count": self.race_count,
            "race_pairs": list(self.race_pairs),
            "race_note": self.race_note,
            "race_contention": [dict(c) for c in self.race_contention],
            "tests": [t.to_dict() for t in self.tests],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SubmissionRecord":
        """Rebuild from :meth:`to_dict` output (tolerant of omissions)."""
        seed = data.get("schedule_seed")
        failing = data.get("interleavings_failing")
        total = data.get("interleavings_total")
        return cls(
            student=data["student"],
            suite=data["suite"],
            timestamp=float(data.get("timestamp", 0.0)),
            elapsed=float(data.get("elapsed", 0.0)),
            kind=data.get("kind", "final"),
            failure_kind=data.get("failure_kind", "ok"),
            attempts=int(data.get("attempts", 1)),
            attempt_outcomes=list(data.get("attempt_outcomes", [])),
            schedule_seed=None if seed is None else int(seed),
            schedule_strategy=data.get("schedule_strategy", ""),
            interleavings_failing=None if failing is None else int(failing),
            interleavings_total=None if total is None else int(total),
            interleavings_complete=bool(data.get("interleavings_complete", False)),
            concurrency_verdict=data.get("concurrency_verdict", ""),
            race_count=int(data.get("race_count", 0)),
            race_pairs=[str(p) for p in data.get("race_pairs", [])],
            race_note=data.get("race_note", ""),
            race_contention=[dict(c) for c in data.get("race_contention", [])],
            tests=[TestRecord.from_dict(t) for t in data.get("tests", [])],
        )

    @property
    def score(self) -> float:
        """Points earned across all tests of the suite."""
        return sum(t.score for t in self.tests)

    @property
    def max_score(self) -> float:
        """Points possible across all tests of the suite."""
        return sum(t.max_score for t in self.tests)

    @property
    def percent(self) -> float:
        """Score as a percentage of the maximum (0.0 when unscored)."""
        return 100.0 * self.score / self.max_score if self.max_score else 0.0

    @property
    def racy(self) -> bool:
        """True when the failure reproduces under a recorded schedule —
        deterministic, replayable, and therefore *not* flaky.

        Seeded exploration pins a failing seed; exhaustive exploration
        instead counts failing interleavings, and any nonzero count is
        just as replayable (the first failing trace is recorded).
        """
        return self.schedule_seed is not None or bool(self.interleavings_failing)

    @property
    def flaky(self) -> bool:
        """True when attempts disagreed — the grade is schedule-dependent.

        A racy record (failing schedule seed attached) is excluded: its
        attempts disagreed, but exploration pinned the failure to a
        deterministic, replayable schedule, so nobody needs to eyeball it.
        """
        if self.racy:
            return False
        if self.failure_kind == "flaky-pass":
            return True
        # The ``@s<seed>`` suffix marks *which* controlled schedule an
        # attempt ran under, not a different outcome: a race sweep whose
        # every schedule passed must not read as disagreement.  An
        # ``exhaustive:NofM`` entry is a census, not an attempt.
        outcomes = {
            o.split("@s", 1)[0]
            for o in self.attempt_outcomes
            if not o.startswith("exhaustive:")
        }
        return len(outcomes) > 1

    def schedule_tag(self) -> str:
        """Short racy-provenance label for gradebooks, ``""`` when none.

        ``@seed 7`` for a seeded strategy's pinned failing schedule;
        ``3 of 26 interleavings fail`` for an exhaustive verdict (a
        trailing ``+`` marks a budget-capped, hence partial, count).
        """
        if self.interleavings_total is not None and self.interleavings_failing:
            cap = "" if self.interleavings_complete else "+"
            return (
                f"{self.interleavings_failing} of "
                f"{self.interleavings_total}{cap} interleavings fail"
            )
        if self.schedule_seed is not None:
            return f"@seed {self.schedule_seed}"
        return ""

    @property
    def racy_lucky(self) -> bool:
        """True when every explored schedule passed but race analysis
        found a race — the answer was right by scheduling luck."""
        return self.concurrency_verdict == "racy-lucky"

    def race_tag(self) -> str:
        """Short race-evidence label for gradebooks, ``""`` when none.

        Names the first racing pair so reports can point at the exact
        property-write pair, e.g. ``2 races: worker-0@3(checkpoint,
        unlocked) × worker-1@7(checkpoint,unlocked)``.
        """
        if not self.race_count:
            return ""
        first = self.race_pairs[0] if self.race_pairs else ""
        label = f"{self.race_count} race" + ("s" if self.race_count != 1 else "")
        return f"{label}: {first}" if first else label

    def failed_aspects(self) -> List[str]:
        """Names of every failed aspect across the suite, in order."""
        aspects: List[str] = []
        for test in self.tests:
            aspects.extend(test.failed_aspects())
        return aspects
