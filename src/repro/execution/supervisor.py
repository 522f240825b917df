"""Supervised batch grading: a worker pool that survives its workload.

The paper's division of labour — the infrastructure owns invocation and
error reporting — has a batch-scale consequence: one deadlocked
submission must not stall a class, one segfault must not lose a
session, and a racy program must not be graded by the luck of one
schedule.  This module is that supervision layer:

* a bounded pool of worker threads grades submissions concurrently,
  each under a per-submission wall-clock **deadline**;
* a **watchdog** thread enforces deadlines from outside: a worker stuck
  waiting on a subprocess child gets that child *hard-killed* (via the
  active-child registry in
  :mod:`repro.execution.subprocess_runner`), and a worker wedged in
  pure-Python code is abandoned — its task is resolved as a timeout, a
  replacement worker is spawned, and the batch moves on;
* failed attempts are **retried** with jittered exponential backoff,
  and the per-attempt outcomes are kept (rerun-vote): a submission that
  fails then passes is recorded as ``flaky-pass``, distinct from
  "deterministically wrong";
* every finished submission is checkpointed to a
  :class:`~repro.grading.journal.GradingJournal`, so an interrupted
  batch resumes without regrading and converges to the same gradebook.

The supervisor is deliberately *outside* the test framework: suites and
checkers never learn about deadlines, retries, or journals — exactly as
tested programs never learn how they are invoked.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.execution.subprocess_runner import kill_active_child
from repro.execution.taxonomy import RETRYABLE_KINDS, FailureKind
from repro.obs import get_registry as _obs_registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.execution.exploration import ExplorationReport
    from repro.execution.scheduling import ScheduleTrace
    from repro.grading.gradebook import Gradebook
    from repro.grading.journal import GradingJournal
    from repro.grading.records import SubmissionRecord
    from repro.testfw.result import SuiteResult
    from repro.testfw.suite import TestSuite

__all__ = [
    "GradingSupervisor",
    "SubmissionOutcome",
    "BatchReport",
    "suite_failure_kind",
]

SuiteFactory = Callable[[str], "TestSuite"]

#: Kind precedence when a suite's tests disagree: the most
#: infrastructure-relevant cause wins (an infra error needs a human
#: before a timeout does; a garbled trace is the least alarming).
_KIND_PRECEDENCE = (
    FailureKind.INFRA_ERROR,
    FailureKind.TIMEOUT,
    FailureKind.SIGNAL,
    FailureKind.CRASH,
    FailureKind.GARBLED_TRACE,
)


class _Attempt(NamedTuple):
    """One graded suite run in a submission's rerun vote."""

    kind: FailureKind
    result: "SuiteResult"
    #: A free-running attempt passes with full marks; a controlled one
    #: passes the explorer's judgment
    #: (:func:`~repro.execution.exploration.failure_reasons`).
    passed: bool


def _attempt_label(attempt: _Attempt) -> str:
    """One attempt's entry in the rerun-vote history.

    Failure kinds appear verbatim; clean runs distinguish a pass from
    partial credit, so ``["crash", "pass"]`` reads as flaky while
    ``["fail(80%)", "fail(80%)"]`` reads as deterministically wrong.  A
    controlled attempt that lost only the interleaving aspect reads
    ``pass``: that is the explorer's judgment of it.
    """
    if attempt.kind is not FailureKind.OK:
        return attempt.kind.value
    if attempt.passed:
        return "pass"
    return f"fail({attempt.result.percent:.0f}%)"


def suite_failure_kind(result: "SuiteResult") -> FailureKind:
    """Classify a whole suite run by its worst test-level kind.

    A suite whose programs all ran cleanly is ``OK`` even when it earned
    partial credit — a wrong answer is a grade, not a failure.
    """
    kinds = []
    for test in result.results:
        if test.failure_kind:
            kind = FailureKind(test.failure_kind)
            if kind is not FailureKind.OK:
                kinds.append(kind)
        elif test.fatal:
            # A fatal with no taxonomy kind is the harness's own doing.
            kinds.append(FailureKind.INFRA_ERROR)
    for kind in _KIND_PRECEDENCE:
        if kind in kinds:
            return kind
    return kinds[0] if kinds else FailureKind.OK


@dataclass
class SubmissionOutcome:
    """Everything the supervisor learned about one submission."""

    student: str
    identifier: str
    record: "SubmissionRecord"
    #: Live suite result of the recorded attempt (``None`` when the
    #: grade was resumed from a journal or forced by the watchdog).
    result: Optional["SuiteResult"]
    failure_kind: FailureKind
    attempts: int
    attempt_outcomes: List[str] = field(default_factory=list)
    resumed: bool = False
    #: Recorded interleaving of the failing controlled schedule, when
    #: N-schedule exploration reproduced the failure (savable for replay).
    schedule_trace: Optional["ScheduleTrace"] = None


@dataclass
class BatchReport:
    """The supervisor's full answer for one batch."""

    gradebook: "Gradebook"
    live: Dict[str, "SuiteResult"]
    outcomes: Dict[str, SubmissionOutcome]
    resumed: List[str] = field(default_factory=list)
    #: Students dropped unworked by :meth:`GradingSupervisor.request_stop`
    #: (a drained batch); absent from ``outcomes`` and the gradebook.
    dropped: List[str] = field(default_factory=list)

    def summary(self) -> str:
        """Operator-facing one-screen account of the batch."""
        counts: Dict[str, int] = {}
        for outcome in self.outcomes.values():
            key = outcome.failure_kind.value
            counts[key] = counts.get(key, 0) + 1
        parts = [f"{kind}={count}" for kind, count in sorted(counts.items())]
        lines = [
            f"graded {len(self.outcomes)} submission(s)"
            + (f", {len(self.resumed)} resumed from journal" if self.resumed else "")
            + (": " + ", ".join(parts) if parts else "")
        ]
        flaky = [s for s, o in self.outcomes.items() if o.record.flaky]
        if flaky:
            lines.append(
                "schedule-dependent (rerun-vote disagreed): " + ", ".join(sorted(flaky))
            )
        racy_bits = []
        for s in sorted(self.outcomes):
            record = self.outcomes[s].record
            if not record.racy:
                continue
            if record.schedule_seed is not None:
                bit = f"{s} @seed {record.schedule_seed}"
            else:
                bit = (
                    f"{s} ({record.interleavings_failing} of "
                    f"{record.interleavings_total} interleavings fail)"
                )
            if record.race_count:
                bit += f" [{record.race_tag()}]"
            racy_bits.append(bit)
        if racy_bits:
            lines.append(
                "racy (failure reproduces under a recorded schedule): "
                + ", ".join(racy_bits)
            )
        lucky_bits = [
            f"{s} ({self.outcomes[s].record.race_tag()})"
            for s in sorted(self.outcomes)
            if self.outcomes[s].record.racy_lucky
        ]
        if lucky_bits:
            lines.append(
                "racy-lucky (every explored schedule passed, but a race "
                "was detected): " + ", ".join(lucky_bits)
            )
        return "\n".join(lines)


class _TaskState:
    """Watchdog-visible state of one in-flight submission."""

    def __init__(self, student: str, identifier: str) -> None:
        self.student = student
        self.identifier = identifier
        self.worker: Optional[threading.Thread] = None
        #: Monotonic instant after which the watchdog intervenes;
        #: ``None`` while disarmed (between attempts / during backoff).
        self.deadline_at: Optional[float] = None
        #: The watchdog already hard-killed this attempt's child.
        self.killed = False
        self.resolved = False
        self.abandoned = False
        #: Attempt kinds observed so far (for a watchdog-forced record).
        self.attempt_outcomes: List[str] = []
        #: Recorded failing interleaving from schedule exploration.
        self.failing_trace = None


class GradingSupervisor:
    """Grade a submissions dict under supervision.

    Parameters
    ----------
    suite_factory:
        Builds the problem's suite for one submission identifier —
        the same callable :func:`repro.grading.batch.grade_submissions`
        takes.
    jobs:
        Worker-pool width (1 = serial, the exact semantics of the
        unsupervised path, still with deadlines/retries/journal).
    retries:
        Extra attempts for a failed submission.  All failures are
        retried except ``infra-error`` (the harness is broken; retrying
        regrades nothing).
    deadline:
        Per-*attempt* wall-clock limit in seconds; ``None`` disables
        the watchdog.  This backstops the runners' own timeouts: it
        also catches hangs in harness code the runners never see.
    backoff:
        Base of the jittered exponential backoff between attempts.
    jitter_seed:
        Seeds the per-submission jitter streams; a fixed seed makes the
        whole retry schedule reproducible.
    journal:
        Checkpoint journal.  Entries already present are *not*
        regraded; every newly finished submission is appended.
    explore_schedules:
        When > 0, a submission whose first attempt fails retryably is
        re-graded under this many *controlled* schedules (seeded random
        walks via :mod:`repro.execution.scheduling`) instead of blind
        reruns, through
        :class:`~repro.execution.exploration.ScheduleExplorer`.  A
        controlled run fails only as
        :func:`~repro.execution.exploration.failure_reasons` judges it:
        never on the thread-interleaving aspect, which the scheduler
        decides.  The first failing schedule becomes the grade of record
        with its seed attached (``SubmissionRecord.schedule_seed``) so
        the race replays on demand; if every explored schedule passes
        the submission is exonerated as ``flaky-pass``.  With ``pool``
        (or any subprocess runner) the schedule travels to the child
        that runs the program and its decisions come back.
    explore_seed:
        First seed of the exploration range (seeds
        ``explore_seed .. explore_seed + explore_schedules - 1``); fixed
        seeds make the whole batch's verdicts host-independent.
    explore_strategy:
        Which schedule family exploration draws from: ``"random-walk"``
        (the default), ``"pct"`` (probabilistic concurrency testing —
        randomized priorities with ``explore_depth - 1`` priority-change
        points, far more likely to hit low-depth ordering bugs), or
        ``"exhaustive"`` (enumerate *all* distinct interleavings up to
        ``explore_depth`` preemptions, budgeted by
        ``explore_schedules`` executions).  Exhaustive verdicts carry
        coverage — "N of M distinct interleavings fail" — into the
        record's ``interleavings_*`` fields instead of a seed.
    explore_depth:
        PCT depth *d* / exhaustive preemption bound (ignored by
        random-walk).
    pool:
        Optional :class:`~repro.execution.worker_pool.WorkerPool`.  When
        given, every test of every built suite is rebound to a pooled
        :class:`~repro.execution.subprocess_runner.SubprocessRunner` —
        i.e. a pool implies subprocess isolation — so submissions
        dispatch to warm pre-forked interpreters instead of cold-starting
        one per run.  Watchdog deadline kills and respawn still work:
        the pooled runner registers its worker process in the same
        active-children table the cold path uses, and the pool respawns
        killed workers on check-in.  The pool's lifetime belongs to the
        caller.
    race_detect:
        Run lockset/happens-before race analysis
        (:mod:`repro.execution.races`) over every controlled schedule
        exploration records, and grade with a three-way *concurrency
        verdict*: ``correct`` / ``racy-lucky`` (every explored schedule
        passed but a race exists — the answer was right by scheduling
        luck) / ``wrong``.  With this flag a submission whose free
        running attempt passes outright is still swept through schedule
        exploration (when ``explore_schedules`` > 0), so a lucky racy
        program cannot dodge analysis by passing first try.
    race_credit:
        Apply :func:`repro.core.credit.race_partial_credit` to the
        grade of record: a ``racy-lucky`` full-marks score is capped,
        and a race-only bug (wrong under one schedule, passing under
        another) is floored at a fraction of its passing attempt.
        Implies ``race_detect``.
    dedup:
        Grade sha256-identical submissions once: duplicates are detected
        up front (:func:`repro.grading.dedup.group_submissions`), only
        group representatives are queued, and each resolved
        representative fans its record out to its clones (distinct
        student names, shared result).  Clones are journaled
        individually, so resume behaves as if they had been graded.
    """

    #: How long after a hard kill the watchdog waits before concluding
    #: the worker is wedged in pure-Python code and abandoning it.
    KILL_GRACE = 1.0

    def __init__(
        self,
        suite_factory: SuiteFactory,
        *,
        jobs: int = 1,
        retries: int = 0,
        deadline: Optional[float] = None,
        backoff: float = 0.05,
        jitter_seed: int = 0,
        journal: Optional["GradingJournal"] = None,
        watchdog_poll: float = 0.05,
        suite_name: str = "",
        explore_schedules: int = 0,
        explore_seed: int = 0,
        explore_strategy: str = "random-walk",
        explore_depth: int = 3,
        pool: Optional[object] = None,
        dedup: bool = False,
        race_detect: bool = False,
        race_credit: bool = False,
        on_outcome: Optional[Callable[[SubmissionOutcome], None]] = None,
    ) -> None:
        """Configure the supervisor; see the class docstring for knobs.

        *on_outcome* is called once per resolved submission (clones from
        dedup fan-out included), after the outcome is journaled — the
        hook live progress streaming attaches to.  Exceptions it raises
        are swallowed: telemetry must never fail a grade.
        """
        self.suite_factory = suite_factory
        self.jobs = max(1, int(jobs))
        self.retries = max(0, int(retries))
        self.deadline = deadline
        self.backoff = backoff
        self.jitter_seed = jitter_seed
        self.journal = journal
        self.watchdog_poll = watchdog_poll
        self._suite_name = suite_name
        self.explore_schedules = max(0, int(explore_schedules))
        self.explore_seed = int(explore_seed)
        if explore_strategy not in ("random-walk", "pct", "exhaustive"):
            raise ValueError(
                f"unknown explore_strategy {explore_strategy!r}: "
                "expected 'random-walk', 'pct', or 'exhaustive'"
            )
        self.explore_strategy = explore_strategy
        self.explore_depth = max(0, int(explore_depth))
        self.pool = pool
        self.on_outcome = on_outcome
        self.dedup = bool(dedup)
        self.race_credit = bool(race_credit)
        self.race_detect = bool(race_detect) or self.race_credit
        #: representative student -> later (student, identifier) pairs
        #: whose submissions hash identically; resolved by fan-out.
        self._clones: Dict[str, List[Tuple[str, str]]] = {}

        #: Serial for replacement-worker names; starts past the initial
        #: pool's indices so a replacement can never collide with a live
        #: worker (the old millisecond-derived name could).
        self._worker_serial = itertools.count(self.jobs)
        #: Monotonic origin of the batch; records carry ``elapsed``
        #: relative to this so resume ordering survives wall-clock jumps.
        self._epoch = time.monotonic()
        self._lock = threading.Lock()
        self._done = threading.Condition(self._lock)
        self._queue: deque = deque()
        self._active: Dict[threading.Thread, _TaskState] = {}
        self._outcomes: Dict[str, SubmissionOutcome] = {}
        self._expected = 0
        self._stop = False
        self._journal_lock = threading.Lock()
        #: Live workers not yet abandoned by the watchdog.  Restaffing
        #: compares this against the remaining queue so a total-wedge
        #: storm cannot spawn (and count) more replacements than there
        #: is queued work to hand them.
        self._healthy_workers = 0
        #: Threads the watchdog abandoned (already decremented from
        #: ``_healthy_workers``; their eventual exit must not decrement
        #: again).
        self._abandoned_workers: set = set()
        #: (student, identifier) pairs dropped unworked by
        #: :meth:`request_stop`, in queue order.
        self._dropped: List[Tuple[str, str]] = []

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def grade(self, submissions: Dict[str, str]) -> BatchReport:
        """Grade every (student -> identifier) pair; returns the report.

        The gradebook's contents and ordering depend only on
        ``submissions`` — never on worker completion order — so a
        parallel batch, a serial batch, and a resumed batch of the same
        input are byte-identical once saved.
        """
        from repro.grading.gradebook import Gradebook

        self._epoch = time.monotonic()
        resumed = self._load_journal(submissions)
        pending = [
            (student, identifier)
            for student, identifier in submissions.items()
            if student not in self._outcomes
        ]

        clones: Dict[str, List[Tuple[str, str]]] = {}
        queueable = pending
        if self.dedup and pending:
            from repro.grading.dedup import group_submissions

            queueable, clones = group_submissions(pending)
            duplicates = len(pending) - len(queueable)
            if duplicates:
                obs = _obs_registry()
                obs.counter("dedup.groups").inc(len(clones))
                obs.counter("dedup.duplicates_skipped").inc(duplicates)

        enqueued_at = time.monotonic()
        with self._lock:
            self._clones = clones
            self._expected = len(self._outcomes) + len(pending)
            self._queue.extend(
                (student, identifier, enqueued_at)
                for student, identifier in queueable
            )
            self._stop = False

        workers = [
            self._spawn_worker(i) for i in range(min(self.jobs, len(queueable)))
        ]
        stop_watchdog = threading.Event()
        watchdog = None
        if self.deadline is not None and pending:
            watchdog = threading.Thread(
                target=self._watchdog_loop,
                args=(stop_watchdog,),
                name="grading-watchdog",
                daemon=True,
            )
            watchdog.start()

        try:
            with self._done:
                while len(self._outcomes) < self._expected:
                    self._done.wait(timeout=0.1)
        except BaseException:
            # KeyboardInterrupt / crash: stop handing out work; the
            # journal already holds everything that finished.
            with self._lock:
                self._stop = True
                self._queue.clear()
            stop_watchdog.set()
            raise
        stop_watchdog.set()
        for worker in workers:
            worker.join(timeout=1.0)
        if watchdog is not None:
            watchdog.join(timeout=1.0)

        # Deterministic merge: submissions order, never completion order.
        # A drained batch (request_stop) legitimately has no outcome for
        # the dropped students; they are simply absent from the report.
        book = Gradebook(self._suite_name)
        live: Dict[str, "SuiteResult"] = {}
        ordered: Dict[str, SubmissionOutcome] = {}
        for student in submissions:
            outcome = self._outcomes.get(student)
            if outcome is None:
                continue
            ordered[student] = outcome
            record = outcome.record
            if not record.suite:
                record.suite = book.suite
            book.record(record)
            if outcome.result is not None:
                live[student] = outcome.result
        with self._lock:
            dropped = [student for student, _ in self._dropped]
        return BatchReport(
            gradebook=book,
            live=live,
            outcomes=ordered,
            resumed=resumed,
            dropped=dropped,
        )

    def request_stop(self) -> List[Tuple[str, str]]:
        """Drain the batch: finish in-flight work, drop the queue.

        Safe to call from any thread *other than* one currently inside
        :meth:`grade` (a signal handler should set a flag and delegate
        to a helper thread).  Queued submissions are dropped unworked
        and returned as (student, identifier) pairs, in queue order;
        in-flight attempts run to completion and are journaled as
        usual, so the interrupted batch is exactly resumable.
        """
        with self._lock:
            self._stop = True
            dropped = []
            for student, identifier, _ in self._queue:
                dropped.append((student, identifier))
                # A dropped representative takes its unworked clones
                # with it — they were never queued in their own right.
                dropped.extend(self._clones.pop(student, []))
            self._queue.clear()
            self._dropped.extend(dropped)
            self._expected -= len(dropped)
        with self._done:
            self._done.notify_all()
        return dropped

    # ------------------------------------------------------------------
    # Resume
    # ------------------------------------------------------------------
    def _load_journal(self, submissions: Dict[str, str]) -> List[str]:
        if self.journal is None:
            return []
        resumed: List[str] = []
        for student, entry in self.journal.completed().items():
            if student not in submissions:
                continue  # journaled under a different batch
            record = entry.record
            self._outcomes[student] = SubmissionOutcome(
                student=student,
                identifier=entry.identifier,
                record=record,
                result=None,
                failure_kind=FailureKind(record.failure_kind or "ok"),
                attempts=record.attempts,
                attempt_outcomes=list(record.attempt_outcomes),
                resumed=True,
            )
            resumed.append(student)
        if not self._suite_name:
            self._suite_name = self.journal.suite_name() or ""
        return sorted(resumed)

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------
    def _spawn_worker(self, index: int) -> threading.Thread:
        with self._lock:
            self._healthy_workers += 1
        worker = threading.Thread(
            target=self._worker_loop, name=f"grading-worker-{index}", daemon=True
        )
        worker.start()
        return worker

    def _worker_loop(self) -> None:
        try:
            self._worker_loop_body()
        finally:
            # An abandoned worker was already written off by the
            # watchdog; everyone else leaves the healthy pool here.
            with self._lock:
                if threading.current_thread() in self._abandoned_workers:
                    self._abandoned_workers.discard(threading.current_thread())
                else:
                    self._healthy_workers -= 1

    def _worker_loop_body(self) -> None:
        obs = _obs_registry()
        while True:
            with self._lock:
                if self._stop or not self._queue:
                    return
                student, identifier, enqueued_at = self._queue.popleft()
                task = _TaskState(student, identifier)
                task.worker = threading.current_thread()
                self._active[task.worker] = task
            queue_wait = time.monotonic() - enqueued_at
            obs.histogram("supervisor.queue_wait.seconds").observe(queue_wait)
            span = obs.begin_span(
                "supervisor.submission",
                student=student,
                identifier=identifier,
                queue_wait=round(queue_wait, 6),
            )
            try:
                outcome = self._grade_with_retries(task)
            except BaseException as exc:  # noqa: BLE001 - worker boundary
                outcome = self._infra_outcome(task, exc)
            finally:
                obs.end_span(span)
            span.set(
                failure_kind=outcome.failure_kind.value,
                attempts=outcome.attempts,
            )
            obs.histogram("supervisor.submission.seconds").observe(span.duration)
            abandoned = not self._resolve(task, outcome)
            if abandoned:
                # The watchdog gave up on us and spawned a replacement;
                # whatever we just computed lost the race.  Do not pull
                # further tasks from a thread presumed wedged.
                return

    def _run_attempt(
        self, task: _TaskState, backend=None
    ) -> Tuple[FailureKind, "SuiteResult"]:
        """One armed suite run, optionally under a controlled backend.

        A controlled attempt holds the in-process session lock for the
        whole suite run, so a parallel batch cannot interleave another
        submission's run into the installed ambient backend.
        """
        obs = _obs_registry()
        seed = getattr(getattr(backend, "strategy", None), "seed", None)
        with obs.span(
            "supervisor.attempt", identifier=task.identifier, seed=seed
        ) as span:
            self._arm(task)
            try:
                suite = self._bind_pool(self.suite_factory(task.identifier))
                if backend is None:
                    result = suite.run()
                else:
                    from repro.execution.runner import in_process_session_lock
                    from repro.simulation.backend import use_backend

                    with in_process_session_lock():
                        with use_backend(backend):
                            result = suite.run()
            finally:
                self._disarm(task)
            kind = suite_failure_kind(result)
            span.set(kind=kind.value, score=result.score)
        obs.histogram("supervisor.attempt.seconds").observe(span.duration)
        return kind, result

    def _bind_pool(self, suite: "TestSuite") -> "TestSuite":
        """Rebind a suite's tests to pooled subprocess runners.

        No-op without a pool.  With one, every test that exposes
        ``make_runner`` dispatches to the warm pool — the supervisor's
        ``pool=`` mode implies subprocess isolation for the whole suite.
        """
        if self.pool is None:
            return suite
        from repro.execution.subprocess_runner import SubprocessRunner

        pool = self.pool
        for test in suite.tests:
            if hasattr(test, "make_runner"):
                test.make_runner = (  # type: ignore[method-assign]
                    lambda: SubprocessRunner(pool=pool)
                )
        return suite

    def _explore(
        self, task: _TaskState, attempts: List[_Attempt]
    ) -> "ExplorationReport":
        """Re-grade one submission under controlled schedules.

        The search is :class:`~repro.execution.exploration.ScheduleExplorer`
        driven by this supervisor's armed suite attempt.  A seeded family
        (``random-walk``, ``pct``) appends each executed controlled
        attempt to *attempts* (labelled ``@s<seed>`` in the rerun-vote
        history; a seed deduped as happens-before equivalent runs no
        attempt) and stops at the first failing seed, whose attempt is
        then last in *attempts*: the deterministic grade of record.
        ``exhaustive`` enumerates every distinct interleaving within the
        preemption bound; the history gets one ``exhaustive:NofM`` entry,
        and only one attempt is appended — the first failing run, or the
        best-scoring passing run when exonerated — so a 40-interleaving
        sweep does not balloon the record.
        """
        from repro.execution.exploration import ScheduleExplorer, failure_reasons
        from repro.execution.scheduling import ScheduledBackend

        exhaustive = self.explore_strategy == "exhaustive"
        best_passing: Optional[_Attempt] = None

        def run_schedule(strategy):
            nonlocal best_passing
            backend = ScheduledBackend(strategy)
            kind, result = self._run_attempt(task, backend=backend)
            failed = failure_reasons(result.results)
            attempt = _Attempt(kind, result, passed=not failed)
            if not exhaustive:
                attempts.append(attempt)
                task.attempt_outcomes.append(
                    f"{_attempt_label(attempt)}@s{strategy.seed}"
                )
            elif not failed and (
                best_passing is None or result.score > best_passing.result.score
            ):
                best_passing = attempt
            return failed, backend.schedule_trace(task.identifier), attempt

        explorer = ScheduleExplorer(
            run_schedule,
            schedules=self.explore_schedules,
            first_seed=self.explore_seed,
            strategy=self.explore_strategy,
            depth=self.explore_depth,
            races=self.race_detect,
        )
        with _obs_registry().span(
            "supervisor.explore",
            identifier=task.identifier,
            schedules=self.explore_schedules,
            first_seed=self.explore_seed,
            strategy=self.explore_strategy,
        ) as span:
            report = explorer.run_to_first_failure()
            span.set(executed=report.executed, deduped=report.deduped)
            if exhaustive:
                task.attempt_outcomes.append(
                    f"exhaustive:{report.failing_interleavings}of"
                    f"{report.enumerated}" + ("" if report.complete else "+")
                )
                span.set(
                    enumerated=report.enumerated,
                    failing=report.failing_interleavings,
                    complete=report.complete,
                )
                if report.bug_found:
                    attempts.append(report.findings[0].payload)
                elif best_passing is not None:
                    attempts.append(best_passing)
            if not report.bug_found:
                span.set(exonerated=True)
                return report
            task.failing_trace = report.first_failing_trace()
            if not exhaustive:
                span.set(failing_seed=report.first_failing_seed)
        return report

    def _grade_with_retries(self, task: _TaskState) -> SubmissionOutcome:
        from repro.grading.records import SubmissionRecord

        rng = random.Random(f"{self.jitter_seed}:{task.student}")
        attempts: List[_Attempt] = []
        report: Optional["ExplorationReport"] = None
        for attempt in range(self.retries + 1):
            if attempt:
                _obs_registry().counter("supervisor.retries").inc()
                delay = self.backoff * (2 ** (attempt - 1))
                time.sleep(delay * (0.5 + rng.random() / 2))
            kind, result = self._run_attempt(task)
            passed = kind is FailureKind.OK and result.score >= result.max_score
            attempts.append(_Attempt(kind, result, passed))
            task.attempt_outcomes.append(_attempt_label(attempts[-1]))
            # A clean-but-imperfect run is retried too: a racy program's
            # most common failure shape is a *wrong answer* under an
            # unlucky schedule, not a crash.
            retryable = kind in RETRYABLE_KINDS or (
                kind is FailureKind.OK and not passed
            )
            if passed or not retryable:
                if passed and self.race_detect and self.explore_schedules > 0:
                    # Race sweep: a passing free-running attempt still
                    # gets explored under controlled schedules, so a
                    # lucky racy program is analyzed (and a failing
                    # schedule, if one exists, becomes the grade).
                    report = self._explore(task, attempts)
                break
            if self.explore_schedules > 0:
                # Deterministic exploration replaces blind reruns: the
                # verdict depends on the seed range, not scheduler luck.
                report = self._explore(task, attempts)
                break

        outcome_kinds = list(task.attempt_outcomes)
        found = report is not None and report.bug_found
        if found:
            # The failing controlled attempt (last) is the grade of
            # record: deterministic and replayable, so never flaky and
            # never traded for a better-scoring attempt.
            grade = attempts[-1]
        else:
            # The best-scoring passing attempt, else the best-scoring
            # one; ties go to the earliest, so a race sweep that finds no
            # failing schedule keeps its free-running grade.
            grade = max(
                [a for a in attempts if a.passed] or attempts,
                key=lambda a: a.result.score,
            )
        final_kind, final_result = grade.kind, grade.result
        if not found and grade.passed and not all(a.passed for a in attempts):
            # Rerun-vote (or full exoneration by exploration): failed
            # under one schedule, passed under another — flaky, not
            # correct-with-confidence.
            final_kind = FailureKind.FLAKY_PASS

        race_report = report.race_report if report is not None else None
        cv = ""
        race_count = 0
        race_pairs: List[str] = []
        race_contention: List[Dict[str, Any]] = []
        if race_report is not None:
            from repro.execution.taxonomy import concurrency_verdict

            race_count = race_report.race_count
            race_pairs = race_report.pair_labels()
            race_contention = [c.to_dict() for c in race_report.contention]
            cv = concurrency_verdict(
                passed=grade.passed and not found,
                races=race_report.has_races,
            ).value

        if not self._suite_name:
            with self._lock:
                if not self._suite_name:
                    self._suite_name = final_result.suite_name
        record = SubmissionRecord.from_suite_result(
            task.student,
            final_result,
            failure_kind=final_kind.value,
            attempts=len(attempts),
            attempt_outcomes=outcome_kinds,
            schedule_seed=report.first_failing_seed if report else None,
            schedule_strategy=self.explore_strategy if report else "",
            interleavings_failing=report.failing_interleavings if report else None,
            interleavings_total=report.enumerated if report else None,
            interleavings_complete=bool(report and report.complete),
            concurrency_verdict=cv,
            race_count=race_count,
            race_pairs=race_pairs,
            race_contention=race_contention,
            elapsed=time.monotonic() - self._epoch,
        )
        if self.race_credit and race_count:
            self._apply_race_credit(task, record, attempts)
        return SubmissionOutcome(
            student=task.student,
            identifier=task.identifier,
            record=record,
            result=final_result,
            failure_kind=final_kind,
            attempts=len(attempts),
            attempt_outcomes=outcome_kinds,
            schedule_trace=task.failing_trace,
        )

    def _apply_race_credit(
        self,
        task: _TaskState,
        record: "SubmissionRecord",
        attempts: List[_Attempt],
    ) -> None:
        """Race-aware score adjustment of one grade of record.

        Per-test scores are rescaled proportionally so the suite total
        equals the adjusted score; the human-readable reason lands in
        ``record.race_note`` for gradebooks and reports.
        """
        from repro.core.credit import race_partial_credit

        passing = [
            a.result.score
            for a in attempts
            if a.kind is FailureKind.OK and a.result.score >= a.result.max_score
        ]
        adjusted, note = race_partial_credit(
            record.score,
            record.max_score,
            verdict=record.concurrency_verdict,
            race_count=record.race_count,
            best_passing_score=max(passing) if passing else None,
        )
        if not note:
            return
        total = record.score
        if total > 0:
            scale = adjusted / total
            for test in record.tests:
                test.score = round(test.score * scale, 6)
        elif record.tests:
            record.tests[0].score = adjusted
        record.race_note = note
        _obs_registry().counter("races.credit_adjusted").inc()

    def _infra_outcome(
        self, task: _TaskState, exc: BaseException
    ) -> SubmissionOutcome:
        """An exception escaped the suite factory or the framework."""
        from repro.grading.records import SubmissionRecord, TestRecord

        outcomes = task.attempt_outcomes + [FailureKind.INFRA_ERROR.value]
        record = SubmissionRecord(
            student=task.student,
            suite=self._suite_name,
            timestamp=time.time(),
            elapsed=time.monotonic() - self._epoch,
            tests=[
                TestRecord(
                    test_name="supervisor",
                    score=0.0,
                    max_score=0.0,
                    fatal=f"{type(exc).__name__}: {exc}",
                    failure_kind=FailureKind.INFRA_ERROR.value,
                )
            ],
            failure_kind=FailureKind.INFRA_ERROR.value,
            attempts=len(outcomes),
            attempt_outcomes=outcomes,
        )
        return SubmissionOutcome(
            student=task.student,
            identifier=task.identifier,
            record=record,
            result=None,
            failure_kind=FailureKind.INFRA_ERROR,
            attempts=len(outcomes),
            attempt_outcomes=outcomes,
        )

    # ------------------------------------------------------------------
    # Resolution (worker and watchdog race; first one wins)
    # ------------------------------------------------------------------
    def _resolve(self, task: _TaskState, outcome: SubmissionOutcome) -> bool:
        with self._lock:
            if task.resolved:
                return False
            task.resolved = True
            self._outcomes[task.student] = outcome
            if task.worker is not None:
                self._active.pop(task.worker, None)
            clones = self._clones.pop(task.student, [])
        self._journal_outcome(outcome)
        self._notify_outcome(outcome)
        # Dedup fan-out: identical bytes get identical grades.  This
        # covers every resolution path — worker result, infra error, and
        # watchdog timeout alike — and journals each clone as its own
        # entry so a resumed batch sees ordinary completed students.
        for clone_student, clone_identifier in clones:
            clone = self._clone_outcome(outcome, clone_student, clone_identifier)
            with self._lock:
                self._outcomes[clone_student] = clone
            self._journal_outcome(clone)
            self._notify_outcome(clone)
        with self._done:
            self._done.notify_all()
        return True

    def _notify_outcome(self, outcome: SubmissionOutcome) -> None:
        """Fire the ``on_outcome`` hook; its failures never fail a grade."""
        if self.on_outcome is None:
            return
        try:
            self.on_outcome(outcome)
        except Exception:  # noqa: BLE001 - telemetry is best-effort
            pass

    def _clone_outcome(
        self, outcome: SubmissionOutcome, student: str, identifier: str
    ) -> SubmissionOutcome:
        """The representative's outcome re-attributed to a duplicate."""
        from repro.grading.dedup import clone_record

        return SubmissionOutcome(
            student=student,
            identifier=identifier,
            record=clone_record(outcome.record, student),
            result=outcome.result,
            failure_kind=outcome.failure_kind,
            attempts=outcome.attempts,
            attempt_outcomes=list(outcome.attempt_outcomes),
            schedule_trace=outcome.schedule_trace,
        )

    def _journal_outcome(self, outcome: SubmissionOutcome) -> None:
        if self.journal is None:
            return
        from repro.grading.journal import JournalEntry

        with self._journal_lock:
            self.journal.append(
                JournalEntry(
                    student=outcome.student,
                    identifier=outcome.identifier,
                    record=outcome.record,
                )
            )

    # ------------------------------------------------------------------
    # Watchdog
    # ------------------------------------------------------------------
    def _arm(self, task: _TaskState) -> None:
        if self.deadline is None:
            return
        with self._lock:
            task.deadline_at = time.monotonic() + self.deadline
            task.killed = False

    def _disarm(self, task: _TaskState) -> None:
        if self.deadline is None:
            return
        with self._lock:
            task.deadline_at = None

    def _watchdog_loop(self, stop: threading.Event) -> None:
        while not stop.wait(self.watchdog_poll):
            now = time.monotonic()
            with self._lock:
                expired = [
                    task
                    for task in self._active.values()
                    if not task.resolved
                    and task.deadline_at is not None
                    and now >= task.deadline_at
                ]
            for task in expired:
                self._enforce_deadline(task)

    def _enforce_deadline(self, task: _TaskState) -> None:
        """One expired task: kill its child, or abandon its worker."""
        obs = _obs_registry()
        worker = task.worker
        assert worker is not None
        if not task.killed:
            # First strike: hard-kill whatever child the worker is
            # blocked on.  The worker unblocks, sees harness_killed,
            # and reports the attempt as a timeout through the normal
            # result path (possibly retrying).
            killed = kill_active_child(worker)
            with self._lock:
                task.killed = True
                task.deadline_at = time.monotonic() + self.KILL_GRACE
            if killed:
                obs.counter("supervisor.watchdog.kills").inc()
                return
            # No child to kill: fall through after the grace period.
            return
        if kill_active_child(worker):
            obs.counter("supervisor.watchdog.kills").inc()
            # The worker moved on to a fresh child (a retry) that is
            # itself past the deadline; kill that one too and keep
            # waiting for the worker to surface.
            with self._lock:
                task.deadline_at = time.monotonic() + self.KILL_GRACE
            return
        # Second strike with nothing left to kill: the worker thread is
        # wedged in pure-Python code.  Abandon it, resolve the task as
        # a timeout ourselves, and restaff the pool.
        with self._lock:
            if task.resolved:
                return
            task.abandoned = True
            # The wedged thread leaves the healthy pool *now*, so a
            # storm of simultaneous wedges sees the pool shrink step by
            # step instead of every enforcement believing the others'
            # workers are still serviceable.
            self._healthy_workers -= 1
            self._abandoned_workers.add(worker)
        obs.counter("supervisor.watchdog.abandoned").inc()
        outcome = self._timeout_outcome(task)
        if self._resolve(task, outcome):
            with self._lock:
                self._active.pop(worker, None)
                # Restaff only when the surviving healthy workers cannot
                # cover the queue: under a total-wedge storm with one
                # queued task this spawns exactly one replacement — not
                # one per wedged worker — so ``workers_restaffed`` counts
                # real replacements and idle spawns never busy-loop.
                restaff = (
                    bool(self._queue)
                    and not self._stop
                    and self._healthy_workers < min(self.jobs, len(self._queue))
                )
            if restaff:
                # Monotonic serial, never the millisecond clock: two
                # replacements in the same millisecond used to collide.
                obs.counter("supervisor.workers_restaffed").inc()
                self._spawn_worker(next(self._worker_serial))

    def _timeout_outcome(self, task: _TaskState) -> SubmissionOutcome:
        from repro.grading.records import SubmissionRecord, TestRecord

        outcomes = task.attempt_outcomes + [FailureKind.TIMEOUT.value]
        record = SubmissionRecord(
            student=task.student,
            suite=self._suite_name,
            timestamp=time.time(),
            elapsed=time.monotonic() - self._epoch,
            tests=[
                TestRecord(
                    test_name="supervisor",
                    score=0.0,
                    max_score=0.0,
                    fatal=(
                        f"submission {task.identifier!r} exceeded its "
                        f"{self.deadline:g}s deadline and its worker could "
                        f"not be recovered; graded as timeout"
                    ),
                    failure_kind=FailureKind.TIMEOUT.value,
                )
            ],
            failure_kind=FailureKind.TIMEOUT.value,
            attempts=len(outcomes),
            attempt_outcomes=outcomes,
        )
        return SubmissionOutcome(
            student=task.student,
            identifier=task.identifier,
            record=record,
            result=None,
            failure_kind=FailureKind.TIMEOUT,
            attempts=len(outcomes),
            attempt_outcomes=outcomes,
        )
