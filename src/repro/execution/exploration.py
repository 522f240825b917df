"""N-schedule exploration: deterministic interleaving search for races.

This module is the one schedule-search loop.  A :class:`ScheduleExplorer`
reruns a program under deterministic schedules produced by
:mod:`repro.execution.scheduling` strategies and reports every schedule
whose run failed, keeping the full recorded :class:`ScheduleTrace` so
the exact interleaving can be saved to a file and replayed.

The explorer never runs a program itself: a *run callback*
``run_schedule(strategy) -> (failed, trace, payload)`` does.  The
``explore`` command adapts a functionality checker with
:func:`checker_runs`; ``grade --explore`` passes the grading
supervisor's armed suite attempt.  Both judge a run with
:func:`failure_reasons`, so strategy generation, happens-before dedup,
race analysis and the ``explore.*`` counters live here once.

Four strategy families:

* ``random-walk`` — seeded uniform walks, seeds ``first_seed ..
  first_seed + schedules - 1``;
* ``preemption-sweep`` — the deterministic (quantum, rotation) grid of
  :func:`~repro.execution.scheduling.bounded_preemption_sweep`;
* ``pct`` — :class:`~repro.execution.scheduling.PCTStrategy` runs, one
  seed per schedule, carrying PCT's depth-*d* bug-finding guarantee;
* ``exhaustive`` — :class:`ExhaustiveSearch` enumerates **all** distinct
  interleavings up to a preemption bound (small-state model checking),
  so the report can say "N of M distinct interleavings fail" and, when
  the enumeration completed, that is a *proof within the bound*.

Happens-before dedup (:mod:`repro.execution.equivalence`) is on by
default: the first executed schedule seeds a :class:`ScheduleOracle`,
every later candidate is simulated offline first, and candidates whose
canonical key was already graded are skipped without executing —
reported as ``deduped``.  Predictions are verified against every
executed run; one misprediction fails open (dedup disables itself and
every remaining schedule executes).

Unlike rerun-vote retries, the verdict is a pure function of the
configuration: the same seeds explore the same interleavings and reach
the same verdict on every host, which is what makes racy-submission
grading CI-friendly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.checker import AbstractForkJoinChecker
from repro.core.outcome import Aspect
from repro.execution.equivalence import (
    ScheduleOracle,
    SimulatedRun,
    happens_before_key,
)
from repro.execution.races import RaceReport, analyze_trace, merge_reports
from repro.execution.runner import in_process_session_lock
from repro.execution.taxonomy import ConcurrencyVerdict
from repro.obs import get_registry as _obs_registry
from repro.execution.scheduling import (
    ExhaustiveStrategy,
    PCTStrategy,
    RandomWalkStrategy,
    ReplayStrategy,
    ScheduleDivergenceError,
    ScheduleStrategy,
    ScheduleTrace,
    ScheduledBackend,
    bounded_preemption_sweep,
)
from repro.simulation.backend import use_backend
from repro.testfw.result import TestResult

__all__ = [
    "ExplorationFinding",
    "ExplorationReport",
    "ExhaustiveSearch",
    "ExhaustiveResult",
    "RunSchedule",
    "ScheduleExplorer",
    "STRATEGY_CHOICES",
    "checker_runs",
    "failure_reasons",
]

#: CLI-facing strategy family names.
STRATEGY_CHOICES = ("random-walk", "preemption-sweep", "pct", "exhaustive")

#: ``run_schedule(strategy) -> (failed, trace, payload)``: run the
#: program once under *strategy*.  ``failed`` lists why the run failed
#: (:func:`failure_reasons`; empty when it passed), ``trace`` is the
#: recorded schedule, and ``payload`` rides along on the run's finding.
RunSchedule = Callable[
    [ScheduleStrategy], Tuple[Sequence[str], ScheduleTrace, Any]
]

#: Test scores are rounded to 6 decimal places; a smaller gap between
#: the points lost and the interleaving points lost is rounding.
_SCORE_TOLERANCE = 1e-6


def failure_reasons(results: Sequence[TestResult]) -> List[str]:
    """Why a controlled run failed; empty when it passed.

    This is the one judgment on an explored schedule.  A run fails when
    a test's failure kind is not ``ok``, a test hit a fatal error, or a
    test lost points on an aspect other than thread interleaving.

    The interleaving aspect never decides a controlled verdict.  Under a
    controlled schedule the scheduler, not the program, decides whether
    the workers' prints interleave, and the happens-before key treats
    prints as commuting
    (:data:`~repro.execution.equivalence.COMMUTING_KINDS`).  Two
    equivalent schedules can therefore differ on that aspect alone.
    Judging it would break dedup's premise that equivalent schedules
    grade alike, and would mark correct programs racy.
    """
    reasons: List[str] = []
    for result in results:
        if result.fatal or result.failure_kind not in ("", "ok"):
            reasons.append(
                result.fatal or f"{result.test_name}: {result.failure_kind}"
            )
            continue
        interleaving_lost = sum(
            o.points_possible - o.points_earned
            for o in result.outcomes
            if o.aspect == Aspect.INTERLEAVING
        )
        if result.max_score - result.score - interleaving_lost <= _SCORE_TOLERANCE:
            continue
        messages = [
            o.message or f"{o.aspect} failed"
            for o in result.failed_aspects()
            if o.aspect != Aspect.INTERLEAVING
        ]
        reasons.extend(
            messages
            or [f"{result.test_name} scored {result.score:g}/{result.max_score:g}"]
        )
    return reasons


@dataclass
class ExplorationFinding:
    """One controlled schedule whose run failed."""

    strategy_label: str
    seed: Optional[int]
    #: Why the run failed (:func:`failure_reasons`).
    messages: List[str]
    trace: ScheduleTrace
    #: What the run callback returned with the verdict: the checker's
    #: :class:`~repro.testfw.result.TestResult` for :func:`checker_runs`,
    #: the supervisor's suite attempt for ``grade --explore``.
    payload: Any = None

    @property
    def deadlocked(self) -> bool:
        """True when the failing schedule ended in a deadlock."""
        return self.trace.deadlocked


@dataclass
class ExplorationReport:
    """Aggregate result of an exploration campaign."""

    schedules_tried: int
    strategy: str
    first_seed: int
    findings: List[ExplorationFinding] = field(default_factory=list)
    #: Schedules actually run (``schedules_tried`` minus dedup skips).
    executed: int = 0
    #: Candidates skipped because their happens-before key was already
    #: graded — never executed.
    deduped: int = 0
    #: Distinct happens-before keys among the executed schedules.
    distinct: int = 0
    #: Oracle predictions contradicted by a real run (dedup failed open).
    mispredicted: int = 0
    #: PCT depth / exhaustive preemption bound (``None`` for the others).
    depth: Optional[int] = None
    #: Exhaustive mode: distinct interleavings enumerated (M).
    enumerated: Optional[int] = None
    #: Exhaustive mode: enumerated interleavings that fail (N).
    failing_interleavings: Optional[int] = None
    #: Exhaustive mode: the enumeration covered *every* interleaving
    #: within the bound (``False`` when the execution budget capped it).
    complete: Optional[bool] = None
    #: Lockset/happens-before evidence merged across every executed
    #: schedule (``None`` when race analysis was off).
    race_report: Optional[RaceReport] = None

    @property
    def concurrency_verdict(self) -> Optional[ConcurrencyVerdict]:
        """Three-way race-aware verdict, or ``None`` without analysis.

        ``wrong`` when any explored schedule failed; ``racy-lucky`` when
        every schedule passed but the race analysis found racing pairs —
        the answer was right by scheduling luck; ``correct`` otherwise.
        """
        if self.race_report is None:
            return ConcurrencyVerdict.WRONG if self.bug_found else None
        if self.bug_found:
            return ConcurrencyVerdict.WRONG
        if self.race_report.has_races:
            return ConcurrencyVerdict.RACY_LUCKY
        return ConcurrencyVerdict.CORRECT

    @property
    def bug_found(self) -> bool:
        """True when at least one explored schedule failed a check."""
        return bool(self.findings)

    @property
    def failure_rate(self) -> float:
        """Fraction of *executed* schedules that failed.

        Deduped skips are excluded from the denominator: they were never
        run, and counting them would understate how often the bug bites
        per distinct interleaving actually graded.  (Reports predating
        the dedup fields fall back to ``schedules_tried``.)
        """
        denominator = self.executed or self.schedules_tried
        if not denominator:
            return 0.0
        return len(self.findings) / denominator

    @property
    def first_failing_seed(self) -> Optional[int]:
        """Seed of the first seeded failing schedule, or ``None``."""
        for finding in self.findings:
            if finding.seed is not None:
                return finding.seed
        return None

    def first_failing_trace(self) -> Optional[ScheduleTrace]:
        """Recorded trace of the first failing schedule, or ``None``."""
        return self.findings[0].trace if self.findings else None

    def coverage_statement(self) -> Optional[str]:
        """Exhaustive-mode coverage in words, or ``None`` otherwise."""
        if self.enumerated is None:
            return None
        failing = self.failing_interleavings or 0
        scope = (
            f"all {self.enumerated} distinct interleavings within "
            f"preemption bound {self.depth}"
            if self.complete
            else f"{self.enumerated} distinct interleavings enumerated "
            f"within preemption bound {self.depth} (budget-capped, "
            f"coverage partial)"
        )
        return f"{failing} of {self.enumerated} distinct interleavings fail; {scope}"

    def _dedup_clause(self) -> str:
        if not self.deduped:
            return ""
        return (
            f" ({self.executed} executed, {self.deduped} deduped as "
            f"happens-before equivalent)"
        )

    def _race_clause(self) -> str:
        if self.race_report is None:
            return ""
        if not self.race_report.has_races:
            return "; race analysis: " + self.race_report.summary()
        verdict = self.concurrency_verdict
        prefix = (
            "racy-lucky (every schedule passed, but a race is present)"
            if verdict is ConcurrencyVerdict.RACY_LUCKY
            else "race analysis"
        )
        return f"; {prefix}: {self.race_report.summary()}"

    def summary(self) -> str:
        """One-line human-readable verdict of the campaign."""
        if self.enumerated is not None:
            bound = (
                f"preemption bound {self.depth}, "
                + ("complete" if self.complete else "budget-capped")
            )
            if not self.bug_found:
                tail = (
                    "a proof of schedule-independence within the bound, "
                    "not beyond it"
                    if self.complete
                    else "exploration can only refute, not prove, "
                    "synchronization correctness"
                )
                return (
                    f"no failing interleaving among {self.enumerated} "
                    f"distinct interleavings ({bound})"
                    + self._dedup_clause()
                    + f"; {tail}"
                    + self._race_clause()
                )
            first = self.findings[0]
            return (
                f"racy: {self.failing_interleavings} of {self.enumerated} "
                f"distinct interleavings fail ({bound})"
                + self._dedup_clause()
                + f"; first failing schedule {first.strategy_label}: "
                + "; ".join(first.messages[:2])
                + self._race_clause()
            )
        if not self.bug_found:
            return (
                f"no failing schedule in {self.schedules_tried} explored "
                f"({self.strategy})"
                + self._dedup_clause()
                + "; exploration can only refute, not "
                "prove, synchronization correctness"
                + self._race_clause()
            )
        first = self.findings[0]
        return (
            f"{len(self.findings)}/{self.executed or self.schedules_tried} "
            f"executed schedules failed"
            + self._dedup_clause()
            + f"; first failing schedule {first.strategy_label}: "
            + "; ".join(first.messages[:2])
            + self._race_clause()
        )


# ----------------------------------------------------------------------
# Exhaustive DFS driver
# ----------------------------------------------------------------------
@dataclass
class ExhaustiveResult:
    """What :class:`ExhaustiveSearch` learned about the schedule space."""

    #: Distinct complete interleavings enumerated (M) — executed runs
    #: plus dedup-inherited equivalents.
    enumerated: int = 0
    executed: int = 0
    deduped: int = 0
    mispredicted: int = 0
    #: Enumerated interleavings that fail (N); dedup-inherited verdicts
    #: count, since equivalent schedules grade identically.
    failing: int = 0
    #: Every interleaving within the bound was covered.
    complete: bool = True
    #: Payloads returned by ``run_schedule`` for failing executed runs.
    failing_payloads: List[Any] = field(default_factory=list)


class ExhaustiveSearch:
    """Enumerate all interleavings up to a preemption bound (DFS).

    Stateless-model-checking over the controlled scheduler's decision
    tree: run the empty-prefix schedule, then for every decision of the
    realized run and every alternative ready worker at that decision,
    branch into a forced prefix that diverges there — skipping branches
    whose preemption count would exceed ``depth``.  The
    :class:`~repro.execution.scheduling.ExhaustiveStrategy` default
    continuation is non-preemptive, so a run's preemption count is
    exactly its prefix's, and branching where the previous worker is no
    longer ready costs nothing against the bound.  Every enumerated
    prefix realizes a distinct complete interleaving, each exactly once.

    With ``dedup`` on, the first executed run seeds a
    :class:`ScheduleOracle`; branches whose predicted happens-before key
    was already graded are *simulated instead of executed* — they still
    count toward the enumeration (and inherit the verdict of their
    equivalence class), and their children are expanded from the
    simulated decisions, so dedup prunes executions without shrinking
    coverage.

    ``run_schedule(strategy) -> (failed, trace, payload)`` runs one
    schedule; ``max_schedules`` caps *executions* (exhausting it marks
    the result incomplete), ``max_interleavings`` backstops the total
    enumeration.
    """

    def __init__(
        self,
        run_schedule: Callable[
            [ExhaustiveStrategy], Tuple[bool, ScheduleTrace, Any]
        ],
        *,
        depth: int = 2,
        max_schedules: int = 256,
        dedup: bool = True,
        max_interleavings: int = 4096,
    ) -> None:
        """Configure the search; the class docstring explains the knobs."""
        if depth < 0:
            raise ValueError("depth (preemption bound) must be >= 0")
        if max_schedules < 1:
            raise ValueError("max_schedules must be >= 1")
        self.run_schedule = run_schedule
        self.depth = depth
        self.max_schedules = max_schedules
        self.dedup = dedup
        self.max_interleavings = max_interleavings

    # ------------------------------------------------------------------
    @staticmethod
    def _preemption_profile(trace: ScheduleTrace) -> List[int]:
        """``profile[i]`` = preemptions among decisions ``0 .. i-1``."""
        profile = [0]
        count = 0
        decisions = trace.decisions
        for index, decision in enumerate(decisions):
            if index > 0:
                current = decisions[index - 1].chosen
                if current in decision.ready and decision.chosen != current:
                    count += 1
            profile.append(count)
        return profile

    def run(self) -> ExhaustiveResult:
        """Drive the DFS to completion (or budget) and tally the census."""
        obs = _obs_registry()
        out = ExhaustiveResult()
        oracle: Optional[ScheduleOracle] = None
        oracle_usable = self.dedup
        seen: Dict[str, bool] = {}
        stack: List[List[int]] = [[]]
        while stack:
            if out.enumerated >= self.max_interleavings:
                out.complete = False
                break
            prefix = stack.pop()
            strategy = ExhaustiveStrategy(prefix)
            trace: Optional[ScheduleTrace] = None
            failed = False
            predicted: Optional[SimulatedRun] = None
            if oracle is not None and oracle_usable:
                try:
                    predicted = oracle.simulate(strategy.clone())
                except ScheduleDivergenceError:
                    # The simulation cannot follow a prefix the program
                    # realized (e.g. nested locks, which the conflated
                    # lock mis-models): a misprediction, so fail open.
                    out.mispredicted += 1
                    obs.counter("explore.mispredicted").inc()
                    oracle_usable = False
                else:
                    if predicted.key in seen:
                        failed = seen[predicted.key]
                        trace = predicted.trace
                        out.deduped += 1
                        obs.counter("explore.deduped").inc()
            if trace is None:
                if out.executed >= self.max_schedules:
                    out.complete = False
                    break
                failed, real_trace, payload = self.run_schedule(strategy)
                out.executed += 1
                if real_trace.divergence:
                    # The forced prefix came from a realized run; a
                    # divergence means the program is nondeterministic
                    # beyond its scheduling.  Count the run, stop
                    # trusting the enumeration.
                    out.complete = False
                    out.enumerated += 1
                    if failed:
                        out.failing += 1
                        out.failing_payloads.append(payload)
                    continue
                if predicted is not None and predicted.key is not None:
                    key = predicted.key_of(real_trace)
                    mispredicted = key != predicted.key
                else:
                    key = happens_before_key(real_trace)
                    mispredicted = False
                if mispredicted:
                    out.mispredicted += 1
                    obs.counter("explore.mispredicted").inc()
                    oracle_usable = False  # fail open: execute everything
                if oracle is None and oracle_usable:
                    oracle = ScheduleOracle.from_trace(real_trace)
                    if oracle is None:
                        oracle_usable = False
                seen.setdefault(key, failed)
                trace = real_trace
                if failed:
                    out.failing_payloads.append(payload)
            else:
                payload = None
            out.enumerated += 1
            if failed:
                out.failing += 1
            # Branch: at every post-prefix decision, try every ready
            # alternative that keeps the preemption count within bound.
            decisions = trace.decisions
            profile = self._preemption_profile(trace)
            realized = [d.chosen for d in decisions]
            for index in range(len(prefix), len(decisions)):
                decision = decisions[index]
                current = realized[index - 1] if index > 0 else None
                for alt in decision.ready:
                    if alt == decision.chosen:
                        continue
                    extra = (
                        1
                        if current is not None
                        and current in decision.ready
                        and alt != current
                        else 0
                    )
                    if profile[index] + extra > self.depth:
                        continue
                    stack.append(realized[:index] + [alt])
        if stack:
            out.complete = False
        obs.counter("explore.coverage").inc(out.enumerated)
        return out


def checker_runs(
    checker_factory: Callable[[], AbstractForkJoinChecker],
) -> RunSchedule:
    """The ``explore`` command's run callback over a functionality checker.

    Each call builds a fresh checker (checkers keep state) and runs it
    once under a :class:`ScheduledBackend` for the given strategy.  The
    backend is installed ambiently around the whole checker run while
    the in-process session lock is held, so the runner inside the
    checker picks it up and no other in-process run can interleave.
    The payload is the checker's :class:`TestResult`.
    """

    def run_schedule(
        strategy: ScheduleStrategy,
    ) -> Tuple[List[str], ScheduleTrace, TestResult]:
        backend = ScheduledBackend(strategy)
        checker = checker_factory()
        with _obs_registry().span(
            "explore.schedule",
            strategy=strategy.label(),
            seed=getattr(strategy, "seed", None),
        ) as span:
            with in_process_session_lock():
                with use_backend(backend):
                    result = checker.run_safely()
            trace = backend.schedule_trace(*_program_identity(checker))
            failed = failure_reasons([result])
            span.set(ok=not failed, deadlocked=trace.deadlocked or None)
        return failed, trace, result

    return run_schedule


def _program_identity(checker: AbstractForkJoinChecker) -> Tuple[str, List[str]]:
    try:
        identifier = checker.main_class_identifier()
    except NotImplementedError:  # pragma: no cover - abstract factory
        identifier = type(checker).__name__
    try:
        args = [str(a) for a in checker.args()]
    except NotImplementedError:  # pragma: no cover - abstract factory
        args = []
    return identifier, args


class ScheduleExplorer:
    """Run a program under N controlled schedules through a run callback.

    ``run_schedule`` (:data:`RunSchedule`) runs the program once per
    schedule; :func:`checker_runs` builds one from a checker factory.
    ``strategy`` selects the schedule family (:data:`STRATEGY_CHOICES`);
    ``depth`` is the PCT depth or the exhaustive preemption bound;
    ``max_schedules`` caps exhaustive-mode *executions* (defaulting to
    ``schedules``); ``dedup`` toggles happens-before deduplication;
    ``races`` runs lockset/happens-before analysis
    (:mod:`repro.execution.races`) over every executed schedule and
    merges the evidence into the report — which is what lets the report
    flag ``racy-lucky`` even when every explored schedule passes.

    :meth:`run` explores the whole campaign; :meth:`run_to_first_failure`
    stops a linear family at its first failing schedule.  Both walk the
    same loop.
    """

    def __init__(
        self,
        run_schedule: RunSchedule,
        *,
        schedules: int = 20,
        first_seed: int = 0,
        strategy: str = "random-walk",
        max_quantum: int = 4,
        depth: int = 3,
        max_schedules: Optional[int] = None,
        dedup: bool = True,
        races: bool = False,
    ) -> None:
        """Configure the campaign; see the class docstring for the knobs."""
        if schedules < 1:
            raise ValueError("schedules must be >= 1")
        if strategy not in STRATEGY_CHOICES:
            raise ValueError(
                f"strategy must be one of {STRATEGY_CHOICES}, got {strategy!r}"
            )
        if depth < 0:
            raise ValueError("depth must be >= 0")
        self.run_schedule = run_schedule
        self.schedules = schedules
        self.first_seed = first_seed
        self.strategy = strategy
        self.max_quantum = max_quantum
        self.depth = depth
        self.max_schedules = max_schedules
        self.dedup = dedup
        self.races = races

    # ------------------------------------------------------------------
    def run(self) -> ExplorationReport:
        """Run the whole campaign and aggregate the failing schedules."""
        return self._campaign(stop_at_first_failure=False)

    def run_to_first_failure(self) -> ExplorationReport:
        """Explore until the first failing schedule, the grade of record.

        A linear family (random-walk, preemption-sweep, pct) stops at its
        first failing schedule.  An exhaustive census runs whole: its
        verdict is the count of failing interleavings.
        """
        return self._campaign(stop_at_first_failure=True)

    def replay(
        self, trace: ScheduleTrace
    ) -> Tuple[Sequence[str], ScheduleTrace, Any]:
        """Re-run the program replaying *trace* decision for decision."""
        return self.run_schedule(ReplayStrategy(trace))

    # ------------------------------------------------------------------
    def _campaign(self, *, stop_at_first_failure: bool) -> ExplorationReport:
        race_reports: List[RaceReport] = []
        if self.strategy == "exhaustive":
            report = self._exhaustive(race_reports)
        else:
            report = self._linear(race_reports, stop_at_first_failure)
        if self.races:
            report.race_report = merge_reports(race_reports)
        return report

    def _strategies(self) -> Iterator[ScheduleStrategy]:
        if self.strategy == "random-walk":
            for seed in range(self.first_seed, self.first_seed + self.schedules):
                yield RandomWalkStrategy(seed)
        elif self.strategy == "pct":
            for seed in range(self.first_seed, self.first_seed + self.schedules):
                yield PCTStrategy(seed, depth=max(1, self.depth))
        else:
            yield from bounded_preemption_sweep(
                self.schedules, max_quantum=self.max_quantum
            )

    def _execute(
        self, strategy: ScheduleStrategy, race_reports: List[RaceReport]
    ) -> Tuple[bool, ScheduleTrace, Optional[ExplorationFinding]]:
        """Run one schedule; analyze its races, count it, judge it."""
        obs = _obs_registry()
        failed, trace, payload = self.run_schedule(strategy)
        obs.counter("explore.schedules").inc()
        if self.races:
            race_report = analyze_trace(trace)
            obs.counter("races.analyzed").inc()
            if race_report.has_races:
                obs.counter("races.detected").inc()
                obs.counter("races.pairs").inc(race_report.race_count)
            race_reports.append(race_report)
        if not failed:
            return False, trace, None
        obs.counter("explore.failures").inc()
        finding = ExplorationFinding(
            strategy_label=strategy.label(),
            seed=getattr(strategy, "seed", None),
            messages=list(failed),
            trace=trace,
            payload=payload,
        )
        return True, trace, finding

    def _linear(
        self, race_reports: List[RaceReport], stop_at_first_failure: bool
    ) -> ExplorationReport:
        """The linear families' loop, with happens-before dedup."""
        report = ExplorationReport(
            schedules_tried=0,
            strategy=self.strategy,
            first_seed=self.first_seed,
            depth=self.depth if self.strategy == "pct" else None,
        )
        obs = _obs_registry()
        oracle: Optional[ScheduleOracle] = None
        oracle_usable = self.dedup
        seen: Set[str] = set()
        for strategy in self._strategies():
            report.schedules_tried += 1
            predicted_key: Optional[str] = None
            if oracle is not None and oracle_usable:
                predicted_key = oracle.predict_key(strategy.clone())
                if predicted_key is not None and predicted_key in seen:
                    report.deduped += 1
                    obs.counter("explore.deduped").inc()
                    continue
            _failed, trace, finding = self._execute(strategy, race_reports)
            report.executed += 1
            key = happens_before_key(trace)
            if predicted_key is not None and predicted_key != key:
                report.mispredicted += 1
                obs.counter("explore.mispredicted").inc()
                oracle_usable = False  # fail open: execute everything
            if oracle is None and oracle_usable:
                oracle = ScheduleOracle.from_trace(trace)
                if oracle is None:
                    oracle_usable = False
            seen.add(key)
            if finding is not None:
                report.findings.append(finding)
                if stop_at_first_failure:
                    break
        report.distinct = len(seen)
        obs.counter("explore.coverage").inc(report.executed + report.deduped)
        return report

    def _exhaustive(self, race_reports: List[RaceReport]) -> ExplorationReport:
        search = ExhaustiveSearch(
            lambda strategy: self._execute(strategy, race_reports),
            depth=self.depth,
            max_schedules=self.max_schedules or self.schedules,
            dedup=self.dedup,
        )
        out = search.run()
        return ExplorationReport(
            schedules_tried=out.enumerated,
            strategy="exhaustive",
            first_seed=self.first_seed,
            findings=list(out.failing_payloads),
            executed=out.executed,
            deduped=out.deduped,
            distinct=out.enumerated - out.deduped,
            mispredicted=out.mispredicted,
            depth=self.depth,
            enumerated=out.enumerated,
            failing_interleavings=out.failing,
            complete=out.complete,
        )
