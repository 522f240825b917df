"""``AbstractForkJoinChecker``: the functionality-testing base class.

A test program for a fork-join problem subclasses this class and
overrides *parameter methods* to declare the "what" of testing — the
tested program's name and arguments, the property names/types of each
phase, the total iteration count, the expected forked-thread count, and
optionally credit — plus up to four *semantic check methods* (see the
paper's appendix for the primes example this API transliterates).  The
infrastructure owns the "how": invoking the program, collecting traces,
checking syntax and semantics per phase, checking thread count /
interleaving / load balance, allocating default credit, and producing
error messages.

The checking pipeline per run:

1. execute ``main(args)`` to completion under a trace session, on the
   default controlled schedule (:data:`DEFAULT_SCHEDULE`);
2. organise events into the phased trace;
3. static + dynamic **syntax** checks;
4. if any syntax aspect failed → concurrency and semantic checks are
   *skipped* (Fig. 11) and only earned syntax credit counts;
5. otherwise **concurrency** checks (thread count, interleaving, load
   balance) and **semantic** callbacks run;
6. credit allocation turns aspect outcomes into the test's score.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.core.concurrency_checks import check_concurrency
from repro.core.credit import CreditSchema, score_outcomes
from repro.core.dynamic_syntax import check_dynamic_syntax
from repro.core.messages import Messages
from repro.core.outcome import Aspect, CheckOutcome, merge_outcomes
from repro.core.properties import PropertySpec, normalize_specs
from repro.core.report import ForkJoinCheckReport, make_report
from repro.core.semantics import run_semantic_checks
from repro.core.syntax import check_static_syntax
from repro.core.trace_model import PhaseSpecs, build_phased_trace
from repro.execution.registry import UnknownMainError
from repro.execution.runner import (
    DEFAULT_TIMEOUT,
    ExecutionResult,
    ProgramRunner,
)
from repro.execution.scheduling import BoundedPreemptionStrategy
from repro.testfw.case import ScoredTestCase
from repro.testfw.result import TestResult

__all__ = ["DEFAULT_SCHEDULE", "AbstractForkJoinChecker"]

#: The controlled schedule every checked run follows, cloned per run:
#: round-robin with a one-decision quantum (``preemption-bound:q1.r0``).
#: Each worker print and checkpoint hands the grant to the next worker,
#: so a grade is a pure function of the program and this schedule, and
#: the recorded decisions land on ``ExecutionResult.schedule``.  A
#: backend the caller installed with
#: :func:`~repro.simulation.backend.use_backend` wins over it: an
#: explorer's schedule, a simulation policy, or ``ThreadingBackend()``
#: to run on free OS threads.
DEFAULT_SCHEDULE = BoundedPreemptionStrategy(quantum=1)


class AbstractForkJoinChecker(ScoredTestCase):
    """Base class of all fork-join functionality test programs."""

    # ------------------------------------------------------------------
    # Parameter methods: tested-program invocation
    # ------------------------------------------------------------------
    def main_class_identifier(self) -> str:
        """Name of the tested program (the standard assignment name)."""
        raise NotImplementedError(
            f"{type(self).__name__} must override main_class_identifier()"
        )

    def args(self) -> List[str]:
        """Arguments passed to the tested program's ``main``."""
        return []

    def stdin_lines(self) -> Optional[List[str]]:
        """Scripted console input for the tested program (``None`` = no
        input; a program that reads anyway sees EOF)."""
        return None

    def num_expected_forked_threads(self) -> int:
        """Worker threads the solution must fork (concurrency check)."""
        return 1

    def total_iterations(self) -> Optional[int]:
        """Iterations all threads must perform together; ``None`` skips
        iteration-count and load-balance checking."""
        return None

    def process_timeout(self) -> float:
        """Wall-clock limit for one run of the tested program."""
        return DEFAULT_TIMEOUT

    # ------------------------------------------------------------------
    # Parameter methods: static syntax (names and types per phase)
    # ------------------------------------------------------------------
    def pre_fork_property_names_and_types(self) -> Sequence[Any]:
        """(name, type) pairs the root must print before forking."""
        return ()

    def iteration_property_names_and_types(self) -> Sequence[Any]:
        """(name, type) pairs each worker prints per iteration, in order."""
        return ()

    def post_iteration_property_names_and_types(self) -> Sequence[Any]:
        """(name, type) pairs each worker prints after its loop."""
        return ()

    def post_join_property_names_and_types(self) -> Sequence[Any]:
        """(name, type) pairs the root prints after joining the workers."""
        return ()

    # ------------------------------------------------------------------
    # Parameter methods: credit
    # ------------------------------------------------------------------
    def thread_count_credit(self) -> float:
        """Fraction of the thread-count aspect reserved for the *exact*
        expected count; the remainder rewards forking one or more threads
        (Fig. 12 overrides this to 0.8)."""
        return 1.0

    def credit_weights(self) -> Optional[Mapping[str, float]]:
        """Optional per-aspect weight overrides; ``None`` keeps defaults."""
        return None

    def load_balance_tolerance(self) -> int:
        """Extra iterations a thread may deviate from fair share."""
        return 0

    # ------------------------------------------------------------------
    # Semantic check methods (override any subset; return an error
    # message, or None when the phase's values are correct)
    # ------------------------------------------------------------------
    def pre_fork_events_message(
        self, thread: threading.Thread, values: Mapping[str, Any]
    ) -> Optional[str]:
        """Check the root's pre-fork properties (first callback run)."""
        return None

    def iteration_events_message(
        self, thread: threading.Thread, values: Mapping[str, Any]
    ) -> Optional[str]:
        """Check one iteration's properties; called once per iteration,
        with each worker's iterations dispatched contiguously."""
        return None

    def post_iteration_events_message(
        self, thread: threading.Thread, values: Mapping[str, Any]
    ) -> Optional[str]:
        """Check a worker's post-iteration properties, right after its
        iterations were dispatched and before the next worker's."""
        return None

    def post_join_events_message(
        self, thread: threading.Thread, values: Mapping[str, Any]
    ) -> Optional[str]:
        """Check the root's post-join properties (last callback run)."""
        return None

    # ------------------------------------------------------------------
    # Infrastructure-side machinery
    # ------------------------------------------------------------------
    def make_runner(self) -> ProgramRunner:
        """The execution layer used to run the tested program; override
        to substitute e.g. the simulation backend's runner."""
        return ProgramRunner(timeout=self.process_timeout())

    #: Filled by :meth:`run` with the full report of the latest check.
    last_report: Optional[ForkJoinCheckReport] = None

    def phase_specs(self) -> PhaseSpecs:
        """The normalised static syntax declared by this test program."""
        return PhaseSpecs(
            pre_fork=normalize_specs(self.pre_fork_property_names_and_types()),
            iteration=normalize_specs(self.iteration_property_names_and_types()),
            post_iteration=normalize_specs(
                self.post_iteration_property_names_and_types()
            ),
            post_join=normalize_specs(self.post_join_property_names_and_types()),
        )

    def _overridden_semantics(self) -> Dict[str, bool]:
        base = AbstractForkJoinChecker
        cls = type(self)
        return {
            Aspect.PRE_FORK_SEMANTICS: cls.pre_fork_events_message
            is not base.pre_fork_events_message,
            Aspect.ITERATION_SEMANTICS: cls.iteration_events_message
            is not base.iteration_events_message,
            Aspect.POST_ITERATION_SEMANTICS: cls.post_iteration_events_message
            is not base.post_iteration_events_message,
            Aspect.POST_JOIN_SEMANTICS: cls.post_join_events_message
            is not base.post_join_events_message,
        }

    def _applicable_concurrency_aspects(
        self, specs: PhaseSpecs, total_iterations: Optional[int], threads: int
    ) -> List[str]:
        aspects = [Aspect.THREAD_COUNT]
        if threads >= 2 and specs.has_worker_specs:
            aspects.append(Aspect.INTERLEAVING)
        if threads >= 2 and total_iterations is not None and specs.iteration:
            aspects.append(Aspect.LOAD_BALANCE)
        return aspects

    def _applicable_semantic_aspects(
        self, specs: PhaseSpecs, overridden: Dict[str, bool]
    ) -> List[str]:
        aspects: List[str] = []
        if overridden[Aspect.PRE_FORK_SEMANTICS] and specs.pre_fork:
            aspects.append(Aspect.PRE_FORK_SEMANTICS)
        if overridden[Aspect.ITERATION_SEMANTICS]:
            aspects.append(Aspect.ITERATION_SEMANTICS)
        if overridden[Aspect.POST_ITERATION_SEMANTICS]:
            aspects.append(Aspect.POST_ITERATION_SEMANTICS)
        if overridden[Aspect.POST_JOIN_SEMANTICS] and specs.post_join:
            aspects.append(Aspect.POST_JOIN_SEMANTICS)
        return aspects

    def reset_state(self) -> None:
        """Hook: clear mutable semantic-check state before each run.

        Semantic callbacks may keep running state across invocations
        (e.g. the primes test's per-thread and whole-run prime counts);
        this hook makes a checker instance reusable across runs.
        """

    def _execute(self) -> Union[ExecutionResult, TestResult]:
        """Run the tested program once with its arguments and stdin.

        Returns the execution when the program ran to completion.  An
        unknown program, a crash or a timeout instead returns the fatal
        zero-score result, labelled with its failure kind, and sets
        :attr:`last_report`.
        """
        identifier = self.main_class_identifier()
        runner = self.make_runner()
        options: Dict[str, Any] = {"schedule": DEFAULT_SCHEDULE.clone()}
        stdin = self.stdin_lines()
        if stdin is not None:
            options["stdin_lines"] = stdin
        try:
            execution = runner.run(identifier, self.args(), **options)
        except UnknownMainError as exc:
            result = TestResult(
                test_name=self.name,
                score=0.0,
                max_score=self.max_score,
                fatal=str(exc),
                failure_kind="infra-error",
            )
            self.last_report = make_report(result=result)
            return result

        if not execution.ok:
            result = TestResult(
                test_name=self.name,
                score=0.0,
                max_score=self.max_score,
                fatal=Messages.program_crashed(
                    identifier, execution.failure_reason()
                ),
                failure_kind=execution.failure_kind.value,
                schedule=execution.database.schedule_id,
            )
            self.last_report = make_report(
                result=result, execution=execution
            )
            return result
        return execution

    def run(self) -> TestResult:
        """Run the tested program once and grade its trace."""
        self.reset_state()
        execution = self._execute()
        if isinstance(execution, TestResult):
            return execution

        specs = self.phase_specs()
        trace = build_phased_trace(execution, specs)
        total_iterations = self.total_iterations()
        expected_threads = self.num_expected_forked_threads()
        overridden = self._overridden_semantics()

        outcomes: List[CheckOutcome] = []
        outcomes.extend(
            check_static_syntax(
                trace,
                total_iterations=total_iterations,
                expected_threads=expected_threads,
            )
        )
        outcomes.extend(
            check_dynamic_syntax(trace, total_iterations=total_iterations)
        )
        merged = merge_outcomes(outcomes)
        syntax_ok = all(o.ok for o in merged.values())

        skipped: List[str] = []
        if syntax_ok:
            for outcome in check_concurrency(
                trace,
                expected_threads=expected_threads,
                total_iterations=total_iterations,
                thread_count_exact_fraction=self.thread_count_credit(),
                balance_tolerance=self.load_balance_tolerance(),
            ):
                merged[outcome.aspect] = outcome
            for outcome in run_semantic_checks(
                trace, self, overridden=overridden
            ):
                merged[outcome.aspect] = outcome
        else:
            skipped.extend(
                self._applicable_concurrency_aspects(
                    specs, total_iterations, expected_threads
                )
            )
            skipped.extend(self._applicable_semantic_aspects(specs, overridden))

        schema = CreditSchema()
        weight_overrides = self.credit_weights()
        if weight_overrides is not None:
            schema = schema.override(weight_overrides)
        score, report_lines = score_outcomes(
            merged, skipped, schema, self.max_score
        )

        result = TestResult(
            test_name=self.name,
            score=score,
            max_score=self.max_score,
            outcomes=report_lines,
            failure_kind=execution.failure_kind.value,
            schedule=execution.database.schedule_id,
        )
        self.last_report = make_report(
            result=result, execution=execution, trace=trace
        )
        return result

    def check(self) -> ForkJoinCheckReport:
        """Run and return the *full* report (result + trace)."""
        self.run()
        assert self.last_report is not None
        return self.last_report
