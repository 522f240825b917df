"""Multi-round (barrier-style) fork-join checking — a model extension.

The paper's fork-join model covers a single fork…join episode; its
future work asks for "tracing additional classes of concurrent
programs" (§6).  This module extends the infrastructure to the next most
common teaching pattern: *iterative* fork-join, where the root performs
R rounds, each a complete fork-join episode, with the round results
feeding the next round — Jacobi/stencil relaxation, iterative averaging,
BSP supersteps.

Trace structure per round, delimited implicitly by root output exactly
as phases are in the single-round model::

    root:    <round pre-fork properties>      e.g. Round: r
    workers: <iterations + post-iterations, interleaved>
    root:    <round post-join properties>     e.g. Global Max Delta: d

followed, after the last round, by the program-final post-join
properties.  ``AbstractMultiRoundForkJoinChecker`` mirrors the
single-round checker's API with per-round parameter methods and
callbacks; the underlying worker-stream parsing, type system, credit
machinery and report format are reused unchanged.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.core.checker import AbstractForkJoinChecker
from repro.core.concurrency_checks import check_interleaving, check_thread_count
from repro.core.credit import CreditSchema, score_outcomes
from repro.core.messages import Messages
from repro.core.outcome import Aspect, CheckOutcome, merge_outcomes
from repro.core.properties import PropertySpec, normalize_specs
from repro.core.report import ForkJoinCheckReport, make_report
from repro.core.trace_model import (
    PhaseSpecs,
    PropertyTuple,
    WorkerTrace,
    coerce_event_value,
    parse_worker_stream,
)
from repro.eventdb.events import PropertyEvent
from repro.eventdb.queries import is_interleaved
from repro.execution.runner import ExecutionResult
from repro.testfw.result import TestResult

__all__ = ["RoundTrace", "MultiRoundTrace", "AbstractMultiRoundForkJoinChecker"]


@dataclass
class RoundTrace:
    """One fork-join episode of the multi-round execution."""

    index: int
    pre: Optional[PropertyTuple] = None
    post: Optional[PropertyTuple] = None
    workers: List[WorkerTrace] = field(default_factory=list)
    worker_events: List[PropertyEvent] = field(default_factory=list)
    structure_errors: List[str] = field(default_factory=list)

    @property
    def worker_count(self) -> int:
        return len(self.workers)

    @property
    def total_iterations(self) -> int:
        return sum(w.iteration_count for w in self.workers)


@dataclass
class MultiRoundTrace:
    """The episode-structured view of the whole execution."""

    result: ExecutionResult
    rounds: List[RoundTrace] = field(default_factory=list)
    final_post_join: Optional[PropertyTuple] = None
    structure_errors: List[str] = field(default_factory=list)


def _match_root_tuple(
    events: Sequence[PropertyEvent],
    start: int,
    specs: Sequence[PropertySpec],
) -> Optional[PropertyTuple]:
    """Match one root tuple of *specs* beginning at *start* (positional)."""
    values: Dict[str, Any] = {}
    consumed: List[PropertyEvent] = []
    for offset, spec in enumerate(specs):
        position = start + offset
        if position >= len(events):
            return None
        event = events[position]
        if event.name != spec.name:
            return None
        values[spec.name] = coerce_event_value(event, spec)
        consumed.append(event)
    if not consumed:
        return None
    return PropertyTuple(
        thread=consumed[0].thread,
        thread_id=consumed[0].thread_id,
        values=values,
        events=consumed,
    )


def build_multi_round_trace(
    result: ExecutionResult,
    *,
    round_pre: Sequence[PropertySpec],
    round_post: Sequence[PropertySpec],
    final_post: Sequence[PropertySpec],
    worker_specs: PhaseSpecs,
) -> MultiRoundTrace:
    """Carve the event log into rounds delimited by root output."""
    trace = MultiRoundTrace(result=result)
    root = result.root_thread
    events = result.events

    position = 0
    round_index = 0
    while position < len(events):
        event = events[position]
        if event.thread is not root:
            trace.structure_errors.append(
                f"worker output {event.raw_line!r} appeared outside any "
                f"round (before the round's pre-fork properties)"
            )
            position += 1
            continue
        # Try the final post-join first when it is distinguishable.
        final_tuple = _match_root_tuple(events, position, final_post)
        pre_tuple = _match_root_tuple(events, position, round_pre)
        if pre_tuple is None:
            if final_tuple is not None:
                trace.final_post_join = final_tuple
                position += len(final_tuple.events)
                continue
            trace.structure_errors.append(
                f"unexpected root output {event.raw_line!r}; expected the "
                f"next round's pre-fork properties or the final post-join"
            )
            position += 1
            continue

        # A round begins.
        current = RoundTrace(index=round_index, pre=pre_tuple)
        round_index += 1
        position += len(pre_tuple.events)

        # Worker segment: everything until the next root event.
        segment: List[PropertyEvent] = []
        while position < len(events) and events[position].thread is not root:
            segment.append(events[position])
            position += 1
        current.worker_events = segment
        order: List[threading.Thread] = []
        for worker_event in segment:
            if worker_event.thread not in order:
                order.append(worker_event.thread)
        for thread in order:
            stream = [e for e in segment if e.thread is thread]
            current.workers.append(
                parse_worker_stream(thread, stream[0].thread_id, stream, worker_specs)
            )

        # Round post-join.
        post_tuple = _match_root_tuple(events, position, round_post)
        if post_tuple is None:
            current.structure_errors.append(
                f"round {current.index}: expected its post-join properties "
                f"({', '.join(repr(s.name) for s in round_post)}) after the "
                f"workers finished"
            )
        else:
            current.post = post_tuple
            position += len(post_tuple.events)
        trace.rounds.append(current)

    return trace


class AbstractMultiRoundForkJoinChecker(AbstractForkJoinChecker):
    """Functionality checker for iterative (multi-round) fork-join code.

    Subclasses override, in addition to the single-round parameter
    methods they need (``main_class_identifier``, ``args``,
    ``num_expected_forked_threads``, iteration/post-iteration specs,
    credit):

    * :meth:`num_rounds` — episodes the program must perform;
    * :meth:`iterations_per_round` — work items per round (load balance
      and fork-output counts are per round);
    * :meth:`round_pre_fork_property_names_and_types` /
      :meth:`round_post_join_property_names_and_types` — the root's
      per-round properties;
    * :meth:`final_post_join_property_names_and_types` — the root's
      program-final properties;
    * per-round semantic callbacks :meth:`round_pre_fork_events_message`,
      :meth:`round_post_join_events_message` (both receive the round
      index) and :meth:`final_post_join_events_message`; the inherited
      ``iteration_events_message`` / ``post_iteration_events_message``
      are called with the worker thread as usual, after
      :meth:`begin_round` announces each new round.
    """

    # -- new parameter methods -------------------------------------------
    def num_rounds(self) -> int:
        raise NotImplementedError(
            f"{type(self).__name__} must override num_rounds()"
        )

    def iterations_per_round(self) -> Optional[int]:
        return None

    def round_pre_fork_property_names_and_types(self) -> Sequence[Any]:
        return ()

    def round_post_join_property_names_and_types(self) -> Sequence[Any]:
        return ()

    def final_post_join_property_names_and_types(self) -> Sequence[Any]:
        return ()

    # -- new semantic callbacks --------------------------------------------
    def begin_round(self, round_index: int) -> None:
        """Hook announcing that checking of a new round starts."""

    def round_pre_fork_events_message(
        self, round_index: int, thread: threading.Thread, values: Mapping[str, Any]
    ) -> Optional[str]:
        return None

    def round_post_join_events_message(
        self, round_index: int, thread: threading.Thread, values: Mapping[str, Any]
    ) -> Optional[str]:
        return None

    def final_post_join_events_message(
        self, thread: threading.Thread, values: Mapping[str, Any]
    ) -> Optional[str]:
        return None

    # -- machinery -----------------------------------------------------------
    #: Filled by run() with the episode-structured trace.
    last_multi_round_trace: Optional[MultiRoundTrace] = None

    def _worker_phase_specs(self) -> PhaseSpecs:
        return PhaseSpecs(
            iteration=normalize_specs(self.iteration_property_names_and_types()),
            post_iteration=normalize_specs(
                self.post_iteration_property_names_and_types()
            ),
        )

    def run(self) -> TestResult:  # noqa: C901 - the orchestration method
        self.reset_state()
        execution = self._execute()
        if isinstance(execution, TestResult):
            return execution

        worker_specs = self._worker_phase_specs()
        round_pre = normalize_specs(self.round_pre_fork_property_names_and_types())
        round_post = normalize_specs(self.round_post_join_property_names_and_types())
        final_post = normalize_specs(self.final_post_join_property_names_and_types())
        trace = build_multi_round_trace(
            execution,
            round_pre=round_pre,
            round_post=round_post,
            final_post=final_post,
            worker_specs=worker_specs,
        )
        self.last_multi_round_trace = trace

        expected_rounds = self.num_rounds()
        expected_threads = self.num_expected_forked_threads()
        per_round = self.iterations_per_round()

        # ---- syntax: episode structure + per-round worker structure ----
        syntax_errors: List[str] = list(trace.structure_errors)
        if len(trace.rounds) != expected_rounds:
            syntax_errors.append(
                f"the program performed {len(trace.rounds)} rounds but the "
                f"problem requires exactly {expected_rounds}"
            )
        for round_trace in trace.rounds:
            syntax_errors.extend(round_trace.structure_errors)
            for worker in round_trace.workers:
                syntax_errors.extend(worker.structure_errors)
            if per_round is not None and round_trace.total_iterations != per_round:
                syntax_errors.append(
                    f"round {round_trace.index}: the threads together "
                    f"performed {round_trace.total_iterations} iterations "
                    f"but each round requires exactly {per_round}"
                )
        if final_post and trace.final_post_join is None:
            syntax_errors.append(
                "the final post-join properties "
                f"({', '.join(repr(s.name) for s in final_post)}) were never "
                f"printed after the last round"
            )
        outcomes: List[CheckOutcome] = [
            CheckOutcome(
                aspect=Aspect.FORK_SYNTAX, ok=not syntax_errors, errors=syntax_errors
            )
        ]
        merged = merge_outcomes(outcomes)
        syntax_ok = not syntax_errors

        skipped: List[str] = []
        if syntax_ok:
            merged.update(self._check_rounds(trace, expected_threads, per_round))
        else:
            skipped = [Aspect.THREAD_COUNT, Aspect.INTERLEAVING, Aspect.LOAD_BALANCE]
            skipped += [a for a in Aspect.SEMANTICS]

        schema = CreditSchema()
        overrides = self.credit_weights()
        if overrides is not None:
            schema = schema.override(overrides)
        score, lines = score_outcomes(merged, skipped, schema, self.max_score)
        result = TestResult(
            test_name=self.name,
            score=score,
            max_score=self.max_score,
            outcomes=lines,
            failure_kind=execution.failure_kind.value,
            schedule=execution.database.schedule_id,
        )
        self.last_report = make_report(result=result, execution=execution)
        return result

    # ------------------------------------------------------------------
    def _check_rounds(
        self,
        trace: MultiRoundTrace,
        expected_threads: int,
        per_round: Optional[int],
    ) -> Dict[str, CheckOutcome]:
        thread_count_errors: List[str] = []
        interleaving_errors: List[str] = []
        balance_errors: List[str] = []
        semantic_errors: Dict[str, List[str]] = {
            Aspect.PRE_FORK_SEMANTICS: [],
            Aspect.ITERATION_SEMANTICS: [],
            Aspect.POST_ITERATION_SEMANTICS: [],
            Aspect.POST_JOIN_SEMANTICS: [],
        }

        def record(aspect: str, message: Optional[str], round_index: int) -> None:
            if message:
                semantic_errors[aspect].append(f"round {round_index}: {message}")

        root = trace.result.root_thread
        for round_trace in trace.rounds:
            self.begin_round(round_trace.index)
            # concurrency, per round
            if round_trace.worker_count != expected_threads:
                thread_count_errors.append(
                    f"round {round_trace.index}: "
                    + Messages.wrong_thread_count(
                        expected_threads, round_trace.worker_count
                    )
                )
            if expected_threads >= 2 and not is_interleaved(round_trace.worker_events):
                interleaving_errors.append(
                    f"round {round_trace.index}: the workers' output is not "
                    f"interleaved"
                )
            if per_round is not None and expected_threads >= 2:
                counts = {
                    w.thread_id: w.iteration_count for w in round_trace.workers
                }
                if counts and max(counts.values()) - min(counts.values()) > 1:
                    balance_errors.append(
                        f"round {round_trace.index}: "
                        + Messages.load_imbalance(
                            counts,
                            per_round // expected_threads,
                            -(-per_round // expected_threads),
                        )
                    )
            # semantics, per round
            if round_trace.pre is not None:
                record(
                    Aspect.PRE_FORK_SEMANTICS,
                    self.round_pre_fork_events_message(
                        round_trace.index, root, dict(round_trace.pre.values)
                    ),
                    round_trace.index,
                )
            for worker in round_trace.workers:
                for iteration in worker.iterations:
                    record(
                        Aspect.ITERATION_SEMANTICS,
                        self.iteration_events_message(
                            worker.thread, dict(iteration.values)
                        ),
                        round_trace.index,
                    )
                if worker.post_iteration is not None:
                    record(
                        Aspect.POST_ITERATION_SEMANTICS,
                        self.post_iteration_events_message(
                            worker.thread, dict(worker.post_iteration.values)
                        ),
                        round_trace.index,
                    )
            if round_trace.post is not None:
                record(
                    Aspect.POST_JOIN_SEMANTICS,
                    self.round_post_join_events_message(
                        round_trace.index, root, dict(round_trace.post.values)
                    ),
                    round_trace.index,
                )

        if trace.final_post_join is not None:
            message = self.final_post_join_events_message(
                root, dict(trace.final_post_join.values)
            )
            if message:
                semantic_errors[Aspect.POST_JOIN_SEMANTICS].append(f"final: {message}")

        merged: Dict[str, CheckOutcome] = {
            Aspect.THREAD_COUNT: CheckOutcome(
                Aspect.THREAD_COUNT,
                ok=not thread_count_errors,
                errors=thread_count_errors,
            )
        }
        if self.num_expected_forked_threads() >= 2:
            merged[Aspect.INTERLEAVING] = CheckOutcome(
                Aspect.INTERLEAVING,
                ok=not interleaving_errors,
                errors=interleaving_errors,
            )
            if per_round is not None:
                merged[Aspect.LOAD_BALANCE] = CheckOutcome(
                    Aspect.LOAD_BALANCE,
                    ok=not balance_errors,
                    errors=balance_errors,
                )
        for aspect, errors in semantic_errors.items():
            if self._multiround_semantics_applicable(aspect):
                merged[aspect] = CheckOutcome(aspect, ok=not errors, errors=errors)
        return merged

    def _multiround_semantics_applicable(self, aspect: str) -> bool:
        base = AbstractMultiRoundForkJoinChecker
        cls = type(self)
        if aspect == Aspect.PRE_FORK_SEMANTICS:
            return (
                cls.round_pre_fork_events_message
                is not base.round_pre_fork_events_message
            )
        if aspect == Aspect.ITERATION_SEMANTICS:
            return (
                cls.iteration_events_message
                is not AbstractForkJoinChecker.iteration_events_message
            )
        if aspect == Aspect.POST_ITERATION_SEMANTICS:
            return (
                cls.post_iteration_events_message
                is not AbstractForkJoinChecker.post_iteration_events_message
            )
        if aspect == Aspect.POST_JOIN_SEMANTICS:
            return (
                cls.round_post_join_events_message
                is not base.round_post_join_events_message
                or cls.final_post_join_events_message
                is not base.final_post_join_events_message
            )
        return False
