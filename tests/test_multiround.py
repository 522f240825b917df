"""Tests of the multi-round fork-join extension (Jacobi)."""

from __future__ import annotations

import pytest

import threading

from repro.core.multiround import (
    AbstractMultiRoundForkJoinChecker,
    build_multi_round_trace,
)
from repro.core.outcome import Aspect
from repro.core.properties import ARRAY, NUMBER, PropertySpec
from repro.core.trace_model import PhaseSpecs
from repro.execution.registry import register_main, unregister_main
from repro.execution.runner import ProgramRunner
from repro.execution.subprocess_runner import SubprocessRunner
from repro.execution.taxonomy import RETRYABLE_KINDS, FailureKind
from repro.graders.jacobi import JacobiFunctionality
from repro.testfw.result import AspectStatus
from repro.workloads.jacobi.spec import initial_grid, stencil
from tests.helpers import synthetic_execution

ROUND_PRE = [PropertySpec("Round", NUMBER)]
ROUND_POST = [PropertySpec("Global Max Delta", NUMBER)]
FINAL_POST = [PropertySpec("Final Heat", ARRAY)]
WORKER_SPECS = PhaseSpecs(
    iteration=[PropertySpec("Cell", NUMBER), PropertySpec("New Heat", NUMBER)],
    post_iteration=[PropertySpec("Chunk Max Delta", NUMBER)],
)


def build(schedule):
    return build_multi_round_trace(
        synthetic_execution(schedule),
        round_pre=ROUND_PRE,
        round_post=ROUND_POST,
        final_post=FINAL_POST,
        worker_specs=WORKER_SPECS,
    )


def two_round_schedule():
    return [
        ("R", "Round", 0),
        ("A", "Cell", 0),
        ("A", "New Heat", 1.0),
        ("B", "Cell", 1),
        ("B", "New Heat", 2.0),
        ("A", "Chunk Max Delta", 1.0),
        ("B", "Chunk Max Delta", 2.0),
        ("R", "Global Max Delta", 2.0),
        ("R", "Round", 1),
        ("A", "Cell", 0),
        ("A", "New Heat", 1.5),
        ("B", "Cell", 1),
        ("B", "New Heat", 1.5),
        ("A", "Chunk Max Delta", 0.5),
        ("B", "Chunk Max Delta", 0.5),
        ("R", "Global Max Delta", 0.5),
        ("R", "Final Heat", [1.5, 1.5]),
    ]


class TestTraceBuilder:
    def test_rounds_carved_correctly(self):
        trace = build(two_round_schedule())
        assert len(trace.rounds) == 2
        assert trace.structure_errors == []
        for index, round_trace in enumerate(trace.rounds):
            assert round_trace.pre.values["Round"] == index
            assert round_trace.post is not None
            assert round_trace.worker_count == 2
            assert round_trace.total_iterations == 2
        assert trace.final_post_join is not None
        assert trace.final_post_join.values["Final Heat"] == [1.5, 1.5]

    def test_worker_before_any_round_flagged(self):
        schedule = [("A", "Cell", 0)] + two_round_schedule()
        trace = build(schedule)
        assert any("outside any round" in e for e in trace.structure_errors)

    def test_missing_round_post_flagged(self):
        schedule = two_round_schedule()
        # Drop round 0's Global Max Delta; round 1's "Round" print follows.
        del schedule[7]
        trace = build(schedule)
        assert any(
            "expected its post-join properties" in e
            for e in trace.rounds[0].structure_errors
        )

    def test_unexpected_root_output_flagged(self):
        schedule = two_round_schedule()
        schedule.insert(8, ("R", "Debug", 1))
        trace = build(schedule)
        assert any("unexpected root output" in e for e in trace.structure_errors)

    def test_missing_final_post_join(self):
        schedule = two_round_schedule()[:-1]
        trace = build(schedule)
        assert trace.final_post_join is None


class TestJacobiGraderScores:
    def test_correct_full_marks(self, round_robin_backend):
        result = JacobiFunctionality("jacobi.correct").run()
        assert result.percent == pytest.approx(100.0), result.render()

    def test_in_place_update_pinpointed(self, round_robin_backend):
        result = JacobiFunctionality("jacobi.in_place").run()
        failed = {o.aspect for o in result.failed_aspects()}
        assert Aspect.ITERATION_SEMANTICS in failed
        message = next(
            o.message
            for o in result.failed_aspects()
            if o.aspect == Aspect.ITERATION_SEMANTICS
        )
        assert "double" in message  # names the likely cause

    def test_missing_round_is_a_structure_error(self, round_robin_backend):
        result = JacobiFunctionality("jacobi.missing_round").run()
        statuses = {o.aspect: o.status for o in result.outcomes}
        assert statuses[Aspect.FORK_SYNTAX] is AspectStatus.FAILED
        assert statuses[Aspect.ITERATION_SEMANTICS] is AspectStatus.SKIPPED
        failed_message = next(
            o.message for o in result.failed_aspects()
        )
        assert "2 rounds but the problem requires exactly 3" in failed_message

    def test_wrong_global_delta_fails_post_join_only(self, round_robin_backend):
        result = JacobiFunctionality("jacobi.wrong_global_delta").run()
        failed = {o.aspect for o in result.failed_aspects()}
        assert failed == {Aspect.POST_JOIN_SEMANTICS}
        message = next(o.message for o in result.failed_aspects())
        assert "max()" in message

    def test_no_round_barrier_is_a_structure_error(self, round_robin_backend):
        result = JacobiFunctionality("jacobi.no_round_barrier").run()
        statuses = {o.aspect: o.status for o in result.outcomes}
        assert statuses[Aspect.FORK_SYNTAX] is AspectStatus.FAILED

    def test_scores_rank_sensibly(self, round_robin_backend):
        scores = {
            ident: JacobiFunctionality(ident).run().score
            for ident in [
                "jacobi.correct",
                "jacobi.wrong_global_delta",
                "jacobi.in_place",
                "jacobi.missing_round",
            ]
        }
        assert (
            scores["jacobi.correct"]
            > scores["jacobi.wrong_global_delta"]
            > scores["jacobi.in_place"]
            > scores["jacobi.missing_round"]
        )

    def test_rounds_are_committed_between_episodes(self, round_robin_backend):
        """The checker's tracked grid must advance round over round: the
        third round's stencil values differ from the first's."""
        checker = JacobiFunctionality("jacobi.correct")
        result = checker.run()
        assert result.percent == pytest.approx(100.0)
        trace = checker.last_multi_round_trace
        heats_round0 = [
            t.values["New Heat"] for w in trace.rounds[0].workers for t in w.iterations
        ]
        heats_round2 = [
            t.values["New Heat"] for w in trace.rounds[2].workers for t in w.iterations
        ]
        assert heats_round0 != heats_round2


class _OneRound(AbstractMultiRoundForkJoinChecker):
    """A minimal multi-round checker around one registered program."""

    def __init__(self, identifier, *, stdin=None, timeout=10.0):
        super().__init__()
        self._identifier = identifier
        self._stdin = stdin
        self._timeout = timeout

    def main_class_identifier(self):
        return self._identifier

    def stdin_lines(self):
        return self._stdin

    def process_timeout(self):
        return self._timeout

    def num_rounds(self):
        return 1


class _OneRoundSubprocess(_OneRound):
    """:class:`_OneRound` run in a child interpreter."""

    def make_runner(self):
        return SubprocessRunner(timeout=self.process_timeout())


class TestFailureClassification:
    """A multi-round run fails the way a single-round run does: the
    student's timeout or crash is labelled as such, so it is retryable
    and not blamed on the harness."""

    def run_registered(self, identifier, main, **kwargs):
        register_main(identifier)(main)
        try:
            return _OneRound(identifier, **kwargs).run()
        finally:
            unregister_main(identifier)

    def test_hang_past_the_timeout_is_a_timeout(self):
        release = threading.Event()
        try:
            result = self.run_registered(
                "multiround.test.hang",
                lambda args: release.wait(10.0),
                timeout=0.2,
            )
        finally:
            release.set()
        assert result.score == 0
        assert "did not terminate" in result.fatal
        assert result.failure_kind == "timeout"
        assert FailureKind(result.failure_kind) in RETRYABLE_KINDS

    def test_raising_program_is_a_crash(self):
        def crash(args):
            raise ZeroDivisionError("by zero")

        result = self.run_registered("multiround.test.crash", crash)
        assert result.score == 0
        assert "ZeroDivisionError" in result.fatal
        assert result.failure_kind == "crash"
        assert FailureKind(result.failure_kind) in RETRYABLE_KINDS

    def test_unknown_program_is_an_infra_error(self):
        result = _OneRound("multiround.test.missing").run()
        assert "no tested program" in result.fatal
        assert result.failure_kind == "infra-error"

    def test_program_reads_its_scripted_stdin(self):
        seen = []

        def reader(args):
            seen.append(input())
            seen.append(input())

        result = self.run_registered(
            "multiround.test.stdin", reader, stdin=["3", "4"]
        )
        assert seen == ["3", "4"]
        assert not result.fatal

    def test_torn_subprocess_trace_is_a_garbled_trace(self):
        result = _OneRoundSubprocess("faults.garble").run()
        assert not result.fatal
        assert result.failure_kind == "garbled-trace"
        assert FailureKind(result.failure_kind) in RETRYABLE_KINDS

    @pytest.mark.parametrize("checker", [_OneRound, _OneRoundSubprocess])
    def test_clean_run_is_ok(self, checker):
        result = checker("faults.ok").run()
        assert not result.fatal
        assert result.failure_kind == "ok"


class TestReferenceStencil:
    def test_initial_grid(self):
        assert initial_grid(4) == [100.0, 0.0, 0.0, 0.0]
        assert initial_grid(0) == []

    def test_stencil_edges_clamp(self):
        grid = [9.0, 3.0, 6.0]
        assert stencil(grid, 0) == pytest.approx((9.0 + 9.0 + 3.0) / 3)
        assert stencil(grid, 2) == pytest.approx((3.0 + 6.0 + 6.0) / 3)

    def test_heat_is_conserved_by_reference_update(self):
        """Interior-only sanity: total heat decays only at edges; with
        clamped edges the update is an average, so values stay within
        the initial range."""
        grid = initial_grid(6)
        for _ in range(10):
            grid = [stencil(grid, i) for i in range(len(grid))]
        assert all(0.0 <= v <= 100.0 for v in grid)

    def test_workload_thread_count_matches_arg(self, round_robin_backend):
        result = ProgramRunner().run("jacobi.correct", ["12", "4", "2"])
        names = [e.name for e in result.events]
        assert names.count("Round") == 2
        assert names.count("Chunk Max Delta") == 8  # 4 threads x 2 rounds
