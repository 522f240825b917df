"""Every functionality run follows one recorded schedule, in every regime.

Pins the default controlled schedule (``preemption-bound:q1.r0``):

* the 16 gradebench variants plus ``pi.correct``, ``odds.correct`` and
  ``hello.correct`` grade alike in process and on a pool worker —
  score, failure kind, per-aspect outcomes and recorded decisions — and
  ``jacobi.correct`` alike in a cold child;
* every test of the primes, pi and odds suites, the virtual-clock
  performance tests included, grades alike in process, on a pool worker
  and in cold children, with the same speedup and the same number of
  runs; so does ``primes.stdin`` with its input scripted;
* a default grade names its schedule on its record, and reproduces:
  rerunning that schedule, or replaying the recorded trace, gives the
  same decisions;
* a backend the caller installed wins over the default, in process and
  in a child: ``use_backend(ThreadingBackend())`` runs on free threads;
* a run that stalls outside the scheduler (a raw lock held across a
  print) gets its free-running grade within two seconds, in process and
  pooled, counts one ``runner.stall_reruns`` in the grading process,
  and prints nothing outside its session; two such runs on two
  threads leave no backend installed behind them; a worker that
  computes for longer than the stall window keeps its schedule;
* race analysis sees a lock only when it comes from ``backend.lock()``.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.checker import DEFAULT_SCHEDULE, AbstractForkJoinChecker
from repro.core.outcome import Aspect
from repro.execution.races import analyze_trace
from repro.execution.runner import ProgramRunner, in_process_session_lock
from repro.execution.scheduling import (
    STALL_SECONDS,
    BoundedPreemptionStrategy,
    RandomWalkStrategy,
    ScheduledBackend,
)
from repro.execution.subprocess_runner import SubprocessRunner
from repro.execution.supervisor import GradingSupervisor
from repro.execution.worker_pool import WorkerPool
from repro.grading.records import TestRecord
from repro.graders.primes import PrimesFunctionality
from repro.graders.suites import build_named_suite, build_primes_suite
from repro.obs import get_registry
from repro.simulation.backend import (
    SimulationBackend,
    ThreadingBackend,
    current_backend,
    installed_backend,
    use_backend,
)
from repro.testfw.annotations import max_value
from repro.testfw.suite import TestSuite

import repro.workloads  # noqa: F401 - registers the tested programs

#: The variants gradebench pins, plus one correct program per other suite.
VARIANTS = [
    "primes.correct",
    "primes.serialized",
    "primes.imbalanced",
    "primes.racy",
    "primes.no_fork",
    "primes.wrong_total",
    "primes.syntax_error",
    "primes.wrong_semantics",
    "jacobi.correct",
    "jacobi.in_place",
    "jacobi.missing_round",
    "jacobi.wrong_global_delta",
    "jacobi.no_round_barrier",
    "synclab.lost_update",
    "synclab.guarded",
    "synclab.straggler",
    "pi.correct",
    "odds.correct",
    "hello.correct",
]

DEFAULT_LABEL = "preemption-bound:q1.r0"


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(1) as warm:
        yield warm


def functionality_grades(suite):
    """Per functionality test: the grade and the recorded decisions.

    The performance tests time a fixed reference program, not the
    variant, and follow no schedule; ``suite_grades`` compares them.
    """
    results = suite.run().results
    grades = []
    for test, result in zip(suite.tests, results):
        if not isinstance(test, AbstractForkJoinChecker):
            continue
        schedule = test.last_report.execution.schedule
        grades.append(
            (
                result.test_name,
                result.score,
                result.failure_kind,
                [(o.aspect, o.status, o.points_earned) for o in result.outcomes],
                result.schedule,
                schedule.decisions,
            )
        )
    assert grades
    return grades


class TestEveryRegimeGradesAlike:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_pooled_matches_in_process(self, variant, pool):
        suite_name = variant.split(".")[0]
        in_process = functionality_grades(build_named_suite(suite_name, variant))
        pooled = functionality_grades(
            build_named_suite(suite_name, variant, subprocess_mode=True, pool=pool)
        )
        assert pooled == in_process

    def test_cold_subprocess_matches_in_process(self):
        in_process = functionality_grades(build_named_suite("jacobi", "jacobi.correct"))
        cold = functionality_grades(
            build_named_suite("jacobi", "jacobi.correct", subprocess_mode=True)
        )
        assert cold == in_process
        # 12 cells x (2 prints + 1 checkpoint) x 3 rounds, plus the
        # start, lock and retire decisions of each round's four workers.
        assert cold[0][4] == DEFAULT_LABEL
        assert len(cold[0][5]) > 108


def counted_runs(test):
    """Count the runs *test*'s runner makes, in whichever regime."""
    runs = []
    make_runner = test.make_runner

    def counting_runner():
        runner = make_runner()
        run = runner.run

        def counting_run(*args, **kwargs):
            runs.append(args[0])
            return run(*args, **kwargs)

        runner.run = counting_run
        return runner

    test.make_runner = counting_runner
    return runs


def suite_grades(suite):
    """Per test: the grade, the speedup (performance tests) and runs made."""
    runs = [counted_runs(test) for test in suite.tests]
    results = suite.run().results
    return [
        (
            result.test_name,
            result.score,
            result.failure_kind,
            [(o.aspect, o.status, o.points_earned) for o in result.outcomes],
            getattr(test, "last_speedup", None),
            len(made),
        )
        for test, result, made in zip(suite.tests, results, runs)
    ]


class StdinPrimes(PrimesFunctionality):
    """``primes.stdin`` reads its two parameters from scripted input.

    They differ from the program's defaults (7 and 4), so a grade of
    100% shows that the input reached the program.
    """

    def __init__(self) -> None:
        super().__init__("primes.stdin", num_randoms=9, num_threads=3)

    def args(self):
        return []

    def stdin_lines(self):
        return ["9", "3"]


class TestEveryRegimeTimesAlike:
    @pytest.mark.parametrize("regime", ["pool", "cold"])
    @pytest.mark.parametrize("suite_name", ["primes", "pi", "odds"])
    def test_every_test_matches_in_process(self, suite_name, regime, pool):
        in_process = suite_grades(build_named_suite(suite_name))
        child = suite_grades(
            build_named_suite(
                suite_name,
                subprocess_mode=True,
                pool=pool if regime == "pool" else None,
            )
        )
        assert child == in_process
        functionality, performance = in_process
        assert performance[1] == 20.0 and performance[4] > 1.5
        # Warm-up and one timed run per configuration.
        assert (functionality[5], performance[5]) == (1, 4)

    @pytest.mark.parametrize("regime", ["pool", "cold"])
    def test_scripted_stdin_reaches_the_child(self, regime, pool):
        in_process = StdinPrimes()
        in_process_grades = functionality_grades(TestSuite("stdin", [in_process]))
        child = StdinPrimes()
        child.make_runner = lambda: SubprocessRunner(
            pool=pool if regime == "pool" else None
        )
        assert functionality_grades(TestSuite("stdin", [child])) == in_process_grades
        assert in_process_grades[0][1] == 40.0
        output = child.last_report.execution.output
        assert output == in_process.last_report.execution.output
        assert output.startswith("How many random numbers? How many threads? ")


class TestDefaultGradeReproduces:
    @pytest.mark.parametrize("regime", ["in-process", "pool"])
    def test_rerunning_the_named_schedule(self, regime, pool):
        checker = PrimesFunctionality("primes.racy")
        if regime == "pool":
            checker.make_runner = lambda: SubprocessRunner(pool=pool)
        record = TestRecord.from_dict(TestRecord.from_result(checker.run()).to_dict())
        execution = checker.last_report.execution
        recorded = execution.schedule
        assert record.schedule == DEFAULT_LABEL
        assert execution.database.schedule_id == DEFAULT_LABEL
        assert execution.schedule_note == ""
        assert recorded.strategy == "preemption-bound"
        assert recorded.decisions

        named = DEFAULT_SCHEDULE.clone()
        assert named.label() == record.schedule
        for schedule in (named, recorded):
            rerun = ProgramRunner().run(
                "primes.racy", checker.args(), schedule=schedule
            )
            assert rerun.schedule.decisions == recorded.decisions
            assert rerun.schedule.divergence == ""

    def test_the_racy_grade_is_deterministic(self):
        scores = {PrimesFunctionality("primes.racy").run().score for _ in range(5)}
        assert scores == {36.0}

    def test_the_gradebook_names_each_test_schedule(self):
        batch = GradingSupervisor(build_primes_suite).grade({"s": "primes.racy"})
        functionality, performance = batch.gradebook.latest("s").tests
        assert functionality.schedule == DEFAULT_LABEL
        assert performance.schedule == ""


class TestOptOutAndPrecedence:
    @pytest.mark.parametrize("regime", ["in-process", "pool"])
    def test_an_installed_threading_backend_runs_free(self, regime, pool):
        checker = PrimesFunctionality("primes.correct")
        if regime == "pool":
            checker.make_runner = lambda: SubprocessRunner(pool=pool)
        with use_backend(ThreadingBackend()):
            assert checker.run().percent == pytest.approx(100.0)
        execution = checker.last_report.execution
        assert execution.schedule is None
        assert execution.database.schedule_id == ""

    def test_an_installed_backend_wins(self):
        checker = PrimesFunctionality("primes.correct")
        with use_backend(SimulationBackend()):
            checker.run()
        assert checker.last_report.execution.schedule is None

    def test_an_ambient_schedule_wins(self):
        backend = ScheduledBackend(RandomWalkStrategy(5))
        checker = PrimesFunctionality("primes.correct")
        with in_process_session_lock(), use_backend(backend):
            checker.run()
        execution = checker.last_report.execution
        assert execution.database.schedule_id == "random-walk:5"
        assert execution.schedule.decisions == backend.schedule_trace().decisions

    @pytest.mark.parametrize("regime", ["in-process", "pool"])
    def test_another_threads_backend_stays_out(self, regime, pool):
        """A parallel batch: one job thread explores under the backend
        it installed while another job grades; that grade follows the
        default schedule, and nothing of it reaches the explorer."""
        backend = ScheduledBackend(RandomWalkStrategy(5))
        installed, release = threading.Event(), threading.Event()

        def explore():
            # What an exploring job holds around its suite run.
            with in_process_session_lock(), use_backend(backend):
                installed.set()
                release.wait(30)

        explorer = threading.Thread(target=explore)
        explorer.start()
        installed.wait(30)
        checker = PrimesFunctionality("primes.correct")
        if regime == "pool":
            checker.make_runner = lambda: SubprocessRunner(pool=pool)
        grader = threading.Thread(target=checker.run)
        grader.start()
        # In process the grade waits for the session lock; on a pool
        # worker it runs while the explorer's backend is installed.
        grader.join(0.5)
        release.set()
        grader.join(30)
        explorer.join(30)
        assert not grader.is_alive() and not explorer.is_alive()
        assert checker.last_report.execution.database.schedule_id == DEFAULT_LABEL
        assert backend.schedule_trace().decisions == []


# ----------------------------------------------------------------------
# A run that stalls outside the scheduler
# ----------------------------------------------------------------------
#: Holds a raw lock across a print.  Under the default schedule the
#: print hands the grant to the other worker, which then blocks in the
#: OS on that lock and never reaches a yield point.
RAW_LOCK_PRINT = """\
import threading

from repro.simulation.backend import current_backend
from repro.tracing import print_property


def main(args):
    backend = current_backend()
    lock = threading.Lock()

    def work():
        for index in range(2):
            with lock:
                print_property("Index", index)
            backend.checkpoint()

    threads = [backend.spawn(work) for _ in range(2)]
    backend.start_all(threads)
    backend.join_all(threads)
    print_property("Done", True)
"""


@max_value(10)
class RawLockChecker(AbstractForkJoinChecker):
    def __init__(self, path: str) -> None:
        self._path = path

    def main_class_identifier(self) -> str:
        return self._path

    def num_expected_forked_threads(self) -> int:
        return 2

    def total_iterations(self) -> int:
        return 4

    def iteration_property_names_and_types(self):
        return (("Index", int),)

    def post_join_property_names_and_types(self):
        return (("Done", bool),)

    def process_timeout(self) -> float:
        return 3.0


class TestStalledScheduleFallsBack:
    @pytest.fixture
    def program(self, tmp_path):
        path = tmp_path / "raw_lock_print.py"
        path.write_text(RAW_LOCK_PRINT)
        return str(path)

    @pytest.mark.parametrize("regime", ["in-process", "pool"])
    def test_free_running_grade_within_two_seconds(
        self, regime, program, pool, capfd
    ):
        checker = RawLockChecker(program)
        if regime == "pool":
            checker.make_runner = lambda: SubprocessRunner(timeout=3.0, pool=pool)
        reruns = get_registry().counter("runner.stall_reruns")
        before = reruns.value
        started = time.perf_counter()
        result = checker.run()
        elapsed = time.perf_counter() - started
        assert elapsed < 2.0
        # Counted once, in this process, whichever process ran it.
        assert reruns.value == before + 1
        assert result.failure_kind == "ok"
        assert not result.fatal
        lost = [
            o.aspect for o in result.failed_aspects() if o.aspect != Aspect.INTERLEAVING
        ]
        assert lost == []
        execution = checker.last_report.execution
        assert execution.schedule is None
        assert execution.schedule_note.startswith(
            f"controlled schedule {DEFAULT_LABEL} stalled after 2 decisions"
        )
        assert execution.schedule_note.endswith("rerun on free threads")
        # The unwound workers finished inside the stalled run's session.
        time.sleep(0.2)
        assert capfd.readouterr().out == ""

    def test_the_pool_worker_stays_clean(self, program, pool):
        SubprocessRunner(timeout=3.0, pool=pool).run(
            program, [], schedule=BoundedPreemptionStrategy(1)
        )
        after = SubprocessRunner(pool=pool).run(
            "synclab.guarded", [], schedule=BoundedPreemptionStrategy(1)
        )
        before = ProgramRunner().run(
            "synclab.guarded", [], schedule=BoundedPreemptionStrategy(1)
        )
        assert after.output == before.output
        assert after.schedule.decisions == before.schedule.decisions

    def test_two_threads_leave_no_backend_behind(self, program):
        """Two stalling grades on two threads (in-process ``--jobs 2``):
        each free rerun's backend stays inside its own run."""
        ambient = current_backend()
        results = []

        def grade():
            checker = RawLockChecker(program)
            results.append((checker.run(), checker.last_report.execution))

        threads = [threading.Thread(target=grade) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert not any(thread.is_alive() for thread in threads)
        assert [result.failure_kind for result, _ in results] == ["ok", "ok"]
        assert all(execution.schedule_note for _, execution in results)
        assert current_backend() is ambient
        assert installed_backend() is None
        checker = PrimesFunctionality("primes.correct")
        checker.run()
        assert checker.last_report.execution.schedule.strategy == "preemption-bound"


#: The first worker computes for longer than the stall window between
#: two prints, holding the grant all the while.
COMPUTE_BETWEEN_PRINTS = """\
import time

from repro.simulation.backend import current_backend
from repro.tracing import print_property


def main(args):
    backend = current_backend()

    def work(compute):
        for index in range(2):
            print_property("Index", index)
            if compute and index == 0:
                until = time.thread_time() + {seconds}
                while time.thread_time() < until:
                    pass
            backend.checkpoint()

    threads = [backend.spawn(lambda: work(True)), backend.spawn(lambda: work(False))]
    backend.start_all(threads)
    backend.join_all(threads)
    print_property("Done", True)
"""


class TestComputingWorkerKeepsItsSchedule:
    def test_a_long_computation_is_not_a_stall(self, tmp_path):
        path = tmp_path / "compute_between_prints.py"
        path.write_text(COMPUTE_BETWEEN_PRINTS.format(seconds=1.5 * STALL_SECONDS))

        class Checker(RawLockChecker):
            def process_timeout(self) -> float:
                return 30.0

        checker = Checker(str(path))
        result = checker.run()
        assert result.failure_kind == "ok"
        execution = checker.last_report.execution
        assert execution.schedule_note == ""
        assert execution.schedule is not None
        assert execution.schedule.divergence == ""
        assert execution.database.schedule_id == DEFAULT_LABEL
        assert [e.value for e in execution.events if e.name == "Index"] == [
            0,
            0,
            1,
            1,
        ]


# ----------------------------------------------------------------------
# Race analysis sees only the scheduler's locks
# ----------------------------------------------------------------------
#: Two workers bump a shared list after a checkpoint, under *lock*.
LOCKED_APPEND = """\
import threading

from repro.simulation.backend import current_backend
from repro.tracing import print_property


def main(args):
    backend = current_backend()
    lock = {lock}
    shared = []

    def work():
        print_property("Index", 0)
        backend.checkpoint()
        with lock:
            shared.append(1)

    threads = [backend.spawn(work) for _ in range(2)]
    backend.start_all(threads)
    backend.join_all(threads)
    print_property("Total", len(shared))
"""


class TestRacesSeeOnlySchedulerLocks:
    def trace_of(self, tmp_path, lock):
        path = tmp_path / "locked_append.py"
        path.write_text(LOCKED_APPEND.format(lock=lock))
        result = ProgramRunner().run(str(path), [], schedule=BoundedPreemptionStrategy(1))
        return result.schedule

    def test_a_raw_lock_is_invisible(self, tmp_path):
        labels = analyze_trace(
            self.trace_of(tmp_path, "threading.Lock()")
        ).pair_labels()
        assert "worker-0@2(checkpoint,unlocked) × worker-1@3(checkpoint,unlocked)" in labels
        assert all(label.count(",unlocked)") == 2 for label in labels)

    def test_a_backend_lock_is_seen(self, tmp_path):
        report = analyze_trace(self.trace_of(tmp_path, "backend.lock()"))
        assert not report.has_races

    def test_jacobi_takes_its_lock_from_the_backend(self):
        trace = ProgramRunner().run(
            "jacobi.correct", [], schedule=BoundedPreemptionStrategy(1)
        ).schedule
        assert any(d.point == "lock-acquire" for d in trace.decisions)
        assert not analyze_trace(trace).has_races
