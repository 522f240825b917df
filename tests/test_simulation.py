"""Tests of the simulation substrate: clock, scheduler, backend.

``TestFuzzer`` keeps the schedule-fuzzing checks, now run as seeded
random-walk exploration on the controlled scheduler.
"""

from __future__ import annotations

import threading

import pytest

from repro.simulation.backend import (
    SimulationBackend,
    ThreadingBackend,
    current_backend,
    last_makespan,
    record_makespan,
    use_backend,
)
from repro.execution.exploration import ScheduleExplorer, checker_runs
from repro.simulation.clock import VirtualClock
from repro.simulation.scheduler import (
    CooperativeScheduler,
    RoundRobinPolicy,
    SerializedPolicy,
)
from repro.simulation.workload_model import UNIT_COST_MODEL, CostModel, trial_division_cost
from tests.helpers import SeededPolicy


class TestVirtualClock:
    def test_charges_accumulate_per_thread(self):
        clock = VirtualClock()
        clock.charge(1.0)
        clock.charge(2.0)
        assert clock.cost_of() == pytest.approx(3.0)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().charge(-1.0)

    def test_makespan_is_root_plus_max_worker(self):
        clock = VirtualClock()
        clock.set_root()
        clock.charge(1.0)  # root work
        a = threading.Thread()
        b = threading.Thread()
        clock.charge(5.0, thread=a)
        clock.charge(3.0, thread=b)
        assert clock.makespan() == pytest.approx(6.0)
        assert clock.serial_total() == pytest.approx(9.0)

    def test_makespan_without_root_is_longest_thread(self):
        clock = VirtualClock()
        a = threading.Thread()
        clock.charge(2.0, thread=a)
        clock.charge(1.0)
        assert clock.makespan() == pytest.approx(2.0)

    def test_reset(self):
        clock = VirtualClock()
        clock.charge(1.0)
        clock.reset()
        assert clock.serial_total() == 0.0
        assert clock.makespan() == 0.0

    def test_worker_costs_excludes_root(self):
        clock = VirtualClock()
        clock.set_root()
        clock.charge(1.0)
        worker = threading.Thread()
        clock.charge(2.0, thread=worker)
        assert list(clock.worker_costs().values()) == [2.0]


class TestSchedulerPolicies:
    def run_workers(self, policy, iterations=3, workers=3):
        """Run gated workers; return the order of (worker, step) events."""
        backend = SimulationBackend(policy=policy)
        log = []
        lock = threading.Lock()

        def make_worker(key):
            def body():
                for step in range(iterations):
                    with lock:
                        log.append((key, step))
                    backend.checkpoint()

            return body

        threads = [backend.spawn(make_worker(k)) for k in range(workers)]
        backend.start_all(threads)
        backend.join_all(threads)
        return log

    def test_round_robin_interleaves_strictly(self):
        log = self.run_workers(RoundRobinPolicy())
        # Steps proceed in lockstep: all workers do step 0, then step 1...
        steps = [step for _k, step in log]
        assert steps == sorted(steps)

    def test_serialized_policy_runs_each_to_completion(self):
        log = self.run_workers(SerializedPolicy())
        keys = [k for k, _s in log]
        # Once a worker's key stops appearing it never reappears.
        seen_complete = set()
        previous = keys[0]
        for key in keys[1:]:
            if key != previous:
                seen_complete.add(previous)
                assert key not in seen_complete
                previous = key

    def test_random_policy_is_deterministic_per_seed(self):
        first = self.run_workers(SeededPolicy(7))
        second = self.run_workers(SeededPolicy(7))
        third = self.run_workers(SeededPolicy(8))
        assert first == second
        assert first != third  # overwhelmingly likely for 9 events

    def test_all_events_complete_under_every_policy(self):
        for policy in (RoundRobinPolicy(), SerializedPolicy(), SeededPolicy(0)):
            log = self.run_workers(policy)
            assert len(log) == 9
            assert sorted(set(log)) == [(k, s) for k in range(3) for s in range(3)]

    def test_unenrolled_thread_checkpoint_passes_through(self):
        scheduler = CooperativeScheduler()
        scheduler.checkpoint()  # the root: must not block

    def test_double_enroll_rejected(self):
        backend = SimulationBackend()
        errors = []

        def body():
            try:
                backend.scheduler.enroll()
            except RuntimeError as exc:
                errors.append(str(exc))

        thread = backend.spawn(body)
        backend.start_all([thread])
        backend.join_all([thread])
        assert errors == ["thread enrolled twice"]

    def test_batched_starts_do_not_deadlock(self):
        """The serialized-submission pattern: start/join one at a time."""
        backend = SimulationBackend()
        log = []

        def make_worker(key):
            def body():
                log.append(key)
                backend.checkpoint()
                log.append(key)

            return body

        for key in range(3):
            thread = backend.spawn(make_worker(key))
            backend.start_all([thread])
            backend.join_all([thread])
        assert log == [0, 0, 1, 1, 2, 2]


class TestSimulationBackendClock:
    def test_checkpoint_cost_reaches_clock(self):
        backend = SimulationBackend()

        def body():
            backend.checkpoint(cost=2.5)

        thread = backend.spawn(body)
        backend.start_all([thread])
        backend.join_all([thread])
        assert backend.makespan() == pytest.approx(2.5)

    def test_balanced_work_speedup_matches_thread_count(self):
        def run(n_threads, items=12):
            backend = SimulationBackend()

            def make_worker(count):
                def body():
                    for _ in range(count):
                        backend.checkpoint(cost=1.0)

                return body

            per = items // n_threads
            threads = [backend.spawn(make_worker(per)) for _ in range(n_threads)]
            backend.start_all(threads)
            backend.join_all(threads)
            return backend.makespan()

        assert run(1) / run(4) == pytest.approx(4.0)

    def test_charge_root_adds_serial_section(self):
        backend = SimulationBackend()

        def body():
            backend.checkpoint(cost=1.0)

        thread = backend.spawn(body)
        backend.start_all(threads=[thread])
        backend.charge_root(0.5)
        backend.join_all([thread])
        assert backend.makespan() == pytest.approx(1.5)


class TestBackendAmbient:
    def test_default_backend_is_threading(self):
        assert isinstance(current_backend(), ThreadingBackend)

    def test_use_backend_installs_and_restores(self):
        backend = SimulationBackend()
        with use_backend(backend):
            assert current_backend() is backend
        assert isinstance(current_backend(), ThreadingBackend)

    def test_use_backend_records_makespan_on_exit(self):
        backend = SimulationBackend()
        with use_backend(backend):
            def body():
                backend.checkpoint(cost=3.0)

            thread = backend.spawn(body)
            backend.start_all([thread])
            backend.join_all([thread])
        assert last_makespan() == pytest.approx(3.0)

    def test_record_makespan_mailbox(self):
        record_makespan(7.25)
        assert last_makespan() == 7.25

    def test_threading_backend_checkpoint_sleeps_briefly(self):
        import time

        backend = ThreadingBackend(yield_sleep=0.001)
        start = time.perf_counter()
        backend.checkpoint()
        assert time.perf_counter() - start >= 0.0005

    def test_threading_backend_zero_sleep(self):
        ThreadingBackend(yield_sleep=0.0).checkpoint()  # no-op


class TestCostModels:
    def test_unit_model(self):
        assert UNIT_COST_MODEL.item_cost() == 1.0

    def test_size_dependent_model(self):
        model = CostModel(per_item=1.0, per_unit_size=0.5)
        assert model.item_cost(4.0) == pytest.approx(3.0)

    def test_trial_division_grows_with_sqrt(self):
        assert trial_division_cost(100) == pytest.approx(0.1)
        assert trial_division_cost(10_000) == pytest.approx(1.0)
        assert trial_division_cost(0) == pytest.approx(0.01)


class TestFuzzer:
    """Schedule fuzzing: seeded random-walk exploration of one checker."""

    def fuzz(self, identifier, schedules):
        from repro.graders import PrimesFunctionality

        return ScheduleExplorer(
            checker_runs(lambda: PrimesFunctionality(identifier)),
            schedules=schedules,
            strategy="random-walk",
        ).run()

    def test_racy_primes_caught(self):
        report = self.fuzz("primes.racy", schedules=6)
        assert report.bug_found
        assert 0 < report.failure_rate <= 1.0
        finding = report.findings[0]
        assert finding.seed >= 0
        assert finding.messages
        assert f"first failing schedule random-walk:{finding.seed}" in (
            report.summary()
        )

    def test_correct_primes_survives_fuzzing(self):
        report = self.fuzz("primes.correct", schedules=4)
        assert not report.bug_found
        assert report.failure_rate == 0.0
        assert "can only refute" in report.summary()

    def test_invalid_schedule_count_rejected(self):
        with pytest.raises(ValueError):
            ScheduleExplorer(checker_runs(lambda: None), schedules=0)
