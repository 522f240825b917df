"""Tests of the controlled scheduler, exploration, and replay.

The acceptance bar for this layer is the paper's own: a racy submission
must fail (or be exonerated) *reproducibly*.  The tests here verify it
twice over — same seed ⇒ byte-identical event sequence, and a saved
schedule file replayed ⇒ the identical trace — plus the strategy,
lock-instrumentation, and supervisor-integration behaviour around it.
"""

from __future__ import annotations

import json

import pytest

from repro.execution.exploration import ScheduleExplorer, checker_runs
from repro.execution.runner import ProgramRunner
from repro.execution.scheduling import (
    BoundedPreemptionStrategy,
    ExhaustiveStrategy,
    PCTStrategy,
    RandomWalkStrategy,
    ReplayStrategy,
    ScheduleDecision,
    ScheduleDivergenceError,
    ScheduleTrace,
    ScheduledBackend,
    bounded_preemption_sweep,
    resolve_schedule_strategy,
    strategy_from_spec,
)
from repro.graders import PrimesFunctionality

RACY = "primes.racy"
CORRECT = "primes.correct"
SMALL_ARGS = ["12", "3"]


def run_scheduled(identifier, schedule, args=SMALL_ARGS):
    return ProgramRunner(timeout=20.0).run(identifier, list(args), schedule=schedule)


def event_fingerprint(result):
    """The replay-relevant content of a trace, as comparable bytes."""
    return json.dumps(
        [
            (e.seq, e.thread_id, e.thread_seq, e.name, e.raw_line, e.schedule_id)
            for e in result.events
        ]
    ).encode()


def decision_dicts(trace):
    return [d.to_dict() for d in trace.decisions]


class TestStrategies:
    def test_random_walk_is_seed_deterministic(self):
        picks_a = [RandomWalkStrategy(5).choose([1, 2, 3], None, "trace", i) for i in range(8)]
        # A fresh strategy with the same seed reproduces the stream.
        strategy = RandomWalkStrategy(5)
        picks_b = [strategy.choose([1, 2, 3], None, "trace", i) for i in range(1)]
        assert picks_a[0] == picks_b[0]
        assert RandomWalkStrategy(5).label() == "random-walk:5"

    def test_bounded_preemption_honours_quantum(self):
        strategy = BoundedPreemptionStrategy(quantum=2, rotation=0)
        ready = [0, 1, 2]
        first = strategy.choose(ready, None, "start", 0)
        assert first == 0
        # Current keeps the grant for quantum consecutive decisions.
        assert strategy.choose(ready, first, "trace", 1) == first
        # Then rotates to the next ready key.
        assert strategy.choose(ready, first, "trace", 2) == 1

    def test_bounded_preemption_rotation_offsets_first_pick(self):
        strategy = BoundedPreemptionStrategy(quantum=1, rotation=2)
        assert strategy.choose([0, 1, 2], None, "start", 0) == 2

    def test_sweep_is_deterministic_and_sized(self):
        grid_a = [s.label() for s in bounded_preemption_sweep(10, max_quantum=3)]
        grid_b = [s.label() for s in bounded_preemption_sweep(10, max_quantum=3)]
        assert grid_a == grid_b
        assert len(grid_a) == 10
        assert grid_a[0] == "preemption-bound:q1.r0"

    def test_resolve_accepts_seed_trace_and_strategy(self):
        assert isinstance(resolve_schedule_strategy(3), RandomWalkStrategy)
        trace = ScheduleTrace(strategy="random-walk", seed=3)
        assert isinstance(resolve_schedule_strategy(trace), ReplayStrategy)
        strategy = BoundedPreemptionStrategy()
        assert resolve_schedule_strategy(strategy) is strategy
        with pytest.raises(TypeError):
            resolve_schedule_strategy("not-a-schedule")


class TestControlledRuns:
    def test_same_seed_is_byte_identical_twice(self):
        """Acceptance: same seed ⇒ same event sequence, verified twice."""
        baseline = run_scheduled(RACY, 7)
        assert baseline.ok and baseline.events
        assert baseline.schedule_seed == 7
        for _ in range(2):
            again = run_scheduled(RACY, 7)
            assert event_fingerprint(again) == event_fingerprint(baseline)
            assert decision_dicts(again.schedule) == decision_dicts(baseline.schedule)
            assert again.output == baseline.output

    def test_different_seeds_differ(self):
        runs = {event_fingerprint(run_scheduled(RACY, seed)) for seed in range(4)}
        assert len(runs) > 1, "four seeds produced one interleaving"

    def test_schedule_id_stamped_on_events(self):
        result = run_scheduled(CORRECT, 3)
        assert result.events
        assert all(e.schedule_id == "random-walk:3" for e in result.events)

    def test_correct_program_passes_under_instrumented_locks(self):
        # primes.correct funnels worker totals through the backend's
        # lock; the controlled run must neither deadlock nor corrupt it.
        result = run_scheduled(CORRECT, 11)
        assert result.ok and not result.schedule.deadlocked
        totals = [e.value for e in result.events if e.name == "Total Num Primes"]
        per_thread = [e.value for e in result.events if e.name == "Num Primes"]
        assert totals and totals[0] == sum(per_thread)

    def test_preemption_sweep_surfaces_the_race(self):
        lost_update = False
        for strategy in bounded_preemption_sweep(8, max_quantum=2):
            result = run_scheduled(RACY, strategy)
            totals = [e.value for e in result.events if e.name == "Total Num Primes"]
            per_thread = [e.value for e in result.events if e.name == "Num Primes"]
            if totals and totals[0] != sum(per_thread):
                lost_update = True
                break
        assert lost_update, "no preemption-bound schedule exposed the lost update"


class TestRecordAndReplay:
    def test_trace_round_trips_through_file(self, tmp_path):
        recorded = run_scheduled(RACY, 2).schedule
        path = recorded.save(tmp_path / "race.schedule.json")
        loaded = ScheduleTrace.load(path)
        assert loaded.to_dict() == recorded.to_dict()
        assert loaded.workers == recorded.workers
        assert loaded.seed == 2

    def test_replay_from_file_reproduces_identical_trace(self, tmp_path):
        """Acceptance: replaying the saved schedule file reproduces the
        identical trace."""
        original = run_scheduled(RACY, 4)
        path = original.schedule.save(tmp_path / "race.schedule.json")
        replayed = run_scheduled(RACY, ScheduleTrace.load(path))
        assert replayed.schedule.divergence == ""
        assert decision_dicts(replayed.schedule) == decision_dicts(original.schedule)
        assert replayed.output == original.output
        # Thread-relative content matches byte for byte (schedule_id
        # differs by construction: replay:… vs random-walk:…).
        strip = lambda result: [  # noqa: E731 - local shorthand
            (e.seq, e.thread_id, e.thread_seq, e.name, e.raw_line)
            for e in result.events
        ]
        assert strip(replayed) == strip(original)

    def test_replay_against_wrong_program_diverges(self):
        recorded = run_scheduled(RACY, 4, args=["12", "3"]).schedule
        # Different input ⇒ different yield-point sequence ⇒ divergence,
        # reported on the trace rather than raised at the caller.
        replayed = run_scheduled(RACY, ScheduleTrace.from_dict(recorded.to_dict()), args=["16", "4"])
        assert replayed.schedule.divergence != ""

    def test_replay_strategy_rejects_exhausted_recording(self):
        trace = ScheduleTrace(decisions=[ScheduleDecision(0, "start", [0, 1], 0)])
        strategy = ReplayStrategy(trace)
        assert strategy.choose([0, 1], None, "start", 0) == 0
        with pytest.raises(ScheduleDivergenceError):
            strategy.choose([1], 0, "trace", 1)

    def test_replay_strategy_rejects_mismatched_ready_set(self):
        trace = ScheduleTrace(decisions=[ScheduleDecision(0, "start", [0, 1], 0)])
        with pytest.raises(ScheduleDivergenceError):
            ReplayStrategy(trace).choose([0, 1, 2], None, "start", 0)

    def test_newer_format_version_is_rejected(self):
        data = ScheduleTrace().to_dict()
        data["version"] = 99
        with pytest.raises(ValueError):
            ScheduleTrace.from_dict(data)

    def test_trace_round_trips_through_the_wire_form(self):
        recorded = run_scheduled("synclab.guarded", 3, args=[]).schedule
        assert any(d.lock is not None for d in recorded.decisions)
        wire = json.loads(json.dumps(recorded.to_wire()))
        assert all(isinstance(d, list) for d in wire["decisions"])
        loaded = ScheduleTrace.from_wire(wire, "synclab.guarded")
        assert loaded.to_dict() == recorded.to_dict()

    @pytest.mark.parametrize(
        "strategy",
        [
            RandomWalkStrategy(7),
            BoundedPreemptionStrategy(quantum=2, rotation=1),
            PCTStrategy(3, depth=2, expected_length=40),
            ExhaustiveStrategy([1, 0, 1]),
        ],
        ids=lambda s: s.name,
    )
    def test_a_spec_rebuilds_the_same_schedule(self, strategy):
        rebuilt = strategy_from_spec(json.loads(json.dumps(strategy.spec())))
        assert rebuilt.label() == strategy.label()
        assert decision_dicts(run_scheduled(RACY, rebuilt).schedule) == (
            decision_dicts(run_scheduled(RACY, strategy.clone()).schedule)
        )

    def test_a_replay_spec_carries_its_trace(self):
        recorded = run_scheduled(RACY, 4).schedule
        rebuilt = strategy_from_spec(ReplayStrategy(recorded).spec())
        replayed = run_scheduled(RACY, rebuilt).schedule
        assert replayed.divergence == ""
        assert decision_dicts(replayed) == decision_dicts(recorded)


class TestDeadlockDetection:
    def test_opposed_lock_order_deadlocks_deterministically(self):
        from repro.simulation.backend import current_backend

        def main(args):
            backend = current_backend()
            lock_a, lock_b = backend.lock(), backend.lock()

            def worker(first, second):
                def body():
                    with first:
                        backend.checkpoint()
                        with second:
                            print("reached")

                return body

            threads = [
                backend.spawn(worker(lock_a, lock_b), name="ab"),
                backend.spawn(worker(lock_b, lock_a), name="ba"),
            ]
            backend.start_all(threads)
            backend.join_all(threads)

        # Quantum-1 round-robin forces: ab takes A, ba takes B, both
        # block on the other's lock — the classic ABBA deadlock.
        # run_callable has no schedule= plumbing; drive the backend
        # through the runner's ambient pickup instead.
        from repro.execution.runner import in_process_session_lock
        from repro.simulation.backend import use_backend

        backend = ScheduledBackend(BoundedPreemptionStrategy(quantum=1))
        with in_process_session_lock():
            with use_backend(backend):
                result = ProgramRunner(timeout=20.0).run_callable(
                    main, [], identifier="abba"
                )
        assert backend.scheduler.deadlocked
        assert backend.schedule_trace("abba").deadlocked
        assert "reached" not in result.output


class TestTryAcquireDecisions:
    """Non-blocking and timed acquires are scheduling decisions.

    ``acquire(blocking=False)`` (and any timed acquire) from an
    enrolled worker used to probe the raw lock directly — invisible to
    recording, replay, and race analysis.  It now routes through the
    ``lock-tryacquire`` decision point: recorded with the lock id,
    deterministic per schedule, and replayable.
    """

    @staticmethod
    def _drive(strategy, main, identifier):
        from repro.execution.runner import in_process_session_lock
        from repro.simulation.backend import use_backend

        backend = ScheduledBackend(strategy)
        with in_process_session_lock():
            with use_backend(backend):
                result = ProgramRunner(timeout=20.0).run_callable(
                    main, [], identifier=identifier
                )
        return result, backend.schedule_trace(identifier)

    @staticmethod
    def _program(timeout=None):
        from repro.simulation.backend import current_backend

        def main(args):
            backend = current_backend()
            lock = backend.lock()

            def holder():
                with lock:
                    backend.checkpoint()
                    backend.checkpoint()

            def poller():
                probes = 1
                if timeout is None:
                    got = lock.acquire(blocking=False)
                else:
                    got = lock.acquire(timeout=timeout)
                while not got:
                    backend.checkpoint()
                    probes += 1
                    if timeout is None:
                        got = lock.acquire(blocking=False)
                    else:
                        got = lock.acquire(timeout=timeout)
                lock.release()
                print(f"probes {probes}")

            threads = [
                backend.spawn(holder, name="holder"),
                backend.spawn(poller, name="poller"),
            ]
            backend.start_all(threads)
            backend.join_all(threads)

        return main

    def test_nonblocking_acquire_is_a_recorded_decision(self):
        result, trace = self._drive(
            BoundedPreemptionStrategy(quantum=1), self._program(), "tryacquire"
        )
        assert result.ok, result.exception
        probes = [d for d in trace.decisions if d.point == "lock-tryacquire"]
        assert probes, "no lock-tryacquire decision was recorded"
        assert all(d.lock == 0 for d in probes)
        assert "probes" in result.output

    def test_timed_acquire_takes_the_tryacquire_path(self):
        # Under a one-granted-worker schedule the holder cannot release
        # while the caller sleeps, so a timed wait is recorded as a
        # single probe — same decision point, no wall-clock parking.
        result, trace = self._drive(
            BoundedPreemptionStrategy(quantum=1),
            self._program(timeout=0.01),
            "timed-tryacquire",
        )
        assert result.ok, result.exception
        assert any(d.point == "lock-tryacquire" for d in trace.decisions)

    def test_tryacquire_runs_are_seed_deterministic(self):
        runs = [
            self._drive(RandomWalkStrategy(9), self._program(), "tryacquire-det")
            for _ in range(2)
        ]
        (res_a, trace_a), (res_b, trace_b) = runs
        assert res_a.ok and res_b.ok
        assert decision_dicts(trace_a) == decision_dicts(trace_b)
        assert res_a.output == res_b.output

    def test_tryacquire_trace_replays_identically(self):
        _, recorded = self._drive(
            RandomWalkStrategy(9), self._program(), "tryacquire-replay"
        )
        assert any(d.point == "lock-tryacquire" for d in recorded.decisions)
        replay = resolve_schedule_strategy(
            ScheduleTrace.from_dict(recorded.to_dict())
        )
        result, replayed = self._drive(
            replay, self._program(), "tryacquire-replay"
        )
        assert result.ok, result.exception
        assert replayed.divergence == ""
        assert decision_dicts(replayed) == decision_dicts(recorded)


class TestFreeRunningRelease:
    """A non-enrolled thread releasing a lock workers are parked on.

    The root sits outside the one-granted-worker gate, so a lock it
    holds is not part of any deadlock cycle: workers parking on it must
    simply stall granting (not abort), and the root's release must
    restart granting exactly once — a second grant would put two
    workers inside the gate at the same time.
    """

    def _drive(self, main):
        from repro.execution.runner import in_process_session_lock
        from repro.simulation.backend import use_backend

        backend = ScheduledBackend(BoundedPreemptionStrategy(quantum=1))
        scheduler = backend.scheduler
        restarts = []
        original = scheduler._grant_next

        def spy(current, point, lock=None):
            if current is None and point == "lock-release":
                restarts.append(lock)
            return original(current, point, lock=lock)

        scheduler._grant_next = spy
        with in_process_session_lock():
            with use_backend(backend):
                result = ProgramRunner(timeout=20.0).run_callable(
                    main, [], identifier="free-running-release"
                )
        return backend, result, restarts

    @staticmethod
    def _wait_all_parked(scheduler, count, timeout=10.0):
        import time

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with scheduler._lock:
                if (
                    scheduler._granted is None
                    and len(scheduler._states) == count
                    and all(
                        s.blocked_on is not None
                        for s in scheduler._states.values()
                    )
                ):
                    return True
            time.sleep(0.002)
        return False

    def test_root_release_restarts_granting_exactly_once(self):
        from repro.simulation.backend import current_backend

        outer = self

        def main(args):
            backend = current_backend()
            lock = backend.lock()
            lock.acquire()  # free-running root: the raw, ungated path

            def body():
                with lock:
                    backend.checkpoint()
                    print("crossed")

            threads = [backend.spawn(body, name=f"w{i}") for i in range(3)]
            backend.start_all(threads)
            scheduler = backend.scheduler
            assert outer._wait_all_parked(scheduler, 3), (
                "workers never all parked on the root-held lock"
            )
            # Parked-on-a-root-held-lock is a stall, not a deadlock.
            assert not scheduler.deadlocked
            lock.release()
            backend.join_all(threads)

        backend, result, restarts = self._drive(main)
        assert result.ok, result.exception
        assert not backend.scheduler.deadlocked
        assert result.output.count("crossed") == 3
        assert len(restarts) == 1, (
            f"expected exactly one granting restart, saw {len(restarts)}"
        )

    def test_root_release_with_a_granted_worker_does_not_regrant(self):
        import threading as _threading

        from repro.simulation.backend import current_backend

        def main(args):
            backend = current_backend()
            lock = backend.lock()
            lock.acquire()
            released = _threading.Event()

            def blocker():
                with lock:
                    print("crossed")

            def spinner():
                while not released.is_set():
                    backend.checkpoint()

            threads = [
                backend.spawn(blocker, name="blocker"),
                backend.spawn(spinner, name="spinner"),
            ]
            backend.start_all(threads)
            scheduler = backend.scheduler
            # Wait until the blocker is parked; the spinner keeps the
            # grant, so _granted is never None here.
            import time

            deadline = time.monotonic() + 10.0
            parked = False
            while time.monotonic() < deadline:
                with scheduler._lock:
                    state = scheduler._states.get(0)
                    parked = state is not None and state.blocked_on is not None
                if parked:
                    break
                time.sleep(0.002)
            assert parked, "blocker never parked on the root-held lock"
            lock.release()
            released.set()
            backend.join_all(threads)

        backend, result, restarts = self._drive(main)
        assert result.ok, result.exception
        assert not backend.scheduler.deadlocked
        assert result.output.count("crossed") == 1
        # The spinner held the grant throughout the release: restarting
        # granting here would hand a second worker the token.
        assert restarts == []


class TestExplorer:
    def runs(self, identifier=RACY):
        return checker_runs(
            lambda: PrimesFunctionality(identifier, num_randoms=12, num_threads=3)
        )

    def test_exploration_is_deterministic(self):
        report_a = ScheduleExplorer(self.runs(), schedules=5, first_seed=0).run()
        report_b = ScheduleExplorer(self.runs(), schedules=5, first_seed=0).run()
        assert report_a.bug_found
        assert [f.strategy_label for f in report_a.findings] == [
            f.strategy_label for f in report_b.findings
        ]
        assert report_a.first_failing_seed == report_b.first_failing_seed

    def test_explorer_replays_its_own_finding(self):
        explorer = ScheduleExplorer(self.runs(), schedules=5, first_seed=0)
        report = explorer.run()
        trace = report.first_failing_trace()
        failed, replayed, result = explorer.replay(trace)
        assert replayed.divergence == ""
        assert failed and result.score < result.max_score
        assert [d.to_dict() for d in replayed.decisions] == [
            d.to_dict() for d in trace.decisions
        ]

    def test_correct_program_is_exonerated(self):
        report = ScheduleExplorer(self.runs(CORRECT), schedules=4).run()
        assert not report.bug_found
        assert "refute" in report.summary()

    def test_preemption_sweep_strategy(self):
        report = ScheduleExplorer(
            self.runs(), schedules=6, strategy="preemption-sweep", max_quantum=2
        ).run()
        assert report.bug_found
        assert report.findings[0].strategy_label.startswith("preemption-bound:")

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            ScheduleExplorer(self.runs(), schedules=0)
        with pytest.raises(ValueError):
            ScheduleExplorer(self.runs(), strategy="chaos-monkey")
