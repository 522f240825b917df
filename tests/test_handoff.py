"""Tests of the per-worker park/unpark handoff and the two schedulers on it.

Three kinds of check:

* the :class:`~repro.util.handoff.Handoff` primitive itself — a grant
  wakes only the named worker, a self-grant never blocks, an unpark of
  a running worker is a no-op;
* golden values recorded before the schedulers moved onto the handoff:
  what each policy is asked, in which order, and what it answers, plus
  the virtual makespans of ``primes.perf.sim`` — so a rewrite of the
  gate cannot silently change a grant;
* the timing programs' makespans, recorded under round-robin grants
  before they moved to ``SerializedPolicy``, and the wake-ups a hidden
  timing run makes: one per worker;
* stress: more workers than cores under a tiny GIL switch interval,
  where two workers running at once would lose counter updates, and an
  ``abort()`` that must release workers parked on the grant and on a
  held lock alike.
"""

from __future__ import annotations

import sys
import threading
import time
from contextlib import contextmanager

import pytest

from repro.execution.runner import ProgramRunner
from repro.execution.scheduling import (
    BoundedPreemptionStrategy,
    RandomWalkStrategy,
    ScheduledBackend,
)
from repro.simulation.backend import SimulationBackend, last_makespan
from repro.simulation.scheduler import (
    CooperativeScheduler,
    RoundRobinPolicy,
    SerializedPolicy,
)
from repro.util.handoff import Handoff
from tests.helpers import SeededPolicy

#: Generous per-join bound: a lost wake-up hangs a worker forever, and
#: the test must then fail rather than wedge the suite.
JOIN_TIMEOUT = 60.0
STRESS_WORKERS = 16
STRESS_STEPS = 200


def join_all(threads, timeout=JOIN_TIMEOUT):
    for thread in threads:
        thread.join(timeout)
        assert not thread.is_alive(), f"{thread.name} is still running"


def in_thread(target, *args):
    """Run *target* on a started daemon thread, so a root-side wait
    (``start`` blocks until workers enroll) is bounded by a join."""
    thread = threading.Thread(target=target, args=args, daemon=True)
    thread.start()
    return thread


@contextmanager
def tiny_switch_interval():
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


# ----------------------------------------------------------------------
# The primitive
# ----------------------------------------------------------------------
class TestHandoff:
    @staticmethod
    def wait_parked(lock, handoff, keys):
        deadline = time.monotonic() + JOIN_TIMEOUT
        while time.monotonic() < deadline:
            with lock:
                if all(handoff._batons[k].parked for k in keys):
                    return
            time.sleep(0.001)
        raise AssertionError(f"workers {keys} never parked")

    def park_workers(self, keys):
        """Park one thread per key.  Each returns once ``granted[0]`` is
        its key or ``"all"``, then appends its key to ``woke``."""
        lock = threading.Lock()
        handoff = Handoff(lock)
        granted, woke, threads = [None], [], []
        for key in keys:
            handoff.add(key)

            def body(key=key):
                with lock:
                    handoff.park_until(key, lambda: granted[0] in (key, "all"))
                woke.append(key)

            threads.append(threading.Thread(target=body, daemon=True))
            threads[-1].start()
        self.wait_parked(lock, handoff, keys)
        return lock, handoff, granted, woke, threads

    def test_satisfied_predicate_returns_without_parking(self):
        lock = threading.Lock()
        handoff = Handoff(lock)
        handoff.add("me")
        with lock:
            handoff.park_until("me", lambda: True)
            assert lock.locked()

    def test_unpark_of_a_running_worker_is_a_no_op(self):
        lock = threading.Lock()
        handoff = Handoff(lock)
        handoff.add("me")
        with lock:
            handoff.unpark("me")
            handoff.unpark("me")
            handoff.unpark("unknown")
            handoff.unpark_all()
            # The baton is still held: a later park really blocks.
            assert handoff._batons["me"].lock.locked()

    def test_unpark_wakes_only_the_named_worker(self):
        lock, handoff, granted, woke, threads = self.park_workers(["a", "b"])
        with lock:
            granted[0] = "a"
            handoff.unpark("a")
        join_all(threads[:1])
        with lock:
            assert woke == ["a"]
            assert handoff._batons["b"].parked
            granted[0] = "b"
            handoff.unpark("b")
        join_all(threads[1:])
        assert woke == ["a", "b"]

    def test_unpark_all_wakes_every_parked_worker(self):
        lock, handoff, granted, woke, threads = self.park_workers(range(4))
        with lock:
            granted[0] = "all"
            handoff.unpark_all()
        join_all(threads)
        assert sorted(woke) == [0, 1, 2, 3]

    def test_spurious_wake_reparks_until_the_predicate_holds(self):
        lock, handoff, granted, woke, threads = self.park_workers(["a"])
        with lock:
            handoff.unpark("a")  # woken, but the predicate still fails
        self.wait_parked(lock, handoff, ["a"])
        assert woke == []
        with lock:
            granted[0] = "a"
            handoff.unpark("a")
        join_all(threads)
        assert woke == ["a"]


# ----------------------------------------------------------------------
# Golden values: every policy decision, recorded before the handoff
# ----------------------------------------------------------------------
#: One token per event of a 4-worker x 5-step program started in one
#: batch: ``<ready>:<current>><chosen>`` for each policy call (worker
#: indices; ``-`` when there is no current worker), ``w<k>`` each time
#: worker k runs a step.
GOLDEN_DECISIONS = {
    "round-robin": (
        "0123:->0 w0 0123:0>1 w1 0123:1>2 w2 0123:2>3 w3 0123:3>0 w0 "
        "0123:0>1 w1 0123:1>2 w2 0123:2>3 w3 0123:3>0 w0 0123:0>1 w1 "
        "0123:1>2 w2 0123:2>3 w3 0123:3>0 w0 0123:0>1 w1 0123:1>2 w2 "
        "0123:2>3 w3 0123:3>0 w0 0123:0>1 w1 0123:1>2 w2 0123:2>3 w3 "
        "0123:3>0 123:0>1 23:1>2 3:2>3"
    ),
    "serialized": (
        "0123:->0 w0 0123:0>0 w0 0123:0>0 w0 0123:0>0 w0 0123:0>0 w0 "
        "0123:0>0 123:0>1 w1 123:1>1 w1 123:1>1 w1 123:1>1 w1 "
        "123:1>1 w1 123:1>1 23:1>2 w2 23:2>2 w2 23:2>2 w2 23:2>2 w2 "
        "23:2>2 w2 23:2>2 3:2>3 w3 3:3>3 w3 3:3>3 w3 3:3>3 w3 3:3>3 "
        "w3 3:3>3"
    ),
    "random-7": (
        "0123:->2 w2 0123:2>1 w1 0123:1>3 w3 0123:3>0 w0 0123:0>0 w0 "
        "0123:0>0 w0 0123:0>2 w2 0123:2>0 w0 0123:0>1 w1 0123:1>0 w0 "
        "0123:0>0 123:0>2 w2 123:2>2 w2 123:2>1 w1 123:1>1 w1 "
        "123:1>1 w1 123:1>3 w3 123:3>2 w2 123:2>1 23:1>2 3:2>3 w3 "
        "3:3>3 w3 3:3>3 w3 3:3>3"
    ),
}

POLICIES = {
    "round-robin": RoundRobinPolicy,
    "serialized": SerializedPolicy,
    "random-7": lambda: SeededPolicy(7),
}


class _RecordingPolicy:
    """Wraps a policy; logs every call it receives, by worker index."""

    def __init__(self, inner, log, index_of):
        self.inner, self.log, self.index_of = inner, log, index_of

    def choose(self, ready, current):
        chosen = self.inner.choose(ready, current)
        index = self.index_of
        self.log.append(
            "".join(str(index[key]) for key in ready)
            + ":"
            + ("-" if current is None else str(index[current]))
            + f">{index[chosen]}"
        )
        return chosen


def decision_stream(policy, workers=4, steps=5):
    log, index_of = [], {}
    backend = SimulationBackend(policy=_RecordingPolicy(policy, log, index_of))

    def make_worker(index):
        def body():
            for _ in range(steps):
                log.append(f"w{index}")
                backend.checkpoint()

        return body

    threads = [backend.spawn(make_worker(i)) for i in range(workers)]
    index_of.update({id(thread): i for i, thread in enumerate(threads)})
    scheduler = backend.scheduler
    for count, thread in enumerate(threads, 1):
        # One at a time, so the ready set lists workers in spawn order
        # rather than in whichever order the OS first ran them.
        thread.start()
        deadline = time.monotonic() + JOIN_TIMEOUT
        while scheduler._total_enrolled < count and time.monotonic() < deadline:
            time.sleep(0.0005)
    # One batched start: the first decision sees all the workers.
    starter = in_thread(scheduler.start, workers)
    join_all([starter, *threads])
    return " ".join(log)


#: ``(REPRO_WORKLOAD_SEED, program, n) -> makespan repr`` at 1, 2, 3, 4
#: and 8 threads, for the three ``<program>.perf.sim`` timing programs,
#: recorded while they still ran under round-robin grants.
TIMING_THREADS = (1, 2, 3, 4, 8)
TIMING_MAKESPANS = {
    (None, "primes", 10): (
        "1.9356756889902123",
        "1.0464209105852287",
        "0.8383343901183806",
        "0.710526159181954",
        "0.46525750544845806",
    ),
    (None, "primes", 100): (
        "21.952194268211105",
        "11.106478392359033",
        "7.443958174064594",
        "5.570396707283727",
        "3.0544425735331946",
    ),
    (None, "primes", 333): (
        "70.36520726037719",
        "36.277825942720646",
        "24.443284184549093",
        "18.359595961431193",
        "9.21024946016354",
    ),
    (None, "pi", 10): ("10.0", "5.0", "4.0", "3.0", "2.0"),
    (None, "pi", 100): ("100.0", "50.0", "34.0", "25.0", "13.0"),
    (None, "pi", 333): ("333.0", "167.0", "111.0", "84.0", "42.0"),
    (None, "odds", 10): ("10.0", "5.0", "4.0", "3.0", "2.0"),
    (None, "odds", 100): ("100.0", "50.0", "34.0", "25.0", "13.0"),
    (None, "odds", 333): ("333.0", "167.0", "111.0", "84.0", "42.0"),
    ("7", "primes", 10): (
        "2.3237394951951535",
        "1.3586956547680495",
        "1.1182793491646235",
        "0.8187797665271846",
        "0.5610335192498792",
    ),
    ("7", "primes", 100): (
        "21.87088474931472",
        "10.954160096063614",
        "7.5731942487745005",
        "5.49815968041194",
        "3.2505384808249387",
    ),
    ("7", "primes", 333): (
        "72.2588509753115",
        "36.34421454700972",
        "24.575403150185505",
        "18.313320981214712",
        "9.514497300016448",
    ),
    ("7", "pi", 10): ("10.0", "5.0", "4.0", "3.0", "2.0"),
    ("7", "pi", 100): ("100.0", "50.0", "34.0", "25.0", "13.0"),
    ("7", "pi", 333): ("333.0", "167.0", "111.0", "84.0", "42.0"),
    ("7", "odds", 10): ("10.0", "5.0", "4.0", "3.0", "2.0"),
    ("7", "odds", 100): ("100.0", "50.0", "34.0", "25.0", "13.0"),
    ("7", "odds", 333): ("333.0", "167.0", "111.0", "84.0", "42.0"),
    ("123", "primes", 10): (
        "1.6794324185252913",
        "0.9196481712988522",
        "0.6181519026652256",
        "0.5446672103817303",
        "0.3170006055212138",
    ),
    ("123", "primes", 100): (
        "20.450845481389955",
        "10.453971756850619",
        "7.11295352135193",
        "5.31129673089268",
        "2.931199380260025",
    ),
    ("123", "primes", 333): (
        "67.75732790693073",
        "34.21773156904957",
        "23.29680439056896",
        "17.400186898535352",
        "8.962596356695887",
    ),
    ("123", "pi", 10): ("10.0", "5.0", "4.0", "3.0", "2.0"),
    ("123", "pi", 100): ("100.0", "50.0", "34.0", "25.0", "13.0"),
    ("123", "pi", 333): ("333.0", "167.0", "111.0", "84.0", "42.0"),
    ("123", "odds", 10): ("10.0", "5.0", "4.0", "3.0", "2.0"),
    ("123", "odds", 100): ("100.0", "50.0", "34.0", "25.0", "13.0"),
    ("123", "odds", 333): ("333.0", "167.0", "111.0", "84.0", "42.0"),
}


class TestGoldenDecisions:
    @pytest.mark.parametrize("name", sorted(GOLDEN_DECISIONS))
    def test_policy_calls_are_unchanged(self, name):
        assert decision_stream(POLICIES[name]()) == GOLDEN_DECISIONS[name]

    @pytest.mark.parametrize(
        "args, makespan",
        [(["100", "1"], "21.952194268"), (["100", "4"], "5.570396707")],
    )
    def test_perf_sim_makespans_are_unchanged(self, monkeypatch, args, makespan):
        monkeypatch.delenv("REPRO_WORKLOAD_SEED", raising=False)
        result = ProgramRunner(timeout=JOIN_TIMEOUT).run(
            "primes.perf.sim", args, hide_prints=True
        )
        assert result.ok, result.failure_reason()
        assert f"{last_makespan():.9f}" == makespan

    @pytest.mark.parametrize("program", ["primes", "pi", "odds"])
    @pytest.mark.parametrize("seed", [None, "7", "123"])
    def test_timing_makespans_match_round_robin(self, monkeypatch, seed, program):
        if seed is None:
            monkeypatch.delenv("REPRO_WORKLOAD_SEED", raising=False)
        else:
            monkeypatch.setenv("REPRO_WORKLOAD_SEED", seed)
        runner = ProgramRunner(timeout=JOIN_TIMEOUT)
        for n in (10, 100, 333):
            measured = []
            for threads in TIMING_THREADS:
                result = runner.run(
                    f"{program}.perf.sim", [str(n), str(threads)], hide_prints=True
                )
                assert result.ok, result.failure_reason()
                measured.append(repr(result.makespan))
            assert tuple(measured) == TIMING_MAKESPANS[seed, program, n], n

    def test_a_hidden_timing_run_wakes_each_worker_once(self, monkeypatch):
        """The grant moves only when a worker retires: round-robin woke
        a parked worker 104 times in this run, once per checkpoint."""
        releases = []
        unpark = Handoff.unpark

        def counting_unpark(self, key):
            baton = self._batons.get(key)
            if baton is not None and baton.parked:
                releases.append(key)
            unpark(self, key)

        monkeypatch.delenv("REPRO_WORKLOAD_SEED", raising=False)
        monkeypatch.setattr(Handoff, "unpark", counting_unpark)
        result = ProgramRunner(timeout=JOIN_TIMEOUT).run(
            "primes.perf.sim", ["100", "4"], hide_prints=True
        )
        assert result.ok, result.failure_reason()
        assert repr(result.makespan) == TIMING_MAKESPANS[None, "primes", 100][3]
        assert len(releases) <= 4
        assert len(set(releases)) == len(releases)


# ----------------------------------------------------------------------
# Stress: more workers than cores, a GIL switch every microsecond
# ----------------------------------------------------------------------
def racy_increment(counter):
    """Read, let the interpreter switch, write: loses updates unless
    the scheduler really runs one worker at a time."""
    value = counter[0]
    time.sleep(0)
    counter[0] = value + 1


class TestCooperativeStress:
    @pytest.mark.parametrize(
        "policy",
        [RoundRobinPolicy, lambda: SeededPolicy(11)],
        ids=["round-robin", "random"],
    )
    def test_no_update_is_lost(self, policy):
        scheduler = CooperativeScheduler(policy())
        counter = [0]

        def body():
            scheduler.enroll()
            try:
                for _ in range(STRESS_STEPS):
                    racy_increment(counter)
                    scheduler.checkpoint()
            finally:
                scheduler.retire()

        threads = [
            threading.Thread(target=body, name=f"w{i}", daemon=True)
            for i in range(STRESS_WORKERS)
        ]
        with tiny_switch_interval():
            for thread in threads:
                thread.start()
            starter = in_thread(scheduler.start, STRESS_WORKERS)
            join_all([starter, *threads])
        assert counter[0] == STRESS_WORKERS * STRESS_STEPS


class TestControlledStress:
    @pytest.mark.parametrize(
        "strategy",
        [lambda: BoundedPreemptionStrategy(quantum=1), lambda: RandomWalkStrategy(11)],
        ids=["round-robin", "random-walk"],
    )
    def test_no_update_is_lost_under_a_contended_lock(self, strategy):
        backend = ScheduledBackend(strategy())
        lock = backend.lock()
        counter, guarded = [0], [0]

        def body():
            for _ in range(STRESS_STEPS):
                racy_increment(counter)
                backend.checkpoint()
                with lock:
                    value = guarded[0]
                    backend.checkpoint()  # yield while holding: others block
                    guarded[0] = value + 1

        threads = [backend.spawn(body, name=f"w{i}") for i in range(STRESS_WORKERS)]
        with tiny_switch_interval():
            starter = in_thread(backend.start_all, threads)
            join_all([starter, *threads])
        scheduler = backend.scheduler
        assert not scheduler.deadlocked
        assert counter[0] == STRESS_WORKERS * STRESS_STEPS
        assert guarded[0] == STRESS_WORKERS * STRESS_STEPS
        assert any(d.point == "block" for d in scheduler.decisions)

    def test_abort_releases_workers_parked_on_the_grant_and_on_a_lock(self):
        backend = ScheduledBackend(BoundedPreemptionStrategy(quantum=1))
        scheduler = backend.scheduler
        lock = backend.lock()
        # After abort, yield points pass straight through, so the loops
        # below finish quickly once the workers are released.
        spins = 100_000

        def holder():
            with lock:
                for _ in range(spins):
                    backend.checkpoint()

        def waiter():
            with lock:
                pass

        def spinner():
            for _ in range(spins):
                backend.checkpoint()

        bodies = [holder] + [waiter] * 3 + [spinner] * 4
        threads = [backend.spawn(body, name=f"w{i}") for i, body in enumerate(bodies)]
        starter = in_thread(backend.start_all, threads)
        join_all([starter])
        deadline = time.monotonic() + JOIN_TIMEOUT
        while time.monotonic() < deadline:
            with scheduler._lock:
                states = scheduler._states
                on_lock = [k for k, s in states.items() if s.blocked_on is lock]
                on_grant = [
                    k
                    for k, s in states.items()
                    if s.blocked_on is None and k != scheduler._granted
                ]
                if len(on_lock) == 3 and len(on_grant) >= 2 and lock.holder == 0:
                    break
            time.sleep(0.001)
        else:
            raise AssertionError("workers never parked on both the grant and the lock")
        backend.abort()
        join_all(threads)
        assert not scheduler.deadlocked
        assert scheduler.live_workers() == 0
