"""The lean race pass and the segment stream match their references.

``tests/reference_analysis.py`` keeps the earlier ``analyze_trace``
(with its ``_segments`` walk) and ``canonical_form`` verbatim.  On every
trace below the package must give an equal ``RaceReport.to_dict()`` and
an equal happens-before key:

* every executed and every simulated schedule of the three synclab
  exhaustive campaigns the supervisor runs by default (depth 2, at most
  40 executions);
* 12 random-walk and 12 PCT seeds each for synclab, primes and jacobi
  programs;
* deadlocked, ``lock-tryacquire`` and nested two-lock traces;
* arbitrary decision streams, including ones no scheduler records.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execution.equivalence import (
    ScheduleOracle,
    SimulatedRun,
    canonical_form,
    executed_events,
    happens_before_key,
    segment_stream,
)
from repro.execution.exploration import ScheduleExplorer, checker_runs
from repro.execution.races import analyze_trace
from repro.execution.runner import ProgramRunner, in_process_session_lock
from repro.execution.scheduling import (
    BoundedPreemptionStrategy,
    PCTStrategy,
    RandomWalkStrategy,
    ScheduleDecision,
    ScheduledBackend,
    ScheduleTrace,
)
from repro.graders.synclab import (
    SyncLabCounterFunctionality,
    SyncLabStragglerFunctionality,
)
from repro.simulation.backend import current_backend, use_backend
from tests import reference_analysis as reference

import repro.workloads  # noqa: F401 - registers the tested programs


def assert_matches_reference(trace: ScheduleTrace) -> None:
    for max_pairs in (32, 1):
        assert analyze_trace(trace, max_pairs=max_pairs).to_dict() == (
            reference.analyze_trace(trace, max_pairs=max_pairs).to_dict()
        )
    assert canonical_form(trace) == reference.canonical_form(trace)
    assert happens_before_key(trace) == reference.happens_before_key(trace)
    assert executed_events(trace) == reference.executed_events(trace)


def drive(main_or_identifier, strategy, args=()):
    """One controlled run; returns its recorded trace."""
    backend = ScheduledBackend(strategy)
    runner = ProgramRunner(timeout=30.0)
    with in_process_session_lock():
        with use_backend(backend):
            if callable(main_or_identifier):
                runner.run_callable(main_or_identifier, list(args), identifier="t")
            else:
                runner.run(main_or_identifier, list(args))
    return backend.schedule_trace("t", list(args))


# ----------------------------------------------------------------------
# The synclab exhaustive campaigns: executed and simulated schedules
# ----------------------------------------------------------------------
CAMPAIGNS = {
    "synclab.lost_update": lambda: SyncLabCounterFunctionality("synclab.lost_update"),
    "synclab.guarded": lambda: SyncLabCounterFunctionality("synclab.guarded"),
    "synclab.straggler": lambda: SyncLabStragglerFunctionality("synclab.straggler"),
}


@pytest.fixture(scope="module", params=sorted(CAMPAIGNS))
def campaign(request):
    """The campaign's report and its schedules in search order: each
    entry is ``("executed", trace)`` or ``("simulated", SimulatedRun)``."""
    schedules = []

    run_schedule = checker_runs(CAMPAIGNS[request.param])

    def recording_run(strategy):
        failed, trace, result = run_schedule(strategy)
        schedules.append(("executed", trace))
        return failed, trace, result

    simulate = ScheduleOracle.simulate

    def recording_simulate(self, strategy, **kwargs):
        run = simulate(self, strategy, **kwargs)
        schedules.append(("simulated", run))
        return run

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ScheduleOracle, "simulate", recording_simulate)
        report = ScheduleExplorer(
            recording_run,
            strategy="exhaustive",
            depth=2,
            max_schedules=40,
        ).run()
    return report, schedules


class TestExhaustiveCampaigns:
    def test_every_schedule_matches(self, campaign):
        report, schedules = campaign
        executed = [item for kind, item in schedules if kind == "executed"]
        simulated = [item.trace for kind, item in schedules if kind == "simulated"]
        assert len(executed) == report.executed
        assert len(simulated) == report.enumerated - 1 + (not report.complete)
        for trace in executed + simulated:
            assert_matches_reference(trace)

    def test_an_executed_prediction_reuses_its_key(self, campaign):
        """A run executed after its prediction is keyed by
        ``SimulatedRun.key_of``, which must equal the reference key of
        the run itself."""
        report, schedules = campaign
        assert report.mispredicted == 0
        checked = 0
        for (kind, run), (next_kind, trace) in zip(schedules, schedules[1:]):
            if kind == "simulated" and next_kind == "executed":
                assert run.key_of(trace) == reference.happens_before_key(trace)
                assert run.key_of(trace) == run.key
                checked += 1
        assert checked == report.executed - 1


# ----------------------------------------------------------------------
# Seeded controlled runs of every program family
# ----------------------------------------------------------------------
PROGRAMS = [
    ("synclab.lost_update", ["2", "1"]),
    ("synclab.guarded", ["3", "2"]),
    ("synclab.straggler", []),
    ("primes.racy", ["12", "3"]),
    ("primes.correct", ["12", "3"]),
    ("jacobi.correct", ["12", "4", "2"]),
]


@pytest.mark.parametrize("identifier, args", PROGRAMS)
@pytest.mark.parametrize("family", ["random-walk", "pct"])
def test_seeded_runs_match(identifier, args, family):
    for seed in range(12):
        strategy = (
            RandomWalkStrategy(seed)
            if family == "random-walk"
            else PCTStrategy(seed, depth=3)
        )
        assert_matches_reference(drive(identifier, strategy, args))


# ----------------------------------------------------------------------
# Deadlocks, try-acquires and nested locks
# ----------------------------------------------------------------------
def abba(args):
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


def try_acquire(args):
    backend = current_backend()
    lock = backend.lock()
    shared = {"value": 0}

    def holder():
        with lock:
            shared["value"] += 1
            backend.checkpoint()
            backend.checkpoint()

    def poller():
        while not lock.acquire(blocking=False):
            backend.checkpoint()
        shared["value"] += 1
        lock.release()
        backend.checkpoint()

    threads = [
        backend.spawn(holder, name="holder"),
        backend.spawn(poller, name="poller"),
    ]
    backend.start_all(threads)
    backend.join_all(threads)


def nested_locks(args):
    backend = current_backend()
    outer, inner = backend.lock(), backend.lock()
    cell = {"value": 0}

    def worker():
        snapshot = cell["value"]
        backend.checkpoint()
        with outer:
            backend.checkpoint()
            with inner:
                cell["value"] = snapshot + 1
                backend.checkpoint()
        backend.checkpoint()

    threads = [backend.spawn(worker, name=f"w{i}") for i in range(3)]
    backend.start_all(threads)
    backend.join_all(threads)


class TestLockShapes:
    def test_deadlocked_trace(self):
        trace = drive(abba, BoundedPreemptionStrategy(quantum=1))
        assert trace.deadlocked
        assert list(segment_stream(trace))[-1][1] == "block"
        assert_matches_reference(trace)

    @pytest.mark.parametrize("seed", range(6))
    def test_tryacquire_traces(self, seed):
        trace = drive(try_acquire, RandomWalkStrategy(seed))
        assert any(d.point == "lock-tryacquire" for d in trace.decisions)
        assert_matches_reference(trace)

    @pytest.mark.parametrize("seed", range(6))
    def test_nested_lock_traces(self, seed):
        trace = drive(nested_locks, RandomWalkStrategy(seed))
        assert {d.lock for d in trace.decisions if d.lock is not None} == {0, 1}
        assert_matches_reference(trace)


# ----------------------------------------------------------------------
# Arbitrary decision streams
# ----------------------------------------------------------------------
POINTS = [
    "start",
    "trace",
    "checkpoint",
    "lock-acquire",
    "lock-tryacquire",
    "lock-release",
    "block",
    "retire",
]


_decisions = st.lists(
    st.tuples(
        st.sampled_from(POINTS),
        st.integers(min_value=0, max_value=3),
        st.sampled_from([None, 0, 1]),
    ),
    max_size=40,
)


def synthetic(decisions, deadlocked):
    return ScheduleTrace(
        identifier="synthetic",
        strategy="synthetic",
        workers={0: "w0", 2: "w2"},
        decisions=[
            ScheduleDecision(
                step=i, point=point, ready=[0, 1, 2, 3], chosen=chosen, lock=lock
            )
            for i, (point, chosen, lock) in enumerate(decisions)
        ],
        deadlocked=deadlocked,
    )


@settings(max_examples=300, deadline=None)
@given(decisions=_decisions, deadlocked=st.booleans())
def test_arbitrary_streams_match(decisions, deadlocked):
    assert_matches_reference(synthetic(decisions, deadlocked))


@settings(max_examples=300, deadline=None)
@given(
    predicted=_decisions,
    executed=_decisions,
    deadlocked=st.tuples(st.booleans(), st.booleans()),
    complete=st.booleans(),
)
def test_key_of_is_the_executed_runs_key(predicted, executed, deadlocked, complete):
    """Whether or not the run followed its prediction, ``key_of`` is the
    key the reference computes for the run."""
    run = SimulatedRun(trace=synthetic(predicted, deadlocked[0]), complete=complete)
    trace = synthetic(executed, deadlocked[1])
    assert run.key_of(trace) == reference.happens_before_key(trace)
    assert run.key_of(run.trace) == reference.happens_before_key(run.trace)
