"""Tests of the carrier threads tested programs run on (``repro.util.carriers``).

A carrier must look like the fresh thread it replaces (identity, names,
``start``/``join`` rules, a fresh context and trace function, the
excepthook), one run must never see one thread object twice, and after
a program's first run no OS thread starts.
"""

from __future__ import annotations

import contextvars
import io
import sys
import threading
from typing import List

import pytest

from repro.core.checker import DEFAULT_SCHEDULE
from repro.execution.child import _LineAtomicStdout, run_program
from repro.execution.registry import register_main, unregister_main
from repro.execution.scheduling import BoundedPreemptionStrategy
from repro.execution.subprocess_runner import SubprocessRunner
from repro.execution.worker_pool import WorkerPool
from repro.simulation.backend import SimulationBackend, current_backend
from repro.tracing import print_property
from repro.tracing.print_property import reset_standalone_state
from repro.util.carriers import (
    IDLE_CARRIERS,
    CarrierThread,
    lease,
    retire_idle,
    run_scope,
)
from repro.util.thread_registry import FIRST_THREAD_ID

#: Seconds any one wait in these tests may take.
WAIT = 10.0


def _controlled(runner, identifier, args=None):
    return runner.run(identifier, args or [], schedule=DEFAULT_SCHEDULE.clone())


@pytest.fixture
def program():
    """Register test programs by name; unregister them afterwards."""
    names: List[str] = []

    def register(name):
        def decorate(main):
            register_main(name)(main)
            names.append(name)
            return main

        return decorate

    yield register
    for name in names:
        unregister_main(name)


def _run(carrier):
    """Start *carrier*'s job and wait until it has ended."""
    carrier.start()
    carrier.join(WAIT)
    assert not carrier.is_alive()
    return carrier


def _reused_pair(first_job, second_job):
    """Run two jobs, each in its own run, on one carrier."""
    retire_idle()
    with run_scope():
        first = _run(lease(first_job, "first"))
    with run_scope():
        second = _run(lease(second_job, "second"))
    assert second is first


class TestIdentity:
    def test_root_and_workers_are_the_threads_that_run_them(self, runner, program):
        seen = {}

        @program("carrier.identity")
        def main(args):
            backend = current_backend()
            seen["root"] = threading.current_thread()

            def body():
                seen.setdefault("workers", []).append(threading.current_thread())
                print_property("Worker", threading.current_thread().name)

            threads = [backend.spawn(body) for _ in range(2)]
            seen["spawned"] = threads
            backend.start_all(threads)
            backend.join_all(threads)

        result = _controlled(runner, "carrier.identity")
        assert result.ok
        root = result.root_thread
        assert isinstance(root, CarrierThread) and root.daemon
        assert root is seen["root"] and root.name == "root:carrier.identity"
        assert seen["workers"] == seen["spawned"] == result.worker_threads
        assert [t.name for t in seen["spawned"]] == ["worker-0", "worker-1"]
        assert [e.value for e in result.events] == ["worker-0", "worker-1"]

    def test_simulation_workers_are_named_in_spawn_order(self):
        backend = SimulationBackend()
        threads = [backend.spawn(lambda: None) for _ in range(2)]
        threads.append(backend.spawn(lambda: None, name="named"))
        backend.start_all(threads)
        for thread in threads:
            thread.join(WAIT)
            assert not thread.is_alive()
        assert [t.name for t in threads] == ["worker-0", "worker-1", "named"]

    def test_a_child_run_names_its_root_root(self):
        seen = {}

        def main(args):
            seen["root"] = threading.current_thread()

        wrapper = _LineAtomicStdout(io.StringIO(), io.StringIO())
        try:
            failure, record, _ = run_program(
                main, [], wrapper, BoundedPreemptionStrategy(1).spec()
            )
        finally:
            reset_standalone_state()
        assert failure == "" and record["stalled"] is False
        assert isinstance(seen["root"], CarrierThread)
        assert seen["root"].name == "root"


class TestThreadRules:
    def test_start_twice_raises(self):
        carrier = _run(lease(lambda: None, "once"))
        with pytest.raises(RuntimeError, match="only be started once"):
            carrier.start()

    def test_join_before_start_raises(self):
        carrier = lease(lambda: None, "unstarted")
        with pytest.raises(RuntimeError, match="before it is started"):
            carrier.join()
        assert not carrier.is_alive()

    def test_join_with_timeout_and_is_alive_follow_the_job(self):
        release = threading.Event()
        carrier = lease(lambda: release.wait(WAIT), "waiting")
        carrier.start()
        carrier.join(0.01)
        assert carrier.is_alive()
        release.set()
        carrier.join(WAIT)
        assert not carrier.is_alive()

    @pytest.mark.parametrize("reused", [False, True])
    def test_start_returns_once_the_job_has_begun(self, reused):
        began: List[str] = []
        release = threading.Event()

        def job():
            began.append(threading.current_thread().name)
            release.wait(WAIT)

        retire_idle()
        if reused:
            with run_scope():
                warm = _run(lease(lambda: None, "warm"))
        with run_scope():
            carrier = lease(job, "job")
            assert (carrier is warm) if reused else carrier.ident is None
            carrier.start()
            assert began == ["job"]
            release.set()
            carrier.join(WAIT)
            assert not carrier.is_alive()

    def test_each_job_runs_in_a_fresh_context(self):
        flag = contextvars.ContextVar("flag", default="unset")
        flag.set("harness")
        seen: List[str] = []

        def first():
            seen.append(flag.get())
            flag.set("first job")

        _reused_pair(first, lambda: seen.append(flag.get()))
        assert seen == ["unset", "unset"]

    def test_each_job_takes_the_current_trace_function(self):
        def tracer(frame, event, arg):
            return None

        seen = []
        previous = threading.gettrace()
        threading.settrace(tracer)
        try:
            retire_idle()
            with run_scope():
                first = _run(lease(lambda: seen.append(sys.gettrace()), "traced"))
        finally:
            threading.settrace(previous)
        with run_scope():
            second = _run(lease(lambda: seen.append(sys.gettrace()), "untraced"))
        assert second is first
        assert seen == [tracer, previous]

    def test_an_escaping_exception_reaches_excepthook_as_the_worker(
        self, runner, program, capsys
    ):
        @program("carrier.crash")
        def main(args):
            backend = current_backend()

            def body():
                raise ValueError("boom")

            threads = [backend.spawn(body)]
            backend.start_all(threads)
            backend.join_all(threads)

        # The default hook, in place of the one pytest installs per test.
        saved = threading.excepthook
        threading.excepthook = threading.__excepthook__
        try:
            assert _controlled(runner, "carrier.crash").ok
        finally:
            threading.excepthook = saved
        err = capsys.readouterr().err
        assert "Exception in thread worker-0:" in err
        assert "ValueError: boom" in err
        # The carrier survived its job's exception and serves the next run.
        assert _controlled(runner, "synclab.straggler").ok


class TestOneRunNeverSeesOneThreadTwice:
    def _check_jacobi(self, result):
        assert result.ok
        assert len(result.worker_threads) == 12
        assert len({id(t) for t in result.worker_threads}) == 12
        assert result.root_thread not in result.worker_threads
        ids = sorted({e.thread_id for e in result.events})
        assert ids == list(range(FIRST_THREAD_ID, FIRST_THREAD_ID + 13))

    def test_jacobi_keeps_twelve_workers_in_process(self, runner):
        for _ in range(3):
            self._check_jacobi(_controlled(runner, "jacobi.correct"))

    def test_jacobi_keeps_twelve_workers_pooled(self):
        with WorkerPool(1) as pool:
            pooled = SubprocessRunner(timeout=60.0, pool=pool)
            for _ in range(3):
                self._check_jacobi(_controlled(pooled, "jacobi.correct"))

    def test_an_unjoined_worker_keeps_its_carrier_until_it_ends(
        self, runner, program
    ):
        release = threading.Event()
        leaked = []

        @program("carrier.unjoined")
        def main(args):
            backend = SimulationBackend()
            thread = backend.spawn(lambda: release.wait(WAIT))
            leaked.append(thread)
            backend.start_all([thread])

        retire_idle()
        assert runner.run("carrier.unjoined").ok
        worker = leaked[0]
        assert worker.is_alive()
        for _ in range(3):
            result = _controlled(runner, "synclab.straggler")
            assert worker is not result.root_thread
            assert worker not in result.worker_threads
        release.set()
        worker.join(WAIT)
        assert not worker.is_alive()
        with run_scope():
            assert lease(lambda: None, "next") is worker


def test_the_idle_pool_is_bounded():
    retire_idle()
    with run_scope():
        for k in range(IDLE_CARRIERS + 4):
            _run(lease(lambda: None, f"job-{k}"))
    assert retire_idle() == IDLE_CARRIERS


def test_a_lease_its_run_never_started_is_void():
    retire_idle()
    with run_scope():
        warm = _run(lease(lambda: None, "warm"))
    with run_scope():
        unstarted = lease(lambda: None, "unstarted")
        assert unstarted is warm
    assert retire_idle() == 0
    with pytest.raises(RuntimeError, match="after its run ended"):
        unstarted.start()


def test_outside_a_run_a_carrier_serves_one_job():
    retire_idle()
    carrier = _run(lease(lambda: None, "unscoped"))
    with run_scope():
        assert lease(lambda: None, "next") is not carrier
    assert retire_idle() == 0


def test_no_os_thread_starts_after_the_first_run(runner, monkeypatch):
    """Ten controlled runs of ``synclab.straggler``: its root and four
    workers start OS threads in the first run only."""
    name = (
        "_start_joinable_thread"
        if hasattr(threading, "_start_joinable_thread")
        else "_start_new_thread"
    )
    original = getattr(threading, name)
    starts = [0]

    def counting(*args, **kwargs):
        starts[0] += 1
        return original(*args, **kwargs)

    retire_idle()
    monkeypatch.setattr(threading, name, counting)
    per_run = []
    for _ in range(10):
        before = starts[0]
        assert _controlled(runner, "synclab.straggler").ok
        per_run.append(starts[0] - before)
    assert per_run == [5] + [0] * 9


def test_concurrent_runs_never_share_a_carrier():
    """Four threads (more than the cores CI has) each open 40 runs of
    three jobs, with the interpreter switching threads as often as it
    can: every job runs once, on a carrier no other job of its run has."""
    counted = threading.Lock()
    ran = [0]
    failures: List[str] = []

    def job():
        with counted:
            ran[0] += 1

    def runs():
        for _ in range(40):
            with run_scope():
                carriers = [lease(job, f"job-{k}") for k in range(3)]
                for carrier in carriers:
                    carrier.start()
                for carrier in carriers:
                    carrier.join(WAIT)
                    if carrier.is_alive():
                        failures.append("a job did not end")
                if len({id(carrier) for carrier in carriers}) != 3:
                    failures.append("one run got one carrier twice")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        harness = [threading.Thread(target=runs) for _ in range(4)]
        for thread in harness:
            thread.start()
        for thread in harness:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in harness)
    assert failures == []
    assert ran[0] == 4 * 40 * 3
    assert retire_idle() <= IDLE_CARRIERS
