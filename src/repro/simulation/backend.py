"""Concurrency backends: one workload source, three execution regimes.

Tested programs written against this tiny API — ``spawn``, ``join_all``,
``checkpoint(cost)`` — run unchanged on:

* :class:`ThreadingBackend` — plain ``threading`` (the default; the
  regime the paper's Java programs use);
* :class:`SimulationBackend` — real threads (leased carriers,
  :mod:`repro.util.carriers`) gated by the cooperative scheduler with a
  chosen interleaving policy, accruing *virtual* cost on the
  :class:`~repro.simulation.clock.VirtualClock`.  Deterministic
  interleavings for functionality testing; deterministic speedups for
  performance testing despite the GIL.

The ambient backend is installed with :func:`use_backend`; workloads call
:func:`current_backend`.  This is the one deliberate extension beyond the
paper's Java infrastructure, motivated in DESIGN.md §3 (Python cannot get
wall-clock speedup from CPU-bound threads).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional

from repro.simulation.clock import VirtualClock
from repro.simulation.scheduler import CooperativeScheduler, SchedulePolicy
from repro.util.carriers import lease

__all__ = [
    "ConcurrencyBackend",
    "ThreadingBackend",
    "SimulationBackend",
    "current_backend",
    "installed_backend",
    "use_backend",
]


class ConcurrencyBackend:
    """Base backend: plain threading semantics."""

    def spawn(self, target: Callable[[], None], name: str = "") -> threading.Thread:
        """Create (unstarted) a worker thread running *target*."""
        return threading.Thread(target=target, name=name or None)

    def start_all(self, threads: List[threading.Thread]) -> None:
        for thread in threads:
            thread.start()

    def join_all(self, threads: List[threading.Thread]) -> None:
        for thread in threads:
            thread.join()

    def checkpoint(self, cost: float = 0.0) -> None:
        """A scheduling point with *cost* units of work just performed.

        Plain threading ignores both aspects; subclasses may gate
        execution and/or charge a virtual clock.
        """

    def charge_root(self, cost: float) -> None:
        """Accrue root-thread (serial section) cost; no-op here."""

    def lock(self):
        """A mutual-exclusion lock appropriate for this backend.

        Plain ``threading.Lock`` here; the controlled-scheduling backend
        returns an instrumented lock whose acquire/release are yield
        points, so lock-protected workloads stay explorable without
        deadlocking the serialized schedule.
        """
        return threading.Lock()


class ThreadingBackend(ConcurrencyBackend):
    """The default backend: free-running OS threads.

    ``checkpoint`` sleeps a sliver so that short course workloads (a
    handful of iterations) reliably overlap their output the way long
    real workloads do; without it a worker can finish its whole loop
    within one GIL quantum and the trace would serialize by accident.
    """

    def __init__(self, yield_sleep: float = 0.0005) -> None:
        self.yield_sleep = yield_sleep

    def checkpoint(self, cost: float = 0.0) -> None:
        if self.yield_sleep:
            time.sleep(self.yield_sleep)


class SimulationBackend(ConcurrencyBackend):
    """Cooperatively scheduled threads with a virtual clock.

    ``policy`` chooses the interleaving (round-robin by default); the
    clock's :meth:`~repro.simulation.clock.VirtualClock.makespan` after a
    run is the simulated fork-join duration.
    """

    def __init__(self, policy: Optional[SchedulePolicy] = None) -> None:
        self.scheduler = CooperativeScheduler(policy)
        self.clock = VirtualClock()
        self._spawned = 0
        self._started_count = 0
        self._lock = threading.Lock()

    def spawn(self, target: Callable[[], None], name: str = "") -> threading.Thread:
        """An unstarted worker running *target* under the policy.

        The worker is *name*, or ``worker-<k>`` in spawn order.  The
        thread returned is a :class:`~repro.util.carriers.CarrierThread`
        leased for the run: the thread that runs the body and what
        ``threading.current_thread()`` returns inside it.  Its
        ``start()`` returns once the body runs, so workers enroll in
        the order they are started.
        """
        scheduler = self.scheduler

        def gated() -> None:
            scheduler.enroll()
            try:
                target()
            finally:
                scheduler.retire()

        with self._lock:
            key = self._spawned
            self._spawned += 1
        return lease(gated, name or f"worker-{key}")

    def start_all(self, threads: List[threading.Thread]) -> None:
        self.clock.set_root()
        for thread in threads:
            thread.start()
        # Cumulative count: programs that start workers in several batches
        # (including the serialized buggy pattern) must each time wait for
        # the new workers to enroll before the gate re-opens.
        with self._lock:
            self._started_count += len(threads)
            expected = self._started_count
        self.scheduler.start(expected_workers=expected)

    def checkpoint(self, cost: float = 0.0) -> None:
        if cost:
            self.clock.charge(cost)
        self.scheduler.checkpoint()

    def charge_root(self, cost: float) -> None:
        self.clock.charge(cost)

    def makespan(self) -> float:
        return self.clock.makespan()

    def virtual_speedup_baseline(self) -> float:
        """Virtual time a serial execution of the same work would take."""
        return self.clock.serial_total()


_default_backend: ConcurrencyBackend = ThreadingBackend()

#: What each thread installed with :func:`use_backend`, innermost scope.
_installed = threading.local()

#: Mailbox holding the makespan a simulation run published, ``None``
#: when cleared.  The runner clears and reads it around each run inside
#: the process that runs the program (under the in-process session
#: lock, or in the child) and carries the value on
#: ``ExecutionResult.makespan``.
_last_makespan: List[Optional[float]] = [None]


def current_backend() -> ConcurrencyBackend:
    """The ambient concurrency backend workloads run against."""
    return _default_backend


def installed_backend() -> Optional[ConcurrencyBackend]:
    """The backend the calling thread installed with :func:`use_backend`.

    ``None`` outside every :func:`use_backend` scope of this thread.  A
    runner asks this, not :func:`current_backend`, whether its caller
    chose the backend: the ambient slot is process-wide, so in a
    parallel batch it may hold another thread's backend.
    """
    return getattr(_installed, "backend", None)


@contextmanager
def use_backend(backend: ConcurrencyBackend) -> Iterator[ConcurrencyBackend]:
    """Install *backend* as the ambient backend for this thread's scope.

    The backend is stored in a plain module slot (not thread-local) for
    the duration, because the tested program runs on its own root thread
    and must observe the harness's choice; the installing thread alone
    also sees it through :func:`installed_backend`.
    """
    global _default_backend
    previous = _default_backend
    previous_installed = installed_backend()
    _default_backend = backend
    _installed.backend = backend
    try:
        yield backend
    finally:
        if isinstance(backend, SimulationBackend):
            _last_makespan[0] = backend.makespan()
        _default_backend = previous
        _installed.backend = previous_installed


def last_makespan() -> Optional[float]:
    """Makespan published since the mailbox was last cleared, else ``None``."""
    return _last_makespan[0]


def record_makespan(value: Optional[float]) -> None:
    """Publish a run's virtual makespan; ``None`` clears the mailbox."""
    _last_makespan[0] = value
