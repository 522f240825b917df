"""Reused carrier threads for the threads of tested programs.

Schedule search reruns one program under dozens of schedules, and every
run needs a root thread plus one thread per worker.  Starting and
joining an OS thread costs more than many course workloads take to run,
so the runners and the controlled backends take their threads from
this module instead: a **carrier** is a parked daemon
:class:`threading.Thread` that runs one *job* (a root body or a gated
worker body) after another.

* :func:`lease` hands out a carrier for one job: an idle one when there
  is one, else a new one whose OS thread starts with its first job.
  The carrier itself is the handle: it is what
  :func:`threading.current_thread` returns inside the job, and its
  ``start``/``join``/``is_alive`` follow the job, not the OS thread.
* :func:`run_scope` brackets one run of a tested program.  Each lease
  belongs to the run that made it: a lease made on a carrier belongs to
  that carrier's run, any other to the scope the calling thread opened.
  A carrier goes back to the idle pool only once its run's scope has
  closed *and* its job has ended, so one run never sees one thread
  object twice (a Jacobi run keeps its twelve distinct workers), and a
  job still running at the close (a leaked or aborted worker) keeps its
  carrier until it ends.  Outside every run a carrier exits after its
  one job.
* At most :data:`IDLE_CARRIERS` carriers stay parked; a carrier that
  would exceed the bound exits instead.

A job starts as it would on a fresh thread: in a new empty
:class:`contextvars.Context`, with the trace and profile functions of
:func:`threading.gettrace` and :func:`threading.getprofile`, and an
exception escaping it goes to :func:`threading.excepthook` with the
carrier as ``thread``.  ``start()`` returns once the carrier has begun
the job, as ``Thread.start()`` returns once the new thread runs: a
cooperative scheduler that lists workers in enrolment order relies on
it.  Differences from a fresh thread: carriers are daemon threads,
``ident`` is set before ``start()`` on a reused carrier, idle carriers
appear in :func:`threading.enumerate`, thread-locals outlive the job,
and ``join``/``is_alive`` of a handle whose carrier serves a later run
follow that later job.
"""

from __future__ import annotations

import contextvars
import os
import sys
import threading
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional

__all__ = ["IDLE_CARRIERS", "CarrierThread", "lease", "retire_idle", "run_scope"]

#: Most carriers kept parked between runs.  A Jacobi run takes 13 (its
#: root and twelve workers); every built-in workload fits.
IDLE_CARRIERS = 16

#: Guards the idle pool, every scope's carrier list and every carrier's
#: job state.
_lock = threading.Lock()
_idle: List["CarrierThread"] = []
#: The scope a non-carrier thread opened with :func:`run_scope`.
_local = threading.local()


class _RunScope:
    """The carriers one run leased, and whether the run is over."""

    __slots__ = ("carriers", "closed")

    def __init__(self) -> None:
        self.carriers: List["CarrierThread"] = []
        self.closed = False


class CarrierThread(threading.Thread):
    """A daemon thread that runs leased jobs one after another.

    Made only by :func:`lease`.  Between jobs the carrier is parked on
    a lock; ``start()`` hands it the leased job.
    """

    def __init__(self) -> None:
        """An idle carrier; its OS thread starts with its first job."""
        super().__init__(name="carrier", daemon=True)
        #: Released once per job handed over (or to let the carrier exit).
        self._wake = threading.Lock()
        self._wake.acquire()
        #: Released by the carrier when it begins a job.
        self._begun = threading.Lock()
        self._begun.acquire()
        self._job: Optional[Callable[[], None]] = None
        #: Held from lease until the leased job ends; ``join`` waits on
        #: it.  Each lease makes its own.
        self._job_done = threading.Lock()
        self._job_started = False
        self._job_ended = False
        self._scope: Optional[_RunScope] = None

    def start(self) -> None:
        """Begin the leased job; return once the carrier runs it."""
        with _lock:
            if self._job_started:
                raise RuntimeError("threads can only be started once")
            if self._job is None:
                raise RuntimeError("cannot start a thread after its run ended")
            self._job_started = True
        self._wake.release()
        if self.ident is None:
            super().start()
        self._begun.acquire()

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait until the leased job ends, or *timeout* seconds pass."""
        if not self._job_started:
            raise RuntimeError("cannot join thread before it is started")
        if self is threading.current_thread():
            raise RuntimeError("cannot join current thread")
        done = self._job_done
        if done.acquire(timeout=-1 if timeout is None else max(timeout, 0)):
            done.release()

    def is_alive(self) -> bool:
        """Has the leased job started and not yet ended?"""
        return self._job_started and not self._job_ended

    def run(self) -> None:
        """Serve jobs until told to exit."""
        while True:
            self._wake.acquire()
            job, self._job = self._job, None
            if job is None:
                return
            sys.settrace(threading.gettrace())
            sys.setprofile(threading.getprofile())
            self._begun.release()
            try:
                contextvars.Context().run(job)
            except BaseException:
                # Reported as a fresh thread reports it (SystemExit
                # included, which the default hook ignores); the
                # carrier lives on.
                try:
                    threading.excepthook(
                        threading.ExceptHookArgs([*sys.exc_info(), self])
                    )
                except Exception:
                    sys.excepthook(*sys.exc_info())
            finally:
                job = None
                sys.settrace(None)
                sys.setprofile(None)
            _end_job(self)


def _current_scope() -> Optional[_RunScope]:
    """The open scope a lease made by the calling thread belongs to."""
    me = threading.current_thread()
    scope = getattr(_local, "scope", None)
    if scope is None and isinstance(me, CarrierThread):
        scope = me._scope
    return scope if scope is not None and not scope.closed else None


def lease(target: Callable[[], None], name: str) -> CarrierThread:
    """A carrier that runs *target* once started, named *name* meanwhile.

    Inside a run an idle carrier is reused; otherwise a new carrier is
    made, and its OS thread starts with this job.
    """
    with _lock:
        scope = _current_scope()
        carrier = _idle.pop() if scope is not None and _idle else CarrierThread()
        carrier._job = target
        carrier._job_done = threading.Lock()
        carrier._job_done.acquire()
        carrier._job_started = carrier._job_ended = False
        carrier._scope = scope
        if scope is not None:
            scope.carriers.append(carrier)
    carrier.name = name
    return carrier


def _end_job(carrier: CarrierThread) -> None:
    """Mark *carrier*'s job ended; park it for reuse or let it exit."""
    with _lock:
        carrier._job_ended = True
        carrier._job_done.release()
        scope = carrier._scope
        if scope is None:
            _retire(carrier)
        elif scope.closed:
            _return(carrier)


def _return(carrier: CarrierThread) -> None:
    """Put an idle carrier back in the pool, or retire it when full."""
    carrier._scope = None
    if len(_idle) < IDLE_CARRIERS:
        _idle.append(carrier)
    else:
        _retire(carrier)


def _retire(carrier: CarrierThread) -> None:
    """Let a parked (or parking) carrier's OS thread exit."""
    carrier._scope = None
    carrier._job = None
    carrier._wake.release()


@contextmanager
def run_scope() -> Iterator[None]:
    """Bracket one run: leases made in it stay out of the pool until
    it closes.

    Opened by the thread that starts the run's root (in process, inside
    the session lock), closed when the run is over.  A carrier whose
    job has ended returns to the pool at the close; one whose job is
    still running returns when the job ends.  A lease the run never
    started can no longer be started, and its carrier exits.
    """
    scope = _RunScope()
    previous = getattr(_local, "scope", None)
    _local.scope = scope
    try:
        yield
    finally:
        _local.scope = previous
        with _lock:
            scope.closed = True
            for carrier in scope.carriers:
                if not carrier._job_started:
                    # Never started, and no later run may start it.
                    if carrier.ident is None:
                        carrier._scope = carrier._job = None
                    else:
                        _retire(carrier)
                elif carrier._job_ended:
                    _return(carrier)
                # else the carrier returns itself when its job ends


def retire_idle() -> int:
    """Let every idle carrier exit; returns how many there were."""
    with _lock:
        idle = list(_idle)
        _idle.clear()
        for carrier in idle:
            _retire(carrier)
    return len(idle)


def _forget_after_fork() -> None:
    """A forked child has none of the parent's other OS threads."""
    global _lock
    _lock = threading.Lock()
    _idle.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_after_fork)
