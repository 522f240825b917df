"""Program-execution layer: run a tested program and collect its trace.

This is the common layer both the functionality and performance checkers
use (§4.4): it invokes the tested program's ``main`` with specified
arguments, lets it run to full completion, and collects its output plus
the event trace.  The program runs on a dedicated *root thread* so that

* the root thread of the fork-join model is a first-class, identifiable
  thread object distinct from the harness's own thread;
* a runaway program can be timed out (reported, not killed — CPython has
  no safe thread kill, and fork-join course workloads are small);
* exceptions escaping ``main`` are captured and reported rather than
  crashing the harness — as in the paper, intermediate errors are
  expected to manifest as incorrect traced output.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Tuple

from repro.eventdb.database import EventDatabase
from repro.eventdb.events import PropertyEvent
from repro.execution.registry import MainFunction, resolve_main
from repro.obs import get_registry as _obs_registry
from repro.tracing.session import TraceSession

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.execution.scheduling import ScheduledBackend, ScheduleTrace

__all__ = [
    "ExecutionResult",
    "ProgramRunner",
    "DEFAULT_TIMEOUT",
    "follow_schedule",
    "in_process_session_lock",
]

#: Course fork-join workloads complete in milliseconds; a generous default
#: catches deadlocked joins without stalling a grading session.
DEFAULT_TIMEOUT = 30.0

#: In-process tracing patches *process-global* state (``sys.stdout``,
#: ``builtins.print``), so two concurrent in-process runs would corrupt
#: each other's traces.  All in-process runs serialize on this lock; a
#: parallel grading batch that wants real concurrency must use
#: :class:`~repro.execution.subprocess_runner.SubprocessRunner`, whose
#: children own their interpreters outright.
_SESSION_LOCK = threading.RLock()


def in_process_session_lock() -> threading.RLock:
    """The lock serializing all in-process runs (re-entrant).

    Callers that install an ambient backend around a whole checker run —
    e.g. schedule exploration — hold this so a parallel grading batch
    cannot interleave another submission into their controlled backend.
    """
    return _SESSION_LOCK


@dataclass
class ExecutionResult:
    """Everything observed from one complete run of a tested program."""

    identifier: str
    args: List[str]
    output: str
    events: List[PropertyEvent]
    database: EventDatabase
    root_thread: threading.Thread
    root_thread_id: int
    duration: float
    exception: Optional[BaseException] = None
    timed_out: bool = False
    hidden: bool = False
    #: Threads other than the root that produced at least one event, in
    #: first-output order — the *forked worker threads* of the model.
    worker_threads: List[threading.Thread] = field(default_factory=list)
    #: Signal that killed the child (subprocess regime only; ``None``
    #: for normal exits and the whole in-process regime).
    signal_number: Optional[int] = None
    #: Trace lines that are property-shaped but unparseable, or cut
    #: mid-line — evidence of a torn/garbled trace (subprocess regime).
    garbled_lines: List[str] = field(default_factory=list)
    #: Recorded interleaving when the run executed under a controlled
    #: schedule (:class:`~repro.execution.scheduling.ScheduleTrace`),
    #: else ``None``.
    schedule: Optional["ScheduleTrace"] = None
    #: Seed of the controlled schedule's strategy, when it had one.
    schedule_seed: Optional[int] = None
    #: Why a run asked to follow a controlled schedule carries none:
    #: it stalled outside the scheduler and was rerun on free threads.
    schedule_note: str = ""
    #: Virtual makespan the run published with
    #: :func:`~repro.simulation.backend.record_makespan`, in whichever
    #: process ran it; ``None`` when it published none.
    makespan: Optional[float] = None

    @property
    def ok(self) -> bool:
        """True when the program ran to completion without an exception."""
        return self.exception is None and not self.timed_out and self.signal_number is None

    @property
    def failure_kind(self):
        """This run's :class:`~repro.execution.taxonomy.FailureKind`."""
        from repro.execution.taxonomy import classify_execution

        return classify_execution(self)

    def failure_reason(self) -> str:
        """Human-readable cause of a non-ok run (empty when ok)."""
        if self.timed_out:
            return (
                f"program {self.identifier!r} did not terminate within the "
                f"time limit (deadlocked join?)"
            )
        if self.signal_number is not None:
            import signal as _signal

            try:
                name = _signal.Signals(self.signal_number).name
            except ValueError:  # pragma: no cover - exotic signal number
                name = f"signal {self.signal_number}"
            return f"program {self.identifier!r} was killed by {name}"
        if self.exception is not None:
            return (
                f"program {self.identifier!r} raised "
                f"{type(self.exception).__name__}: {self.exception}"
            )
        return ""

    def worker_events(self) -> List[PropertyEvent]:
        """Events produced by the forked worker threads, in trace order."""
        root = self.root_thread
        return [e for e in self.events if e.thread is not root]

    def root_events(self) -> List[PropertyEvent]:
        """Events produced by the root thread, in trace order."""
        root = self.root_thread
        return [e for e in self.events if e.thread is root]


def follow_schedule(
    schedule: Optional[Any],
    limit: float,
    run_once: Callable[
        [Optional["ScheduledBackend"], float], Tuple[ExecutionResult, str]
    ],
) -> ExecutionResult:
    """Run a tested program once on the schedule it should follow.

    The choice both runners share.  A backend the calling thread
    installed with :func:`~repro.simulation.backend.use_backend` wins
    over *schedule*: an installed
    :class:`~repro.execution.scheduling.ScheduledBackend` is followed,
    any other installed backend (a simulation policy,
    ``ThreadingBackend()``) keeps the run off the scheduler.  Otherwise
    *schedule* — a seed, a recorded trace, a strategy or a backend — is
    followed, and ``None`` runs on free threads.

    ``run_once(controlled, limit)`` runs the program once under
    *controlled* (``None``: off the scheduler) within *limit* seconds;
    it returns the result and, if the controlled run stalled outside
    the scheduler, why.  A stalled run is rerun once off the scheduler
    within the rest of *limit*: that result carries no schedule, the
    time of both runs, and the reason in ``schedule_note``.
    """
    from repro.execution.scheduling import ScheduledBackend, resolve_schedule_strategy
    from repro.simulation.backend import installed_backend

    installed = installed_backend()
    controlled: Optional[ScheduledBackend]
    if installed is not None:
        controlled = installed if isinstance(installed, ScheduledBackend) else None
    elif schedule is None or isinstance(schedule, ScheduledBackend):
        controlled = schedule
    else:
        controlled = ScheduledBackend(resolve_schedule_strategy(schedule))
    result, stall = run_once(controlled, limit)
    if not stall:
        return result
    rerun, _ = run_once(None, max(0.0, limit - result.duration))
    rerun.duration += result.duration
    rerun.schedule_note = (
        f"controlled schedule {controlled.schedule_id()} {stall}; "
        f"rerun on free threads"
    )
    return rerun


class ProgramRunner:
    """Run registered tested programs under trace sessions."""

    def __init__(self, *, timeout: float = DEFAULT_TIMEOUT, echo: bool = False) -> None:
        """Configure the runner.

        ``timeout`` is the default per-run wall-clock limit in seconds;
        ``echo`` forwards the tested program's output to the genuine
        stdout in addition to capturing it.
        """
        self.timeout = timeout
        self.echo = echo

    def run(
        self,
        identifier: str,
        args: Optional[List[str]] = None,
        *,
        hide_prints: bool = False,
        timeout: Optional[float] = None,
        stdin_lines: Optional[List[str]] = None,
        schedule: Optional[Any] = None,
    ) -> ExecutionResult:
        """Execute ``main(args)`` of *identifier* under a fresh session.

        With ``hide_prints=True`` (performance testing) every intercepted
        print is disabled for the entire run: no output, no trace events,
        no tracing overhead on the timed path.  ``stdin_lines`` scripts
        the program's standard input (§4.4: programs run "with specified
        input and arguments"); a program that reads more than provided
        fails with an EOF, as it would on a closed pipe.

        ``schedule`` runs the program under a *controlled schedule*: a
        seed (``int``), a recorded
        :class:`~repro.execution.scheduling.ScheduleTrace` to replay, or
        a strategy object.  The corresponding
        :class:`~repro.execution.scheduling.ScheduledBackend` is
        installed as the ambient concurrency backend for the run, every
        intercepted print becomes a yield point, and the recorded
        interleaving is attached to the result as ``result.schedule``.
        A backend the calling thread installed with
        :func:`~repro.simulation.backend.use_backend` wins over
        ``schedule=``: an installed ``ScheduledBackend`` (an explorer's,
        around a whole checker) is picked up and wired the same way, and
        any other installed backend runs the program off the scheduler.
        A controlled run that stalls outside the scheduler is rerun once
        on free threads (:func:`follow_schedule`).
        """
        obs = _obs_registry()
        limit = self.timeout if timeout is None else timeout
        with obs.span("runner.run", identifier=identifier) as span:
            result = follow_schedule(
                schedule,
                limit,
                lambda controlled, budget: self._run_traced(
                    identifier,
                    args,
                    hide_prints=hide_prints,
                    limit=budget,
                    stdin_lines=stdin_lines,
                    controlled=controlled,
                ),
            )
            span.set(
                events=len(result.events),
                timed_out=result.timed_out or None,
                schedule=(
                    result.schedule.label() if result.schedule is not None else None
                ),
                schedule_note=result.schedule_note or None,
            )
        obs.histogram("runner.run.seconds").observe(result.duration)
        if result.timed_out:
            obs.counter("runner.timeouts").inc()
        return result

    def _run_traced(
        self,
        identifier: str,
        args: Optional[List[str]],
        *,
        hide_prints: bool,
        limit: float,
        stdin_lines: Optional[List[str]],
        controlled: Optional["ScheduledBackend"],
    ) -> Tuple[ExecutionResult, str]:
        """One run of :meth:`run`, under *controlled* or off the scheduler.

        Returns the result and, when the controlled run stalled, why.
        """
        from repro.execution.stdin_feed import StdinFeed
        from repro.execution.scheduling import ScheduledBackend
        from repro.simulation.backend import (
            ThreadingBackend,
            current_backend,
            last_makespan,
            record_makespan,
            use_backend,
        )

        main = resolve_main(identifier)
        args = list(args) if args is not None else []

        session = TraceSession(hidden=hide_prints, echo=self.echo)
        feed = StdinFeed(stdin_lines) if stdin_lines is not None else None
        holder: dict = {"exception": None}

        def root_body() -> None:
            try:
                main(args)
            except BaseException as exc:  # noqa: BLE001 - reported, not raised
                holder["exception"] = exc

        root = threading.Thread(target=root_body, name=f"root:{identifier}")
        started = time.perf_counter()
        with _SESSION_LOCK:
            backend = controlled
            if controlled is not None:
                session.yield_hook = controlled.trace_yield
                session.database.schedule_id = controlled.schedule_id()
            elif isinstance(current_backend(), ScheduledBackend):
                # The free rerun of a run that stalled under the
                # caller's schedule.
                backend = ThreadingBackend()
            if feed is not None:
                feed.install()
            record_makespan(None)
            try:
                with contextlib.ExitStack() as stack:
                    if backend is not None:
                        stack.enter_context(use_backend(backend))
                    stack.enter_context(session.activate())
                    # Register the root thread first so it receives the
                    # lowest id, as in the paper's traces where the root
                    # prints first.
                    root_id = session.registry.id_for(root)
                    root.start()
                    if controlled is None:
                        root.join(limit)
                        outcome = "timed-out" if root.is_alive() else "done"
                    else:
                        # Unwinds gated workers on a timeout or a stall,
                        # so the session teardown is not racing live
                        # prints.
                        outcome = controlled.await_root(root, limit)
            finally:
                if feed is not None:
                    feed.uninstall()
            makespan = last_makespan()
        duration = time.perf_counter() - started

        events = session.database.snapshot()
        workers: List[threading.Thread] = []
        for event in events:
            if event.thread is not root and event.thread not in workers:
                workers.append(event.thread)

        result = ExecutionResult(
            identifier=identifier,
            args=args,
            output=session.output(),
            events=events,
            database=session.database,
            root_thread=root,
            root_thread_id=root_id,
            duration=duration,
            exception=holder["exception"],
            timed_out=outcome == "timed-out",
            hidden=hide_prints,
            worker_threads=workers,
            schedule=(
                controlled.schedule_trace(identifier, args)
                if controlled is not None
                else None
            ),
            schedule_seed=controlled.seed if controlled is not None else None,
            makespan=makespan,
        )
        stall = controlled.scheduler.divergence if outcome == "stalled" else ""
        return result, stall

    def run_callable(
        self,
        main: MainFunction,
        args: Optional[List[str]] = None,
        *,
        identifier: str = "<anonymous>",
        hide_prints: bool = False,
        timeout: Optional[float] = None,
    ) -> ExecutionResult:
        """Like :meth:`run` but for an unregistered callable."""
        from repro.execution.registry import register_main, unregister_main

        token = f"__runner_tmp__:{identifier}:{id(main)}"
        register_main(token)(main)
        try:
            result = self.run(token, args, hide_prints=hide_prints, timeout=timeout)
        finally:
            unregister_main(token)
        result.identifier = identifier
        return result
