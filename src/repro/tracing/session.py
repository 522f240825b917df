"""Trace sessions: the ambient context connecting programs to the trace.

A :class:`TraceSession` is installed around one run of a tested program.
While active it owns the print interception (``sys.stdout`` and
``builtins.print``), the thread registry, the event database, the
observer registry, and the *hide* flag that disables prints during
performance testing.  Tested programs never see the session object: they
call the module-level API (:func:`repro.tracing.print_property`,
:func:`repro.tracing.set_hide_redirected_prints`), which looks up the
ambient session — exactly how the paper's programs talk to an invisible
infrastructure through ``printProperty`` and ``setHideRedirectedPrints``.
"""

from __future__ import annotations

import sys
import threading
from typing import Any, Callable, List, Optional

from repro.eventdb.database import EventDatabase
from repro.obs import get_registry as _obs_registry
from repro.tracing.formatting import format_property_line
from repro.tracing.interceptor import PrintPatch, RedirectingWriter
from repro.tracing.observable import ObserverRegistry, PrintObserver
from repro.util.thread_registry import ThreadRegistry

__all__ = [
    "TraceSession",
    "current_session",
    "set_hide_redirected_prints",
    "get_hide_redirected_prints",
]

_session_lock = threading.RLock()
_current: Optional["TraceSession"] = None


def current_session() -> Optional["TraceSession"]:
    """The active session, or ``None`` when running outside the harness.

    Reads the module slot without taking the session lock: every print
    of a tested program asks, hidden ones included.  Reading one module
    global is atomic under the GIL, and install and uninstall still
    write the slot under the lock.  A locked read released the lock
    before the caller used the session anyway, so no caller can see a
    session it could not see with the lock.
    """
    return _current


def set_hide_redirected_prints(hidden: bool) -> None:
    """Enable/disable all intercepted prints (both output and tracing).

    Callable by both tested and testing programs, as in the paper.  A
    disabled print produces no output and makes no change to the trace.
    Outside a session the call sets the standalone hide flag
    (:func:`repro.tracing.print_property.set_standalone_hidden`): a
    program run in a child process, or on its own, then hides its
    prints just as it would in process.
    """
    session = _current
    if session is not None:
        session.hidden = hidden
        return
    from repro.tracing.print_property import set_standalone_hidden

    set_standalone_hidden(hidden)


def get_hide_redirected_prints() -> bool:
    """Whether prints are currently disabled: the active session's flag,
    else the standalone hide flag."""
    session = _current
    if session is not None:
        return session.hidden
    from repro.tracing.print_property import standalone_hidden

    return standalone_hidden()


class TraceSession:
    """Owns the interception state for one tested-program run.

    Usage::

        session = TraceSession()
        with session.activate():
            tested_main(args)
        events = session.database.snapshot()
        text = session.output()

    Sessions do not nest: the infrastructure tests complete programs, one
    at a time, always running ``main`` to completion before analyzing its
    output.
    """

    def __init__(
        self,
        *,
        hidden: bool = False,
        registry: Optional[ThreadRegistry] = None,
        echo: bool = False,
    ) -> None:
        """A session that is not yet active.

        ``hidden`` starts the run with every print disabled (performance
        timing); ``registry`` hands out the trace's thread ids (a fresh
        :class:`~repro.util.thread_registry.ThreadRegistry` by default);
        ``echo`` also forwards the program's output to the genuine
        stdout.
        """
        self.registry = registry if registry is not None else ThreadRegistry()
        self.database = EventDatabase(self.registry)
        self.observers = ObserverRegistry()
        self.hidden = hidden
        #: When False (the default under test), the "real console" is an
        #: in-memory sink so test runs do not spam the harness's stdout.
        #: When True, output is forwarded to the genuine stdout as well.
        self.echo = echo
        self._captured: List[str] = []
        self._capture_lock = threading.Lock()
        self._writer: Optional[RedirectingWriter] = None
        self._print_patch: Optional[PrintPatch] = None
        self._saved_stdout: Optional[Any] = None
        #: Scheduling hook: called (with no arguments) after every
        #: recorded event, making each intercepted print — the paper's
        #: ``printProperty`` interception point — a controlled-scheduler
        #: yield point.  Set by the runner when a run executes under
        #: :class:`repro.execution.scheduling.ScheduledBackend`; ``None``
        #: (the default) costs nothing.
        self.yield_hook: Optional[Callable[[], None]] = None
        #: Observability span covering install → uninstall (property-event
        #: ingestion).  Event counting happens once at teardown from the
        #: database size, so the per-event hot path carries no obs cost.
        self._obs_span = None

    # ------------------------------------------------------------------
    # Activation
    # ------------------------------------------------------------------
    class _Activation:
        def __init__(self, session: "TraceSession") -> None:
            self._session = session

        def __enter__(self) -> "TraceSession":
            self._session._install()
            return self._session

        def __exit__(self, *exc: Any) -> None:
            self._session._uninstall()

    def activate(self) -> "TraceSession._Activation":
        """Context manager: install this session for the ``with`` body.

        Raises :class:`RuntimeError` on entry if another session is
        active; sessions do not nest.
        """
        return TraceSession._Activation(self)

    def _install(self) -> None:
        global _current
        with _session_lock:
            if _current is not None:
                raise RuntimeError(
                    "a trace session is already active; fork-join tests run "
                    "one complete program at a time"
                )
            self._saved_stdout = sys.stdout
            real = sys.stdout if self.echo else _NullConsole()
            self._writer = RedirectingWriter(self, real)
            sys.stdout = self._writer
            self._print_patch = PrintPatch(self, self._writer)
            self._print_patch.install()
            _current = self
            self._obs_span = _obs_registry().begin_span(
                "session.ingest", hidden=self.hidden or None
            )

    def _uninstall(self) -> None:
        global _current
        with _session_lock:
            if _current is not self:
                return
            if self._obs_span is not None:
                obs = _obs_registry()
                events = len(self.database)
                obs.end_span(self._obs_span, events=events)
                obs.counter("session.events").inc(events)
                self._obs_span = None
            if self._writer is not None:
                self._writer.close_line_buffers()
            if self._print_patch is not None:
                self._print_patch.uninstall()
                self._print_patch = None
            if self._saved_stdout is not None:
                sys.stdout = self._saved_stdout
                self._saved_stdout = None
            self._writer = None
            _current = None

    @property
    def active(self) -> bool:
        """Whether this session is the one currently installed."""
        with _session_lock:
            return _current is self

    # ------------------------------------------------------------------
    # Recording (called by the interceptor and print_property)
    # ------------------------------------------------------------------
    def capture(self, line: str) -> None:
        """Keep the raw output line for :meth:`output` reconstruction."""
        with self._capture_lock:
            self._captured.append(line)

    def record_plain_line(self, line: str) -> None:
        """A completed line written directly to stdout (not via print)."""
        self._record("str", line, line, explicit=False)

    def record_plain_value(self, type_name: str, value: Any, line: str) -> None:
        """A plain ``print(obj)``: logical variable named after the type."""
        self._record(type_name, value, line, explicit=False)

    def record_property(self, name: str, value: Any, line: str) -> None:
        """An explicit ``print_property(name, value)`` trace."""
        self._record(name, value, line, explicit=True)

    def _record(self, name: str, value: Any, line: str, *, explicit: bool) -> None:
        event = self.database.record(name, value, line, explicit=explicit)
        self.observers.announce(event)
        hook = self.yield_hook
        if hook is not None:
            hook()

    # ------------------------------------------------------------------
    # Output and helpers
    # ------------------------------------------------------------------
    def output(self) -> str:
        """The program's full console output, in write order."""
        with self._capture_lock:
            return "\n".join(self._captured) + ("\n" if self._captured else "")

    def output_lines(self) -> List[str]:
        """The program's output lines so far, in write order."""
        with self._capture_lock:
            return list(self._captured)

    def writer(self) -> RedirectingWriter:
        """The ``sys.stdout`` replacement of this active session.

        Raises :class:`RuntimeError` when the session is not active.
        """
        if self._writer is None:
            raise RuntimeError("session is not active")
        return self._writer

    def add_observer(self, observer: PrintObserver) -> None:
        """Announce every event this session records to *observer*."""
        self.observers.add(observer)

    def emit_property_line(self, name: str, value: Any) -> None:
        """Write and record one standard property line for the caller.

        This is the session-side implementation of ``print_property``: the
        line is written with plain-print recording suppressed, then
        recorded once as an explicit property event.
        """
        if self.hidden:
            return
        thread_id = self.registry.id_for()
        line = format_property_line(thread_id, name, value)
        writer = self._writer
        if writer is not None:
            with writer.suppress_recording():
                writer.write(line + "\n")
        self.record_property(name, value, line)


class _NullConsole:
    """Default 'real console' for sessions running under the harness."""

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass
