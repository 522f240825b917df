"""The tested program's tracing call: ``print_property(name, value)``.

This is the one special method the infrastructure asks student programs
to use (§4.2 of the paper).  It prints the current thread id with the
logical-variable name and value in the standard form::

    Thread 24->Is Prime:true

Under a trace session the line is additionally recorded as an explicit
property event carrying the live value object and the actual printing
thread.  Outside a session — a student running their program normally,
or a child process of the grader — it simply prints, unless the
standalone hide flag is set, so the same source serves development and
grading.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.tracing.formatting import format_property_line
from repro.tracing.session import current_session
from repro.util.thread_registry import ThreadRegistry

__all__ = [
    "print_property",
    "set_standalone_hidden",
    "standalone_hidden",
    "reset_standalone_state",
]

# Fallback registry for standalone (session-less) runs so thread ids in
# plain console output are still small and stable within a process.
_standalone_registry = ThreadRegistry()

# Standalone analogue of the session hide flag: a tested program running
# as a *subprocess* (no in-process session) still needs its trace prints
# disabled during performance timing.  Set by the child entry point from
# the REPRO_HIDE_PRINTS environment variable, and by the program's own
# set_hide_redirected_prints outside a session.
_standalone_hidden = False


def set_standalone_hidden(hidden: bool) -> None:
    """Disable/enable ``print_property`` output outside any session."""
    global _standalone_hidden
    _standalone_hidden = bool(hidden)


def reset_standalone_state() -> None:
    """Start a fresh standalone trace: new registry, prints enabled.

    A persistent worker interpreter (``repro.execution.pool_child``) runs
    many submissions in one process; each run must hand out thread ids
    from :data:`~repro.util.thread_registry.FIRST_THREAD_ID` again so its
    trace is indistinguishable from a cold-started child's.
    """
    global _standalone_registry, _standalone_hidden
    _standalone_registry = ThreadRegistry()
    _standalone_hidden = False


def standalone_thread_id(thread: "threading.Thread | None" = None) -> int:
    """The calling thread's standalone trace id (registers on first use).

    Used by the subprocess child to annotate plain output lines with the
    same id numbering ``print_property`` uses.
    """
    return _standalone_registry.id_for(thread)


def standalone_hidden() -> bool:
    """Whether standalone (session-less) trace prints are disabled."""
    return _standalone_hidden


def print_property(name: str, value: Any) -> None:
    """Trace the setting of logical variable *name* to *value*.

    The logical-variable names used by a solution are part of the
    assignment requirement: all solutions to a problem must use the same
    names, which the problem's test program also declares in its property
    specifications.
    """
    if not isinstance(name, str):
        raise TypeError(
            f"property name must be a string, got {type(name).__name__}"
        )
    session = current_session()
    if session is not None:
        session.emit_property_line(name, value)
        return
    if _standalone_hidden:
        return
    thread_id = _standalone_registry.id_for(threading.current_thread())
    print(format_property_line(thread_id, name, value))
