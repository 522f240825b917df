"""Child-process entry point for subprocess execution of tested programs.

Run as ``python -m repro.execution.child <identifier> [args...]``.  The
child resolves the tested program exactly like the in-process runner
(registration via ``repro.workloads`` import, a ``.py`` file path, or a
dotted module path), emits one infrastructure marker line identifying
the root thread's trace id, and runs ``main(args)`` to completion.

Protocol details the parent's :class:`~repro.execution.subprocess_runner.
SubprocessRunner` relies on:

* the first line is ``Thread <id>->__root__:<pid>`` — printed *by the
  infrastructure from the root thread* before the program runs, so the
  parent can identify the root even for programs whose root never
  prints (e.g. the Hello World variants);
* when the environment variable ``REPRO_HIDE_PRINTS`` is ``1``, every
  print is disabled (the standalone hide flag, which the program's own
  ``set_hide_redirected_prints`` also sets) and nothing at all is
  written;
* program exceptions exit with status 70 after writing the exception to
  stderr, so the parent reports them the way the in-process runner
  reports a captured exception;
* ``--schedule=<json>`` before the identifier runs the program under a
  controlled schedule: the JSON is a strategy ``spec()``
  (:func:`repro.execution.scheduling.strategy_from_spec`), the program
  runs on a root thread (a leased carrier) under a
  :class:`~repro.execution.scheduling.ScheduledBackend`, every emitted
  stdout line is a yield point (where the in-process trace session
  yields), and one ``@repro-schedule <json>`` stderr record before any
  traceback reports ``{"trace": <wire trace>, "stalled": bool}``
  (:meth:`~repro.execution.scheduling.ScheduleTrace.to_wire`).  A
  stalled run is not rerun here: the parent reruns it on free threads;
* a program that publishes a virtual makespan
  (:func:`repro.simulation.backend.record_makespan`) gets one
  ``@repro-makespan <float>`` stderr record before any traceback, so
  the parent's ``ExecutionResult.makespan`` reads what this process
  measured;
* the child's stdin is the test's scripted input, one line per
  ``stdin_lines()`` entry, or empty when the test scripts none.  An
  ``input()`` prompt is display text, as in process: it stays in the
  output, and the line it starts carries its length as a third field of
  that line's ``@repro-line`` record, so the parent parses the rest of
  the line as the event.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.tracing.print_property import standalone_hidden, standalone_thread_id
from repro.util.carriers import lease, run_scope

#: Property name of the root-identification marker line.
ROOT_MARKER = "__root__"

#: Command-line prefix carrying the controlled schedule's strategy spec.
SCHEDULE_OPTION = "--schedule="

#: stderr record of a controlled run: ``@repro-schedule <json>``.
SCHEDULE_RECORD_PREFIX = "@repro-schedule "

#: stderr record of a published virtual makespan: ``@repro-makespan <float>``.
MAKESPAN_RECORD_PREFIX = "@repro-makespan "


#: stderr side-channel record: ``@repro-line <stdout line index> <tid>``,
#: plus `` <prompt length>`` when the line starts with ``input()``
#: prompts.  Emitted for every stdout line so the parent can attribute
#: plain (non-property) lines to the thread that actually printed them.
LINE_ANNOTATION_PREFIX = "@repro-line "


class _LineAtomicStdout:
    """Per-thread line buffering over the real stdout, with attribution.

    Plain ``print`` issues separate writes for the text and the newline;
    with multiple threads those interleave and tear lines apart, which
    would corrupt the trace the parent parses.  This wrapper buffers each
    thread's partial output and emits whole lines with a single locked
    write — the standalone analogue of the in-process interceptor's
    buffering.  For each emitted line it also writes an attribution
    record to stderr carrying the printing thread's standalone trace id,
    so the parent can keep thread identity even for lines whose text
    does not mention a thread (the Hello World case).  While the
    standalone hide flag is set (``REPRO_HIDE_PRINTS``, or the program's
    own ``set_hide_redirected_prints(True)``) writes are dropped, as the
    in-process interceptor drops them: no output, no line index.
    """

    def __init__(self, real, err) -> None:
        self._real = real
        self._err = err
        self._buffers = threading.local()
        #: Per thread ident: length of the ``input()`` prompt text that
        #: starts the thread's buffered partial line (usually empty).
        self._prompts: Dict[int, int] = {}
        self._lock = threading.Lock()
        self._line_index = 0
        #: Called after every emitted line when the program runs under
        #: a controlled schedule: the line is the yield point.
        self.yield_hook: Optional[Callable[[], None]] = None

    def write(self, text: str) -> int:
        if standalone_hidden():
            return len(text)
        buffers = self._buffers
        buffer = getattr(buffers, "value", "") + text
        if "\n" not in text:
            # ``print`` writes its text and its newline separately.
            buffers.value = buffer
            return len(text)
        tid = standalone_thread_id()
        hook = self.yield_hook
        while True:
            newline = buffer.find("\n")
            if newline < 0:
                break
            line, buffer = buffer[: newline + 1], buffer[newline + 1 :]
            prompt = (
                self._prompts.pop(threading.get_ident(), 0) if self._prompts else 0
            )
            with self._lock:
                index = self._line_index
                self._line_index += 1
                self._real.write(line)
                if prompt:
                    self._err.write(f"{LINE_ANNOTATION_PREFIX}{index} {tid} {prompt}\n")
                else:
                    self._err.write(f"{LINE_ANNOTATION_PREFIX}{index} {tid}\n")
            if hook is not None:
                buffers.value = buffer
                hook()
        buffers.value = buffer
        return len(text)

    def input(self, prompt: object = "") -> str:
        """``input()`` for the tested program: write *prompt*, read stdin.

        In process a prompt lands in the output, and the print that
        ends its line is recorded without it; the prompt's length on the
        line's attribution record lets the parent do the same.
        """
        text = str(prompt)
        if text and not standalone_hidden():
            self.write(text)
            ident = threading.get_ident()
            self._prompts[ident] = (
                self._prompts.get(ident, 0) + len(text) - (text.rfind("\n") + 1)
            )
        line = sys.stdin.readline()
        if not line:
            raise EOFError("EOF when reading a line")
        return line[:-1] if line.endswith("\n") else line

    def flush(self) -> None:
        with self._lock:
            self._real.flush()
            self._err.flush()

    def close_buffers(self) -> None:
        buffer = getattr(self._buffers, "value", "")
        if buffer:
            self._buffers.value = ""
            self.write(buffer + "\n")

#: Exit status for an exception escaping the tested program's main.
PROGRAM_ERROR_EXIT = 70
#: Exit status when the identifier cannot be resolved.
UNKNOWN_MAIN_EXIT = 71


def run_program(
    program: Callable[[List[str]], None],
    args: List[str],
    wrapper: _LineAtomicStdout,
    schedule: Optional[Dict[str, Any]] = None,
) -> Tuple[str, Optional[Dict[str, Any]], Optional[float]]:
    """Run *program* with its output on *wrapper*: the child's one run.

    The infrastructure's root marker is printed from the thread that
    runs ``main``, first, so the root takes the first trace id.  The
    run is one carrier scope (:func:`repro.util.carriers.run_scope`):
    its threads are leased carriers, parked for the next request once
    the run is over.
    Returns the traceback text of an exception escaping ``main`` (empty
    when it returned); when *schedule* (a strategy ``spec()``) was
    given, the controlled run's record ``{"trace", "stalled"}``, else
    ``None``; and the virtual makespan the run published, else ``None``.
    A controlled run has no time limit here: the parent process enforces
    it by killing the child.  ``input()`` reads ``sys.stdin`` and writes
    its prompt through :meth:`_LineAtomicStdout.input`.
    """
    import builtins

    from repro.simulation.backend import last_makespan, record_makespan
    from repro.tracing.print_property import print_property

    failure: List[str] = []

    def root_body() -> None:
        print_property(ROOT_MARKER, os.getpid())
        try:
            program(list(args))
        except BaseException:  # noqa: BLE001 - serialized to the parent
            failure.append(traceback.format_exc())
        wrapper.close_buffers()

    saved_input = builtins.input
    builtins.input = wrapper.input
    record_makespan(None)
    try:
        if schedule is None:
            with run_scope():
                root_body()
            return "".join(failure), None, last_makespan()

        from repro.execution.scheduling import ScheduledBackend, strategy_from_spec
        from repro.simulation.backend import use_backend

        backend = ScheduledBackend(strategy_from_spec(schedule))
        wrapper.yield_hook = backend.trace_yield
        try:
            with run_scope(), use_backend(backend):
                root = lease(root_body, "root")
                root.start()
                outcome = backend.await_root(root, None)
        finally:
            wrapper.yield_hook = None
        record = {
            "trace": backend.schedule_trace().to_wire(),
            "stalled": outcome == "stalled",
        }
        return "".join(failure), record, last_makespan()
    finally:
        builtins.input = saved_input


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    schedule: Optional[Dict[str, Any]] = None
    if argv and argv[0].startswith(SCHEDULE_OPTION):
        schedule = json.loads(argv.pop(0)[len(SCHEDULE_OPTION) :])
    if not argv:
        print(
            "usage: python -m repro.execution.child [--schedule=<json>] "
            "<identifier> [args...]",
            file=sys.stderr,
        )
        return 2
    identifier, args = argv[0], argv[1:]

    import repro.workloads  # noqa: F401 - register the built-in programs
    from repro.execution.registry import UnknownMainError, resolve_main
    from repro.tracing.print_property import set_standalone_hidden

    hidden = os.environ.get("REPRO_HIDE_PRINTS") == "1"
    set_standalone_hidden(hidden)
    wrapper = _LineAtomicStdout(sys.stdout, sys.stderr)
    sys.stdout = wrapper  # type: ignore[assignment]

    try:
        program = resolve_main(identifier)
    except UnknownMainError as exc:
        print(str(exc), file=sys.stderr)
        return UNKNOWN_MAIN_EXIT

    failure, record, makespan = run_program(program, args, wrapper, schedule)
    wrapper.flush()
    if record is not None:
        sys.stderr.write(SCHEDULE_RECORD_PREFIX + json.dumps(record) + "\n")
    if makespan is not None:
        sys.stderr.write(f"{MAKESPAN_RECORD_PREFIX}{makespan!r}\n")
    if failure:
        sys.stderr.write(failure)
        return PROGRAM_ERROR_EXIT
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
