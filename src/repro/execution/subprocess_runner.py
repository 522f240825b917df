"""Subprocess execution: run tested programs in their own interpreter.

The in-process runner (:mod:`repro.execution.runner`) is the paper's
primary regime — prints carry live values and tamper-proof thread
identity.  This runner is the complement for grading *real student
files*: the tested program runs under ``python -m repro.execution.child``
in a fresh interpreter, and the trace is reconstructed from its output
text using the standard property-line format.

Differences from the in-process regime, by construction:

* values arrive as text and are parsed against the declared property
  types when the phased trace is built
  (:func:`repro.core.trace_model.coerce_event_value`);
* thread identity is reconstructed from the *printed* ids, so — unlike
  in-process tracing — a malicious program could forge them.  Use the
  in-process runner when tamper-resistance matters; use this one when
  isolation from student code matters (infinite loops, interpreter
  crashes, monkey-patching);
* the infrastructure's ``__root__`` marker line (emitted by the child
  before the program starts) identifies the root thread even when the
  program's root never prints.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.eventdb.database import EventDatabase
from repro.eventdb.events import PropertyEvent
from repro.execution.child import (
    LINE_ANNOTATION_PREFIX,
    MAKESPAN_RECORD_PREFIX,
    PROGRAM_ERROR_EXIT,
    ROOT_MARKER,
    SCHEDULE_OPTION,
    SCHEDULE_RECORD_PREFIX,
    UNKNOWN_MAIN_EXIT,
)
from repro.execution.registry import UnknownMainError
from repro.execution.runner import DEFAULT_TIMEOUT, ExecutionResult, follow_schedule
from repro.execution.taxonomy import detect_garbled_lines
from repro.execution.worker_pool import PoolResult, pooled_child_env
from repro.obs import get_registry as _obs_registry
from repro.tracing.formatting import parse_property_line
from repro.util.thread_registry import ThreadRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.execution.scheduling import ScheduledBackend

__all__ = [
    "SubprocessRunner",
    "kill_active_child",
    "active_child_count",
    "child_environment",
    "DOCUMENTED_REPRO_VARS",
]

#: The ``REPRO_*`` environment overrides children are documented to
#: honour (see docs/writing_tests.md).  Everything else matching
#: ``REPRO_*`` is stripped from child environments so an operator's
#: stray variable cannot change grading behaviour nondeterministically.
DOCUMENTED_REPRO_VARS = (
    "REPRO_HIDE_PRINTS",
    "REPRO_OBS",
    "REPRO_WORKLOAD_SEED",
)


def child_environment(base: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """Deterministic child environment from *base* (default ``os.environ``).

    Passes the parent environment through with undocumented ``REPRO_*``
    variables removed; only :data:`DOCUMENTED_REPRO_VARS` reach the
    child.  Built once per runner/pool, not per run.
    """
    source = os.environ if base is None else base
    return {
        key: value
        for key, value in source.items()
        if not key.startswith("REPRO_") or key in DOCUMENTED_REPRO_VARS
    }


class _ActiveChildren:
    """Live grading children, keyed by the thread that spawned them.

    The supervisor's watchdog enforces deadlines from *outside* the
    worker thread; the worker itself is blocked in ``communicate()`` and
    cannot act.  Registering every child here gives the watchdog a
    handle to hard-kill, and the ``harness_killed`` flag lets the worker
    distinguish "my child was killed for exceeding its deadline" (a
    timeout) from "my child died by its own signal" (a signal death) —
    both surface as a negative returncode.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._children: Dict[
            threading.Thread, Tuple[subprocess.Popen, Dict[str, bool]]
        ] = {}

    def register(self, popen: subprocess.Popen) -> Dict[str, bool]:
        state = {"harness_killed": False}
        with self._lock:
            self._children[threading.current_thread()] = (popen, state)
        return state

    def unregister(self) -> None:
        with self._lock:
            self._children.pop(threading.current_thread(), None)

    def kill_for(self, thread: threading.Thread) -> bool:
        """Hard-kill the child *thread* is waiting on; False if none."""
        with self._lock:
            entry = self._children.get(thread)
        if entry is None:
            return False
        popen, state = entry
        state["harness_killed"] = True
        _obs_registry().counter("runner.harness_kills").inc()
        try:
            popen.kill()
        except OSError:  # pragma: no cover - already-reaped race
            pass
        return True

    def __len__(self) -> int:
        with self._lock:
            return len(self._children)


_active_children = _ActiveChildren()


def kill_active_child(thread: threading.Thread) -> bool:
    """Hard-kill the child process *thread* is currently waiting on.

    Returns False when the thread has no live child (it may be hung in
    pure-Python harness code instead — the watchdog's other case).
    The killed run is reported as a timeout, not a signal death.
    """
    return _active_children.kill_for(thread)


def active_child_count() -> int:
    """Number of live grading children (observability / test hook)."""
    return len(_active_children)


class SubprocessRunner:
    """Drop-in alternative to :class:`~repro.execution.runner.ProgramRunner`.

    Duck-types the runner interface the checkers use:
    ``run(identifier, args, *, hide_prints=False, timeout=None,
    stdin_lines=None, schedule=None)``.
    """

    def __init__(
        self,
        *,
        timeout: float = DEFAULT_TIMEOUT,
        python: Optional[str] = None,
        pool: Optional[Any] = None,
    ) -> None:
        """Configure the runner.

        ``timeout`` is the default per-run wall-clock limit in seconds;
        ``python`` overrides the interpreter used for the child (defaults
        to the running one); ``pool`` is an optional
        :class:`~repro.execution.worker_pool.WorkerPool` — when given,
        runs dispatch to a warm pooled interpreter instead of cold-
        starting a child per run (the pool's lifetime is the caller's
        responsibility).
        """
        self.timeout = timeout
        self.python = python or sys.executable
        self.pool = pool
        # Hoisted env construction: one snapshot per runner, with the
        # hidden/shown variants precomputed so the hot loop never copies
        # a dict per run.  The same environment as a pool worker's, so
        # a cold child imports the code this process runs.
        base = pooled_child_env()
        self._env_by_hidden = {
            False: {**base, "REPRO_HIDE_PRINTS": "0"},
            True: {**base, "REPRO_HIDE_PRINTS": "1"},
        }

    # ------------------------------------------------------------------
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
        """Run *identifier* in a child interpreter and rebuild its trace.

        Mirrors :meth:`ProgramRunner.run`'s signature and result; the
        trace is reconstructed from the child's output text.
        ``stdin_lines`` become the child's stdin, one line each; without
        them the child reads an empty stdin.  A virtual makespan the
        program publishes in the child comes back as
        ``result.makespan``.  The
        schedule is chosen as in process
        (:func:`~repro.execution.runner.follow_schedule`: a backend the
        calling thread installed wins over ``schedule=``) and travels
        to the child as a strategy ``spec()``.  The child's recorded
        decisions come back as ``result.schedule`` and are loaded into
        the controlling
        :class:`~repro.execution.scheduling.ScheduledBackend`, so a
        caller that installed one reads them exactly as after an
        in-process run.
        """
        obs = _obs_registry()
        args = list(args) if args is not None else []
        with obs.span(
            "runner.subprocess", identifier=identifier, pooled=self.pool is not None
        ) as span:
            result = follow_schedule(
                schedule,
                self.timeout if timeout is None else timeout,
                lambda controlled, budget: self._run_once(
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
                signal=result.signal_number,
                schedule_note=result.schedule_note or None,
            )
        obs.histogram("runner.subprocess.seconds").observe(result.duration)
        if result.timed_out:
            obs.counter("runner.subprocess.timeouts").inc()
        return result

    def _run_once(
        self,
        identifier: str,
        args: List[str],
        *,
        hide_prints: bool,
        limit: float,
        stdin_lines: Optional[List[str]],
        controlled: Optional["ScheduledBackend"],
    ) -> Tuple[ExecutionResult, str]:
        """One child run under *controlled*, or off the scheduler.

        Returns the rebuilt result and, when the controlled run stalled
        in the child, why.
        """
        from repro.execution.scheduling import ScheduleTrace

        run_child = self._run_pooled if self.pool is not None else self._run_child
        outcome = run_child(
            identifier,
            args,
            hide_prints=hide_prints,
            limit=limit,
            stdin_lines=stdin_lines,
            schedule=controlled.strategy.spec() if controlled is not None else None,
        )
        if controlled is None or outcome.schedule is None:
            # Free-running, or the child died before reporting.
            return self._reconstruct(identifier, args, outcome, hide_prints), ""
        trace = ScheduleTrace.from_wire(outcome.schedule["trace"], identifier, args)
        controlled.load_trace(trace)
        result = self._reconstruct(
            identifier,
            args,
            outcome,
            hide_prints,
            schedule_id=controlled.schedule_id(),
        )
        result.schedule = trace
        result.schedule_seed = trace.seed
        return result, trace.divergence if outcome.schedule.get("stalled") else ""

    def _run_child(
        self,
        identifier: str,
        args: List[str],
        *,
        hide_prints: bool,
        limit: float,
        stdin_lines: Optional[List[str]] = None,
        schedule: Optional[Dict[str, Any]] = None,
    ) -> PoolResult:
        """One cold child run; the same outcome a pooled dispatch gives."""
        command = [self.python, "-m", "repro.execution.child"]
        if schedule is not None:
            command.append(SCHEDULE_OPTION + json.dumps(schedule))
        command += [identifier, *args]
        env = self._env_by_hidden[bool(hide_prints)]

        started = time.perf_counter()
        timed_out = False
        proc = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        state = _active_children.register(proc)
        try:
            try:
                stdout, stderr = proc.communicate(
                    input="".join(f"{line}\n" for line in stdin_lines or ()),
                    timeout=limit,
                )
            except subprocess.TimeoutExpired:
                # The in-process runner can only *report* a timeout; here
                # the child is a real process and we actually end it.
                timed_out = True
                proc.kill()
                stdout, stderr = proc.communicate()
            returncode = proc.returncode
        finally:
            _active_children.unregister()
        duration = time.perf_counter() - started
        stderr = stderr or ""
        if state["harness_killed"]:
            # A supervisor watchdog ended this child for exceeding its
            # deadline: the cause is the timeout, not the kill signal.
            timed_out = True
        record = None
        makespan = None
        for line in stderr.splitlines():
            if schedule is not None and line.startswith(SCHEDULE_RECORD_PREFIX):
                record = json.loads(line[len(SCHEDULE_RECORD_PREFIX) :])
            elif line.startswith(MAKESPAN_RECORD_PREFIX):
                makespan = float(line[len(MAKESPAN_RECORD_PREFIX) :])
        return PoolResult(
            stdout=stdout or "",
            stderr=stderr,
            returncode=returncode,
            timed_out=timed_out,
            duration=duration,
            schedule=record,
            makespan=makespan,
        )

    def _run_pooled(
        self,
        identifier: str,
        args: List[str],
        *,
        hide_prints: bool,
        limit: float,
        stdin_lines: Optional[List[str]] = None,
        schedule: Optional[Dict[str, Any]] = None,
    ) -> PoolResult:
        """One run on a warm pool worker."""
        return self.pool.dispatch(
            identifier,
            args,
            hide_prints=hide_prints,
            timeout=limit,
            schedule=schedule,
            stdin_lines=stdin_lines,
        )

    @staticmethod
    def _classify(
        identifier: str,
        returncode: int,
        stderr: str,
        timed_out: bool,
    ) -> Tuple[Optional[BaseException], Optional[int]]:
        """Map a child's exit status to (captured exception, signal).

        Shared between the cold and pooled paths; raises
        :class:`UnknownMainError` for the unknown-identifier status.
        """
        if returncode == UNKNOWN_MAIN_EXIT and not timed_out:
            tail = stderr.strip().splitlines()
            raise UnknownMainError(identifier, tail[-1] if tail else "")

        exception: Optional[BaseException] = None
        signal_number: Optional[int] = None
        if timed_out:
            pass
        elif returncode < 0:
            # CPython reports a signal-killed child as -signum; this is a
            # distinct failure mode (SIGSEGV, OOM-kill, ...), not a timeout.
            signal_number = -returncode
        elif returncode == PROGRAM_ERROR_EXIT:
            tail = stderr.strip().splitlines()
            exception = RuntimeError(tail[-1] if tail else "program raised")
        elif returncode != 0:
            exception = RuntimeError(
                f"child exited with status {returncode}: {stderr.strip()[:200]}"
            )
        return exception, signal_number

    @staticmethod
    def _line_attributions(stderr: str) -> Tuple[Dict[int, int], Dict[int, int]]:
        """Parse the child's ``@repro-line <index> <tid> [<prompt>]`` records.

        Returns the printing thread of each stdout line and, for lines
        that start with ``input()`` prompts, the prompts' length.
        """
        attributions: Dict[int, int] = {}
        prompts: Dict[int, int] = {}
        for line in stderr.splitlines():
            if not line.startswith(LINE_ANNOTATION_PREFIX):
                continue
            parts = line[len(LINE_ANNOTATION_PREFIX) :].split()
            if len(parts) not in (2, 3):
                continue
            try:
                index = int(parts[0])
                attributions[index] = int(parts[1])
                if len(parts) == 3:
                    prompts[index] = int(parts[2])
            except ValueError:
                continue
        return attributions, prompts

    # ------------------------------------------------------------------
    def _reconstruct(
        self,
        identifier: str,
        args: List[str],
        outcome: PoolResult,
        hidden: bool,
        *,
        schedule_id: str = "",
    ) -> ExecutionResult:
        """Rebuild an ExecutionResult from the child's output text.

        Classification and reconstruction are shared by the cold and
        pooled paths: both outcomes carry the same stdout/stderr/
        returncode contract.
        """
        exception, signal_number = self._classify(
            identifier, outcome.returncode, outcome.stderr, outcome.timed_out
        )
        stdout = outcome.stdout
        attributions, prompts = self._line_attributions(outcome.stderr)
        registry = ThreadRegistry()
        database = EventDatabase(registry)
        database.schedule_id = schedule_id
        threads: Dict[int, threading.Thread] = {}

        def thread_for(printed_id: int) -> threading.Thread:
            thread = threads.get(printed_id)
            if thread is None:
                thread = threading.Thread(name=f"child-thread-{printed_id}")
                threads[printed_id] = thread
            return thread

        root_printed_id: Optional[int] = None
        events: List[PropertyEvent] = []
        kept_lines: List[str] = []
        seq = 0
        per_thread_seq: Dict[int, int] = {}

        for stdout_index, line in enumerate(stdout.splitlines()):
            text = line
            if prompts and stdout_index in prompts:
                # An input() prompt is output, not an event (as in
                # process): the event is what follows it, if anything.
                text = line[prompts[stdout_index] :] or line
            parsed = parse_property_line(text)
            if parsed is not None and parsed[1] == ROOT_MARKER:
                root_printed_id = parsed[0]
                continue  # infrastructure marker, not program output
            kept_lines.append(line)
            if parsed is None:
                # Plain text: use the child's stderr attribution record
                # when present, else fall back to the root.
                printed_id = attributions.get(
                    stdout_index,
                    root_printed_id if root_printed_id is not None else 0,
                )
                name, value = "str", text
            else:
                printed_id, name, value_text = parsed
                value = value_text
            thread = thread_for(printed_id)
            thread_seq = per_thread_seq.get(printed_id, 0)
            per_thread_seq[printed_id] = thread_seq + 1
            events.append(
                PropertyEvent(
                    seq=seq,
                    thread=thread,
                    thread_id=printed_id,
                    name=name,
                    value=value,
                    raw_line=text,
                    explicit=parsed is not None,
                    timestamp=0.0,
                    thread_seq=thread_seq,
                    schedule_id=schedule_id,
                )
            )
            seq += 1

        if root_printed_id is None:
            # Hidden runs (or an empty trace): synthesize a root.
            root_printed_id = -1
        root_thread = thread_for(root_printed_id)
        workers: List[threading.Thread] = []
        for event in events:
            if event.thread is not root_thread and event.thread not in workers:
                workers.append(event.thread)

        return ExecutionResult(
            identifier=identifier,
            args=args,
            output="\n".join(kept_lines) + ("\n" if kept_lines else ""),
            events=events,
            database=database,
            root_thread=root_thread,
            root_thread_id=root_printed_id,
            duration=outcome.duration,
            exception=exception,
            timed_out=outcome.timed_out,
            hidden=hidden,
            worker_threads=workers,
            signal_number=signal_number,
            garbled_lines=detect_garbled_lines(stdout),
            makespan=outcome.makespan,
        )
