"""Pre-forked pool of persistent worker interpreters for grading.

Cold subprocess grading pays full Python startup (plus the workload
registry import) for every submission; at class scale that interpreter
boot is the dominant cost.  The :class:`WorkerPool` amortizes it: N
warm :mod:`repro.execution.pool_child` interpreters are spawned once
and submissions are dispatched to them over a length-prefixed pipe
protocol (see :mod:`repro.execution.pool_child` for the frame format).

The supervisor's safety net is preserved end to end:

* every dispatch registers the worker's process with the same
  active-children table the cold path uses, so the watchdog's
  :func:`~repro.execution.subprocess_runner.kill_active_child` ends a
  wedged *pool worker* exactly like a wedged cold child, and the run is
  classified as a timeout;
* a worker that dies for any reason (deadline kill, crash, signal) is
  respawned on check-in, so the pool heals back to its configured size;
* per-dispatch deadlines are enforced parent-side with ``select`` on
  the response pipe — a worker that never answers is killed, not
  waited on.

Obs metrics: ``pool.dispatches``, ``pool.timeouts``, ``pool.respawns``
counters, a ``pool.workers`` gauge, and a ``pool.dispatch.seconds``
histogram.  See ``benchmarks/test_ablation_worker_pool.py`` for the
pooled-vs-cold ablation.

Fleet telemetry: when observability is enabled, each request frame
carries the trace run id; the child answers with its own spans and
metrics (a ``pool.serve`` span per request), which :meth:`dispatch`
adopts into this process's registry under the dispatching span — so a
pooled run's merged timeline shows child-side work causally parented
under the submission that triggered it.
"""

from __future__ import annotations

import os
import queue
import select
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.execution.pool_child import FRAME_HEADER, MAX_FRAME_BYTES
from repro.obs import get_registry as _obs_registry

__all__ = ["WorkerPool", "PoolResult", "PoolError", "pooled_child_env"]

#: Seconds allowed for a fresh worker to import and report ready.
DEFAULT_SPAWN_TIMEOUT = 30.0


class PoolError(RuntimeError):
    """The pool cannot serve dispatches (failed spawn, used after close)."""


@dataclass(frozen=True)
class PoolResult:
    """Outcome of one pooled dispatch, mirroring a cold child run.

    ``stdout``/``stderr``/``returncode`` carry the same contract as a
    ``python -m repro.execution.child`` run, so the caller can reuse the
    cold path's classification and trace reconstruction verbatim.
    ``timed_out`` is True when the deadline expired parent-side or the
    watchdog hard-killed the worker mid-run.  ``schedule`` is the
    controlled run's record ``{"trace", "stalled"}`` when the dispatch
    asked for a schedule and the worker answered.  ``makespan`` is the
    virtual makespan the program published in the child, if any.
    """

    stdout: str
    stderr: str
    returncode: int
    timed_out: bool
    duration: float
    schedule: Optional[Dict[str, Any]] = None
    makespan: Optional[float] = None


def pooled_child_env() -> Dict[str, str]:
    """Deterministic environment for pool workers.

    Starts from the parent environment with undocumented ``REPRO_*``
    variables stripped (only the documented overrides pass through; see
    ``DOCUMENTED_REPRO_VARS``), and prepends this ``repro`` package's
    root to ``PYTHONPATH`` so the worker resolves the same code the
    parent is running, however the parent was launched.
    """
    from repro.execution.subprocess_runner import child_environment

    env = child_environment()
    import repro

    package_root = str(os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))))
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = (
        package_root + os.pathsep + existing if existing else package_root
    )
    return env


class _WorkerDied(Exception):
    """Internal: the worker's response stream ended before a full frame."""


class _DispatchTimeout(Exception):
    """Internal: the per-dispatch deadline expired before a response."""


class _PoolWorker:
    """One persistent interpreter and its framed pipe endpoints.

    Responses are read from the raw pipe fd with ``select`` + ``os.read``
    and pool-side buffering (never through the buffered reader), so
    deadline waits always see exactly the bytes that have arrived.
    """

    def __init__(self, command: List[str], env: Dict[str, str], spawn_timeout: float) -> None:
        self.proc = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        self._fd = self.proc.stdout.fileno()
        self._buffer = b""
        self.pid = self.proc.pid
        try:
            ready = self._read_frame(time.monotonic() + spawn_timeout)
        except (_WorkerDied, _DispatchTimeout) as exc:
            self.kill()
            raise PoolError(f"pool worker failed to start: {exc!r}") from exc
        if not isinstance(ready, dict) or ready.get("event") != "ready":
            self.kill()
            raise PoolError(f"pool worker sent bad ready frame: {ready!r}")

    # -- framed I/O ----------------------------------------------------
    def _read_exact(self, count: int, deadline: float) -> bytes:
        while len(self._buffer) < count:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise _DispatchTimeout()
            readable, _, _ = select.select([self._fd], [], [], remaining)
            if not readable:
                continue
            chunk = os.read(self._fd, 65536)
            if not chunk:
                raise _WorkerDied()
            self._buffer += chunk
        data, self._buffer = self._buffer[:count], self._buffer[count:]
        return data

    def _read_frame(self, deadline: float) -> Dict[str, Any]:
        import json

        header = self._read_exact(FRAME_HEADER.size, deadline)
        (length,) = FRAME_HEADER.unpack(header)
        if length > MAX_FRAME_BYTES:
            raise _WorkerDied()
        return json.loads(self._read_exact(length, deadline).decode("utf-8"))

    def _write_frame(self, payload: Dict[str, Any]) -> None:
        import json

        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        try:
            self.proc.stdin.write(FRAME_HEADER.pack(len(body)) + body)
            self.proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise _WorkerDied() from exc

    # -- lifecycle -----------------------------------------------------
    @property
    def alive(self) -> bool:
        return self.proc.poll() is None

    def kill(self) -> None:
        try:
            self.proc.kill()
        except OSError:  # pragma: no cover - already-reaped race
            pass
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:  # pragma: no cover - kill is final
            pass

    def shutdown(self, grace: float) -> None:
        """Ask the worker to exit; escalate to kill after *grace* seconds."""
        try:
            self._write_frame({"op": "exit"})
            self.proc.stdin.close()
        except (_WorkerDied, OSError):
            pass
        try:
            self.proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            self.kill()


class WorkerPool:
    """N warm interpreters behind a blocking checkout queue.

    Thread-safe: grading worker threads call :meth:`dispatch`
    concurrently; each call checks a worker out, runs one submission on
    it, and checks it back in (respawning first if it died).
    """

    def __init__(
        self,
        size: int,
        *,
        python: Optional[str] = None,
        env: Optional[Dict[str, str]] = None,
        spawn_timeout: float = DEFAULT_SPAWN_TIMEOUT,
    ) -> None:
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self.size = int(size)
        self._python = python or sys.executable
        self._env = dict(env) if env is not None else pooled_child_env()
        self._spawn_timeout = spawn_timeout
        self._command = [self._python, "-m", "repro.execution.pool_child"]
        self._idle: "queue.Queue[_PoolWorker]" = queue.Queue()
        self._lock = threading.Lock()
        self._closed = False
        self._workers: List[_PoolWorker] = []
        try:
            for _ in range(self.size):
                self._admit(self._spawn())
        except PoolError:
            self.shutdown()
            raise
        _obs_registry().gauge("pool.workers").set(self.size)

    # ------------------------------------------------------------------
    def _spawn(self) -> _PoolWorker:
        return _PoolWorker(self._command, self._env, self._spawn_timeout)

    def _admit(self, worker: _PoolWorker) -> None:
        with self._lock:
            self._workers.append(worker)
        self._idle.put(worker)

    def _retire(self, worker: _PoolWorker) -> None:
        worker.kill()
        with self._lock:
            if worker in self._workers:
                self._workers.remove(worker)

    def _checkin(self, worker: _PoolWorker) -> None:
        """Return a worker to the idle queue, replacing it if it died."""
        if worker.alive:
            self._idle.put(worker)
            return
        self._retire(worker)
        if self._closed:
            return
        _obs_registry().counter("pool.respawns").inc()
        self._admit(self._spawn())

    # ------------------------------------------------------------------
    def dispatch(
        self,
        identifier: str,
        args: Optional[List[str]] = None,
        *,
        hide_prints: bool = False,
        timeout: float = 30.0,
        schedule: Optional[Dict[str, Any]] = None,
        stdin_lines: Optional[List[str]] = None,
    ) -> PoolResult:
        """Run one submission on a warm worker and return its outcome.

        Blocks until a worker is idle.  The worker is registered with
        the active-children table for the duration, so the supervisor's
        watchdog can hard-kill it; a harness kill or an expired
        *timeout* both surface as ``timed_out=True``.  *schedule*, a
        strategy ``spec()``, runs the program under that controlled
        schedule in the worker; *stdin_lines* are its scripted input.
        """
        if self._closed:
            raise PoolError("dispatch on a closed pool")
        from repro.execution.subprocess_runner import _active_children
        from repro.obs.context import current_context

        obs = _obs_registry()
        obs.counter("pool.dispatches").inc()
        worker = self._idle.get()
        state = _active_children.register(worker.proc)
        started = time.perf_counter()
        timed_out = False
        returncode = 0
        stdout = stderr = ""
        record: Optional[Dict[str, Any]] = None
        makespan: Optional[float] = None
        obs_payload: Optional[Dict[str, Any]] = None
        # The span the caller has open for this dispatch (the runner's
        # subprocess span): adopted child spans are stitched under it.
        parent_span = obs.current_span()
        try:
            deadline = time.monotonic() + timeout
            try:
                request: Dict[str, Any] = {
                    "id": worker.pid,
                    "identifier": identifier,
                    "args": list(args) if args is not None else [],
                    "hide_prints": bool(hide_prints),
                }
                if schedule is not None:
                    request["schedule"] = schedule
                if stdin_lines is not None:
                    request["stdin"] = [str(line) for line in stdin_lines]
                if obs.enabled:
                    context = current_context()
                    request["obs"] = {
                        "enabled": True,
                        "run_id": context.run_id if context else "",
                    }
                worker._write_frame(request)
                response = worker._read_frame(deadline)
            except _DispatchTimeout:
                # The worker blew its deadline: end it, as the cold path
                # ends a child that outlives communicate(timeout=...).
                timed_out = True
                worker.kill()
                obs.counter("pool.timeouts").inc()
            except _WorkerDied:
                # EOF mid-request: either the watchdog killed the worker
                # (a timeout) or the submission took the interpreter down
                # with it (crash/signal) — the exit status disambiguates.
                worker.kill()
                returncode = self._death_returncode(worker)
            else:
                returncode = int(response.get("returncode", 0))
                stdout = str(response.get("stdout", ""))
                stderr = str(response.get("stderr", ""))
                record = response.get("schedule")
                makespan = response.get("makespan")
                payload = response.get("obs")
                if isinstance(payload, dict):
                    obs_payload = payload
        finally:
            _active_children.unregister()
            if state["harness_killed"]:
                timed_out = True
            self._checkin(worker)
        if obs_payload is not None:
            # Fold the worker's spans/metrics into this process under
            # the dispatching span, so a pooled run's timeline shows the
            # child-side `pool.serve` work exactly where it happened.
            obs.adopt(
                obs_payload,
                parent_id=parent_span.span_id if parent_span is not None else None,
            )
        duration = time.perf_counter() - started
        obs.histogram("pool.dispatch.seconds").observe(duration)
        return PoolResult(
            stdout=stdout,
            stderr=stderr,
            returncode=returncode,
            timed_out=timed_out,
            duration=duration,
            schedule=record,
            makespan=makespan,
        )

    @staticmethod
    def _death_returncode(worker: _PoolWorker) -> int:
        code = worker.proc.poll()
        if code is None:  # pragma: no cover - kill() already waited
            return 1
        return code

    # ------------------------------------------------------------------
    def active_workers(self) -> int:
        """Number of live worker processes (observability / test hook)."""
        with self._lock:
            return sum(1 for w in self._workers if w.alive)

    def shutdown(self, grace: float = 5.0) -> None:
        """End every worker; the pool cannot be used afterwards."""
        self._closed = True
        with self._lock:
            workers = list(self._workers)
            self._workers.clear()
        for worker in workers:
            worker.shutdown(grace)
        # Drain stale idle entries so a racing dispatch fails fast.
        while True:
            try:
                self._idle.get_nowait()
            except queue.Empty:
                break
        _obs_registry().gauge("pool.workers").set(0)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()
