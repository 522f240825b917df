"""Persistent worker-interpreter entry point for pooled grading.

Run as ``python -m repro.execution.pool_child``.  Where
:mod:`repro.execution.child` pays full interpreter startup (plus the
``repro.workloads`` import) for every submission, this process starts
once, imports once, and then serves submissions over a length-prefixed
pipe protocol until told to exit — the pre-forked worker the
:class:`~repro.execution.worker_pool.WorkerPool` keeps warm.

Protocol (all frames are a 4-byte big-endian length followed by that
many bytes of UTF-8 JSON):

* on startup the worker writes one ready frame
  ``{"event": "ready", "pid": <pid>}``;
* the parent writes request frames
  ``{"id": n, "identifier": str, "args": [str], "hide_prints": bool}``
  and reads exactly one response frame per request
  ``{"id": n, "returncode": int, "stdout": str, "stderr": str,
  "duration": float}``;
* a request may carry an ``{"obs": {"enabled": true, "run_id": str}}``
  block — the run then executes under a per-request ``pool.serve`` span
  in a fresh registry, and the response gains an ``obs`` payload (spans
  plus metrics) for the parent to adopt into its own trace;
* a request may carry a ``"schedule"`` block, a strategy ``spec()``
  (:func:`repro.execution.scheduling.strategy_from_spec`) — the program
  then runs under that controlled schedule, yielding once per emitted
  stdout line, and the response gains
  ``"schedule": {"trace": <wire trace>, "stalled": bool}``, the trace in
  the compact form of
  :meth:`~repro.execution.scheduling.ScheduleTrace.to_wire` (one
  ``[point, chosen, ready(, lock)]`` array per decision);
* ``{"op": "exit"}`` ends the serve loop (exit status 0).

The response mimics a cold child run byte-for-byte: ``stdout`` is the
captured trace text (root marker line included), ``stderr`` carries the
``@repro-line`` attribution records and any traceback, and
``returncode`` uses the same 0/70/71 statuses — so the parent reuses
:class:`~repro.execution.subprocess_runner.SubprocessRunner`'s
classification and reconstruction unchanged.

Per request the worker resets the standalone tracing state
(:func:`repro.tracing.print_property.reset_standalone_state`) so thread
ids restart at the first registry id and the produced trace is
indistinguishable from a cold-started child's.  One pooling caveat is
inherent: a submission that leaks running threads leaves them alive in
the worker.  Leaked threads cannot corrupt the protocol (the real
stdout is never exposed to tested code), but a wedged worker is ended
and respawned by the pool's deadline handling, exactly like a wedged
cold child.
"""

from __future__ import annotations

import io
import json
import os
import struct
import sys
import time
from typing import Any, BinaryIO, Dict, Optional

#: Frame header: 4-byte big-endian payload length.
FRAME_HEADER = struct.Struct(">I")

#: Upper bound on a single frame's payload, as a sanity check against a
#: corrupted or misaligned stream (64 MiB of JSON text).
MAX_FRAME_BYTES = 64 * 1024 * 1024

__all__ = ["FRAME_HEADER", "MAX_FRAME_BYTES", "read_frame", "write_frame", "main"]


def write_frame(stream: BinaryIO, payload: Dict[str, Any]) -> None:
    """Serialize *payload* as one length-prefixed JSON frame and flush."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    stream.write(FRAME_HEADER.pack(len(body)))
    stream.write(body)
    stream.flush()


def read_frame(stream: BinaryIO) -> Optional[Dict[str, Any]]:
    """Read one frame; ``None`` on clean EOF at a frame boundary.

    Raises :class:`ValueError` on a torn header/payload or an
    implausible length — a desynchronized stream must fail loudly, not
    deliver garbage.
    """
    header = stream.read(FRAME_HEADER.size)
    if not header:
        return None
    if len(header) < FRAME_HEADER.size:
        raise ValueError("torn frame header")
    (length,) = FRAME_HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ValueError(f"implausible frame length {length}")
    body = b""
    while len(body) < length:
        chunk = stream.read(length - len(body))
        if not chunk:
            raise ValueError("torn frame payload")
        body += chunk
    return json.loads(body.decode("utf-8"))


def _serve_one(
    identifier: str,
    args: list,
    hide_prints: bool,
    schedule: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Run one submission with captured output; the cold child in a box."""
    from repro.execution.child import (
        PROGRAM_ERROR_EXIT,
        UNKNOWN_MAIN_EXIT,
        _LineAtomicStdout,
        run_program,
    )
    from repro.execution.registry import UnknownMainError, resolve_main
    from repro.tracing.print_property import (
        reset_standalone_state,
        set_standalone_hidden,
    )

    out_buffer = io.StringIO()
    err_buffer = io.StringIO()
    wrapper = _LineAtomicStdout(out_buffer, err_buffer)

    reset_standalone_state()
    set_standalone_hidden(hide_prints)

    old_stdout, old_stderr, old_stdin = sys.stdout, sys.stderr, sys.stdin
    sys.stdout = wrapper  # type: ignore[assignment]
    sys.stderr = err_buffer  # type: ignore[assignment]
    sys.stdin = io.StringIO()  # type: ignore[assignment]
    started = time.perf_counter()
    returncode = 0
    record: Optional[Dict[str, Any]] = None
    try:
        try:
            program = resolve_main(identifier)
        except UnknownMainError as exc:
            print(str(exc), file=err_buffer)
            returncode = UNKNOWN_MAIN_EXIT
        else:
            # Same marker contract as the cold child: printed by the
            # infrastructure from the root thread, suppressed when hidden.
            failure, record = run_program(program, args, wrapper, schedule)
            if failure:
                err_buffer.write(failure)
                returncode = PROGRAM_ERROR_EXIT
        wrapper.flush()
    finally:
        sys.stdout, sys.stderr, sys.stdin = old_stdout, old_stderr, old_stdin
        reset_standalone_state()
    duration = time.perf_counter() - started
    response: Dict[str, Any] = {
        "returncode": returncode,
        "stdout": out_buffer.getvalue(),
        "stderr": err_buffer.getvalue(),
        "duration": duration,
    }
    if record is not None:
        response["schedule"] = record
    return response


def _serve_request(request: Dict[str, Any]) -> Dict[str, Any]:
    """Serve one request frame, with per-request telemetry when asked.

    When the parent's dispatch frame carries an enabled ``obs`` block,
    the run happens inside a fresh registry under a ``pool.serve`` span,
    and the resulting spans/metrics ride back on the response frame for
    the parent to adopt (:meth:`repro.obs.registry.ObsRegistry.adopt`).
    """
    identifier = str(request.get("identifier", ""))
    args = list(request.get("args", ()))
    hide_prints = bool(request.get("hide_prints", False))
    schedule = request.get("schedule")
    obs_cfg = request.get("obs")
    if not (isinstance(obs_cfg, dict) and obs_cfg.get("enabled")):
        return _serve_one(identifier, args, hide_prints, schedule)

    from repro.obs.context import TraceContext
    from repro.obs.export import registry_payload
    from repro.obs.registry import ObsRegistry, use_registry

    context = TraceContext(run_id=str(obs_cfg.get("run_id", "")), role="pool")
    registry = ObsRegistry(enabled=True)
    # A fresh registry per request keeps the payload exactly this run's
    # spans; use_registry installs it so any obs-instrumented code the
    # submission reaches reports here, not into a stale default.
    with use_registry(registry):
        span = registry.begin_span(
            "pool.serve", identifier=identifier, pid=os.getpid()
        )
        try:
            response = _serve_one(identifier, args, hide_prints, schedule)
        finally:
            registry.end_span(span)
    response["obs"] = registry_payload(registry, context=context)
    return response


def main() -> int:
    """Serve submissions over stdin/stdout until EOF or an exit frame."""
    inbound = sys.stdin.buffer
    outbound = sys.stdout.buffer

    # Tested code must never see the protocol streams: anything a leaked
    # thread prints between requests lands in a throwaway sink.
    sys.stdout = io.StringIO()  # type: ignore[assignment]
    sys.stdin = io.StringIO()  # type: ignore[assignment]

    import repro.workloads  # noqa: F401 - the amortized per-process import

    write_frame(outbound, {"event": "ready", "pid": os.getpid()})

    while True:
        try:
            request = read_frame(inbound)
        except ValueError:
            return 2
        if request is None or request.get("op") == "exit":
            return 0
        response = _serve_request(request)
        response["id"] = request.get("id")
        write_frame(outbound, response)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
