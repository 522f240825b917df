"""One grading session: a fresh interpreter grades one roster and reports.

Launched by ``run.py`` as ``python3 gradebench/session.py CONFIG.json``
with ``src`` on ``PYTHONPATH``.  The config names the workload, the
roster, the number of warm-up grades, the parent's monotonic clock
reading taken just before the launch (set-up is timed from there), and
where to write the result JSON.

The session wires the grader exactly as the ``forkjoin-test grade``
command line of its workload does, plus one observer: the supervisor's
``on_outcome`` hook in-process, or a :class:`ProgressStream` subclass
stamping ``graded`` events with a monotonic clock on arrival in the
coordinator when sharded.  ``CLOCK_MONOTONIC`` is system-wide, so the
parent's launch reading and the session's stamps share one time line.

Each grading process runs on one CPU, as a benchmark harness pins its
workers: the in-process grader (one grading loop under one GIL) on the
first CPU, and each shard worker, with the pool child it starts, on a
CPU of its own.  Left to float on a shared 2-vCPU host (Xeon, 2.1 GHz),
the thread and process handoffs of grading bounce between the vCPUs and
amplify host CPU steal: unpinned, primes-class read 6 to 19 subs/s as
steal fell from 25% to 0.1%, and jacobi-sharded's p95 grade time rose
70% at 10% steal.  Pinned, primes-class read 20 to 26 subs/s at 0.1 to 7%
steal.  Pinning is also faster on a quiet host (under 0.5% steal):
primes-class read 19 subs/s and 58 ms of CPU per submission unpinned,
against 22 to 25 subs/s and 39 to 43 ms pinned; jacobi-sharded 168 to
177 against 205 to 218 subs/s.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List


def _grade_tuple(record) -> List[Any]:
    """The grade as ``roster.check_grade`` compares it."""
    interleaving = [
        aspect
        for test in record.tests
        for aspect in test.aspects
        if aspect.aspect == "thread interleaving" and aspect.status == "failed"
    ]
    lost = sum(a.points_possible - a.points_earned for a in interleaving)
    restored = 100.0 * (record.score + lost) / record.max_score if record.max_score else 0.0
    return [
        f"{record.percent:.1f}",
        record.concurrency_verdict or None,
        record.interleavings_failing,
        record.interleavings_total,
        bool(interleaving),
        f"{restored:.1f}",
    ]


def _proc_stats() -> Dict[int, List[str]]:
    """The ``/proc/<pid>/stat`` fields after the command name, by pid."""
    stats: Dict[int, List[str]] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            try:
                with open(f"/proc/{name}/stat") as handle:
                    stats[int(name)] = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                pass  # the process ended meanwhile
    return stats


def _descendant_cpu_s(root: int) -> float:
    """CPU seconds of every live descendant of *root*, their reaped
    children included."""
    stats = _proc_stats()
    parent = {pid: int(fields[1]) for pid, fields in stats.items()}
    ticks = os.sysconf("SC_CLK_TCK")
    total = 0.0
    for pid, fields in stats.items():
        ancestor = parent[pid]
        while ancestor and ancestor != root:
            ancestor = parent.get(ancestor)
        if ancestor == root:
            total += sum(int(x) for x in fields[11:15]) / ticks
    return total


def _pin_shard(me: int, shard: int) -> None:
    """Pin the just-spawned worker of *shard* to a CPU of its own.

    The service emits ``shard-spawn`` right after starting the worker,
    well before the worker has imported enough to start its pool child,
    which inherits the pin.
    """
    cpus = sorted(os.sched_getaffinity(0))
    manifest = f"shard-{shard:02d}.manifest.json".encode()
    for pid, fields in _proc_stats().items():
        if int(fields[1]) != me:
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                if manifest in handle.read():
                    os.sched_setaffinity(pid, {cpus[shard % len(cpus)]})
        except OSError:
            pass  # the process ended meanwhile


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_kb() -> int:
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


def _in_process(cfg: Dict[str, Any]) -> Dict[str, Any]:
    from repro.core.report import trace_reports
    from repro.execution.supervisor import GradingSupervisor
    from repro.graders import build_named_suite
    from repro.grading.journal import GradingJournal
    from repro.obs import get_registry

    workload = cfg["workload"]
    suite = cfg["suite"]
    warmup = cfg["warmup"]
    representatives = {s for s, _, rep in cfg["roster"] if rep}
    events: List[List[Any]] = []
    start: Dict[str, Any] = {}
    reps_done = [0]
    lock = threading.Lock()

    def on_outcome(outcome) -> None:
        now = time.monotonic()
        rep = outcome.student in representatives
        with lock:
            events.append([now, outcome.student, rep])
            reps_done[0] += rep
            if rep and reps_done[0] == warmup:
                start.update(t=now, index=len(events) - 1, cpu=time.process_time())

    journal = None
    if workload == "primes-class":
        journal = GradingJournal(Path(cfg["workdir"]) / "grading.jsonl")
    explore = {}
    if workload == "synclab-explore":
        explore = dict(
            explore_schedules=40,
            explore_strategy="exhaustive",
            explore_depth=2,
            race_detect=True,
        )
    with trace_reports(False):
        supervisor = GradingSupervisor(
            lambda ident: build_named_suite(suite, ident, subprocess_mode=False),
            jobs=1,
            journal=journal,
            dedup=True,
            on_outcome=on_outcome,
            **explore,
        )
        report = supervisor.grade({s: path for s, path, _ in cfg["roster"]})
    end_cpu = time.process_time()
    return {
        "events": events,
        "start": start,
        "cpu_s": end_cpu - start.get("cpu", end_cpu),
        "grades": {s: _grade_tuple(o.record) for s, o in report.outcomes.items()},
        "spans_retained": len(get_registry().spans()),
        "shard_respawns": 0,
    }


def _sharded(cfg: Dict[str, Any]) -> Dict[str, Any]:
    from repro.grading import GradingService
    from repro.obs import ProgressStream, get_registry

    workdir = Path(cfg["workdir"]) / "service"
    events: List[List[Any]] = []
    start: Dict[str, Any] = {}
    me = os.getpid()

    class StampedProgressStream(ProgressStream):
        """The coordinator's progress stream, stamping graded arrivals."""

        def emit(self, event: str, **fields: Any) -> None:
            if event == "shard-spawn":
                _pin_shard(me, int(fields["shard"]))
            if event == "graded":
                now = time.monotonic()
                if not start:
                    cpu = time.process_time() + _descendant_cpu_s(me)
                    start.update(t=now, index=0, cpu=cpu)
                events.append([now, fields.get("student"), fields.get("shard")])
            super().emit(event, **fields)

    workdir.mkdir(parents=True, exist_ok=True)
    with StampedProgressStream(workdir / "progress.jsonl") as progress:
        service = GradingService(
            cfg["suite"],
            workdir=workdir,
            shards=2,
            subprocess_mode=True,
            jobs_per_shard=1,
            pool_size=1,
            dedup=True,
            heartbeat_timeout=10.0,
            quarantine_after=2,
            progress_stream=progress,
        )
        report = service.grade({s: path for s, path, _ in cfg["roster"]})
    end_cpu = time.process_time() + _children_cpu_s()
    book = report.gradebook
    sidecar_spans = 0
    sidecar_bytes = 0
    for sidecar in workdir.glob("obs-*.jsonl"):
        sidecar_bytes += sidecar.stat().st_size
        with sidecar.open() as handle:
            sidecar_spans += sum(1 for line in handle if "\"type\": \"span\"" in line)
    return {
        "events": events,
        "start": start,
        "cpu_s": end_cpu - start.get("cpu", end_cpu),
        "grades": {s: _grade_tuple(book.latest(s)) for s in book.students()},
        "spans_retained": len(get_registry().spans()) + sidecar_spans,
        "sidecar_bytes": sidecar_bytes,
        "shard_respawns": sum(s.respawns for s in report.shards),
    }


def main(config_path: str) -> int:
    cfg = json.loads(Path(config_path).read_text())
    if cfg["workload"] == "jacobi-sharded":
        result = _sharded(cfg)
    else:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        result = _in_process(cfg)
    result["peak_rss_kb"] = _peak_rss_kb()
    Path(cfg["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
