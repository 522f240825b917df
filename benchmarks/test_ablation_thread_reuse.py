"""Ablation — reused carrier threads vs a fresh OS thread per program thread.

Every run of a tested program needs a root thread and one thread per
worker.  The runners and the controlled backends lease them from the
carrier pool (``repro.util.carriers``), so after a program's first run
no OS thread starts.  This ablation runs three workloads in process,
``RUNS`` times each, the way grading runs them: ``synclab.straggler``
and ``jacobi.correct`` under the default recorded schedule, and
``primes.perf.sim 100 4`` hidden on its own virtual-clock backend.  It
requires that no OS thread starts after the first run (a fresh thread
per program thread starts 5, 13 and 5 per run), and times the same runs
with the idle pool emptied before each one, which starts every thread
afresh, for comparison.

Set ``HOT_PATHS_JSON=<path>`` to merge the measurements into the shared
hot-path artifact.
"""

from __future__ import annotations

import statistics
import threading
import time

from benchmarks.conftest import emit, merge_json_artifact
from repro.core.checker import DEFAULT_SCHEDULE
from repro.execution.runner import ProgramRunner
from repro.util.carriers import retire_idle

#: (identifier, args, controlled by the default schedule, hide prints)
WORKLOADS = [
    ("synclab.straggler", [], True, False),
    ("jacobi.correct", [], True, False),
    ("primes.perf.sim", ["100", "4"], False, True),
]

RUNS = 30

#: Where ``Thread.start`` asks the OS for a thread.
_START = (
    "_start_joinable_thread"
    if hasattr(threading, "_start_joinable_thread")
    else "_start_new_thread"
)


def _runs(runner, workload, fresh, starts):
    """Per-run (OS threads started, seconds) of ``RUNS`` runs."""
    identifier, args, controlled, hidden = workload
    measured = []
    for _ in range(RUNS):
        if fresh:
            retire_idle()
        before = starts[0]
        began = time.perf_counter()
        result = runner.run(
            identifier,
            args,
            hide_prints=hidden,
            schedule=DEFAULT_SCHEDULE.clone() if controlled else None,
        )
        seconds = time.perf_counter() - began
        assert result.ok, result.failure_reason()
        measured.append((starts[0] - before, seconds))
    return measured


def test_ablation_no_os_thread_starts_after_the_first_run(monkeypatch):
    original = getattr(threading, _START)
    starts = [0]

    def counting(*args, **kwargs):
        starts[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(threading, _START, counting)
    runner = ProgramRunner()
    sections = {}
    lines = []
    for workload in WORKLOADS:
        retire_idle()
        reused = _runs(runner, workload, False, starts)
        fresh = _runs(runner, workload, True, starts)
        label = " ".join([workload[0], *workload[1]])
        sections[label] = {
            "runs": RUNS,
            "threads_started_first_run": reused[0][0],
            "threads_started_after_first_run": sum(c for c, _ in reused[1:]),
            "threads_started_per_fresh_run": fresh[-1][0],
            "median_run_ms_reused": statistics.median(s for _, s in reused[1:]) * 1e3,
            "median_run_ms_fresh": statistics.median(s for _, s in fresh[1:]) * 1e3,
        }
        lines.append(
            f"{label:<22} first run {reused[0][0]:>2} threads, later runs "
            f"{sections[label]['threads_started_after_first_run']}; median run "
            f"{sections[label]['median_run_ms_reused']:.2f} ms reused vs "
            f"{sections[label]['median_run_ms_fresh']:.2f} ms with "
            f"{fresh[-1][0]} fresh threads"
        )
    merge_json_artifact("HOT_PATHS_JSON", "thread_reuse", sections)
    emit("Ablation — reused carrier threads vs fresh threads", "\n".join(lines))
    for label, section in sections.items():
        assert section["threads_started_first_run"] > 0, label
        assert section["threads_started_after_first_run"] == 0, label
