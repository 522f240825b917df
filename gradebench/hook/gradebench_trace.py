"""Outside-in layer tracing for the grading benchmark.

:func:`install` wraps the public calls named in :data:`SPANS` and
:data:`WAITS` in place, from outside the program: no span lives in
``src/``.  Each wrapped call records a span (stem, start, end, parent)
in memory with its parent and submission: the parent is the innermost
open span of the calling thread, or, for a thread's first span, the
span that was open where the thread was started; the submission is the
student whose ``grading.submission`` span encloses the call.  The two scheduler yields are too frequent for spans and
accumulate (calls, time blocked) per thread instead.  At exit the
process writes everything to ``spans-<pid>.json`` in the directory
named by the ``GRADEBENCH_TRACE_DIR`` environment variable.

The ``sitecustomize`` module next to this file calls :func:`install`
in every interpreter started with this directory on ``PYTHONPATH``
and that variable set, so shard workers and pool children are traced
the same way as the benchmark's own grading session.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT_STEM = "grading.submission"

EVENTDB_QUERIES = (
    "snapshot",
    "events_between",
    "events_of",
    "events_of_id",
    "events_named",
    "phase_bounds",
    "events_in_phase",
    "thread_ids",
)

#: (module, attribute path, stem): calls timed as spans.  A function
#: imported by name into another module is wrapped where that module
#: looks it up.
SPANS: List[Tuple[str, str, str]] = [
    ("repro.execution.runner", "ProgramRunner.run", "execution.run"),
    ("repro.execution.subprocess_runner", "SubprocessRunner.run", "execution.run"),
    ("repro.core.performance", "time_program", "execution.time_program"),
    ("repro.core.performance", "AbstractConcurrencyPerformanceChecker.run", "core.perf_check"),
    ("repro.execution.exploration", "ExhaustiveSearch.run", "exploration.search"),
    ("repro.execution.races", "analyze_trace", "races.analyze"),
    ("repro.execution.races", "merge_reports", "races.analyze"),
    ("repro.execution.exploration", "analyze_trace", "races.analyze"),
    ("repro.execution.exploration", "merge_reports", "races.analyze"),
    ("repro.execution.worker_pool", "WorkerPool.dispatch", "pool.dispatch"),
    ("repro.core.checker", "build_phased_trace", "core.trace"),
    ("repro.core.multiround", "build_multi_round_trace", "core.trace"),
    ("repro.core.checker", "check_static_syntax", "core.syntax"),
    ("repro.core.checker", "check_dynamic_syntax", "core.syntax"),
    ("repro.core.checker", "check_concurrency", "core.concurrency"),
    ("repro.core.multiround", "check_thread_count", "core.concurrency"),
    ("repro.core.multiround", "check_interleaving", "core.concurrency"),
    ("repro.core.checker", "run_semantic_checks", "core.semantics"),
    ("repro.core.checker", "score_outcomes", "core.credit"),
    ("repro.core.multiround", "score_outcomes", "core.credit"),
    ("repro.core.checker", "make_report", "core.report"),
    ("repro.core.multiround", "make_report", "core.report"),
    ("repro.tracing.session", "TraceSession.record_property", "tracing.record"),
    *[
        ("repro.eventdb.database", f"EventDatabase.{name}", "eventdb.query")
        for name in EVENTDB_QUERIES
    ],
    # The per-submission root: the supervisor's unit of work for one
    # submission (attempts, retries and exploration), the same extent
    # as its own ``supervisor.submission`` obs span.
    ("repro.execution.supervisor", "GradingSupervisor._grade_with_retries", ROOT_STEM),
    ("repro.grading.journal", "GradingJournal.append", "grading.journal"),
    ("repro.grading.records", "SubmissionRecord.from_suite_result", "grading.record"),
    ("repro.testfw.suite", "TestSuite.run", "testfw.suite"),
]

#: (module, attribute path, stem): scheduler yields, counted per thread
#: with the time the calling thread spent blocked inside them.
WAITS: List[Tuple[str, str, str]] = [
    ("repro.simulation.scheduler", "CooperativeScheduler.checkpoint", "simulation.checkpoint"),
    ("repro.execution.scheduling", "ControlledScheduler.yield_point", "scheduling.yield"),
]

_ids = itertools.count()
_spans: Dict[int, List[Any]] = {}
_local = threading.local()
_waits: List[Dict[str, List[int]]] = []
_counts: Dict[str, float] = {}
_counts_lock = threading.Lock()
_missing: List[str] = []
_clock = time.perf_counter_ns


def _count(name: str, amount: float) -> None:
    with _counts_lock:
        _counts[name] = _counts.get(name, 0) + amount


def _stack() -> List[int]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _inherited() -> int:
    return getattr(threading.current_thread(), "_gradebench_parent", -1)


def _open_span() -> int:
    stack = getattr(_local, "stack", None)
    return stack[-1] if stack else _inherited()


def _submission() -> Optional[str]:
    current = getattr(_local, "submission", None)
    if current is None:
        current = getattr(threading.current_thread(), "_gradebench_submission", None)
    return current


def _span(stem: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
    root = stem == ROOT_STEM

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = _stack()
        if stack and _spans[stack[-1]][0] == stem:
            # A layer calling its own public entry: time the outer call only.
            return fn(*args, **kwargs)
        if root:
            # GradingSupervisor._grade_with_retries(self, task)
            previous = getattr(_local, "submission", None)
            _local.submission = getattr(args[1], "student", None)
        record = [stem, _clock(), 0, stack[-1] if stack else _inherited(), _submission()]
        span_id = next(_ids)
        _spans[span_id] = record
        stack.append(span_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            stack.pop()
            record[2] = _clock()
            if root:
                _local.submission = previous
        if observe is not None:
            observe(result)
        return result

    wrapper._gradebench = True
    return wrapper


def _wait(stem: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        totals = getattr(_local, "waits", None)
        if totals is None:
            totals = _local.waits = {}
            _waits.append(totals)
        entry = totals.get(stem)
        if entry is None:
            entry = totals[stem] = [0, 0]
        started = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            entry[0] += 1
            entry[1] += _clock() - started

    wrapper._gradebench = True
    return wrapper


def _observe_events(result) -> None:
    _count("tracing.events", len(result.events))


def _observe_search(result) -> None:
    _count("exploration.enumerated", result.enumerated)
    _count("exploration.executed", result.executed)
    _count("exploration.deduped", result.deduped)


def _observe_groups(result) -> None:
    representatives, clones = result
    _count("dedup.representatives", len(representatives))
    _count("dedup.clones", sum(len(group) for group in clones.values()))


OBSERVERS = {
    "ProgramRunner.run": _observe_events,
    "SubprocessRunner.run": _observe_events,
    "ExhaustiveSearch.run": _observe_search,
}


def _patch(module_name: str, path: str, make: Callable[[Callable], Callable]) -> None:
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        _missing.append(f"{module_name}:{path}")
        return
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent, None)
    static = inspect.getattr_static(owner, name, None) if owner is not None else None
    if static is None:
        _missing.append(f"{module_name}:{path}")
        return
    if getattr(getattr(static, "__func__", static), "_gradebench", False):
        return  # imported after its home module was patched
    if isinstance(static, classmethod):
        setattr(owner, name, classmethod(make(static.__func__)))
    elif isinstance(static, staticmethod):
        setattr(owner, name, staticmethod(make(static.__func__)))
    else:
        setattr(owner, name, make(static))


def _patched_thread_start(original: Callable) -> Callable:
    @functools.wraps(original)
    def start(self):
        self._gradebench_parent = _open_span()
        self._gradebench_submission = _submission()
        return original(self)

    return start


def _observe_only(observe: Callable) -> Callable[[Callable], Callable]:
    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            observe(result)
            return result

        wrapper._gradebench = True
        return wrapper

    return make


def install(directory: str) -> None:
    """Wrap every traced call and dump the spans to *directory* at exit."""
    threading.Thread.start = _patched_thread_start(threading.Thread.start)
    for module_name, path, stem in SPANS:
        observe = OBSERVERS.get(path)
        _patch(module_name, path, lambda fn, s=stem, o=observe: _span(s, fn, o))
    for module_name, path, stem in WAITS:
        _patch(module_name, path, lambda fn, s=stem: _wait(s, fn))
    _patch("repro.grading.dedup", "group_submissions", _observe_only(_observe_groups))
    atexit.register(_dump, directory)


def _dump(directory: str) -> None:
    main = sys.modules.get("__main__")
    spec = getattr(main, "__spec__", None)
    role = spec.name if spec is not None else os.path.basename(sys.argv[0] or "")
    waits: Dict[str, List[int]] = {}
    for totals in list(_waits):
        for stem, (calls, ns) in list(totals.items()):
            entry = waits.setdefault(stem, [0, 0])
            entry[0] += calls
            entry[1] += ns
    obs_spans = 0
    pool_respawns = 0
    registry_module = sys.modules.get("repro.obs.registry")
    if registry_module is not None:
        registry = registry_module.get_registry()
        obs_spans = len(registry.spans())
        counter = registry.counters().get("pool.respawns")
        pool_respawns = counter.value if counter is not None else 0
    payload = {
        "pid": os.getpid(),
        "role": role,
        "spans": [[sid, *record] for sid, record in list(_spans.items())],
        "waits": waits,
        "counts": dict(_counts, **{"pool.respawns": pool_respawns}),
        "obs_spans": obs_spans,
        "missing": _missing,
    }
    path = os.path.join(directory, f"spans-{os.getpid()}.json")
    with open(path, "w") as handle:
        json.dump(payload, handle)
