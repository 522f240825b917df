"""The race analysis and canonical form as they were before the lean pass.

Kept verbatim as reference implementations: the rewritten
:func:`repro.execution.races.analyze_trace` and
:func:`repro.execution.equivalence.canonical_form` must give equal
results on every trace (``tests/test_analysis_reference.py``).  Only
the report data classes and constants are imported from the package.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.execution.equivalence import COMMUTING_KINDS, ScheduleEvent
from repro.execution.races import (
    ACCESS_KINDS,
    LockContention,
    RacePair,
    RaceReport,
    SegmentAccess,
    _CONFLATED,
    _EXTERNAL,
    _LOCK_POINTS,
)
from repro.execution.scheduling import ScheduleTrace


def executed_events(trace: ScheduleTrace) -> List[ScheduleEvent]:
    """The executed-segment sequence of a recorded schedule.

    Decision *i*'s chosen worker runs a segment ended by decision
    *i + 1*'s yield point; the last grant's segment ends in the
    unrecorded final yield — ``retire`` on a completed run, ``block``
    when the scheduler recorded a deadlock.
    """
    decisions = trace.decisions
    events: List[ScheduleEvent] = []
    for index, decision in enumerate(decisions):
        if index + 1 < len(decisions):
            kind = decisions[index + 1].point
        else:
            kind = "block" if trace.deadlocked else "retire"
        events.append(ScheduleEvent(worker=decision.chosen, kind=kind))
    return events


def canonical_form(trace: ScheduleTrace) -> dict:
    """The happens-before canonical form of a recorded schedule.

    Two schedules of the same program are equivalent — reachable from
    each other by swapping adjacent independent events — iff their
    canonical forms are equal: per-worker program-order projections plus
    the global projection onto conflicting (non-``trace``) events, with
    the deadlock verdict folded in.
    """
    events = executed_events(trace)
    program_order: Dict[int, List[str]] = {}
    for event in events:
        program_order.setdefault(event.worker, []).append(event.kind)
    conflict_order = [
        [event.worker, event.kind]
        for event in events
        if event.kind not in COMMUTING_KINDS
    ]
    return {
        "program_order": {
            str(worker): kinds for worker, kinds in sorted(program_order.items())
        },
        "conflict_order": conflict_order,
        "deadlocked": bool(trace.deadlocked),
    }


def happens_before_key(trace: ScheduleTrace) -> str:
    """Stable digest of :func:`canonical_form` — the dedup key."""
    payload = json.dumps(canonical_form(trace), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class _Walker:
    """Replays one decision stream with the scheduler's lock semantics."""

    def __init__(self, trace: ScheduleTrace) -> None:
        self.trace = trace
        self.holder: Dict[int, int] = {}  # lock -> worker (or _EXTERNAL)
        self.lock_clock: Dict[int, Dict[int, int]] = {}
        self.clocks: Dict[int, Dict[int, int]] = {}
        self.pending_acquire: Dict[int, int] = {}  # worker -> wanted lock
        self.pending_try: Dict[int, int] = {}
        self.used_locks: Dict[int, bool] = {}
        self.contention: Dict[int, LockContention] = {}
        #: Join of every retired worker's final clock: the root's
        #: knowledge, inherited by workers started after a join (the
        #: fork/join edge of staged start/join batches).
        self.root_clock: Dict[int, int] = {}

    def _stat(self, lock: int) -> LockContention:
        return self.contention.setdefault(lock, LockContention(lock=lock))

    def _join_into_worker(self, worker: int, lock: int) -> None:
        clock = self.clocks.setdefault(worker, {})
        for key, tick in self.lock_clock.get(lock, {}).items():
            if clock.get(key, 0) < tick:
                clock[key] = tick

    def _apply_yield(self, worker: Optional[int], point: str, lock: int) -> None:
        """The yield that *ended* the previous segment."""
        if point == "retire" and worker is not None:
            for key, tick in self.clocks.get(worker, {}).items():
                if self.root_clock.get(key, 0) < tick:
                    self.root_clock[key] = tick
            return
        if point not in _LOCK_POINTS:
            return
        if worker is not None:
            self.used_locks[worker] = True
        if point == "lock-acquire":
            if worker is not None:
                self.pending_acquire[worker] = lock
        elif point == "lock-tryacquire":
            if worker is not None:
                self.pending_try[worker] = lock
        elif point == "block":
            self._stat(lock).blocks += 1
            # The probe failed, so someone held the lock.  If no tracked
            # worker does, a free-running thread acquired it raw.
            self.holder.setdefault(lock, _EXTERNAL)
        elif point == "lock-release":
            released_by = self.holder.pop(lock, None)
            if released_by is not None and released_by >= 0:
                # Publish the releasing worker's knowledge on the lock.
                clock = self.lock_clock.setdefault(lock, {})
                for key, tick in self.clocks.get(released_by, {}).items():
                    if clock.get(key, 0) < tick:
                        clock[key] = tick

    def _grant(self, worker: int) -> None:
        """Segment start: re-probe pending acquires, tick the clock."""
        if worker not in self.clocks:
            # First grant: inherit the root's knowledge (fork edge —
            # everything joined before this worker started).
            self.clocks[worker] = dict(self.root_clock)
        wanted = self.pending_acquire.get(worker)
        if wanted is not None and self.holder.get(wanted) is None:
            self.holder[wanted] = worker
            del self.pending_acquire[worker]
            self._join_into_worker(worker, wanted)
            self._stat(wanted).acquisitions += 1
        tried = self.pending_try.pop(worker, None)
        if tried is not None:
            if self.holder.get(tried) is None:
                self.holder[tried] = worker
                self._join_into_worker(worker, tried)
                self._stat(tried).acquisitions += 1
            else:
                self._stat(tried).try_failures += 1
        clock = self.clocks.setdefault(worker, {})
        clock[worker] = clock.get(worker, 0) + 1

    def lockset_of(self, worker: int) -> FrozenSet[int]:
        return frozenset(
            lock for lock, holder in self.holder.items() if holder == worker
        )


def _segments(
    trace: ScheduleTrace,
) -> Tuple[List[Tuple[SegmentAccess, Dict[int, int], int, bool]], Dict[int, LockContention]]:
    """Every executed segment with its lockset, clock snapshot, epoch,
    and whether its worker ever touched a lock (final value) — plus the
    per-lock contention counters gathered during the same walk."""
    walker = _Walker(trace)
    decisions = trace.decisions
    names = trace.workers or {}
    raw: List[Tuple[int, int, str, FrozenSet[int], Dict[int, int], int]] = []
    for index, decision in enumerate(decisions):
        lock = decision.lock if decision.lock is not None else _CONFLATED
        yielder = decisions[index - 1].chosen if index > 0 else None
        walker._apply_yield(yielder, decision.point, lock)
        worker = decision.chosen
        walker._grant(worker)
        if index + 1 < len(decisions):
            kind = decisions[index + 1].point
        else:
            kind = "block" if trace.deadlocked else "retire"
        raw.append(
            (
                index,
                worker,
                kind,
                walker.lockset_of(worker),
                dict(walker.clocks.get(worker, {})),
                walker.clocks.get(worker, {}).get(worker, 0),
            )
        )
    result = []
    for index, worker, kind, lockset, clock, epoch in raw:
        access = SegmentAccess(
            step=index,
            worker=worker,
            worker_name=names.get(worker, f"worker-{worker}"),
            kind=kind,
            lockset=lockset,
        )
        result.append(
            (access, clock, epoch, walker.used_locks.get(worker, False))
        )
    return result, walker.contention


def analyze_trace(trace: ScheduleTrace, *, max_pairs: int = 32) -> RaceReport:
    """Lockset + happens-before analysis of one recorded schedule."""
    walker_segments, contention_stats = _segments(trace)
    accesses: List[Tuple[SegmentAccess, Dict[int, int], int]] = []
    for access, clock, epoch, worker_used_locks in walker_segments:
        if access.kind in ("trace", "block"):
            continue
        if worker_used_locks:
            if access.lockset:
                accesses.append((access, clock, epoch))
        elif access.kind in ACCESS_KINDS:
            accesses.append((access, clock, epoch))

    pairs: List[RacePair] = []
    race_count = 0
    racing_steps: Dict[int, SegmentAccess] = {}
    for i, (a, _clock_a, epoch_a) in enumerate(accesses):
        for b, clock_b, _epoch_b in (entry for entry in accesses[i + 1 :]):
            if a.worker == b.worker:
                continue
            if a.lockset & b.lockset:
                continue
            # a executed before b; they are ordered iff b's clock has
            # caught up with a's epoch via a synchronization edge.
            if clock_b.get(a.worker, 0) >= epoch_a:
                continue
            race_count += 1
            racing_steps.setdefault(a.step, a)
            racing_steps.setdefault(b.step, b)
            if len(pairs) < max_pairs:
                pairs.append(RacePair(first=a, second=b))

    contention = sorted(contention_stats.values(), key=lambda c: c.lock)
    return RaceReport(
        pairs=pairs,
        unguarded=[racing_steps[step] for step in sorted(racing_steps)],
        contention=contention,
        race_count=race_count,
        truncated=race_count > len(pairs),
        schedules_analyzed=1,
    )
