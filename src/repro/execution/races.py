"""Lockset + happens-before race analysis over recorded schedules.

The ``[racy @seed N]`` marker says *a* schedule failed; it cannot say
*why*.  This module answers the why from evidence the harness already
records: the scheduler's decision stream (:class:`ScheduleDecision`,
whose lock-flavoured points now carry the lock id).  Walking one
recorded :class:`ScheduleTrace` with the exact grant/probe semantics of
:class:`repro.execution.scheduling.ControlledScheduler` reconstructs,
per executed segment, **which locks the running worker held** — and a
vector clock built from the synchronization edges (lock release →
subsequent acquire of the same lock) orders segments by happens-before.

Two segments **race** when they belong to different workers, both end
at a shared-access flush point, hold no lock in common (disjoint
locksets), and are concurrent under the vector clocks.  This is the
classic lockset ∩ happens-before hybrid (Dinning/Schonberg eraser-style
lockset, Djit-style clocks), specialised to the harness's segment
model.

What counts as a shared access
------------------------------

The analysis sees yield kinds, not loads and stores, so it leans on the
tested-program segment discipline (:mod:`repro.workloads.synclab`,
:mod:`repro.execution.equivalence`): shared-state accesses are
committed inside lock-delimited regions, or — for code that does not
synchronize — before the worker's next ``checkpoint`` or its
retirement (join is an unsynchronized worker's only commit point).
Concretely a segment is an **access segment** when

* its worker holds at least one lock during it (critical-section
  interior: the segments ending at ``checkpoint`` / ``lock-release``
  inside a ``with lock:`` body), for workers that use locks at all; or
* its worker performs *no* lock operation over its whole lifetime and
  the segment ends at ``checkpoint`` or ``retire`` — the unsynchronized
  read-modify-write shape, where every checkpoint flushes a shared
  access.

The asymmetry is the discipline itself: a worker that synchronizes
commits its shared accesses at lock boundaries, so its lock-free
checkpoint segments are thread-local pacing (``primes.correct`` paces
one checkpoint per candidate number); a worker that never synchronizes
has nothing but checkpoints and join to commit with.  The cost is a
known false negative — a lock-using worker's *additional* unguarded
access is invisible — which schedule exploration still catches the
moment it makes a schedule fail.

Segments ending at ``trace`` commute (thread-local observation, the
Mazurkiewicz relation of :mod:`repro.execution.equivalence`) and
segments ending at ``block`` ran no user code (a failed probe parks
immediately); neither is ever an access segment.

The analysis is evidence over *one* interleaving: a clean report means
no race was observable in that schedule, which is why the explorer runs
it per executed schedule and aggregates across the census.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.execution.equivalence import segment_stream
from repro.execution.scheduling import ScheduleDecision, ScheduleTrace

__all__ = [
    "ACCESS_KINDS",
    "SegmentAccess",
    "RacePair",
    "LockContention",
    "RaceReport",
    "analyze_trace",
    "merge_reports",
]

#: Segment-ending kinds that commit an *unsynchronized* worker's shared
#: accesses (lock-using workers commit inside lock-held segments).
ACCESS_KINDS = frozenset({"checkpoint", "retire"})

#: Lock-flavoured decision points (carry a lock id).
_LOCK_POINTS = frozenset(
    {"lock-acquire", "lock-tryacquire", "lock-release", "block"}
)

#: Conflated-lock id used when a decision predates the ``lock`` field.
_CONFLATED = -1

#: Holder sentinel for locks acquired by untracked (free-running)
#: threads: their raw acquires record no decision, but a worker that
#: subsequently blocked proves the lock was held by *someone*.
_EXTERNAL = -2


@dataclass(frozen=True)
class SegmentAccess:
    """One shared-access segment: who ran, where, holding what."""

    #: Decision index that granted the segment (its step).
    step: int
    worker: int
    #: Worker's thread name from the trace, for human-facing reports.
    worker_name: str
    #: Yield kind that ended the segment.
    kind: str
    #: Lock ids held across the segment.
    lockset: FrozenSet[int]

    def label(self) -> str:
        held = (
            "{" + ",".join(str(l) for l in sorted(self.lockset)) + "}"
            if self.lockset
            else "unlocked"
        )
        return f"{self.worker_name}@{self.step}({self.kind},{held})"

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "worker": self.worker,
            "worker_name": self.worker_name,
            "kind": self.kind,
            "lockset": sorted(self.lockset),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SegmentAccess":
        return cls(
            step=int(data.get("step", 0)),
            worker=int(data.get("worker", 0)),
            worker_name=str(data.get("worker_name", "")),
            kind=str(data.get("kind", "")),
            lockset=frozenset(int(l) for l in data.get("lockset", [])),
        )


@dataclass(frozen=True)
class RacePair:
    """Two concurrent, unguarded shared-access segments — a race."""

    first: SegmentAccess
    second: SegmentAccess

    def label(self) -> str:
        return f"{self.first.label()} × {self.second.label()}"

    #: Schedule-independent identity: the same source-level race shows
    #: up at different steps across schedules but keeps its worker pair
    #: and segment kinds.
    def signature(self) -> Tuple[str, str, str, str]:
        return (
            self.first.worker_name,
            self.first.kind,
            self.second.worker_name,
            self.second.kind,
        )

    def to_dict(self) -> dict:
        return {"first": self.first.to_dict(), "second": self.second.to_dict()}

    @classmethod
    def from_dict(cls, data: dict) -> "RacePair":
        return cls(
            first=SegmentAccess.from_dict(data.get("first", {})),
            second=SegmentAccess.from_dict(data.get("second", {})),
        )


@dataclass
class LockContention:
    """Per-lock traffic observed while walking one schedule."""

    lock: int
    acquisitions: int = 0
    blocks: int = 0
    try_failures: int = 0

    def to_dict(self) -> dict:
        return {
            "lock": self.lock,
            "acquisitions": self.acquisitions,
            "blocks": self.blocks,
            "try_failures": self.try_failures,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LockContention":
        return cls(
            lock=int(data.get("lock", 0)),
            acquisitions=int(data.get("acquisitions", 0)),
            blocks=int(data.get("blocks", 0)),
            try_failures=int(data.get("try_failures", 0)),
        )


@dataclass
class RaceReport:
    """The race evidence extracted from recorded schedules.

    ``pairs`` holds up to ``max_pairs`` racing segment pairs
    (``truncated`` says whether more existed); ``unguarded`` lists the
    distinct access segments that participate in at least one race —
    the unguarded shared accesses a fix must cover; ``contention``
    summarises per-lock traffic.  ``schedules_analyzed`` > 1 after
    :func:`merge_reports` folds a census together.
    """

    pairs: List[RacePair] = field(default_factory=list)
    unguarded: List[SegmentAccess] = field(default_factory=list)
    contention: List[LockContention] = field(default_factory=list)
    #: Total racing pairs found, including any beyond ``max_pairs``.
    race_count: int = 0
    truncated: bool = False
    schedules_analyzed: int = 1

    @property
    def has_races(self) -> bool:
        return self.race_count > 0

    def pair_labels(self) -> List[str]:
        return [pair.label() for pair in self.pairs]

    def summary(self) -> str:
        if not self.has_races:
            return (
                f"no races across {self.schedules_analyzed} analyzed "
                f"schedule(s)"
            )
        shown = "; ".join(self.pair_labels()[:3])
        more = self.race_count - min(3, len(self.pairs))
        tail = f" (+{more} more)" if more > 0 else ""
        return f"{self.race_count} racing pair(s): {shown}{tail}"

    def to_dict(self) -> dict:
        return {
            "pairs": [pair.to_dict() for pair in self.pairs],
            "unguarded": [seg.to_dict() for seg in self.unguarded],
            "contention": [c.to_dict() for c in self.contention],
            "race_count": self.race_count,
            "truncated": self.truncated,
            "schedules_analyzed": self.schedules_analyzed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RaceReport":
        return cls(
            pairs=[RacePair.from_dict(p) for p in data.get("pairs", [])],
            unguarded=[
                SegmentAccess.from_dict(s) for s in data.get("unguarded", [])
            ],
            contention=[
                LockContention.from_dict(c) for c in data.get("contention", [])
            ],
            race_count=int(data.get("race_count", 0)),
            truncated=bool(data.get("truncated", False)),
            schedules_analyzed=int(data.get("schedules_analyzed", 1)),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


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


def _lock_of(decision: ScheduleDecision) -> int:
    return decision.lock if decision.lock is not None else _CONFLATED


def analyze_trace(trace: ScheduleTrace, *, max_pairs: int = 32) -> RaceReport:
    """Lockset + happens-before analysis of one recorded schedule.

    One pass over the segment stream replays locks and clocks.  A
    segment keeps a lockset and a clock snapshot only when it can be an
    access — not ``trace``/``block``, and lock-held or ending at an
    :data:`ACCESS_KINDS` point — and becomes a :class:`SegmentAccess`
    only when it races.
    """
    decisions = trace.decisions
    walker = _Walker(trace)
    if decisions:
        # The yield that ended whatever ran before the first grant.
        walker._apply_yield(None, decisions[0].point, _lock_of(decisions[0]))
    # (step, worker, kind, lockset, clock snapshot, epoch)
    candidates: List[Tuple[int, int, str, FrozenSet[int], Dict[int, int], int]] = []
    for step, (worker, kind) in enumerate(segment_stream(trace)):
        walker._grant(worker)
        if kind != "trace" and kind != "block":
            lockset = walker.lockset_of(worker)
            if lockset or kind in ACCESS_KINDS:
                clock = walker.clocks[worker]
                candidates.append(
                    (step, worker, kind, lockset, dict(clock), clock[worker])
                )
        if step + 1 < len(decisions):
            walker._apply_yield(worker, kind, _lock_of(decisions[step + 1]))

    # Whether a worker ever touched a lock is known only after the walk.
    used_locks = walker.used_locks
    accesses = [
        candidate
        for candidate in candidates
        if (
            bool(candidate[3])
            if used_locks.get(candidate[1], False)
            else candidate[2] in ACCESS_KINDS
        )
    ]

    racing: Set[int] = set()  # indices into accesses
    shown: List[Tuple[int, int]] = []
    race_count = 0
    for i, (_step, worker_a, _kind, lockset_a, _clock, epoch_a) in enumerate(accesses):
        for j in range(i + 1, len(accesses)):
            _, worker_b, _, lockset_b, clock_b, _ = accesses[j]
            if worker_b == worker_a or not lockset_a.isdisjoint(lockset_b):
                continue
            # a executed before b; they are ordered iff b's clock has
            # caught up with a's epoch via a synchronization edge.
            if clock_b.get(worker_a, 0) >= epoch_a:
                continue
            race_count += 1
            racing.add(i)
            racing.add(j)
            if len(shown) < max_pairs:
                shown.append((i, j))

    names = trace.workers or {}
    segments: Dict[int, SegmentAccess] = {}
    for index in sorted(racing):
        step, worker, kind, lockset, _clock, _epoch = accesses[index]
        segments[index] = SegmentAccess(
            step=step,
            worker=worker,
            worker_name=names.get(worker, f"worker-{worker}"),
            kind=kind,
            lockset=lockset,
        )
    pairs = [RacePair(first=segments[i], second=segments[j]) for i, j in shown]

    contention = sorted(walker.contention.values(), key=lambda c: c.lock)
    return RaceReport(
        pairs=pairs,
        unguarded=list(segments.values()),
        contention=contention,
        race_count=race_count,
        truncated=race_count > len(pairs),
        schedules_analyzed=1,
    )


def merge_reports(reports: Sequence[RaceReport], *, max_pairs: int = 32) -> RaceReport:
    """Fold per-schedule reports into one census-wide report.

    Pairs are deduplicated by their schedule-independent signature
    (worker names + segment kinds): the same source-level race observed
    in ten schedules is one pair, not ten.  ``race_count`` counts the
    distinct signatures; contention sums.
    """
    merged_pairs: Dict[Tuple[str, str, str, str], RacePair] = {}
    total_signatures: Dict[Tuple[str, str, str, str], None] = {}
    unguarded: Dict[Tuple[str, str], SegmentAccess] = {}
    contention: Dict[int, LockContention] = {}
    analyzed = 0
    truncated = False
    for report in reports:
        if report is None:
            continue
        analyzed += report.schedules_analyzed
        truncated = truncated or report.truncated
        for pair in report.pairs:
            signature = pair.signature()
            total_signatures.setdefault(signature)
            merged_pairs.setdefault(signature, pair)
        for segment in report.unguarded:
            unguarded.setdefault((segment.worker_name, segment.kind), segment)
        for stat in report.contention:
            into = contention.setdefault(stat.lock, LockContention(lock=stat.lock))
            into.acquisitions += stat.acquisitions
            into.blocks += stat.blocks
            into.try_failures += stat.try_failures
    pairs = list(merged_pairs.values())[:max_pairs]
    return RaceReport(
        pairs=pairs,
        unguarded=[
            unguarded[key] for key in sorted(unguarded)
        ],
        contention=[contention[lock] for lock in sorted(contention)],
        race_count=len(total_signatures),
        truncated=truncated or len(merged_pairs) > len(pairs),
        schedules_analyzed=max(analyzed, 1),
    )
