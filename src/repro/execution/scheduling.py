"""Controlled scheduling: deterministic interleaving of tested programs.

PR 1's rerun-vote retries catch racy submissions only when the OS
scheduler happens to expose the race.  This module removes the luck: a
**controlled scheduler** in the style of Fray (Li et al., 2025) and the
one-page model checkers serializes the tested program's worker threads —
only one runs at a time — and decides, at every *yield point*, which
worker proceeds next.  The interleaving is then a pure function of a
pluggable :class:`ScheduleStrategy`, so a failing schedule can be
**recorded**, attached to a gradebook record as a seed, and **replayed
exactly** from a serialized schedule file.

Yield points, in the fork-join vocabulary of the paper:

* ``fork``/``start`` — workers are spawned and gated; the first grant is
  a recorded decision over the full ready set;
* ``checkpoint`` — the workload API's explicit scheduling point
  (``backend.checkpoint()``);
* ``trace`` — every intercepted print / ``print_property`` call (wired
  through :attr:`repro.tracing.session.TraceSession.yield_hook`);
* ``lock-acquire`` / ``lock-release`` / ``block`` — operations on locks
  handed out by :meth:`ScheduledBackend.lock`; a worker that finds its
  lock held leaves the ready set until the holder releases;
* ``lock-tryacquire`` — a non-blocking (or timed) acquire attempt; the
  attempt itself is a decision point, the raw probe never parks the
  worker, and the probe's outcome is decided by the schedule;
* ``retire`` — a worker finished; the scheduler picks a survivor.

Three strategy families ship here:

* :class:`RandomWalkStrategy` — a seeded random walk over the ready set;
  the workhorse of N-schedule exploration;
* :class:`BoundedPreemptionStrategy` — round-robin with a fixed quantum
  and starting rotation; :func:`bounded_preemption_sweep` enumerates the
  (quantum, rotation) grid deterministically, a small-preemption-bound
  sweep in the CHESS tradition;
* :class:`PCTStrategy` — probabilistic concurrency testing in the style
  of Fray/PCT: random per-worker priorities plus ``depth - 1`` seeded
  priority-change points, which finds any depth-*d* ordering bug with
  probability at least ``1 / (n * k**(d-1))`` per run (n workers, k
  total yield points);
* :class:`ExhaustiveStrategy` — a forced decision prefix with a
  non-preemptive default continuation; the DFS driver in
  :mod:`repro.execution.exploration` uses it to enumerate *all*
  interleavings up to a preemption bound;
* :class:`ReplayStrategy` — replays a recorded :class:`ScheduleTrace`
  decision for decision, raising :class:`ScheduleDivergenceError` the
  moment the live run disagrees with the recording.

Strategies expose ``clone()`` returning a pristine instance with the
same configuration: the equivalence oracle consumes a clone's internal
state (RNG draws, quantum counters) in offline simulation exactly as a
live run would, leaving the original untouched.

Only worker threads participate; the root thread runs free (it is
blocked in ``join`` for the whole fork phase of a correct program) and
harness threads pass through every hook untouched.
"""

from __future__ import annotations

import json
import random
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Protocol, Union

from repro.util.handoff import Handoff

__all__ = [
    "SCHEDULE_FORMAT_VERSION",
    "ScheduleAbort",
    "ScheduleDivergenceError",
    "ScheduleStrategy",
    "RandomWalkStrategy",
    "BoundedPreemptionStrategy",
    "bounded_preemption_sweep",
    "PCTStrategy",
    "ExhaustiveStrategy",
    "ReplayStrategy",
    "ScheduleDecision",
    "ScheduleTrace",
    "ControlledScheduler",
    "InstrumentedLock",
    "ScheduledBackend",
    "resolve_schedule_strategy",
]

#: Version stamp written into serialized schedule files.
SCHEDULE_FORMAT_VERSION = 1


class ScheduleAbort(Exception):
    """The controlled run is being torn down; gated workers unwind.

    Raised inside worker threads when the scheduler aborts (timeout,
    deadlock, replay divergence).  The backend's gate wrapper swallows
    it, so an aborted worker dies quietly rather than spamming stderr.
    """


class ScheduleDivergenceError(RuntimeError):
    """A replayed run disagreed with its recorded schedule.

    The tested program took a different sequence of yield points (or
    presented a different ready set) than the recording — it is either
    nondeterministic beyond its scheduling or not the same program.
    """


class ScheduleStrategy(Protocol):
    """Chooses which ready worker runs after each yield point."""

    #: Stable strategy family name, serialized into schedule files.
    name: str
    #: Seed for seeded strategies; ``None`` for enumerative/replay ones.
    seed: Optional[int]

    def choose(
        self, ready: List[int], current: Optional[int], point: str, step: int
    ) -> int:
        """Pick one key from *ready* (non-empty, ascending).  *current*
        is the worker that just yielded when still runnable, else
        ``None``; *point* is the yield-point kind; *step* the 0-based
        global decision index."""

    def label(self) -> str:
        """Human/file-facing identity, e.g. ``random-walk:17``."""


class RandomWalkStrategy:
    """Seeded random walk: each decision is a uniform pick over ready."""

    name = "random-walk"

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._rng = random.Random(self.seed)

    def choose(
        self, ready: List[int], current: Optional[int], point: str, step: int
    ) -> int:
        return self._rng.choice(ready)

    def label(self) -> str:
        return f"{self.name}:{self.seed}"

    def clone(self) -> "RandomWalkStrategy":
        return RandomWalkStrategy(self.seed)


class BoundedPreemptionStrategy:
    """Round-robin with a fixed quantum and starting rotation.

    The chosen worker keeps running for *quantum* consecutive decisions
    before the grant rotates to the next ready worker in key order;
    *rotation* offsets the very first pick.  Enumerating small
    (quantum, rotation) pairs is a preemption-bound sweep: most
    schedule-sensitive bugs need only a couple of well-placed context
    switches to surface.
    """

    name = "preemption-bound"
    seed: Optional[int] = None

    def __init__(self, quantum: int = 1, rotation: int = 0) -> None:
        if quantum < 1:
            raise ValueError("quantum must be >= 1")
        self.quantum = quantum
        self.rotation = max(0, int(rotation))
        self._remaining = quantum

    def choose(
        self, ready: List[int], current: Optional[int], point: str, step: int
    ) -> int:
        if current is None or current not in ready:
            self._remaining = self.quantum
            return ready[self.rotation % len(ready)]
        if self._remaining > 1:
            self._remaining -= 1
            return current
        self._remaining = self.quantum
        return ready[(ready.index(current) + 1) % len(ready)]

    def label(self) -> str:
        return f"{self.name}:q{self.quantum}.r{self.rotation}"

    def clone(self) -> "BoundedPreemptionStrategy":
        return BoundedPreemptionStrategy(
            quantum=self.quantum, rotation=self.rotation
        )


def bounded_preemption_sweep(
    schedules: int, *, max_quantum: int = 4
) -> Iterator["BoundedPreemptionStrategy"]:
    """Deterministically enumerate *schedules* preemption-bound points.

    Walks the (quantum, rotation) grid column-first — all rotations of
    quantum 1 (maximal preemption) before quantum 2, and so on — then
    wraps, so any budget yields a stable, preemption-dense prefix.
    """
    produced = 0
    while produced < schedules:
        for quantum in range(1, max_quantum + 1):
            for rotation in range(max_quantum):
                if produced >= schedules:
                    return
                yield BoundedPreemptionStrategy(quantum=quantum, rotation=rotation)
                produced += 1


class PCTStrategy:
    """Probabilistic concurrency testing: priorities + change points.

    The PCT discipline (Burckhardt et al., adopted by Fray): every
    worker gets a random base priority when first seen; at each decision
    the highest-priority ready worker runs.  ``depth - 1`` *change
    points* are sampled from ``range(1, expected_length)``; when the
    global decision index hits one, the running worker's priority drops
    below every other priority handed out so far.  A bug that needs
    ``d`` specific ordering constraints ("depth d") is found with
    probability at least ``1 / (n * k**(d-1))`` per run — a guarantee a
    uniform random walk lacks, because the walk re-decides every step
    and the probability of keeping one worker behind for a long stretch
    decays exponentially.

    Everything is derived from ``seed``: same seed, same priorities and
    change points, same recorded schedule — so PCT schedules serialize
    into :class:`ScheduleTrace` files and replay like any other family.
    """

    name = "pct"

    def __init__(
        self, seed: int = 0, *, depth: int = 3, expected_length: int = 64
    ) -> None:
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.seed = int(seed)
        self.depth = int(depth)
        self.expected_length = max(2, int(expected_length))
        self._rng = random.Random(self.seed)
        #: Decision indices at which the running worker is demoted;
        #: sampled up front so priority draws cannot shift them.
        population = range(1, self.expected_length)
        self._change_points = set(
            self._rng.sample(population, min(self.depth - 1, len(population)))
        )
        self._priorities: Dict[int, float] = {}
        self._demotions = 0

    def choose(
        self, ready: List[int], current: Optional[int], point: str, step: int
    ) -> int:
        for key in ready:  # ready is ascending: draws are deterministic
            if key not in self._priorities:
                self._priorities[key] = self._rng.random()
        if step in self._change_points:
            self._change_points.discard(step)
            self._demotions += 1
            victim = (
                current
                if current is not None
                else max(ready, key=lambda k: (self._priorities[k], -k))
            )
            self._priorities[victim] = -float(self._demotions)
        return max(ready, key=lambda k: (self._priorities[k], -k))

    def label(self) -> str:
        return f"{self.name}:{self.seed}.d{self.depth}"

    def clone(self) -> "PCTStrategy":
        return PCTStrategy(
            self.seed, depth=self.depth, expected_length=self.expected_length
        )


class ExhaustiveStrategy:
    """A forced decision prefix, then a non-preemptive continuation.

    The DFS driver (:class:`repro.execution.exploration.ExhaustiveSearch`)
    enumerates interleavings by replaying ever-longer prefixes of chosen
    workers; past the prefix the default rule — keep the current worker
    while it is ready, else the lowest ready key — adds **zero**
    preemptions, so the preemption count of a run is decided entirely by
    its prefix and the bound is exact.
    """

    name = "exhaustive"
    seed: Optional[int] = None

    def __init__(self, prefix: Optional[List[int]] = None) -> None:
        self.prefix: List[int] = list(prefix or [])

    def choose(
        self, ready: List[int], current: Optional[int], point: str, step: int
    ) -> int:
        if step < len(self.prefix):
            want = self.prefix[step]
            if want not in ready:
                raise ScheduleDivergenceError(
                    f"exhaustive prefix wants worker {want} at decision "
                    f"{step} but ready is {ready}"
                )
            return want
        if current is not None and current in ready:
            return current
        return ready[0]

    def label(self) -> str:
        if len(self.prefix) <= 12:
            body = ",".join(str(k) for k in self.prefix)
        else:
            head = ",".join(str(k) for k in self.prefix[:12])
            body = f"{head},+{len(self.prefix) - 12}"
        return f"{self.name}:[{body}]"

    def clone(self) -> "ExhaustiveStrategy":
        return ExhaustiveStrategy(self.prefix)


class ReplayStrategy:
    """Replay a recorded schedule exactly, validating every decision."""

    name = "replay"

    def __init__(self, trace: "ScheduleTrace") -> None:
        self.trace = trace
        self.seed = trace.seed

    def choose(
        self, ready: List[int], current: Optional[int], point: str, step: int
    ) -> int:
        decisions = self.trace.decisions
        if step >= len(decisions):
            raise ScheduleDivergenceError(
                f"replay exhausted: live run reached decision {step} but the "
                f"recording holds only {len(decisions)}"
            )
        recorded = decisions[step]
        if recorded.ready != ready or recorded.point != point:
            raise ScheduleDivergenceError(
                f"replay diverged at decision {step}: recorded "
                f"{recorded.point}/ready={recorded.ready}, live "
                f"{point}/ready={ready}"
            )
        return recorded.chosen

    def label(self) -> str:
        return f"{self.name}:{self.trace.label()}"

    def clone(self) -> "ReplayStrategy":
        return ReplayStrategy(self.trace)


def resolve_schedule_strategy(
    spec: Union[int, "ScheduleTrace", ScheduleStrategy]
) -> ScheduleStrategy:
    """Coerce a runner-facing schedule spec into a strategy.

    An ``int`` is shorthand for a random walk with that seed; a
    :class:`ScheduleTrace` replays itself; a strategy passes through.
    """
    if isinstance(spec, ScheduleTrace):
        return ReplayStrategy(spec)
    if isinstance(spec, int) and not isinstance(spec, bool):
        return RandomWalkStrategy(spec)
    if hasattr(spec, "choose"):
        return spec  # type: ignore[return-value]
    raise TypeError(
        f"schedule must be a seed, a ScheduleTrace, or a strategy; got "
        f"{type(spec).__name__}"
    )


# ----------------------------------------------------------------------
# Recorded schedules
# ----------------------------------------------------------------------
@dataclass
class ScheduleDecision:
    """One scheduling decision: who ran next, and why we were asked.

    ``lock`` identifies which :class:`InstrumentedLock` a lock-flavoured
    point (``lock-acquire`` / ``lock-tryacquire`` / ``lock-release`` /
    ``block``) refers to, by per-scheduler creation order.  It is
    advisory metadata for race analysis: replay compares only ``ready``
    and ``point``, and the happens-before canonical form ignores it, so
    schedule files recorded before the field existed stay loadable and
    equivalent.
    """

    step: int
    point: str
    ready: List[int]
    chosen: int
    lock: Optional[int] = None

    def to_dict(self) -> dict:
        data = {
            "step": self.step,
            "point": self.point,
            "ready": list(self.ready),
            "chosen": self.chosen,
        }
        if self.lock is not None:
            data["lock"] = self.lock
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ScheduleDecision":
        lock = data.get("lock")
        return cls(
            step=int(data["step"]),
            point=str(data["point"]),
            ready=[int(k) for k in data["ready"]],
            chosen=int(data["chosen"]),
            lock=None if lock is None else int(lock),
        )


@dataclass
class ScheduleTrace:
    """A complete recorded interleaving, serializable for exact replay."""

    identifier: str = ""
    args: List[str] = field(default_factory=list)
    strategy: str = ""
    seed: Optional[int] = None
    #: Worker key (spawn order) -> thread name, for human-readable files.
    workers: Dict[int, str] = field(default_factory=dict)
    decisions: List[ScheduleDecision] = field(default_factory=list)
    deadlocked: bool = False
    #: Non-empty when a replay against this trace diverged.
    divergence: str = ""
    version: int = SCHEDULE_FORMAT_VERSION

    def label(self) -> str:
        tag = self.strategy or "schedule"
        return f"{tag}:{self.seed}" if self.seed is not None else tag

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "identifier": self.identifier,
            "args": list(self.args),
            "strategy": self.strategy,
            "seed": self.seed,
            "workers": {str(k): v for k, v in self.workers.items()},
            "deadlocked": self.deadlocked,
            "decisions": [d.to_dict() for d in self.decisions],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScheduleTrace":
        version = int(data.get("version", SCHEDULE_FORMAT_VERSION))
        if version > SCHEDULE_FORMAT_VERSION:
            raise ValueError(
                f"schedule file version {version} is newer than this "
                f"harness understands ({SCHEDULE_FORMAT_VERSION})"
            )
        seed = data.get("seed")
        return cls(
            identifier=data.get("identifier", ""),
            args=[str(a) for a in data.get("args", [])],
            strategy=data.get("strategy", ""),
            seed=None if seed is None else int(seed),
            workers={int(k): str(v) for k, v in data.get("workers", {}).items()},
            decisions=[
                ScheduleDecision.from_dict(d) for d in data.get("decisions", [])
            ],
            deadlocked=bool(data.get("deadlocked", False)),
            version=version,
        )

    def save(self, path: Union[Path, str]) -> Path:
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return target

    @classmethod
    def load(cls, path: Union[Path, str]) -> "ScheduleTrace":
        return cls.from_dict(json.loads(Path(path).read_text()))


# ----------------------------------------------------------------------
# The scheduler
# ----------------------------------------------------------------------
class _WorkerState:
    __slots__ = ("key", "blocked_on")

    def __init__(self, key: int) -> None:
        self.key = key
        self.blocked_on: Optional["InstrumentedLock"] = None


class ControlledScheduler:
    """Token-passing gate whose every grant is a recorded decision.

    Worker keys are assigned at *spawn* time on the root thread (program
    order), not at enrollment (OS order), so the ready sets the strategy
    sees — and therefore the whole interleaving — are deterministic for
    a deterministic tested program.  Each worker waits parked on its own
    baton (:class:`~repro.util.handoff.Handoff`): a grant wakes only the
    chosen worker, a worker granted again at its own yield point keeps
    running, and abort, deadlock or replay divergence wakes every parked
    worker to unwind.
    """

    def __init__(self, strategy: ScheduleStrategy) -> None:
        self.strategy = strategy
        self._lock = threading.Lock()
        #: The root's wait in :meth:`start` for workers to enroll.
        self._enrollment = threading.Condition(self._lock)
        self._handoff = Handoff(self._lock)
        self._states: Dict[int, _WorkerState] = {}
        self._by_thread: Dict[int, int] = {}
        self._total_enrolled = 0
        self._granted: Optional[int] = None
        self._started = False
        self._aborted = False
        self._step = 0
        self.deadlocked = False
        self.divergence = ""
        self.decisions: List[ScheduleDecision] = []
        #: Every worker ever spawned under this scheduler: key -> name.
        self.workers: Dict[int, str] = {}
        self._next_lock_id = 0

    # -- root / backend side -------------------------------------------
    def register(self, key: int, name: str) -> None:
        """Pre-assign *key* (spawn order) to a worker named *name*."""
        with self._lock:
            self.workers[key] = name

    def register_lock(self) -> int:
        """Assign the next lock id (creation order) to a new lock."""
        with self._lock:
            lock_id = self._next_lock_id
            self._next_lock_id += 1
            return lock_id

    def start(self, expected_total: int) -> None:
        """Open the gate once *expected_total* workers have ever enrolled
        (a cumulative count, so batched start/join patterns work)."""
        with self._lock:
            self._enrollment.wait_for(
                lambda: self._aborted or self._total_enrolled >= expected_total
            )
            if self._aborted:
                return
            self._started = True
            self._grant_next(current=None, point="start")

    def abort(self) -> None:
        """Release every gated worker with :class:`ScheduleAbort`."""
        with self._lock:
            self._abort()

    def live_workers(self) -> int:
        with self._lock:
            return len(self._states)

    # -- worker side ----------------------------------------------------
    def enroll(self, key: int) -> None:
        me = threading.get_ident()
        with self._lock:
            self._check_abort()
            if key in self._states:
                raise RuntimeError(f"worker key {key} enrolled twice")
            self._states[key] = _WorkerState(key)
            self._by_thread[me] = key
            self._total_enrolled += 1
            self._handoff.add(key)
            self._enrollment.notify_all()
            self._wait_for_grant(key)

    def yield_point(self, point: str) -> None:
        """Give up the grant at *point*; return when granted again.

        Unenrolled threads (the root, the harness) pass through — this
        is what makes it safe to call from the trace-session hook on
        every intercepted print.
        """
        with self._lock:
            key = self._by_thread.get(threading.get_ident())
            if key is None or self._aborted or not self._started:
                return
            self._yield(key, point)

    def retire(self) -> None:
        me = threading.get_ident()
        with self._lock:
            key = self._by_thread.pop(me, None)
            if key is None:
                return
            self._states.pop(key, None)
            self._handoff.discard(key)
            if self._started and not self._aborted:
                self._grant_next(current=key, point="retire")

    def participating(self) -> bool:
        """Is the calling thread an enrolled, un-aborted worker?"""
        with self._lock:
            return (
                threading.get_ident() in self._by_thread and not self._aborted
            )

    # -- locks ----------------------------------------------------------
    def acquire_lock(self, lock: "InstrumentedLock") -> None:
        """Enrolled-worker lock acquire: a yield point, then a wait that
        leaves the ready set while the lock is held elsewhere."""
        with self._lock:
            key = self._by_thread.get(threading.get_ident())
            if key is None:
                raise RuntimeError("acquire_lock called by unenrolled thread")
            state = self._states[key]
            if self._started:
                self._yield(key, "lock-acquire", lock.lock_id)
            while not lock.raw.acquire(blocking=False):
                state.blocked_on = lock
                self._grant_next(current=key, point="block", lock=lock.lock_id)
                self._handoff.park_until(
                    key,
                    lambda: self._aborted
                    or (state.blocked_on is None and self._granted == key),
                )
                self._check_abort()
            lock.holder = key

    def try_acquire_lock(self, lock: "InstrumentedLock") -> bool:
        """Enrolled-worker non-blocking acquire: a ``lock-tryacquire``
        decision point followed by a raw probe that never parks.

        The probe's outcome is a pure function of the schedule (whoever
        holds the lock when the worker is re-granted), so try-acquire
        loops are recorded, replayed, and visible to race analysis
        instead of bypassing the scheduler.  Timed acquires take this
        path too: under a one-granted-worker schedule the holder cannot
        release while the caller sleeps, so a timed wait is equivalent
        to (and recorded as) a single probe.
        """
        with self._lock:
            key = self._by_thread.get(threading.get_ident())
            if key is None:
                raise RuntimeError(
                    "try_acquire_lock called by unenrolled thread"
                )
            if self._started:
                self._yield(key, "lock-tryacquire", lock.lock_id)
            acquired = lock.raw.acquire(blocking=False)
            if acquired:
                lock.holder = key
            return acquired

    def release_lock(self, lock: "InstrumentedLock") -> None:
        """Release *lock* and wake any workers parked on it.

        Callable by enrolled workers (a yield point) and by free-running
        threads such as the root (waiters are unparked, no yield).
        """
        with self._lock:
            lock.holder = None
            lock.raw.release()
            woken = False
            for state in self._states.values():
                if state.blocked_on is lock:
                    state.blocked_on = None
                    woken = True
            if self._aborted:
                return
            key = self._by_thread.get(threading.get_ident())
            if key is not None and self._started:
                self._yield(key, "lock-release", lock.lock_id)
            elif woken and self._granted is None and self._started:
                # A free-running thread released the lock every live
                # worker was parked on; restart granting.
                self._grant_next(
                    current=None, point="lock-release", lock=lock.lock_id
                )

    # -- internals (hold self._lock) ------------------------------------
    def _abort(self) -> None:
        self._aborted = True
        self._granted = None
        self._handoff.unpark_all()
        self._enrollment.notify_all()

    def _check_abort(self) -> None:
        if self._aborted:
            raise ScheduleAbort(
                "controlled schedule aborted"
                + (": deadlock" if self.deadlocked else "")
                + (f": {self.divergence}" if self.divergence else "")
            )

    def _yield(self, key: int, point: str, lock: Optional[int] = None) -> None:
        """Decide the next grant at *point*; park *key* unless it keeps
        the grant."""
        if self._grant_next(current=key, point=point, lock=lock) != key:
            self._wait_for_grant(key)

    def _wait_for_grant(self, key: int) -> None:
        self._handoff.park_until(
            key,
            lambda: self._aborted
            or (
                self._started
                and self._granted == key
                and self._states[key].blocked_on is None
            ),
        )
        self._check_abort()

    def _ready(self) -> List[int]:
        return sorted(
            key for key, state in self._states.items() if state.blocked_on is None
        )

    def _grant_next(
        self,
        current: Optional[int],
        point: str,
        lock: Optional[int] = None,
    ) -> Optional[int]:
        """Record the strategy's choice at *point* and wake it if parked;
        returns the granted worker (``None`` when no worker is ready)."""
        ready = self._ready()
        if not ready:
            if self._states and all(
                state.blocked_on is not None
                and state.blocked_on.holder is not None
                for state in self._states.values()
            ):
                # Live workers remain and every one is parked on a lock
                # held by an enrolled worker: a genuine deadlock.  Abort
                # deterministically; the workers unwind and the trace
                # records the verdict.  A lock held by a *free-running*
                # thread (holder None — e.g. the root pre-acquired it)
                # is not a deadlock: that thread is outside the one-
                # granted-worker gate and can still release, at which
                # point release_lock restarts granting.
                self.deadlocked = True
                self._abort()
            self._granted = None
            return None
        try:
            chosen = self.strategy.choose(
                ready, current if current in ready else None, point, self._step
            )
        except ScheduleDivergenceError as exc:
            self.divergence = str(exc)
            self._abort()
            raise ScheduleAbort(str(exc)) from exc
        if chosen not in ready:
            raise RuntimeError(
                f"strategy {self.strategy.label()} chose worker {chosen} "
                f"outside ready set {ready}"
            )
        self.decisions.append(
            ScheduleDecision(
                step=self._step,
                point=point,
                ready=ready,
                chosen=chosen,
                lock=lock,
            )
        )
        self._step += 1
        self._granted = chosen
        if chosen != current:
            self._handoff.unpark(chosen)
        return chosen


class InstrumentedLock:
    """A lock whose acquire/release are scheduling decisions.

    Handed out by :meth:`ScheduledBackend.lock`.  Enrolled workers go
    through the scheduler (yield on acquire, park while held, yield on
    release; non-blocking and timed acquires yield at
    ``lock-tryacquire`` and probe without parking); any other thread —
    the root after ``join``, harness code — falls back to the raw lock,
    with waiter wake-up still routed through the scheduler so parked
    workers are not stranded.
    """

    def __init__(self, scheduler: ControlledScheduler) -> None:
        self._scheduler = scheduler
        self.raw = threading.Lock()
        #: Per-scheduler creation order; stamped onto lock-flavoured
        #: :class:`ScheduleDecision` records for race analysis.
        self.lock_id = scheduler.register_lock()
        #: Key of the enrolled worker currently holding the lock, or
        #: ``None`` — which covers both "unheld" and "held by a
        #: free-running thread" (the distinction the deadlock detector
        #: needs: only worker-held locks can form a deadlock cycle).
        self.holder: Optional[int] = None

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        scheduler = self._scheduler
        if scheduler.participating():
            if blocking and timeout == -1:
                scheduler.acquire_lock(self)
                return True
            return scheduler.try_acquire_lock(self)
        return self.raw.acquire(blocking, timeout)

    def release(self) -> None:
        self._scheduler.release_lock(self)

    def locked(self) -> bool:
        return self.raw.locked()

    def __enter__(self) -> "InstrumentedLock":
        self.acquire()
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()


# ----------------------------------------------------------------------
# The backend
# ----------------------------------------------------------------------
class ScheduledBackend:
    """Concurrency backend that runs workers under a controlled schedule.

    Duck-typed drop-in for the ambient-backend API tested programs
    already use (``spawn`` / ``start_all`` / ``join_all`` /
    ``checkpoint`` / ``lock``; deliberately not a
    :class:`repro.simulation.backend.ConcurrencyBackend` subclass, to
    keep this module import-cycle-free): install with
    :func:`repro.simulation.backend.use_backend`, or let
    :meth:`repro.execution.runner.ProgramRunner.run` install it via its
    ``schedule=`` argument.
    """

    def __init__(
        self,
        strategy: Optional[ScheduleStrategy] = None,
        *,
        seed: Optional[int] = None,
    ) -> None:
        if strategy is None:
            strategy = RandomWalkStrategy(0 if seed is None else seed)
        self.strategy = strategy
        self.scheduler = ControlledScheduler(strategy)
        self._spawn_lock = threading.Lock()
        self._spawned = 0
        self._started_total = 0

    # -- workload API ---------------------------------------------------
    def spawn(self, target: Callable[[], None], name: str = "") -> threading.Thread:
        with self._spawn_lock:
            key = self._spawned
            self._spawned += 1
        label = name or f"worker-{key}"
        scheduler = self.scheduler
        scheduler.register(key, label)

        def gated() -> None:
            try:
                scheduler.enroll(key)
                target()
            except ScheduleAbort:
                pass
            finally:
                scheduler.retire()

        # Daemon: a timed-out controlled run must not pin the process on
        # workers parked in the scheduler gate.
        return threading.Thread(target=gated, name=label, daemon=True)

    def start_all(self, threads: List[threading.Thread]) -> None:
        for thread in threads:
            thread.start()
        with self._spawn_lock:
            self._started_total += len(threads)
            expected = self._started_total
        self.scheduler.start(expected)

    def join_all(self, threads: List[threading.Thread]) -> None:
        for thread in threads:
            thread.join()

    def checkpoint(self, cost: float = 0.0) -> None:
        self.scheduler.yield_point("checkpoint")

    def charge_root(self, cost: float) -> None:
        """Virtual-cost accounting is a simulation concern; no-op here."""

    def lock(self) -> InstrumentedLock:
        return InstrumentedLock(self.scheduler)

    # -- harness API ----------------------------------------------------
    def trace_yield(self) -> None:
        """Yield point invoked by the trace session on every recorded
        print — the ``printProperty`` interception hook."""
        self.scheduler.yield_point("trace")

    def abort(self) -> None:
        self.scheduler.abort()

    def finish(self) -> None:
        """Post-run cleanup: abort only if gated workers linger (a
        program that returned from ``main`` without joining)."""
        if self.scheduler.live_workers():
            self.scheduler.abort()

    @property
    def seed(self) -> Optional[int]:
        return getattr(self.strategy, "seed", None)

    def schedule_id(self) -> str:
        """Stable identity stamped onto this run's trace events."""
        return self.strategy.label()

    def schedule_trace(
        self, identifier: str = "", args: Optional[List[str]] = None
    ) -> ScheduleTrace:
        """The recorded interleaving of the run this backend hosted."""
        scheduler = self.scheduler
        return ScheduleTrace(
            identifier=identifier,
            args=list(args) if args else [],
            strategy=self.strategy.name,
            seed=self.seed,
            workers=dict(scheduler.workers),
            decisions=list(scheduler.decisions),
            deadlocked=scheduler.deadlocked,
            divergence=scheduler.divergence,
        )
