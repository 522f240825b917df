"""Cooperative scheduler: deterministic control of thread interleaving.

The paper's future-work section calls for "techniques for influencing
thread scheduling to catch synchronization bugs"; this module supplies
them.  Worker threads run as real ``threading.Thread`` objects but yield
control at *checkpoints*; the scheduler grants execution to exactly one
worker between checkpoints, choosing the next worker by a pluggable
:class:`SchedulePolicy`.  Round-robin forces tight interleaving,
``SerializedPolicy`` forces the fully serialized schedule Fig. 10 flags,
and :class:`RandomPolicy` (seeded) drives the race fuzzer.

Only worker threads participate; the root thread runs free (it is
blocked in ``join`` for the whole fork phase in a correct program).
"""

from __future__ import annotations

import random
import threading
from typing import List, Optional, Protocol

from repro.util.handoff import Handoff

__all__ = [
    "SchedulePolicy",
    "RoundRobinPolicy",
    "SerializedPolicy",
    "RandomPolicy",
    "CooperativeScheduler",
]


class SchedulePolicy(Protocol):
    """Chooses which ready worker runs next."""

    def choose(self, ready: List[int], current: Optional[int]) -> int:
        """Pick one key from *ready* (non-empty); *current* is the worker
        that just yielded, or None at the first grant."""


class RoundRobinPolicy:
    """Cycle through workers in registration order: maximal interleaving."""

    def choose(self, ready: List[int], current: Optional[int]) -> int:
        if current is None or current not in ready:
            return ready[0]
        index = ready.index(current)
        return ready[(index + 1) % len(ready)]


class SerializedPolicy:
    """Let each worker run to completion before the next starts."""

    def choose(self, ready: List[int], current: Optional[int]) -> int:
        if current is not None and current in ready:
            return current
        return ready[0]


class RandomPolicy:
    """Seeded random choice: the schedule fuzzer's engine."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)

    def choose(self, ready: List[int], current: Optional[int]) -> int:
        return self._rng.choice(ready)


class CooperativeScheduler:
    """Token-passing gate over a set of registered worker threads.

    Lifecycle per worker: ``enroll()`` once (blocks until the scheduler
    starts it), ``checkpoint()`` at every scheduling point, ``retire()``
    on exit.  The scheduler begins granting when :meth:`start` is called
    — normally right after the root has forked all workers — so the
    policy sees the full ready set from the first decision.  Each worker
    waits for its grant parked on its own baton
    (:class:`~repro.util.handoff.Handoff`): a grant wakes only the chosen
    worker, and a worker that is granted again at its own checkpoint
    keeps running without blocking.
    """

    def __init__(self, policy: Optional[SchedulePolicy] = None) -> None:
        self._policy = policy if policy is not None else RoundRobinPolicy()
        self._lock = threading.Lock()
        #: The root's wait in :meth:`start` for workers to enroll.
        self._enrollment = threading.Condition(self._lock)
        self._handoff = Handoff(self._lock)
        #: Currently enrolled (live, unretired) worker keys.  Retired
        #: workers are removed immediately: ``id()`` values of dead thread
        #: objects can be recycled by the allocator, so keeping stale keys
        #: would make a later worker collide with a finished one.
        self._enrolled: List[int] = []
        #: Total enrollments ever; what ``start(expected_workers)`` waits
        #: on, so batched start/join patterns work.
        self._total_enrolled = 0
        self._granted: Optional[int] = None
        self._started = False

    # -- worker side ----------------------------------------------------
    def _me(self) -> int:
        return id(threading.current_thread())

    def enroll(self) -> None:
        me = self._me()
        with self._lock:
            if me in self._enrolled:
                raise RuntimeError("thread enrolled twice")
            self._enrolled.append(me)
            self._total_enrolled += 1
            self._handoff.add(me)
            self._enrollment.notify_all()
            self._handoff.park_until(
                me, lambda: self._started and self._granted == me
            )

    def checkpoint(self) -> None:
        """Yield control; return when this thread is granted again."""
        me = self._me()
        with self._lock:
            if me not in self._enrolled:
                # Unenrolled threads (the root) pass through untouched.
                return
            if self._grant_next(current=me) != me:
                self._handoff.park_until(me, lambda: self._granted == me)

    def retire(self) -> None:
        me = self._me()
        with self._lock:
            if me not in self._enrolled:
                return
            self._enrolled.remove(me)
            self._handoff.discard(me)
            self._grant_next(current=me)

    # -- root side -------------------------------------------------------
    def start(self, expected_workers: Optional[int] = None) -> None:
        """Open the gate; optionally wait until *expected_workers* threads
        have ever enrolled (a cumulative count, so programs that start
        workers in several batches keep working)."""
        with self._lock:
            if expected_workers is not None:
                self._enrollment.wait_for(
                    lambda: self._total_enrolled >= expected_workers
                )
            self._started = True
            self._grant_next(current=None)

    # -- internals --------------------------------------------------------
    def _grant_next(self, current: Optional[int]) -> Optional[int]:
        """Grant the policy's choice and wake it if parked; returns the
        granted worker.  Must hold the scheduler lock."""
        if not self._enrolled:
            self._granted = None
            return None
        granted = self._policy.choose(list(self._enrolled), current)
        self._granted = granted
        if granted != current:
            self._handoff.unpark(granted)
        return granted
