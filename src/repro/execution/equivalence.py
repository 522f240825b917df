"""Happens-before equivalence over recorded schedules.

Two controlled schedules that merely permute *independent* steps — a
worker printing a trace line before vs. after another worker's print —
drive the tested program through the same happens-before order, grade
identically, and waste the exploration budget when both are executed.
This module canonicalizes a recorded :class:`ScheduleTrace` into its
**happens-before key** (a Mazurkiewicz-trace invariant) so the explorer
can skip a schedule whose key it has already graded, in the spirit of
"Generating Representative Executions" (PAPERS.md).

The event model
---------------

A recorded schedule is a decision list; decision *i* grants worker
``chosen_i``, which then runs one code **segment** ending at its next
yield — whose kind is the *point* of decision *i + 1* (the final grant's
segment ends in the worker's unrecorded last yield: ``retire``, or
``block`` when the run deadlocked).  The executed schedule is therefore
a sequence of ``(worker, kind)`` pairs, one per segment, in execution
order: :func:`segment_stream` yields it, and the canonical form, the
oracle's skeletons and the race analysis
(:mod:`repro.execution.races`) all read it from there.

Two events are **independent** (they commute) when they belong to
different workers and at least one is a ``trace`` event; every other
pair **conflicts**.  The tested-program contract behind that relation:
trace prints publish *thread-local* observations (`tested_programs.md`),
so a segment ending in a ``trace`` yield touches no shared state, while
segments ending at ``checkpoint`` / lock operations / ``retire`` are
exactly where the workloads put their shared reads and writes (e.g.
``SharedCounter.add_racy`` reads before its ``checkpoint`` and writes
before its ``retire``).  Keeping every non-``trace`` kind in the
dependence relation is what makes two same-key schedules grade
identically even for racy programs.

The canonical form is the standard complete invariant for this
dependence relation: each worker's program-order projection plus the
projection onto conflicting events.  Schedules are equivalent iff their
canonical forms — and hence their :func:`happens_before_key` digests —
are equal.

The oracle
----------

Dedup must *never execute* a redundant schedule, but a generative
strategy's schedule is only known after running it.
:class:`ScheduleOracle` closes that loop: from one executed trace it
extracts each worker's **skeleton** (its schedule-independent sequence
of yield kinds) and then *simulates* the controlled scheduler against
any candidate strategy offline — no program run — reproducing the exact
decision semantics of :class:`ControlledScheduler` (ready sets, lock
parking, deadlock).  The predicted trace yields the candidate's key
before anything executes.  The oracle is intentionally conservative:

* it refuses traces with deadlocks, divergence, or staged ``start``
  decisions (skeletons would be incomplete or mis-attributed);
* lock operations are modelled against one conflated lock — exact for
  programs using at most one lock, and *checked* regardless: the
  explorer compares the predicted key against the real key after every
  executed run and fails open (dedup off) on the first misprediction.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Tuple

from repro.execution.scheduling import (
    ScheduleDecision,
    ScheduleDivergenceError,
    ScheduleStrategy,
    ScheduleTrace,
)

__all__ = [
    "COMMUTING_KINDS",
    "ScheduleEvent",
    "segment_stream",
    "executed_events",
    "events_conflict",
    "canonical_form",
    "happens_before_key",
    "ScheduleOracle",
]

#: Yield-point kinds whose segments are pure thread-local observation
#: and therefore commute with any other worker's events.  Everything
#: else — checkpoints, lock traffic, blocking, retirement, staged
#: starts — is kept ordered in the canonical form.
COMMUTING_KINDS = frozenset({"trace"})


@dataclass(frozen=True)
class ScheduleEvent:
    """One executed segment: *worker* ran until a yield of kind *kind*."""

    worker: int
    kind: str


def segment_stream(trace: ScheduleTrace) -> Iterator[Tuple[int, str]]:
    """Yield the executed segments of a recorded schedule, in order.

    One ``(worker, kind)`` pair per decision: decision *i*'s chosen
    worker runs a segment ended by decision *i + 1*'s yield point; the
    last grant's segment ends in the unrecorded final yield — ``retire``
    on a completed run, ``block`` when the scheduler recorded a
    deadlock.
    """
    decisions = iter(trace.decisions)
    previous = next(decisions, None)
    if previous is None:
        return
    for decision in decisions:
        yield previous.chosen, decision.point
        previous = decision
    yield previous.chosen, "block" if trace.deadlocked else "retire"


def executed_events(trace: ScheduleTrace) -> List[ScheduleEvent]:
    """:func:`segment_stream` as a list of :class:`ScheduleEvent`."""
    return [ScheduleEvent(worker, kind) for worker, kind in segment_stream(trace)]


def events_conflict(a: ScheduleEvent, b: ScheduleEvent) -> bool:
    """Do *a* and *b* depend on each other (i.e. must stay ordered)?"""
    if a.worker == b.worker:
        return True
    return a.kind not in COMMUTING_KINDS and b.kind not in COMMUTING_KINDS


def canonical_form(trace: ScheduleTrace) -> dict:
    """The happens-before canonical form of a recorded schedule.

    Two schedules of the same program are equivalent — reachable from
    each other by swapping adjacent independent events — iff their
    canonical forms are equal: per-worker program-order projections plus
    the global projection onto conflicting (non-``trace``) events, with
    the deadlock verdict folded in.
    """
    program_order: Dict[int, List[str]] = {}
    conflict_order: List[list] = []
    for worker, kind in segment_stream(trace):
        program_order.setdefault(worker, []).append(kind)
        if kind not in COMMUTING_KINDS:
            conflict_order.append([worker, kind])
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


# ----------------------------------------------------------------------
# Offline simulation
# ----------------------------------------------------------------------
@dataclass
class SimulatedRun:
    """What the oracle predicts a strategy's run would record."""

    trace: ScheduleTrace
    #: The simulation ran every worker to retirement (or a deadlock was
    #: reached); ``False`` means the step cap fired and the prediction
    #: is unusable.
    complete: bool = True

    @cached_property
    def key(self) -> Optional[str]:
        """The predicted happens-before key (``None`` when incomplete),
        computed on first use."""
        return happens_before_key(self.trace) if self.complete else None

    def key_of(self, executed: ScheduleTrace) -> str:
        """The happens-before key of the *executed* run this predicted.

        A run that recorded the predicted segment stream has the
        predicted key, so only a run that strayed from the prediction
        is hashed.
        """
        if (
            self.key is not None
            and executed.deadlocked == self.trace.deadlocked
            and list(segment_stream(executed)) == list(segment_stream(self.trace))
        ):
            return self.key
        return happens_before_key(executed)


class _SimWorker:
    __slots__ = ("key", "skeleton", "pos", "attempting", "parked")

    def __init__(self, key: int, skeleton: List[str]) -> None:
        self.key = key
        self.skeleton = skeleton
        self.pos = 0
        #: Inside an acquire loop: the next grant retries the lock.
        self.attempting = False
        #: Parked on the (conflated) lock; out of the ready set.
        self.parked = False


class ScheduleOracle:
    """Predict a candidate strategy's recorded schedule without running.

    Built from one executed trace via :meth:`from_trace`; thereafter
    :meth:`simulate` mirrors :class:`ControlledScheduler` decision for
    decision against the extracted per-worker skeletons.
    """

    #: Default per-simulation decision cap — a runaway-strategy backstop
    #: far above any skeleton the explorer meets in practice.
    MAX_STEPS = 100_000

    def __init__(self, skeletons: Dict[int, List[str]]) -> None:
        self.skeletons = skeletons

    # ------------------------------------------------------------------
    @classmethod
    def from_trace(cls, trace: ScheduleTrace) -> Optional["ScheduleOracle"]:
        """Extract skeletons from an executed trace; ``None`` when the
        trace is outside the oracle's supported shape."""
        if trace.deadlocked or trace.divergence or not trace.decisions:
            return None
        if trace.decisions[0].point != "start":
            return None
        if any(d.point == "start" for d in trace.decisions[1:]):
            return None  # staged start_all: segments mis-attributed
        enrolled = set(trace.decisions[0].ready)
        if trace.workers and enrolled != set(trace.workers):
            return None  # late enrollment: skeletons would be partial
        skeletons: Dict[int, List[str]] = {key: [] for key in enrolled}
        for worker, kind in segment_stream(trace):
            if worker not in skeletons:
                return None
            if kind == "lock-tryacquire":
                # A try-acquire's outcome is schedule-dependent and the
                # program may branch on it, so the worker's yield-kind
                # sequence is not a schedule-independent skeleton.
                return None
            if kind == "block":
                # Lock contention, a schedule-dependent consequence the
                # simulation re-derives from lock state; not a skeleton
                # step.
                continue
            skeletons[worker].append(kind)
        for key, kinds in skeletons.items():
            if not kinds or kinds[-1] != "retire":
                return None
            if "retire" in kinds[:-1]:
                return None
        return cls(skeletons)

    # ------------------------------------------------------------------
    def simulate(
        self, strategy: ScheduleStrategy, *, max_steps: Optional[int] = None
    ) -> SimulatedRun:
        """Drive *strategy* against the skeletons; returns the predicted
        recording.  *strategy* must be a fresh/cloned instance — its
        internal state (RNG, quanta) is consumed exactly as a live run
        would consume it."""
        cap = self.MAX_STEPS if max_steps is None else max_steps
        workers = {
            key: _SimWorker(key, list(kinds))
            for key, kinds in self.skeletons.items()
        }
        live = dict(workers)  # not yet retired
        lock_holder: Optional[int] = None
        decisions: List[ScheduleDecision] = []
        deadlocked = False
        step = 0

        def ready_keys() -> List[int]:
            return sorted(k for k, w in live.items() if not w.parked)

        def decide(current: Optional[int], point: str) -> Optional[int]:
            nonlocal deadlocked, step
            ready = ready_keys()
            if not ready:
                if live:
                    deadlocked = True
                return None
            chosen = strategy.choose(
                ready, current if current in ready else None, point, step
            )
            if chosen not in ready:
                raise ScheduleDivergenceError(
                    f"simulated strategy chose {chosen} outside ready {ready}"
                )
            decisions.append(
                ScheduleDecision(step=step, point=point, ready=ready, chosen=chosen)
            )
            step += 1
            return chosen

        granted = decide(None, "start")
        while granted is not None and step < cap:
            worker = live[granted]
            if worker.attempting:
                # Mirror of ControlledScheduler.acquire_lock's retry loop.
                if lock_holder is None:
                    lock_holder = worker.key
                    worker.attempting = False
                else:
                    worker.parked = True
                    granted = decide(worker.key, "block")
                    continue
            action = worker.skeleton[worker.pos]
            worker.pos += 1
            if action == "retire":
                del live[worker.key]
                if not live:
                    break  # final retire records no decision
                granted = decide(worker.key, "retire")
                continue
            if action == "lock-acquire":
                worker.attempting = True
                granted = decide(worker.key, "lock-acquire")
                continue
            if action == "lock-release":
                lock_holder = None
                for other in live.values():
                    other.parked = False
                granted = decide(worker.key, "lock-release")
                continue
            # checkpoint / trace (and any future plain yield kind)
            granted = decide(worker.key, action)

        complete = deadlocked or not live
        trace = ScheduleTrace(
            strategy=getattr(strategy, "name", "simulated"),
            seed=getattr(strategy, "seed", None),
            workers={key: f"worker-{key}" for key in self.skeletons},
            decisions=decisions,
            deadlocked=deadlocked,
        )
        return SimulatedRun(trace=trace, complete=complete)

    def predict_key(
        self, strategy: ScheduleStrategy, *, max_steps: Optional[int] = None
    ) -> Optional[str]:
        """The happens-before key *strategy* would produce, or ``None``
        when the simulation could not complete."""
        try:
            run = self.simulate(strategy, max_steps=max_steps)
        except ScheduleDivergenceError:
            return None
        return run.key
