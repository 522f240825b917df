"""Test helpers: synthetic executions with precisely controlled traces.

Most checker tests need a trace with an exact shape (a torn tuple, a
serialized schedule, a misnamed property).  Rather than contriving a
workload that happens to produce it, these helpers fabricate the
``ExecutionResult`` directly: dummy thread objects, hand-written event
schedules, and the same formatting the real tracing layer uses.

:class:`SeededPolicy` drives the cooperative scheduler through seeded
random grants, for tests that need an arbitrary but repeatable order.
"""

from __future__ import annotations

import random
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.eventdb.database import EventDatabase
from repro.execution.runner import ExecutionResult
from repro.tracing.formatting import format_property_line
from repro.util.thread_registry import ThreadRegistry

class SeededPolicy:
    """Cooperative-scheduler policy: a seeded uniform choice of worker.

    One ``random.Random(seed).choice`` call per grant: the call stream
    ``tests/test_handoff.py`` pins for ``random-7``.
    """

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)

    def choose(self, ready: List[int], current: Optional[int]) -> int:
        return self._rng.choice(ready)


#: A scheduled print: (thread_key, property_name, value).  thread_key
#: "R" is the root; any other key is a worker.
ScheduledPrint = Tuple[str, str, Any]


def synthetic_execution(
    schedule: Sequence[ScheduledPrint],
    *,
    identifier: str = "synthetic",
    args: Optional[List[str]] = None,
) -> ExecutionResult:
    """Fabricate an ExecutionResult whose events follow *schedule* exactly."""
    registry = ThreadRegistry()
    database = EventDatabase(registry)
    threads: Dict[str, threading.Thread] = {"R": threading.Thread(name="root")}
    root = threads["R"]
    root_id = registry.id_for(root)

    lines: List[str] = []
    for key, name, value in schedule:
        thread = threads.setdefault(key, threading.Thread(name=f"worker-{key}"))
        thread_id = registry.id_for(thread)
        line = format_property_line(thread_id, name, value)
        lines.append(line)
        database.record(name, value, line, thread=thread)

    events = database.snapshot()
    workers: List[threading.Thread] = []
    for event in events:
        if event.thread is not root and event.thread not in workers:
            workers.append(event.thread)

    return ExecutionResult(
        identifier=identifier,
        args=list(args) if args else [],
        output="\n".join(lines) + ("\n" if lines else ""),
        events=events,
        database=database,
        root_thread=root,
        root_thread_id=root_id,
        duration=0.01,
        worker_threads=workers,
    )


def primes_schedule(
    *,
    randoms: Optional[List[int]] = None,
    worker_slices: Optional[Dict[str, List[int]]] = None,
    interleave: bool = True,
    pre_fork_name: str = "Random Numbers",
    total: Optional[int] = None,
    is_prime=None,
) -> List[ScheduledPrint]:
    """The standard primes trace for a given work assignment.

    ``worker_slices`` maps worker keys to the indices each processes;
    ``interleave=True`` round-robins iterations across workers while
    False emits each worker's block contiguously (the serialized shape).
    """
    from repro.workloads.common import is_prime as default_is_prime

    judge = is_prime if is_prime is not None else default_is_prime
    randoms = randoms if randoms is not None else [509, 578, 796, 129, 272, 594, 714]
    if worker_slices is None:
        worker_slices = {"A": [0, 1], "B": [2, 3], "C": [4, 5], "D": [6]}

    schedule: List[ScheduledPrint] = [("R", pre_fork_name, randoms)]

    def iteration_prints(key: str, index: int) -> List[ScheduledPrint]:
        number = randoms[index]
        return [
            (key, "Index", index),
            (key, "Number", number),
            (key, "Is Prime", judge(number)),
        ]

    counts = {
        key: sum(1 for i in indices if judge(randoms[i]))
        for key, indices in worker_slices.items()
    }

    if interleave:
        pending = {key: list(indices) for key, indices in worker_slices.items()}
        done: List[str] = []
        while len(done) < len(worker_slices):
            for key in worker_slices:
                if key in done:
                    continue
                if pending[key]:
                    schedule.extend(iteration_prints(key, pending[key].pop(0)))
                else:
                    schedule.append((key, "Num Primes", counts[key]))
                    done.append(key)
    else:
        for key, indices in worker_slices.items():
            for index in indices:
                schedule.extend(iteration_prints(key, index))
            schedule.append((key, "Num Primes", counts[key]))

    actual_total = sum(counts.values())
    schedule.append(
        ("R", "Total Num Primes", actual_total if total is None else total)
    )
    return schedule


Number = Union[int, float]
