"""Performance-testable Monte-Carlo PI variants.

Same regime split as :mod:`repro.workloads.primes.perf`: a latency-kernel
variant whose wall-clock speedup is genuine under the GIL, and a
virtual-clock variant whose speedup is deterministic.  Monte-Carlo darts
cost one unit each (:data:`repro.simulation.workload_model.UNIT_COST_MODEL`).
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional

from repro.execution.registry import register_main
from repro.simulation.backend import (
    ConcurrencyBackend,
    SimulationBackend,
    record_makespan,
)
from repro.simulation.scheduler import SerializedPolicy
from repro.simulation.workload_model import UNIT_COST_MODEL
from repro.tracing import print_property
from repro.workloads.common import (
    SharedCounter,
    fork_and_join,
    int_arg,
    latency_work,
    partition,
    workload_seed,
)
from repro.workloads.pi_montecarlo.spec import (
    IN_CIRCLE,
    INDEX,
    NUM_IN_CIRCLE,
    NUM_POINTS,
    PI_ESTIMATE,
    TOTAL_IN_CIRCLE,
    X,
    Y,
)

#: Per-dart simulated latency (seconds) for the sleep variant.
PER_DART_SLEEP = 0.001


def _throw_darts(
    args: List[str],
    per_dart: Callable[[], None],
    *,
    backend: Optional[ConcurrencyBackend] = None,
) -> None:
    num_points = int_arg(args, 0, 100)
    num_threads = int_arg(args, 1, 4)

    print_property(NUM_POINTS, num_points)
    hits = SharedCounter()

    def make_worker(lo: int, hi: int, seed: int):
        def worker() -> None:
            rng = random.Random(seed)
            count = 0
            for index in range(lo, hi):
                x = rng.random()
                y = rng.random()
                print_property(INDEX, index)
                print_property(X, x)
                print_property(Y, y)
                per_dart()
                in_circle = x * x + y * y <= 1.0
                print_property(IN_CIRCLE, in_circle)
                if in_circle:
                    count += 1
            print_property(NUM_IN_CIRCLE, count)
            hits.add(count)

        return worker

    base_seed = workload_seed()
    bodies = [
        make_worker(lo, hi, base_seed + part)
        for part, (lo, hi) in enumerate(partition(num_points, num_threads))
    ]
    fork_and_join(bodies, backend=backend)

    total = hits.value
    print_property(TOTAL_IN_CIRCLE, total)
    print_property(PI_ESTIMATE, 4.0 * total / num_points if num_points else 0.0)


@register_main("pi.perf.latency")
def main_latency(args: List[str]) -> None:
    _throw_darts(args, lambda: latency_work(PER_DART_SLEEP))


@register_main("pi.perf.sim")
def main_sim(args: List[str]) -> None:
    # Run each worker until it retires: the makespan is the same
    # under every interleaving (see repro.workloads.primes.perf).
    backend = SimulationBackend(SerializedPolicy())

    def charge() -> None:
        backend.checkpoint(cost=UNIT_COST_MODEL.item_cost())

    _throw_darts(args, charge, backend=backend)
    record_makespan(backend.makespan())
