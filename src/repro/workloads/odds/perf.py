"""Performance-testable odd-number counters (latency and virtual-clock)."""

from __future__ import annotations

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
    generate_randoms,
    int_arg,
    is_odd,
    latency_work,
    partition,
)
from repro.workloads.odds.spec import (
    INDEX,
    IS_ODD,
    NUM_ODDS,
    NUMBER,
    RANDOM_NUMBERS,
    TOTAL_NUM_ODDS,
)

#: Per-number simulated latency (seconds) for the sleep variant.
PER_ITEM_SLEEP = 0.001


def _count_odds(
    args: List[str],
    per_item: Callable[[], None],
    *,
    backend: Optional[ConcurrencyBackend] = None,
) -> None:
    num_randoms = int_arg(args, 0, 100)
    num_threads = int_arg(args, 1, 4)

    randoms = generate_randoms(num_randoms)
    print_property(RANDOM_NUMBERS, randoms)
    total = SharedCounter()

    def make_worker(lo: int, hi: int):
        def worker() -> None:
            count = 0
            for index in range(lo, hi):
                number = randoms[index]
                print_property(INDEX, index)
                print_property(NUMBER, number)
                per_item()
                odd = is_odd(number)
                print_property(IS_ODD, odd)
                if odd:
                    count += 1
            print_property(NUM_ODDS, count)
            total.add(count)

        return worker

    bodies = [make_worker(lo, hi) for lo, hi in partition(num_randoms, num_threads)]
    fork_and_join(bodies, backend=backend)

    print_property(TOTAL_NUM_ODDS, total.value)


@register_main("odds.perf.latency")
def main_latency(args: List[str]) -> None:
    _count_odds(args, lambda: latency_work(PER_ITEM_SLEEP))


@register_main("odds.perf.sim")
def main_sim(args: List[str]) -> None:
    # Run each worker until it retires: the makespan is the same
    # under every interleaving (see repro.workloads.primes.perf).
    backend = SimulationBackend(SerializedPolicy())

    def charge() -> None:
        backend.checkpoint(cost=UNIT_COST_MODEL.item_cost())

    _count_odds(args, charge, backend=backend)
    record_makespan(backend.makespan())
