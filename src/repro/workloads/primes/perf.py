"""Performance-testable prime counters, one per execution regime.

The paper's performance tester (Fig. 7) varies the thread count through
main arguments and requires a 1.5x speedup.  CPython's GIL means a plain
port of the Java program cannot exhibit wall-clock speedup for CPU-bound
work, so this module registers four variants that exercise the identical
checker code path under different work kernels (DESIGN.md §3):

``primes.perf.latency``
    per-number latency via ``time.sleep`` — sleeps release the GIL, so
    threads overlap and the wall-clock speedup is genuine on any host;
``primes.perf.numpy``
    per-number vectorised NumPy work — NumPy releases the GIL inside its
    kernels, so speedup is real but bounded by the physical core count;
``primes.perf.cpu``
    pure-Python CPU-bound work — the *negative control*: the GIL
    serialises it and the checker correctly reports missing speedup;
``primes.perf.sim``
    the simulation backend's virtual clock — deterministic, hardware-
    independent speedup equal to the workload's critical-path ratio.
    Each worker runs until it retires (``SerializedPolicy``): the
    makespan sums every thread's costs in that thread's own order, so
    no interleaving can change it, and the run switches threads only
    when a worker retires.

All variants take ``main([num_randoms, num_threads])`` and print the
standard primes properties (disabled automatically during timing).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.execution.registry import register_main
from repro.simulation.backend import (
    ConcurrencyBackend,
    SimulationBackend,
    record_makespan,
)
from repro.simulation.scheduler import SerializedPolicy
from repro.simulation.workload_model import trial_division_cost
from repro.tracing import print_property
from repro.workloads.common import (
    SharedCounter,
    cpu_work,
    fork_and_join,
    generate_randoms,
    int_arg,
    is_prime,
    latency_work,
    numpy_work,
    partition,
)
from repro.workloads.primes.spec import (
    INDEX,
    IS_PRIME,
    NUM_PRIMES,
    NUMBER,
    RANDOM_NUMBERS,
    TOTAL_NUM_PRIMES,
)

__all__ = [
    "PER_ITEM_SLEEP",
    "NUMPY_CHUNK",
    "CPU_ITERATIONS",
]

#: Per-number simulated latency for the sleep variant (seconds).
PER_ITEM_SLEEP = 0.001
#: Per-number NumPy kernel size for the vectorised variant.
NUMPY_CHUNK = 200_000
#: Per-number busy-loop iterations for the GIL-bound negative control.
CPU_ITERATIONS = 20_000


def _count_primes(
    args: List[str],
    per_item: Callable[[int], None],
    *,
    backend: Optional[ConcurrencyBackend] = None,
) -> None:
    """The shared fork-join skeleton; *per_item* is the work kernel."""
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
                per_item(number)
                prime = is_prime(number)
                print_property(IS_PRIME, prime)
                if prime:
                    count += 1
            print_property(NUM_PRIMES, count)
            total.add(count)

        return worker

    bodies = [make_worker(lo, hi) for lo, hi in partition(num_randoms, num_threads)]
    fork_and_join(bodies, backend=backend)

    print_property(TOTAL_NUM_PRIMES, total.value)


@register_main("primes.perf.latency")
def main_latency(args: List[str]) -> None:
    _count_primes(args, lambda _n: latency_work(PER_ITEM_SLEEP))


@register_main("primes.perf.numpy")
def main_numpy(args: List[str]) -> None:
    _count_primes(args, lambda _n: numpy_work(NUMPY_CHUNK))


@register_main("primes.perf.cpu")
def main_cpu(args: List[str]) -> None:
    _count_primes(args, lambda _n: cpu_work(CPU_ITERATIONS))


@register_main("primes.perf.sim")
def main_sim(args: List[str]) -> None:
    # Run each worker until it retires: the makespan is the same
    # under every interleaving, and the grant moves only at a retire.
    backend = SimulationBackend(SerializedPolicy())

    def charge(number: int) -> None:
        backend.checkpoint(cost=trial_division_cost(number))

    _count_primes(args, charge, backend=backend)
    record_makespan(backend.makespan())
