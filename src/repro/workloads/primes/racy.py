"""Buggy solution: unsynchronized combination of worker results.

Identical to the reference solution except the shared total is updated
with an unsynchronized read-modify-write that yields between the read and
the write.  Under a benign schedule every check passes; under an
adversarial one (schedule exploration, :mod:`repro.execution.exploration`)
two workers read the same snapshot and one update is lost, which the
post-join semantic check exposes as a total that is not the sum of the
per-thread counts.
"""

from __future__ import annotations

from typing import List

from repro.execution.registry import register_main
from repro.simulation.backend import current_backend
from repro.tracing import print_property
from repro.workloads.common import (
    SharedCounter,
    fork_and_join,
    generate_randoms,
    int_arg,
    is_prime,
    partition,
)
from repro.workloads.primes.spec import (
    DEFAULT_NUM_RANDOMS,
    DEFAULT_NUM_THREADS,
    INDEX,
    IS_PRIME,
    NUM_PRIMES,
    NUMBER,
    RANDOM_NUMBERS,
    TOTAL_NUM_PRIMES,
)


@register_main("primes.racy")
def main(args: List[str]) -> None:
    num_randoms = int_arg(args, 0, DEFAULT_NUM_RANDOMS)
    num_threads = int_arg(args, 1, DEFAULT_NUM_THREADS)
    backend = current_backend()

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
                prime = is_prime(number)
                print_property(IS_PRIME, prime)
                if prime:
                    count += 1
                backend.checkpoint()
            print_property(NUM_PRIMES, count)
            # The race: read-modify-write without the lock.
            total.add_racy(count)

        return worker

    bodies = [make_worker(lo, hi) for lo, hi in partition(num_randoms, num_threads)]
    fork_and_join(bodies, backend=backend)

    print_property(TOTAL_NUM_PRIMES, total.value)
