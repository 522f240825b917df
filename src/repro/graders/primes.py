"""Test programs for the primes problem (paper appendix + Fig. 7).

``PrimesFunctionality`` transliterates the paper's appendix class: the
parameter methods declare the tested program, its arguments, the property
names/types of each fork-join phase, the total iterations and expected
threads; the four semantic methods check intermediate and final, serial
and concurrency correctness.  ``PrimesPerformance`` transliterates the
Fig. 7 performance tester.

The ``# -- begin/end: <category> --`` comments are the Table 1 accounting
regions (see :mod:`repro.core.loc`): ``serial`` vs ``concurrency``
requirement-checking code, with the ``*-intermediate`` sub-regions
marking the lines that pinpoint intermediate results.
"""

from __future__ import annotations

import math
import threading
from typing import Any, List, Mapping, Optional

from repro.core.checker import AbstractForkJoinChecker
from repro.core.performance import AbstractConcurrencyPerformanceChecker
from repro.core.properties import ARRAY, BOOLEAN, NUMBER
from repro.testfw.annotations import max_value
from repro.workloads.primes.spec import (
    DEFAULT_NUM_RANDOMS,
    DEFAULT_NUM_THREADS,
    INDEX,
    IS_PRIME,
    NUM_PRIMES,
    NUMBER as NUMBER_PROP,
    RANDOM_NUMBERS,
    TOTAL_NUM_PRIMES,
)

__all__ = ["PrimesFunctionality", "PrimesPerformance", "SimulatedPrimesPerformance"]


@max_value(40)
class PrimesFunctionality(AbstractForkJoinChecker):
    """Functionality test of the concurrent prime counter.

    ``identifier`` selects the submission under test; the paper fixes the
    standard name ``ConcurrentPrimeNumbers`` and rebinding happens at
    grading time, which here is simply a constructor argument.
    """

    def __init__(
        self,
        identifier: str = "primes.correct",
        *,
        num_randoms: int = DEFAULT_NUM_RANDOMS,
        num_threads: int = DEFAULT_NUM_THREADS,
    ) -> None:
        self._identifier = identifier
        self._num_randoms = num_randoms
        self._num_threads = num_threads
        self.reset_state()

    # -- tested-program invocation parameter methods -------------------
    def main_class_identifier(self) -> str:
        return self._identifier

    # -- begin: serial --
    def total_iterations(self) -> int:
        return self._num_randoms  # one iteration per random number
    # -- end: serial --

    # -- begin: concurrency --
    def num_expected_forked_threads(self) -> int:
        return self._num_threads
    # -- end: concurrency --

    def args(self) -> List[str]:
        return [str(self._num_randoms), str(self._num_threads)]

    # -- static syntax parameter methods --------------------------------
    # -- begin: serial --
    def pre_fork_property_names_and_types(self):
        return ((RANDOM_NUMBERS, ARRAY),)

    def iteration_property_names_and_types(self):
        return (
            (INDEX, NUMBER),
            (NUMBER_PROP, NUMBER),
            (IS_PRIME, BOOLEAN),
        )

    def post_join_property_names_and_types(self):
        return ((TOTAL_NUM_PRIMES, NUMBER),)
    # -- end: serial --

    # -- begin: concurrency --
    def post_iteration_property_names_and_types(self):
        return ((NUM_PRIMES, NUMBER),)
    # -- end: concurrency --

    # -- semantic state --------------------------------------------------
    def reset_state(self) -> None:
        # -- begin: serial --
        self._random_numbers: List[int] = []
        # -- end: serial --
        # -- begin: concurrency-intermediate --
        self._primes_found_by_current_thread = 0
        self._sum_primes_found_by_all_threads = 0
        # -- end: concurrency-intermediate --

    # -- semantic check methods ------------------------------------------
    def pre_fork_events_message(
        self, thread: threading.Thread, values: Mapping[str, Any]
    ) -> Optional[str]:
        # -- begin: serial --
        self._random_numbers = list(values[RANDOM_NUMBERS])
        return None
        # -- end: serial --

    def iteration_events_message(
        self, thread: threading.Thread, values: Mapping[str, Any]
    ) -> Optional[str]:
        # -- begin: serial-intermediate --
        index = int(values[INDEX])
        number = int(values[NUMBER_PROP])
        expected_number = self._random_numbers[index]
        if number != expected_number:
            return (
                f"Number {number} output at index {index} != expected "
                f"number {expected_number}"
            )
        printed_is_prime = bool(values[IS_PRIME])
        actual_is_prime = _is_prime(number)
        if printed_is_prime != actual_is_prime:
            return (
                f"Is Prime output as {_java_bool(printed_is_prime)} for "
                f"number {number} but should be {_java_bool(actual_is_prime)}"
            )
        # -- end: serial-intermediate --
        # -- begin: concurrency-intermediate --
        if actual_is_prime:
            self._primes_found_by_current_thread += 1
        return None
        # -- end: concurrency-intermediate --

    def post_iteration_events_message(
        self, thread: threading.Thread, values: Mapping[str, Any]
    ) -> Optional[str]:
        # -- begin: concurrency-intermediate --
        num_computed = int(values[NUM_PRIMES])
        if num_computed != self._primes_found_by_current_thread:
            return (
                f"Thread found {self._primes_found_by_current_thread} "
                f"primes but reported {num_computed}"
            )
        self._sum_primes_found_by_all_threads += num_computed
        self._primes_found_by_current_thread = 0  # reset for next thread
        return None
        # -- end: concurrency-intermediate --

    def post_join_events_message(
        self, thread: threading.Thread, values: Mapping[str, Any]
    ) -> Optional[str]:
        computed_total = int(values[TOTAL_NUM_PRIMES])
        # -- begin: concurrency --
        if computed_total != self._sum_primes_found_by_all_threads:
            return (
                f"Num primes output by dispatching thread {computed_total} "
                f"!= sum of primes found by each thread "
                f"{self._sum_primes_found_by_all_threads}"
            )
        # -- end: concurrency --
        # -- begin: serial --
        num_actual_primes = 0
        for number in self._random_numbers:
            if _is_prime(int(number)):
                num_actual_primes += 1
        if computed_total != num_actual_primes:
            return (
                f"Num computed primes {computed_total} != actual primes "
                f"{num_actual_primes}"
            )
        return None
        # -- end: serial --


# -- begin: serial --
def _is_prime(n: int) -> bool:
    """The test writer's reference predicate (custom function)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for divisor in range(3, int(math.isqrt(n)) + 1, 2):
        if n % divisor == 0:
            return False
    return True


def _java_bool(value: bool) -> str:
    return "true" if value else "false"
# -- end: serial --


@max_value(20)
class PrimesPerformance(AbstractConcurrencyPerformanceChecker):
    """Performance test of the concurrent prime counter (Fig. 7).

    The solution must provide a speedup of at least 1.5 when going from
    1 to 4 threads over 100 random numbers.  ``identifier`` selects the
    work-kernel variant (see :mod:`repro.workloads.primes.perf`).
    """

    TESTED_CLASS_NAME = "primes.perf.latency"
    NUM_RANDOMS = "100"
    MINIMUM_SPEEDUP = 1.5
    MIN_THREADS = "1"
    MAX_THREADS = "4"

    def __init__(self, identifier: Optional[str] = None, *, runs: int = 10) -> None:
        self._identifier = identifier or self.TESTED_CLASS_NAME
        self._runs = runs

    def main_class_identifier(self) -> str:
        return self._identifier

    def low_thread_args(self) -> List[str]:
        return [self.NUM_RANDOMS, self.MIN_THREADS]

    def high_thread_args(self) -> List[str]:
        return [self.NUM_RANDOMS, self.MAX_THREADS]

    def expected_minimum_speedup(self) -> float:
        return self.MINIMUM_SPEEDUP

    def num_timed_runs(self) -> int:
        return self._runs


@max_value(20)
class SimulatedPrimesPerformance(PrimesPerformance):
    """Performance test against the virtual clock (GIL-independent)."""

    TESTED_CLASS_NAME = "primes.perf.sim"

    def duration_source(self):
        return lambda execution: execution.makespan or 0.0
