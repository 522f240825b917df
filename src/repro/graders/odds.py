"""Test programs for the odd-numbers problem (the worked example of §5).

Structurally the simplest of the three full graders — the Table 1 row
with the smallest serial count — because the reference predicate is a
one-liner and there is no floating-point arithmetic to verify.
"""

from __future__ import annotations

import threading
from typing import Any, List, Mapping, Optional

from repro.core.checker import AbstractForkJoinChecker
from repro.core.performance import AbstractConcurrencyPerformanceChecker
from repro.core.properties import ARRAY, BOOLEAN, NUMBER
from repro.testfw.annotations import max_value
from repro.workloads.odds.spec import (
    DEFAULT_NUM_RANDOMS,
    DEFAULT_NUM_THREADS,
    INDEX,
    IS_ODD,
    NUM_ODDS,
    NUMBER as NUMBER_PROP,
    RANDOM_NUMBERS,
    TOTAL_NUM_ODDS,
)

__all__ = ["OddsFunctionality", "OddsPerformance", "SimulatedOddsPerformance"]


@max_value(40)
class OddsFunctionality(AbstractForkJoinChecker):
    """Functionality test of the concurrent odd-number counter."""

    def __init__(
        self,
        identifier: str = "odds.correct",
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

    def args(self) -> List[str]:
        return [str(self._num_randoms), str(self._num_threads)]

    # -- begin: serial --
    def total_iterations(self) -> int:
        return self._num_randoms
    # -- end: serial --

    # -- begin: concurrency --
    def num_expected_forked_threads(self) -> int:
        return self._num_threads
    # -- end: concurrency --

    # -- static syntax parameter methods --------------------------------
    # -- begin: serial --
    def pre_fork_property_names_and_types(self):
        return ((RANDOM_NUMBERS, ARRAY),)

    def iteration_property_names_and_types(self):
        return (
            (INDEX, NUMBER),
            (NUMBER_PROP, NUMBER),
            (IS_ODD, BOOLEAN),
        )

    def post_join_property_names_and_types(self):
        return ((TOTAL_NUM_ODDS, NUMBER),)
    # -- end: serial --

    # -- begin: concurrency --
    def post_iteration_property_names_and_types(self):
        return ((NUM_ODDS, NUMBER),)
    # -- end: concurrency --

    # -- semantic state --------------------------------------------------
    def reset_state(self) -> None:
        # -- begin: serial --
        self._random_numbers: List[int] = []
        # -- end: serial --
        # -- begin: concurrency-intermediate --
        self._odds_found_by_current_thread = 0
        self._sum_odds_found_by_all_threads = 0
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
        printed_is_odd = bool(values[IS_ODD])
        actually_odd = number % 2 != 0
        if printed_is_odd != actually_odd:
            return (
                f"Is Odd output as {printed_is_odd} for number {number} "
                f"but should be {actually_odd}"
            )
        # -- end: serial-intermediate --
        # -- begin: concurrency-intermediate --
        if actually_odd:
            self._odds_found_by_current_thread += 1
        return None
        # -- end: concurrency-intermediate --

    def post_iteration_events_message(
        self, thread: threading.Thread, values: Mapping[str, Any]
    ) -> Optional[str]:
        # -- begin: concurrency-intermediate --
        reported = int(values[NUM_ODDS])
        if reported != self._odds_found_by_current_thread:
            return (
                f"Thread found {self._odds_found_by_current_thread} odd "
                f"numbers but reported {reported}"
            )
        self._sum_odds_found_by_all_threads += reported
        self._odds_found_by_current_thread = 0
        return None
        # -- end: concurrency-intermediate --

    def post_join_events_message(
        self, thread: threading.Thread, values: Mapping[str, Any]
    ) -> Optional[str]:
        total = int(values[TOTAL_NUM_ODDS])
        # -- begin: concurrency --
        if total != self._sum_odds_found_by_all_threads:
            return (
                f"Total Num Odds {total} != sum of odds found by each "
                f"thread {self._sum_odds_found_by_all_threads}"
            )
        # -- end: concurrency --
        # -- begin: serial --
        actual = sum(1 for n in self._random_numbers if int(n) % 2 != 0)
        if total != actual:
            return f"Total Num Odds {total} != actual odd numbers {actual}"
        return None
        # -- end: serial --


@max_value(20)
class OddsPerformance(AbstractConcurrencyPerformanceChecker):
    """Performance test of the odd counter (sleep-kernel variant)."""

    TESTED_CLASS_NAME = "odds.perf.latency"
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
class SimulatedOddsPerformance(OddsPerformance):
    """Performance test against the virtual clock (GIL-independent)."""

    TESTED_CLASS_NAME = "odds.perf.sim"

    def duration_source(self):
        return lambda execution: execution.makespan or 0.0
