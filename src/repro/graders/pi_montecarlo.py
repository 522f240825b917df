"""Test programs for the Monte-Carlo PI problem (§5, second exercise).

The PI estimate is itself a random quantity, so — as the paper notes for
Table 1 — the only way to check final serial correctness is to check the
correctness of intermediate serial results: each dart's in-circle
judgement, and the hit arithmetic built from those judgements.  The
in-circle checks therefore carry the *serial* (final) marker rather than
``serial-intermediate``, reproducing the table's ``95 (0)`` shape.
"""

from __future__ import annotations

import threading
from typing import Any, List, Mapping, Optional

from repro.core.checker import AbstractForkJoinChecker
from repro.core.performance import AbstractConcurrencyPerformanceChecker
from repro.core.properties import BOOLEAN, NUMBER
from repro.testfw.annotations import max_value
from repro.workloads.pi_montecarlo.spec import (
    DEFAULT_NUM_POINTS,
    DEFAULT_NUM_THREADS,
    IN_CIRCLE,
    INDEX,
    NUM_IN_CIRCLE,
    NUM_POINTS,
    PI_ESTIMATE,
    TOTAL_IN_CIRCLE,
    X,
    Y,
)

__all__ = ["PiFunctionality", "PiPerformance", "SimulatedPiPerformance"]

#: Tolerance for the final PI arithmetic check (pure float round-off).
_PI_TOLERANCE = 1e-9


@max_value(40)
class PiFunctionality(AbstractForkJoinChecker):
    """Functionality test of the concurrent Monte-Carlo PI estimator."""

    def __init__(
        self,
        identifier: str = "pi.correct",
        *,
        num_points: int = DEFAULT_NUM_POINTS,
        num_threads: int = DEFAULT_NUM_THREADS,
    ) -> None:
        self._identifier = identifier
        self._num_points = num_points
        self._num_threads = num_threads
        self.reset_state()

    # -- tested-program invocation parameter methods -------------------
    def main_class_identifier(self) -> str:
        return self._identifier

    def args(self) -> List[str]:
        return [str(self._num_points), str(self._num_threads)]

    # -- begin: serial --
    def total_iterations(self) -> int:
        return self._num_points  # one iteration per dart
    # -- end: serial --

    # -- begin: concurrency --
    def num_expected_forked_threads(self) -> int:
        return self._num_threads
    # -- end: concurrency --

    # -- static syntax parameter methods --------------------------------
    # -- begin: serial --
    def pre_fork_property_names_and_types(self):
        return ((NUM_POINTS, NUMBER),)

    def iteration_property_names_and_types(self):
        return (
            (INDEX, NUMBER),
            (X, NUMBER),
            (Y, NUMBER),
            (IN_CIRCLE, BOOLEAN),
        )

    def post_join_property_names_and_types(self):
        return ((TOTAL_IN_CIRCLE, NUMBER), (PI_ESTIMATE, NUMBER))
    # -- end: serial --

    # -- begin: concurrency --
    def post_iteration_property_names_and_types(self):
        return ((NUM_IN_CIRCLE, NUMBER),)
    # -- end: concurrency --

    # -- semantic state --------------------------------------------------
    def reset_state(self) -> None:
        # -- begin: serial --
        self._announced_points = 0
        self._actual_hits = 0
        # -- end: serial --
        # -- begin: concurrency-intermediate --
        self._hits_found_by_current_thread = 0
        self._sum_hits_found_by_all_threads = 0
        # -- end: concurrency-intermediate --

    # -- semantic check methods ------------------------------------------
    def pre_fork_events_message(
        self, thread: threading.Thread, values: Mapping[str, Any]
    ) -> Optional[str]:
        # -- begin: serial --
        self._announced_points = int(values[NUM_POINTS])
        if self._announced_points != self._num_points:
            return (
                f"Num Points output as {self._announced_points} but the "
                f"program was asked to throw {self._num_points} darts"
            )
        return None
        # -- end: serial --

    def iteration_events_message(
        self, thread: threading.Thread, values: Mapping[str, Any]
    ) -> Optional[str]:
        # -- begin: serial --
        x = float(values[X])
        y = float(values[Y])
        if not (0.0 <= x < 1.0 and 0.0 <= y < 1.0):
            return f"dart ({x}, {y}) lies outside the unit square"
        printed_in_circle = bool(values[IN_CIRCLE])
        actually_in_circle = x * x + y * y <= 1.0
        if printed_in_circle != actually_in_circle:
            return (
                f"In Circle output as {printed_in_circle} for dart "
                f"({x}, {y}) but should be {actually_in_circle}"
            )
        if actually_in_circle:
            self._actual_hits += 1
        # -- end: serial --
        # -- begin: concurrency-intermediate --
        if actually_in_circle:
            self._hits_found_by_current_thread += 1
        return None
        # -- end: concurrency-intermediate --

    def post_iteration_events_message(
        self, thread: threading.Thread, values: Mapping[str, Any]
    ) -> Optional[str]:
        # -- begin: concurrency-intermediate --
        reported = int(values[NUM_IN_CIRCLE])
        if reported != self._hits_found_by_current_thread:
            return (
                f"Thread hit {self._hits_found_by_current_thread} darts in "
                f"the circle but reported {reported}"
            )
        self._sum_hits_found_by_all_threads += reported
        self._hits_found_by_current_thread = 0
        return None
        # -- end: concurrency-intermediate --

    def post_join_events_message(
        self, thread: threading.Thread, values: Mapping[str, Any]
    ) -> Optional[str]:
        total = int(values[TOTAL_IN_CIRCLE])
        # -- begin: concurrency --
        if total != self._sum_hits_found_by_all_threads:
            return (
                f"Total In Circle {total} != sum of hits found by each "
                f"thread {self._sum_hits_found_by_all_threads}"
            )
        # -- end: concurrency --
        # -- begin: serial --
        if total != self._actual_hits:
            return (
                f"Total In Circle {total} != actual in-circle darts "
                f"{self._actual_hits}"
            )
        pi = float(values[PI_ESTIMATE])
        expected_pi = 4.0 * total / self._num_points if self._num_points else 0.0
        if abs(pi - expected_pi) > _PI_TOLERANCE:
            return (
                f"PI output as {pi} but 4 * {total} / {self._num_points} "
                f"= {expected_pi}"
            )
        return None
        # -- end: serial --


@max_value(20)
class PiPerformance(AbstractConcurrencyPerformanceChecker):
    """Performance test of the PI estimator (sleep-kernel variant)."""

    TESTED_CLASS_NAME = "pi.perf.latency"
    NUM_POINTS = "100"
    MINIMUM_SPEEDUP = 1.5
    MIN_THREADS = "1"
    MAX_THREADS = "4"

    def __init__(self, identifier: Optional[str] = None, *, runs: int = 10) -> None:
        self._identifier = identifier or self.TESTED_CLASS_NAME
        self._runs = runs

    def main_class_identifier(self) -> str:
        return self._identifier

    def low_thread_args(self) -> List[str]:
        return [self.NUM_POINTS, self.MIN_THREADS]

    def high_thread_args(self) -> List[str]:
        return [self.NUM_POINTS, self.MAX_THREADS]

    def expected_minimum_speedup(self) -> float:
        return self.MINIMUM_SPEEDUP

    def num_timed_runs(self) -> int:
        return self._runs


@max_value(20)
class SimulatedPiPerformance(PiPerformance):
    """Performance test against the virtual clock (GIL-independent)."""

    TESTED_CLASS_NAME = "pi.perf.sim"

    def duration_source(self):
        return lambda execution: execution.makespan or 0.0
