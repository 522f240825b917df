"""Buggy Jacobi submissions, one per classic stencil mistake."""

from __future__ import annotations

from typing import List

from repro.execution.registry import register_main
from repro.simulation.backend import current_backend
from repro.tracing import print_property
from repro.workloads.common import fork_and_join, int_arg, partition
from repro.workloads.jacobi.spec import (
    CELL,
    CHUNK_MAX_DELTA,
    DEFAULT_NUM_CELLS,
    DEFAULT_NUM_ROUNDS,
    DEFAULT_NUM_THREADS,
    FINAL_HEAT,
    GLOBAL_MAX_DELTA,
    NEW_HEAT,
    ROUND,
    initial_grid,
    stencil,
)


def _parse(args: List[str]):
    return (
        int_arg(args, 0, DEFAULT_NUM_CELLS),
        int_arg(args, 1, DEFAULT_NUM_THREADS),
        int_arg(args, 2, DEFAULT_NUM_ROUNDS),
    )


@register_main("jacobi.in_place")
def main_in_place(args: List[str]) -> None:
    """No double buffering: cells read already-updated neighbours.

    The classic Jacobi-vs-Gauss-Seidel confusion.  Cells after the first
    of a chunk see their left neighbour's *new* value, so the traced
    ``New Heat`` disagrees with the reference stencil over the previous
    round's grid — a serial-intermediate semantic error the per-cell
    check pinpoints.
    """
    num_cells, num_threads, num_rounds = _parse(args)
    backend = current_backend()

    grid = initial_grid(num_cells)
    deltas: List[float] = []
    lock = backend.lock()

    def make_worker(lo: int, hi: int):
        def worker() -> None:
            chunk_max = 0.0
            for cell in range(lo, hi):
                value = stencil(grid, cell)  # reads updated neighbours!
                previous = grid[cell]
                grid[cell] = value
                print_property(CELL, cell)
                print_property(NEW_HEAT, value)
                chunk_max = max(chunk_max, abs(value - previous))
                backend.checkpoint()
            print_property(CHUNK_MAX_DELTA, chunk_max)
            with lock:
                deltas.append(chunk_max)

        return worker

    ranges = partition(num_cells, num_threads)
    for round_index in range(num_rounds):
        print_property(ROUND, round_index)
        deltas.clear()
        fork_and_join([make_worker(lo, hi) for lo, hi in ranges], backend=backend)
        print_property(GLOBAL_MAX_DELTA, max(deltas) if deltas else 0.0)

    print_property(FINAL_HEAT, grid)


@register_main("jacobi.missing_round")
def main_missing_round(args: List[str]) -> None:
    """Off-by-one on the round loop: performs one round too few."""
    num_cells, num_threads, num_rounds = _parse(args)
    import repro.workloads.jacobi.correct as reference

    reference.main([str(num_cells), str(num_threads), str(num_rounds - 1)])


@register_main("jacobi.wrong_global_delta")
def main_wrong_global_delta(args: List[str]) -> None:
    """Combines chunk deltas with ``sum`` instead of ``max``."""
    num_cells, num_threads, num_rounds = _parse(args)
    backend = current_backend()

    old = initial_grid(num_cells)
    new = [0.0] * num_cells
    deltas: List[float] = []
    lock = backend.lock()

    def make_worker(lo: int, hi: int):
        def worker() -> None:
            chunk_max = 0.0
            for cell in range(lo, hi):
                value = stencil(old, cell)
                new[cell] = value
                print_property(CELL, cell)
                print_property(NEW_HEAT, value)
                chunk_max = max(chunk_max, abs(value - old[cell]))
                backend.checkpoint()
            print_property(CHUNK_MAX_DELTA, chunk_max)
            with lock:
                deltas.append(chunk_max)

        return worker

    ranges = partition(num_cells, num_threads)
    for round_index in range(num_rounds):
        print_property(ROUND, round_index)
        deltas.clear()
        fork_and_join([make_worker(lo, hi) for lo, hi in ranges], backend=backend)
        print_property(GLOBAL_MAX_DELTA, sum(deltas))  # should be max
        old, new = new, old

    print_property(FINAL_HEAT, old)


@register_main("jacobi.no_round_barrier")
def main_no_round_barrier(args: List[str]) -> None:
    """Announces every round up front, then runs all work at once.

    The fork-join episodes collapse: round announcements are not
    followed by their own worker segments, which the multi-round
    structure check flags.
    """
    num_cells, num_threads, num_rounds = _parse(args)
    backend = current_backend()

    grid = initial_grid(num_cells)
    deltas: List[float] = []
    lock = backend.lock()

    for round_index in range(num_rounds):
        print_property(ROUND, round_index)

    def make_worker(lo: int, hi: int):
        def worker() -> None:
            chunk_max = 0.0
            for cell in range(lo, hi):
                value = stencil(grid, cell)
                grid[cell] = value
                print_property(CELL, cell)
                print_property(NEW_HEAT, value)
                backend.checkpoint()
            print_property(CHUNK_MAX_DELTA, chunk_max)
            with lock:
                deltas.append(chunk_max)

        return worker

    fork_and_join(
        [make_worker(lo, hi) for lo, hi in partition(num_cells, num_threads)],
        backend=backend,
    )
    for _ in range(num_rounds):
        print_property(GLOBAL_MAX_DELTA, max(deltas) if deltas else 0.0)
    print_property(FINAL_HEAT, grid)
