"""Reference Jacobi solution: double-buffered multi-round fork-join."""

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


@register_main("jacobi.correct")
def main(args: List[str]) -> None:
    num_cells = int_arg(args, 0, DEFAULT_NUM_CELLS)
    num_threads = int_arg(args, 1, DEFAULT_NUM_THREADS)
    num_rounds = int_arg(args, 2, DEFAULT_NUM_ROUNDS)
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
        print_property(GLOBAL_MAX_DELTA, max(deltas) if deltas else 0.0)
        old, new = new, old  # double buffering: swap for the next round

    print_property(FINAL_HEAT, old)
