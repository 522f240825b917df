"""Property-based tests of the deterministic concurrency substrate."""

from __future__ import annotations

import threading
from typing import List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.backend import SimulationBackend
from repro.simulation.clock import VirtualClock
from repro.simulation.scheduler import RoundRobinPolicy, SerializedPolicy
from tests.helpers import SeededPolicy

#: Keep the thread churn manageable: hypothesis runs each property many
#: times and every example spawns real threads.
_SETTINGS = settings(max_examples=20, deadline=None)


def run_gated(policy, iteration_counts: List[int]) -> List[Tuple[int, int]]:
    """Run one gated worker per count; return the (worker, step) log."""
    backend = SimulationBackend(policy=policy)
    log: List[Tuple[int, int]] = []
    lock = threading.Lock()

    def make_worker(key: int, steps: int):
        def body() -> None:
            for step in range(steps):
                with lock:
                    log.append((key, step))
                backend.checkpoint()

        return body

    threads = [
        backend.spawn(make_worker(key, steps))
        for key, steps in enumerate(iteration_counts)
    ]
    backend.start_all(threads)
    backend.join_all(threads)
    return log


iteration_lists = st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=5)


@_SETTINGS
@given(iteration_lists, st.integers(min_value=0, max_value=100))
def test_every_step_completes_under_any_random_schedule(counts, seed):
    log = run_gated(SeededPolicy(seed), counts)
    expected = {(k, s) for k, steps in enumerate(counts) for s in range(steps)}
    assert set(log) == expected
    assert len(log) == len(expected)


@_SETTINGS
@given(iteration_lists, st.integers(min_value=0, max_value=100))
def test_per_worker_order_is_program_order(counts, seed):
    log = run_gated(SeededPolicy(seed), counts)
    for key in range(len(counts)):
        steps = [s for k, s in log if k == key]
        assert steps == sorted(steps)


@_SETTINGS
@given(iteration_lists)
def test_serialized_policy_never_interleaves(counts):
    log = run_gated(SerializedPolicy(), counts)
    finished = set()
    current = None
    for key, _step in log:
        if key != current:
            if current is not None:
                finished.add(current)
            assert key not in finished, "a finished worker re-appeared"
            current = key


@_SETTINGS
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=1, max_value=4))
def test_round_robin_is_lockstep_for_equal_loads(workers, steps):
    log = run_gated(RoundRobinPolicy(), [steps] * workers)
    observed_steps = [s for _k, s in log]
    assert observed_steps == sorted(observed_steps)
    # Within each step, every worker appears exactly once.
    for step in range(steps):
        keys = [k for k, s in log if s == step]
        assert sorted(keys) == list(range(workers))


@_SETTINGS
@given(
    st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=6),
    st.floats(min_value=0.0, max_value=5.0),
)
def test_makespan_bounds(worker_costs, root_cost):
    clock = VirtualClock()
    clock.set_root()
    clock.charge(root_cost)
    # Hold strong references: the clock keys threads by identity, so
    # letting a Thread be collected mid-accounting would conflate ids
    # (in real use the runner's join list keeps workers alive).
    workers = [threading.Thread() for _ in worker_costs]
    for worker, cost in zip(workers, worker_costs):
        clock.charge(cost, thread=worker)
    makespan = clock.makespan()
    assert makespan == pytest.approx(root_cost + max(worker_costs))
    assert makespan <= clock.serial_total() + 1e-9


@_SETTINGS
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=5))
def test_balanced_unit_work_gives_linear_virtual_speedup(threads, per_thread):
    def makespan_for(n_threads: int) -> float:
        backend = SimulationBackend()

        def make_worker():
            def body() -> None:
                for _ in range(per_thread * threads // n_threads):
                    backend.checkpoint(cost=1.0)

            return body

        spawned = [backend.spawn(make_worker()) for _ in range(n_threads)]
        backend.start_all(spawned)
        backend.join_all(spawned)
        return backend.makespan()

    serial = makespan_for(1)
    parallel = makespan_for(threads)
    assert serial / parallel == pytest.approx(threads)
