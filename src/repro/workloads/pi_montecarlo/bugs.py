"""Buggy Monte-Carlo PI submissions, one per observed mistake class.

Each registered main reproduces one of the failure shapes the paper's
infrastructure is designed to pinpoint; see the identifier table in the
package docstring.
"""

from __future__ import annotations

import random
from typing import Callable, List, Tuple

from repro.execution.registry import register_main
from repro.simulation.backend import current_backend
from repro.tracing import print_property
from repro.workloads.common import SharedCounter, fork_and_join, int_arg, partition, workload_seed
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

Judge = Callable[[float, float], bool]


def _standard_judge(x: float, y: float) -> bool:
    return x * x + y * y <= 1.0


def _run(
    args: List[str],
    *,
    judge: Judge = _standard_judge,
    racy: bool = False,
    serialized: bool = False,
    pre_fork_name: str = NUM_POINTS,
    final_scale: float = 4.0,
) -> None:
    """Shared skeleton; the flags select which mistake to make."""
    num_points = int_arg(args, 0, DEFAULT_NUM_POINTS)
    num_threads = int_arg(args, 1, DEFAULT_NUM_THREADS)
    backend = current_backend()

    print_property(pre_fork_name, num_points)
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
                in_circle = judge(x, y)
                print_property(IN_CIRCLE, in_circle)
                if in_circle:
                    count += 1
                backend.checkpoint()
            print_property(NUM_IN_CIRCLE, count)
            if racy:
                hits.add_racy(count)
            else:
                hits.add(count)

        return worker

    base_seed = workload_seed()
    ranges: List[Tuple[int, int]] = partition(num_points, num_threads)
    bodies = [
        make_worker(lo, hi, base_seed + part) for part, (lo, hi) in enumerate(ranges)
    ]
    if serialized:
        for body in bodies:
            thread = backend.spawn(body)
            backend.start_all([thread])
            backend.join_all([thread])
    else:
        fork_and_join(bodies, backend=backend)

    total = hits.value
    print_property(TOTAL_IN_CIRCLE, total)
    print_property(PI_ESTIMATE, final_scale * total / num_points if num_points else 0.0)


@register_main("pi.serialized")
def main_serialized(args: List[str]) -> None:
    """Threads run one after another: the Fig.-10 concurrency mistake."""
    _run(args, serialized=True)


@register_main("pi.racy")
def main_racy(args: List[str]) -> None:
    """Unsynchronized hit total: schedule exploration's PI target."""
    _run(args, racy=True)


@register_main("pi.wrong_semantics")
def main_wrong_semantics(args: List[str]) -> None:
    """Wrong in-circle test (taxicab norm): serial-intermediate error."""
    _run(args, judge=lambda x, y: x + y <= 1.0)


@register_main("pi.wrong_final")
def main_wrong_final(args: List[str]) -> None:
    """Forgets the factor 4: final (post-join) serial error."""
    _run(args, final_scale=1.0)


@register_main("pi.syntax_error")
def main_syntax_error(args: List[str]) -> None:
    """Misnames the pre-fork property: static syntax error."""
    _run(args, pre_fork_name="Points")


@register_main("pi.no_fork")
def main_no_fork(args: List[str]) -> None:
    """The root throws every dart itself: zero forked threads."""
    num_points = int_arg(args, 0, DEFAULT_NUM_POINTS)
    print_property(NUM_POINTS, num_points)
    rng = random.Random(workload_seed())
    total = 0
    for index in range(num_points):
        x = rng.random()
        y = rng.random()
        print_property(INDEX, index)
        print_property(X, x)
        print_property(Y, y)
        in_circle = _standard_judge(x, y)
        print_property(IN_CIRCLE, in_circle)
        if in_circle:
            total += 1
    print_property(NUM_IN_CIRCLE, total)
    print_property(TOTAL_IN_CIRCLE, total)
    print_property(PI_ESTIMATE, 4.0 * total / num_points if num_points else 0.0)
