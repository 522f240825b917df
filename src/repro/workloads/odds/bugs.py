"""Buggy odd-number submissions, one registered main per mistake class."""

from __future__ import annotations

from typing import Callable, List, Tuple

from repro.execution.registry import register_main
from repro.simulation.backend import current_backend
from repro.tracing import print_property
from repro.workloads.common import (
    SharedCounter,
    fork_and_join,
    generate_randoms,
    int_arg,
    is_odd,
    partition,
)
from repro.workloads.odds.spec import (
    DEFAULT_NUM_RANDOMS,
    DEFAULT_NUM_THREADS,
    INDEX,
    IS_ODD,
    NUM_ODDS,
    NUMBER,
    RANDOM_NUMBERS,
    TOTAL_NUM_ODDS,
)


def _run(
    args: List[str],
    *,
    judge: Callable[[int], bool] = is_odd,
    racy: bool = False,
    serialized: bool = False,
    pre_fork_name: str = RANDOM_NUMBERS,
    skip_last: bool = False,
    total_bias: int = 0,
) -> None:
    num_randoms = int_arg(args, 0, DEFAULT_NUM_RANDOMS)
    num_threads = int_arg(args, 1, DEFAULT_NUM_THREADS)
    backend = current_backend()

    randoms = generate_randoms(num_randoms)
    print_property(pre_fork_name, randoms)
    total = SharedCounter()

    def make_worker(lo: int, hi: int):
        def worker() -> None:
            count = 0
            stop = hi - 1 if skip_last else hi
            for index in range(lo, stop):
                number = randoms[index]
                print_property(INDEX, index)
                print_property(NUMBER, number)
                odd = judge(number)
                print_property(IS_ODD, odd)
                if odd:
                    count += 1
                backend.checkpoint()
            print_property(NUM_ODDS, count)
            if racy:
                total.add_racy(count)
            else:
                total.add(count)

        return worker

    ranges: List[Tuple[int, int]] = partition(num_randoms, num_threads)
    bodies = [make_worker(lo, hi) for lo, hi in ranges]
    if serialized:
        for body in bodies:
            thread = backend.spawn(body)
            backend.start_all([thread])
            backend.join_all([thread])
    else:
        fork_and_join(bodies, backend=backend)

    print_property(TOTAL_NUM_ODDS, total.value + total_bias)


@register_main("odds.serialized")
def main_serialized(args: List[str]) -> None:
    """Threads run one after another (concurrency-semantics error)."""
    _run(args, serialized=True)


@register_main("odds.racy")
def main_racy(args: List[str]) -> None:
    """Unsynchronized total (exploration target)."""
    _run(args, racy=True)


@register_main("odds.wrong_semantics")
def main_wrong_semantics(args: List[str]) -> None:
    """Inverted predicate: even numbers reported as odd."""
    _run(args, judge=lambda n: n % 2 == 0)


@register_main("odds.wrong_total")
def main_wrong_total(args: List[str]) -> None:
    """Off-by-one combined total (post-join semantics error)."""
    _run(args, total_bias=1)


@register_main("odds.syntax_error")
def main_syntax_error(args: List[str]) -> None:
    """Misnamed pre-fork property plus an off-by-one loop bound."""
    _run(args, pre_fork_name="Randoms", skip_last=True)


@register_main("odds.no_fork")
def main_no_fork(args: List[str]) -> None:
    """The root does all the work itself."""
    num_randoms = int_arg(args, 0, DEFAULT_NUM_RANDOMS)
    randoms = generate_randoms(num_randoms)
    print_property(RANDOM_NUMBERS, randoms)
    total = 0
    for index, number in enumerate(randoms):
        print_property(INDEX, index)
        print_property(NUMBER, number)
        odd = is_odd(number)
        print_property(IS_ODD, odd)
        if odd:
            total += 1
    print_property(NUM_ODDS, total)
    print_property(TOTAL_NUM_ODDS, total)
