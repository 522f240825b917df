"""Ablation — smarter schedule search earns its complexity.

Three measurements behind the claims in ``docs/exploring_schedules.md``:

1. **PCT beats random walks on depth-1 bugs.** On ``synclab.straggler``
   (the flag-publication ordering bug: one specific worker must be
   demoted behind every watcher), depth-1 PCT finds the bug in a median
   of ~2 schedules across base seeds; seeded random walks need an order
   of magnitude more and usually exhaust the 30-schedule cap.
2. **Happens-before dedup skips real work without changing verdicts.**
   The exhaustive census of ``synclab.lost_update`` needs only 14
   executions with dedup on versus 26 with it off — same 26-interleaving
   enumeration, same 8 failing.
3. **The exhaustive census is a stable program property.** Two
   independent runs report the identical ``8 of 26`` verdict.

Set ``SCHEDULE_SEARCH_JSON=<path>`` to write the measurements as a JSON
artifact (uploaded by the CI schedule-search job as
``BENCH_schedule_search.json``).
"""

from __future__ import annotations

from statistics import median

from benchmarks.conftest import emit, merge_json_artifact
from repro.execution.exploration import ScheduleExplorer, checker_runs
from repro.execution.scheduling import PCTStrategy, RandomWalkStrategy
from repro.graders.synclab import (
    SyncLabCounterFunctionality,
    SyncLabStragglerFunctionality,
)

#: Schedules-to-first-bug cap; "cap + 1" encodes "not found within cap".
CAP = 30

#: Base seeds spaced out so each campaign draws an unrelated seed range.
BASE_SEEDS = [s * 100 for s in range(5)]


def straggler_factory():
    return lambda: SyncLabStragglerFunctionality(workers=4, rounds=6)


def lost_update_factory():
    return lambda: SyncLabCounterFunctionality(
        "synclab.lost_update", workers=2, rounds=1
    )


def schedules_to_first_bug(factory, make_strategy, base_seed):
    """Controlled runs until the checker fails, or ``CAP + 1``."""
    run_schedule = checker_runs(factory)
    for offset in range(CAP):
        failed, _trace, _result = run_schedule(make_strategy(base_seed + offset))
        if failed:
            return offset + 1
    return CAP + 1


def test_pct_finds_depth1_bug_in_fewer_schedules():
    pct_counts = [
        schedules_to_first_bug(
            straggler_factory(), lambda seed: PCTStrategy(seed, depth=1), base
        )
        for base in BASE_SEEDS
    ]
    walk_counts = [
        schedules_to_first_bug(straggler_factory(), RandomWalkStrategy, base)
        for base in BASE_SEEDS
    ]
    pct_median, walk_median = median(pct_counts), median(walk_counts)

    emit(
        "Ablation: PCT vs random walk, schedules to first bug "
        "(synclab.straggler, 4 workers x 6 rounds)",
        f"base seeds:   {BASE_SEEDS}\n"
        f"pct depth-1:  {pct_counts}  (median {pct_median})\n"
        f"random walk:  {walk_counts}  (median {walk_median})\n"
        f"cap: {CAP} ({CAP + 1} = bug not found within the cap)",
    )
    merge_json_artifact(
        "SCHEDULE_SEARCH_JSON",
        "pct_vs_random_walk",
        {
            "workload": "synclab.straggler",
            "cap": CAP,
            "base_seeds": BASE_SEEDS,
            "pct_depth1_to_first_bug": pct_counts,
            "random_walk_to_first_bug": walk_counts,
            "pct_median": pct_median,
            "random_walk_median": walk_median,
        },
    )

    # The paper-style claim is about the *order*, not the exact counts:
    # PCT's 1/(n * k^(d-1)) guarantee shows up as a decisive median gap.
    assert pct_median < walk_median
    assert pct_median <= 5


def test_dedup_halves_executions_without_changing_the_census():
    def census(dedup):
        return ScheduleExplorer(
            checker_runs(lost_update_factory()),
            strategy="exhaustive",
            depth=2,
            max_schedules=256,
            dedup=dedup,
        ).run()

    on, off = census(True), census(False)

    emit(
        "Ablation: happens-before dedup in the exhaustive census "
        "(synclab.lost_update, 2 workers x 1 round, preemption bound 2)",
        f"dedup on:  {on.executed} executed, {on.deduped} deduped, "
        f"{on.failing_interleavings} of {on.enumerated} fail\n"
        f"dedup off: {off.executed} executed, {off.deduped} deduped, "
        f"{off.failing_interleavings} of {off.enumerated} fail",
    )
    merge_json_artifact(
        "SCHEDULE_SEARCH_JSON",
        "dedup_ablation",
        {
            "workload": "synclab.lost_update",
            "depth": 2,
            "dedup_on": {"executed": on.executed, "deduped": on.deduped},
            "dedup_off": {"executed": off.executed, "deduped": off.deduped},
            "enumerated": on.enumerated,
            "failing": on.failing_interleavings,
        },
    )

    # Identical verdict, strictly less execution, zero mispredictions
    # (the oracle predicted every skipped schedule correctly).
    assert (on.enumerated, on.failing_interleavings, on.complete) == (
        off.enumerated,
        off.failing_interleavings,
        off.complete,
    )
    assert on.executed < off.executed
    assert on.executed + on.deduped == on.enumerated
    assert on.mispredicted == 0


def test_exhaustive_census_is_stable_across_runs():
    def census():
        report = ScheduleExplorer(
            checker_runs(lost_update_factory()),
            strategy="exhaustive",
            depth=2,
            max_schedules=256,
        ).run()
        return (report.failing_interleavings, report.enumerated, report.complete)

    first, second = census(), census()

    emit(
        "Exhaustive census stability (synclab.lost_update, bound 2)",
        f"run 1: {first[0]} of {first[1]} fail (complete={first[2]})\n"
        f"run 2: {second[0]} of {second[1]} fail (complete={second[2]})",
    )
    merge_json_artifact(
        "SCHEDULE_SEARCH_JSON",
        "census_stability",
        {
            "workload": "synclab.lost_update",
            "depth": 2,
            "run1": {"failing": first[0], "enumerated": first[1]},
            "run2": {"failing": second[0], "enumerated": second[1]},
        },
    )

    assert first == second
    assert first[2] is True  # complete within the bound, not budget-capped
