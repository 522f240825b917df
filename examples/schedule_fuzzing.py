"""Catching a race the OS schedule hides (the paper's future-work item).

A racy fork-join program can pass a functionality test: whether the lost
update happens depends on the schedule.  §6 of the paper proposes
"incorporating techniques for influencing thread scheduling to catch
synchronization bugs"; this example demonstrates our implementation:

1. the racy primes submission *passes* under a serialized schedule (the
   race cannot manifest without overlap);
2. schedule fuzzing — seeded random-walk exploration on the controlled
   scheduler — reruns the same checker under many interleavings and
   reports every failing schedule;
3. a failing seed replays deterministically, so the student can study
   the exact interleaving that loses their update.

Run it::

    python examples/schedule_fuzzing.py
"""

from __future__ import annotations

from repro.execution.exploration import ScheduleExplorer, checker_runs
from repro.execution.scheduling import RandomWalkStrategy
from repro.graders import PrimesFunctionality
from repro.simulation.backend import SimulationBackend, use_backend
from repro.simulation.scheduler import SerializedPolicy

RULE = "=" * 70


def single_benign_run() -> None:
    print(RULE)
    print("1. One benign (serialized) schedule: the race stays hidden")
    print(RULE)
    with use_backend(SimulationBackend(policy=SerializedPolicy())):
        result = PrimesFunctionality("primes.racy").run()
    print(result.render())
    race_visible = any(
        o.aspect == "post-join semantics" for o in result.failed_aspects()
    )
    print(f"\nrace visible in this run? {race_visible}")


def fuzz_campaign() -> int:
    print()
    print(RULE)
    print("2. Schedule fuzzing: 25 seeded random-walk interleavings")
    print(RULE)
    report = ScheduleExplorer(
        checker_runs(lambda: PrimesFunctionality("primes.racy")),
        schedules=25,
        strategy="random-walk",
    ).run()
    print(report.summary())
    print()
    for finding in report.findings[:5]:
        result = finding.payload
        print(
            f"  seed {finding.seed:>3}: {result.score:g}/"
            f"{result.max_score:g} - {finding.messages[0]}"
        )
    if len(report.findings) > 5:
        print(f"  ... and {len(report.findings) - 5} more failing schedules")
    assert report.bug_found
    return report.findings[0].seed


def deterministic_replay(seed: int) -> None:
    print()
    print(RULE)
    print(f"3. Replaying failing seed {seed} (deterministic)")
    print(RULE)
    run_schedule = checker_runs(lambda: PrimesFunctionality("primes.racy"))
    for attempt in (1, 2):
        failed, _trace, result = run_schedule(RandomWalkStrategy(seed))
        print(f"attempt {attempt}: score {result.score:g}/{result.max_score:g}"
              f" - {failed[0] if failed else 'no failure'}")


def main() -> None:
    single_benign_run()
    seed = fuzz_campaign()
    deterministic_replay(seed)


if __name__ == "__main__":
    main()
