"""X1 — §6 future work: influencing thread scheduling to catch races.

The paper's conclusions call for "techniques for influencing thread
scheduling to catch synchronization bugs".  This bench exercises our
implementation of that item as schedule fuzzing: the schedule explorer
reruns a functionality checker under seeded random-walk interleavings on
the controlled scheduler.  Claims asserted:

* a racy submission that passes under a benign (serialized) schedule is
  caught by some seeded random walk, with the lost update named;
* the correct submission survives every explored schedule;
* findings carry the seed, so a failing schedule is replayable.

A controlled run fails only on aspects the program decides, never on
thread interleaving (which the scheduler decides), so the failing rates
are those of the lost update itself.
"""

from __future__ import annotations

from benchmarks.conftest import emit
from repro.execution.exploration import ScheduleExplorer, checker_runs
from repro.execution.scheduling import RandomWalkStrategy
from repro.graders import OddsFunctionality, PiFunctionality, PrimesFunctionality

SCHEDULES = 12


def fuzz(factory):
    return ScheduleExplorer(
        checker_runs(factory), schedules=SCHEDULES, strategy="random-walk"
    ).run()


def test_x1_racy_primes_caught(benchmark):
    report = benchmark.pedantic(
        lambda: fuzz(lambda: PrimesFunctionality("primes.racy")),
        rounds=1,
        iterations=1,
    )
    emit("X1 — fuzzing the racy primes submission", report.summary())
    assert report.bug_found
    assert all(f.seed >= 0 for f in report.findings)
    assert any(
        "sum of primes found by each thread" in m
        for f in report.findings
        for m in f.messages
    )


def test_x1_racy_finding_replays_deterministically(benchmark):
    """A finding's seed reproduces the same failing verdict."""
    report = fuzz(lambda: PrimesFunctionality("primes.racy"))
    seed = report.findings[0].seed
    run_schedule = checker_runs(lambda: PrimesFunctionality("primes.racy"))

    def replay():
        return run_schedule(RandomWalkStrategy(seed))

    failed, _trace, first = benchmark.pedantic(replay, rounds=1, iterations=1)
    second_failed, _trace, second = replay()
    emit(
        "X1 — deterministic replay of failing seed",
        f"seed {seed}: score {first.score:g} twice in a row",
    )
    assert failed and second_failed
    assert first.score == second.score
    assert first.score < first.max_score


def test_x1_correct_submissions_survive(benchmark):
    def fuzz_all_correct():
        return {
            "primes": fuzz(lambda: PrimesFunctionality("primes.correct")),
            "pi": fuzz(lambda: PiFunctionality("pi.correct")),
            "odds": fuzz(lambda: OddsFunctionality("odds.correct")),
        }

    reports = benchmark.pedantic(fuzz_all_correct, rounds=1, iterations=1)
    body = "\n".join(
        f"  {name}: {len(r.findings)}/{r.executed} executed schedules failed"
        for name, r in reports.items()
    )
    emit("X1 — correct submissions under fuzzing", body)
    for name, report in reports.items():
        assert not report.bug_found, name


def test_x1_racy_pi_and_odds_also_caught(benchmark):
    def fuzz_both():
        return (
            fuzz(lambda: PiFunctionality("pi.racy")),
            fuzz(lambda: OddsFunctionality("odds.racy")),
        )

    pi_report, odds_report = benchmark.pedantic(fuzz_both, rounds=1, iterations=1)
    emit(
        "X1 — fuzzing racy PI and odds submissions",
        f"pi: {len(pi_report.findings)}/{pi_report.executed} failing, "
        f"odds: {len(odds_report.findings)}/{odds_report.executed} failing",
    )
    assert pi_report.bug_found
    assert odds_report.bug_found
