"""Command-line instructor agent (the paper's plugin-independent UI).

The paper's interactive testing UI "is independent of the programming
environment and can be created from the command line" (§4.1).  This CLI
is that entry point::

    forkjoin-test list
    forkjoin-test ui primes --submission primes.serialized
    forkjoin-test run primes --submission primes.correct --trace
    forkjoin-test run primes --submission path/to/student.py --subprocess
    forkjoin-test grade primes --submissions primes.correct,primes.racy \
        --out book.json --markdown report.md
    forkjoin-test grade primes --submissions primes.correct,primes.racy \
        --jobs 4 --retries 2 --deadline 60 --resume grading.jsonl
    forkjoin-test grade primes --submissions primes.correct,primes.racy \
        --jobs 4 --explore 5 --obs-out obs.jsonl --html class.html
    forkjoin-test grade primes --submissions primes.correct,primes.racy \
        --shards 4 --resume grading.workdir
    forkjoin-test grade primes --submissions primes.correct,primes.racy \
        --jobs 4 --pool-size 4
    forkjoin-test export primes --submission primes.serialized \
        --out results.json          # Gradescope results.json
    forkjoin-test explore primes.racy --schedules 20 --seed 0 \
        --record failing.schedule.json
    forkjoin-test explore primes.racy --strategy pct --depth 3
    forkjoin-test explore synclab.lost_update --problem synclab \
        --strategy exhaustive --depth 2
    forkjoin-test explore primes.racy --replay failing.schedule.json
    forkjoin-test grade primes --submissions primes.correct,primes.racy \
        --shards 4 --obs-out obs.jsonl --metrics-out metrics.prom
    forkjoin-test watch grading.workdir
    forkjoin-test timeline obs.jsonl --submission alice
    forkjoin-test timeline obs.jsonl --json
    forkjoin-test stats obs.jsonl
    forkjoin-test stats obs.jsonl --prom
    forkjoin-test awareness progress.jsonl --suite primes

``ui`` opens the interactive suite runner (Fig. 5); ``run`` executes a
suite once and prints the scored report; ``grade`` sweeps submissions
into a gradebook (``--explore`` switches racy-failure retries to
deterministic schedule exploration, ``--obs-out`` dumps the run's
observability spans and metrics); ``export`` writes a Gradescope
document; ``explore`` hunts schedule-dependent bugs with the controlled
scheduler — deterministic, recordable, and exactly replayable, with
``--strategy`` selecting random walks, the preemption sweep, PCT, or
exhaustive small-state enumeration (see docs/exploring_schedules.md);
``timeline`` and
``stats`` render an observability dump as per-submission span trees and
aggregate histograms (``--json`` for machine-readable output, ``stats
--prom`` for Prometheus text exposition); ``watch`` tails a batch's
``--progress-stream`` file into a live fleet view; ``awareness``
analyses a progress log.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

__all__ = ["main", "build_parser"]

SUITES = ("primes", "pi", "odds", "hello", "jacobi", "synclab")

#: Problems whose functionality checker the explore command can rebuild
#: standalone (the checker-factory catalogue below).
EXPLORABLE_PROBLEMS = ("primes", "pi", "odds", "jacobi", "synclab")


def build_parser() -> argparse.ArgumentParser:
    """Construct the forkjoin-test argument parser."""
    parser = argparse.ArgumentParser(
        prog="forkjoin-test",
        description=(
            "Fork-join testing infrastructure "
            "(Dewan, SC/EduHPC 2023 reproduction)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list the registered problem suites")

    def add_submission_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--submission",
            default=None,
            help=(
                "tested-program identifier: a registered name, a dotted "
                "module path, or a .py file path"
            ),
        )
        sub.add_argument(
            "--subprocess",
            action="store_true",
            help="run the tested program in its own interpreter",
        )

    ui = commands.add_parser("ui", help="interactive suite UI (Fig. 5)")
    ui.add_argument("suite", choices=SUITES)
    add_submission_options(ui)

    run = commands.add_parser("run", help="run a suite once and print the report")
    run.add_argument("suite", choices=SUITES)
    add_submission_options(run)
    run.add_argument(
        "--trace",
        action="store_true",
        help="also print the annotated trace of functionality tests",
    )

    grade = commands.add_parser("grade", help="batch-grade submissions")
    grade.add_argument("suite", choices=SUITES)
    grade.add_argument(
        "--submissions",
        required=True,
        help="comma-separated tested-program identifiers",
    )
    grade.add_argument("--out", default=None, help="write gradebook JSON here")
    grade.add_argument(
        "--markdown", default=None, help="write a markdown class report here"
    )
    grade.add_argument(
        "--subprocess",
        action="store_true",
        help="run each tested program in its own interpreter (isolation)",
    )
    grade.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="grade up to N submissions concurrently (default 1)",
    )
    grade.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="K",
        help=(
            "rerun a failed submission up to K extra times with jittered "
            "backoff; pass-after-fail is recorded as flaky-pass"
        ),
    )
    grade.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-submission wall-clock limit; hung subprocess children are "
            "hard-killed and wedged workers abandoned"
        ),
    )
    grade.add_argument(
        "--resume",
        default=None,
        metavar="JOURNAL",
        help=(
            "checkpoint journal (JSONL): submissions already journaled are "
            "not regraded, newly finished ones are appended — an "
            "interrupted batch picks up where it left off"
        ),
    )
    grade.add_argument(
        "--explore",
        type=int,
        default=0,
        metavar="N",
        help=(
            "after a retryable failure, re-grade under N controlled "
            "schedules instead of blind reruns; the first failing "
            "schedule's seed is recorded in the gradebook for replay"
        ),
    )
    grade.add_argument(
        "--explore-seed",
        type=int,
        default=0,
        metavar="S",
        help="first seed of the exploration range (default 0)",
    )
    grade.add_argument(
        "--explore-strategy",
        default="random-walk",
        choices=["random-walk", "pct", "exhaustive"],
        help=(
            "schedule family for --explore: seeded random walks, PCT "
            "priority schedules (better odds on low-depth ordering "
            "bugs), or exhaustive small-state enumeration whose verdict "
            "reports 'N of M distinct interleavings fail'"
        ),
    )
    grade.add_argument(
        "--explore-depth",
        type=int,
        default=3,
        metavar="D",
        help=(
            "PCT depth / exhaustive preemption bound for "
            "--explore-strategy (default 3)"
        ),
    )
    grade.add_argument(
        "--race-detect",
        action="store_true",
        help=(
            "run lockset/happens-before race analysis over every "
            "explored controlled schedule and record a three-way "
            "concurrency verdict (correct / racy-lucky / wrong); with "
            "--explore N, passing submissions are swept too, so a racy "
            "program that got lucky is still flagged"
        ),
    )
    grade.add_argument(
        "--race-credit",
        action="store_true",
        help=(
            "race-aware partial credit (implies --race-detect): a "
            "racy-lucky full score is capped, and a race-only bug is "
            "floored at a fraction of its passing attempt's score"
        ),
    )
    grade.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help=(
            "grade through the sharded service: split the batch across N "
            "independent worker processes with heartbeat supervision; a "
            "dead or wedged shard is killed and respawned, regrading only "
            "work not yet durable in its journal (with --shards, --resume "
            "names the service work directory)"
        ),
    )
    grade.add_argument(
        "--heartbeat-timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help=(
            "sharded mode: silence after which a shard worker is declared "
            "wedged and respawned (default 10; must exceed the slowest "
            "single submission)"
        ),
    )
    grade.add_argument(
        "--quarantine-after",
        type=int,
        default=2,
        metavar="K",
        help=(
            "sharded mode: shard-worker deaths attributed to the same "
            "submission before it is quarantined with a durable crash "
            "record (default 2)"
        ),
    )
    grade.add_argument(
        "--pool-size",
        type=int,
        default=0,
        metavar="N",
        help=(
            "keep N pre-forked warm interpreters and dispatch subprocess "
            "runs to them instead of cold-starting a child per run "
            "(implies --subprocess; 0 disables pooling)"
        ),
    )
    grade.add_argument(
        "--no-dedup",
        action="store_true",
        help=(
            "grade byte-identical submissions separately instead of "
            "grading one representative and fanning the shared result "
            "out to its duplicates"
        ),
    )
    grade.add_argument(
        "--obs-out",
        default=None,
        metavar="FILE",
        help=(
            "dump the batch's observability spans and metrics to FILE "
            "(JSONL); inspect with the timeline and stats commands"
        ),
    )
    grade.add_argument(
        "--html",
        default=None,
        metavar="FILE",
        help=(
            "write a self-contained HTML class report; rows link to "
            "per-submission timing breakdowns when observability is on"
        ),
    )
    grade.add_argument(
        "--progress-stream",
        default=None,
        metavar="FILE",
        help=(
            "append one JSON event line per batch/shard/submission "
            "milestone to FILE as it happens; tail it live with the "
            "watch command (sharded mode streams to "
            "WORKDIR/progress.jsonl by default)"
        ),
    )
    grade.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help=(
            "write the batch's metrics in Prometheus text exposition "
            "format (counters/gauges/histograms, labelled by process "
            "role in sharded mode)"
        ),
    )

    export = commands.add_parser(
        "export", help="grade one submission and write Gradescope results.json"
    )
    export.add_argument("suite", choices=SUITES)
    add_submission_options(export)
    export.add_argument("--out", required=True, help="results.json path")

    report = commands.add_parser(
        "report", help="grade one submission and write a self-contained HTML report"
    )
    report.add_argument("suite", choices=SUITES)
    add_submission_options(report)
    report.add_argument("--out", required=True, help="report.html path")
    report.add_argument(
        "--student", default="", help="student name shown in the report title"
    )

    explore = commands.add_parser(
        "explore",
        help=(
            "deterministically explore controlled schedules for a racy "
            "submission (exit 1 when a failing schedule is found)"
        ),
    )
    explore.add_argument("submission", help="tested-program identifier")
    explore.add_argument(
        "--problem",
        default="primes",
        choices=list(EXPLORABLE_PROBLEMS),
        help="which problem's functionality checker to run under exploration",
    )
    explore.add_argument(
        "--schedules",
        type=int,
        default=20,
        metavar="N",
        help="how many controlled schedules to try (default 20)",
    )
    explore.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="S",
        help="first random-walk seed (default 0)",
    )
    explore.add_argument(
        "--strategy",
        default="random-walk",
        choices=["random-walk", "preemption-sweep", "pct", "exhaustive"],
        help=(
            "schedule family: seeded random walks; the deterministic "
            "bounded (quantum, rotation) preemption sweep; PCT "
            "randomized-priority schedules with depth-bounded change "
            "points; or exhaustive enumeration of every distinct "
            "interleaving within the --depth preemption bound"
        ),
    )
    explore.add_argument(
        "--depth",
        type=int,
        default=3,
        metavar="D",
        help=(
            "pct: number of priority-change points + 1 (the PCT depth "
            "d); exhaustive: the preemption bound (default 3)"
        ),
    )
    explore.add_argument(
        "--max-schedules",
        type=int,
        default=256,
        metavar="N",
        help=(
            "exhaustive: execution budget — enumeration past this many "
            "executed runs is reported as budget-capped rather than "
            "complete (default 256)"
        ),
    )
    explore.add_argument(
        "--no-dedup",
        action="store_true",
        help=(
            "execute every candidate schedule even when its "
            "happens-before key matches an already-graded one "
            "(disables the schedule-equivalence oracle)"
        ),
    )
    explore.add_argument(
        "--races",
        action="store_true",
        help=(
            "run lockset/happens-before race analysis over every "
            "executed schedule; the summary reports the racing pairs "
            "(and 'racy-lucky' when every schedule passed regardless)"
        ),
    )
    explore.add_argument(
        "--race-report",
        default=None,
        metavar="FILE",
        help=(
            "with --races: write the merged RaceReport as JSON to FILE "
            "(the artifact CI uploads for race-calibration runs)"
        ),
    )
    explore.add_argument(
        "--replay",
        default=None,
        metavar="FILE",
        help=(
            "replay a recorded schedule file decision-for-decision instead "
            "of exploring; exits 1 when the failure reproduces"
        ),
    )
    explore.add_argument(
        "--record",
        default=None,
        metavar="FILE",
        help="write the first failing schedule to FILE for later --replay",
    )

    timeline = commands.add_parser(
        "timeline",
        help=(
            "render an observability dump (grade --obs-out) as indented "
            "per-submission span trees with durations"
        ),
    )
    timeline.add_argument("obs", help="observability dump path (JSONL)")
    timeline.add_argument(
        "--submission",
        default=None,
        metavar="NAME",
        help="show only the named student/submission",
    )
    timeline.add_argument(
        "--json",
        action="store_true",
        help="emit the span tree as JSON instead of the indented text view",
    )

    stats = commands.add_parser(
        "stats",
        help=(
            "aggregate an observability dump: histogram p50/p95 run "
            "times, retry/kill counts, schedules explored"
        ),
    )
    stats.add_argument("obs", help="observability dump path (JSONL)")
    stats_format = stats.add_mutually_exclusive_group()
    stats_format.add_argument(
        "--json",
        action="store_true",
        help="emit the aggregates as JSON instead of the text view",
    )
    stats_format.add_argument(
        "--prom",
        action="store_true",
        help="emit the metrics in Prometheus text exposition format",
    )

    watch = commands.add_parser(
        "watch",
        help=(
            "tail a grade batch's progress stream (grade "
            "--progress-stream) as a refreshing live fleet view with "
            "per-shard rates and straggler flags"
        ),
    )
    watch.add_argument(
        "workdir",
        help=(
            "sharded service work directory (its progress.jsonl is "
            "tailed) or a progress stream file path"
        ),
    )
    watch.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="refresh period (default 1.0)",
    )
    watch.add_argument(
        "--once",
        action="store_true",
        help="render the current fleet state once and exit",
    )

    awareness = commands.add_parser(
        "awareness", help="analyse a progress log (JSONL) for the instructor"
    )
    awareness.add_argument("log", help="progress log path (JSONL)")
    awareness.add_argument("--suite", default="", help="restrict to one suite")

    return parser


def _apply_subprocess(suite, enabled: bool):
    """Rebind every checker in *suite* to the subprocess runner."""
    if not enabled:
        return suite
    from repro.execution.subprocess_runner import SubprocessRunner

    for test in suite.tests:
        if hasattr(test, "make_runner"):
            test.make_runner = lambda: SubprocessRunner()  # type: ignore[method-assign]
    return suite


def _suite_for(name: str, submission: Optional[str], *, subprocess_mode: bool = False):
    from repro.graders import build_named_suite

    try:
        return build_named_suite(name, submission, subprocess_mode=subprocess_mode)
    except KeyError as exc:
        # str() of a KeyError reprs its argument; unwrap the message.
        raise SystemExit(exc.args[0]) from None


def _write_grade_artifacts(
    args: argparse.Namespace, gradebook, *, obs_dump=None
) -> None:
    """Write the gradebook/report/obs outputs the grade flags asked for.

    *obs_dump* is the merged service-wide dump of a sharded batch; when
    given, it (not the coordinator's registry) feeds the timing
    breakdowns, the ``--obs-out`` file, and the ``--metrics-out``
    export, so shard-worker and pool-child telemetry is included.
    """
    from repro.obs import (
        dump_jsonl,
        get_registry,
        render_prom,
        save_dump,
        submission_timings,
    )

    registry = get_registry()
    source = obs_dump if obs_dump is not None else registry
    timings = submission_timings(source) if registry.enabled else {}
    if args.out:
        gradebook.save(args.out)
        print(f"gradebook written to {args.out}")
    if args.markdown:
        from pathlib import Path

        from repro.grading import gradebook_markdown

        Path(args.markdown).write_text(
            gradebook_markdown(gradebook, timings=timings or None)
        )
        print(f"markdown report written to {args.markdown}")
    if args.html:
        from repro.grading import write_gradebook_html

        path = write_gradebook_html(gradebook, args.html, timelines=timings or None)
        print(f"HTML class report written to {path}")
    if args.obs_out:
        if obs_dump is not None:
            path = save_dump(obs_dump, args.obs_out)
        else:
            path = dump_jsonl(registry, args.obs_out)
        print(
            f"observability dump written to {path} "
            f"(inspect with: forkjoin-test timeline/stats {path})"
        )
    if args.metrics_out:
        from pathlib import Path

        target = Path(args.metrics_out)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(render_prom(source))
        print(f"Prometheus metrics written to {target}")


def _grade_sharded(args: argparse.Namespace, identifiers: List[str]) -> int:
    """`grade --shards N`: run the batch through the sharded service."""
    import tempfile
    from pathlib import Path

    from repro.grading import GradingService
    from repro.obs import ProgressStream, get_registry

    if args.resume:
        workdir = Path(args.resume)
    else:
        workdir = Path(tempfile.mkdtemp(prefix="forkjoin-grade-"))
        print(
            f"sharded work directory: {workdir} "
            f"(pass --resume {workdir} to resume an interrupted batch)"
        )
    # Sharded batches always stream progress: the workdir is the natural
    # rendezvous, and `forkjoin-test watch WORKDIR` tails it live.
    stream_path = Path(args.progress_stream or workdir / "progress.jsonl")
    with ProgressStream(stream_path) as progress:
        service = GradingService(
            args.suite,
            workdir=workdir,
            shards=args.shards,
            subprocess_mode=args.subprocess or args.pool_size > 0,
            jobs_per_shard=args.jobs,
            retries=args.retries,
            deadline=args.deadline,
            explore_schedules=args.explore,
            explore_seed=args.explore_seed,
            explore_strategy=args.explore_strategy,
            explore_depth=args.explore_depth,
            heartbeat_timeout=args.heartbeat_timeout,
            quarantine_after=args.quarantine_after,
            pool_size=args.pool_size,
            dedup=not args.no_dedup,
            race_detect=args.race_detect,
            race_credit=args.race_credit,
            progress_stream=progress,
        )
        report = service.grade(
            {identifier: identifier for identifier in identifiers}
        )
    print(report.gradebook.render())
    print(report.summary())
    obs_dump = service.merged_dump() if get_registry().enabled else None
    _write_grade_artifacts(args, report.gradebook, obs_dump=obs_dump)
    if report.drained:
        print(
            f"\ninterrupted; durable grades are journaled under {workdir} — "
            f"rerun with --resume {workdir} to finish the batch"
        )
        return 130
    return 0


def _watch(args: argparse.Namespace) -> int:
    """`watch`: tail a progress stream into a refreshing fleet view."""
    import time
    from pathlib import Path

    from repro.obs import FleetState, read_events, render_fleet

    target = Path(args.workdir)
    path = target / "progress.jsonl" if target.is_dir() else target
    state = FleetState()
    offset = 0
    try:
        while True:
            events, offset = read_events(path, offset)
            for event in events:
                state.apply(event)
            now = time.time()
            if args.once:
                print(render_fleet(state, now))
                return 0
            # Full-screen refresh: clear, home, render the fleet.
            sys.stdout.write("\x1b[2J\x1b[H")
            sys.stdout.write(f"watching {path} — ctrl-c to stop\n\n")
            sys.stdout.write(render_fleet(state, now) + "\n")
            sys.stdout.flush()
            if state.ended:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        print()
        return 130


def _checker_factory(problem: str, submission: str):
    from repro.graders import (
        JacobiFunctionality,
        OddsFunctionality,
        PiFunctionality,
        PrimesFunctionality,
        SyncLabCounterFunctionality,
        SyncLabStragglerFunctionality,
    )

    def synclab():
        if "straggler" in submission:
            return SyncLabStragglerFunctionality(submission)
        return SyncLabCounterFunctionality(submission)

    factories = {
        "primes": lambda: PrimesFunctionality(submission),
        "pi": lambda: PiFunctionality(submission),
        "odds": lambda: OddsFunctionality(submission),
        "jacobi": lambda: JacobiFunctionality(submission),
        "synclab": synclab,
    }
    return factories[problem]


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    try:
        return _dispatch(build_parser().parse_args(argv))
    except BrokenPipeError:
        # stdout went away mid-print (e.g. `timeline ... | head`); exit
        # quietly through a throwaway fd so the interpreter's shutdown
        # flush cannot raise again.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _dispatch(args: argparse.Namespace) -> int:
    """Execute the parsed subcommand."""

    if args.command == "list":
        print("available suites: " + ", ".join(SUITES))
        return 0

    if args.command == "ui":
        from repro.testfw.ui import SuiteUI

        suite = _suite_for(args.suite, args.submission, subprocess_mode=args.subprocess)
        SuiteUI(suite).loop()
        return 0

    if args.command == "run":
        suite = _suite_for(args.suite, args.submission, subprocess_mode=args.subprocess)
        result = suite.run()
        print(result.render())
        if args.trace:
            for test in suite.tests:
                report = getattr(test, "last_report", None)
                if report is not None and report.trace is not None:
                    print()
                    print(report.annotated_trace())
        return 0 if result.score >= result.max_score else 1

    if args.command == "grade":
        from contextlib import ExitStack

        from repro.core.report import trace_reports
        from repro.execution.supervisor import GradingSupervisor
        from repro.grading.journal import GradingJournal

        identifiers = [s.strip() for s in args.submissions.split(",") if s.strip()]
        if args.shards > 0:
            return _grade_sharded(args, identifiers)
        journal = GradingJournal(args.resume) if args.resume else None
        with ExitStack() as stack:
            if not (args.markdown or args.html):
                # Report-less batch: skip trace/execution retention — the
                # per-submission event logs would never be read.
                stack.enter_context(trace_reports(False))
            pool = None
            if args.pool_size > 0:
                from repro.execution.worker_pool import WorkerPool

                pool = stack.enter_context(WorkerPool(args.pool_size))
            progress = None
            on_outcome = None
            if args.progress_stream:
                from repro.obs import ProgressStream, new_run_id

                progress = stack.enter_context(
                    ProgressStream(args.progress_stream)
                )
                progress.emit(
                    "batch-start",
                    suite=args.suite,
                    shards=0,
                    submissions=len(identifiers),
                    run_id=new_run_id(),
                )
                total = len(identifiers)
                counted = {"graded": 0}

                def on_outcome(outcome, _progress=progress):
                    counted["graded"] += 1
                    _progress.emit(
                        "graded",
                        student=outcome.student,
                        failure_kind=outcome.record.failure_kind,
                        score=outcome.record.score,
                        max_score=outcome.record.max_score,
                        graded=counted["graded"],
                    )
                    _progress.emit(
                        "queue-depth",
                        graded=counted["graded"],
                        remaining=max(0, total - counted["graded"]),
                        total=total,
                    )

            supervisor = GradingSupervisor(
                lambda ident: _suite_for(
                    args.suite,
                    ident,
                    subprocess_mode=args.subprocess or pool is not None,
                ),
                jobs=args.jobs,
                retries=args.retries,
                deadline=args.deadline,
                journal=journal,
                explore_schedules=args.explore,
                explore_seed=args.explore_seed,
                explore_strategy=args.explore_strategy,
                explore_depth=args.explore_depth,
                pool=pool,
                dedup=not args.no_dedup,
                race_detect=args.race_detect,
                race_credit=args.race_credit,
                on_outcome=on_outcome,
            )
            try:
                report = supervisor.grade(
                    {identifier: identifier for identifier in identifiers}
                )
            except KeyboardInterrupt:
                if args.resume:
                    print(
                        f"\ninterrupted; completed submissions are journaled in "
                        f"{args.resume} — rerun the same command to resume"
                    )
                else:
                    print(
                        "\ninterrupted; rerun with --resume <journal> to make "
                        "batches checkpointable"
                    )
                return 130
            gradebook = report.gradebook
            if progress is not None:
                progress.emit(
                    "batch-end",
                    graded=len(gradebook.students()),
                    drained=False,
                    interrupted=0,
                )
            print(gradebook.render())
            print(report.summary())
            _write_grade_artifacts(args, gradebook)
        return 0

    if args.command == "export":
        import time

        from repro.grading import write_gradescope_results

        suite = _suite_for(args.suite, args.submission, subprocess_mode=args.subprocess)
        started = time.perf_counter()
        result = suite.run()
        elapsed = time.perf_counter() - started
        path = write_gradescope_results(result, args.out, execution_time=elapsed)
        print(f"Gradescope results written to {path} "
              f"(score {result.score:g}/{result.max_score:g})")
        return 0

    if args.command == "report":
        from repro.grading import write_html_report

        suite = _suite_for(args.suite, args.submission, subprocess_mode=args.subprocess)
        result = suite.run()
        reports = [
            test.last_report
            for test in suite.tests
            if getattr(test, "last_report", None) is not None
            and test.last_report.trace is not None
        ]
        path = write_html_report(
            result, args.out, student=args.student, reports=reports
        )
        print(
            f"HTML report written to {path} "
            f"(score {result.score:g}/{result.max_score:g})"
        )
        return 0

    if args.command == "explore":
        from repro.execution.exploration import ScheduleExplorer, checker_runs
        from repro.execution.scheduling import ScheduleTrace

        explorer = ScheduleExplorer(
            checker_runs(_checker_factory(args.problem, args.submission)),
            schedules=args.schedules,
            first_seed=args.seed,
            strategy=args.strategy,
            depth=args.depth,
            max_schedules=args.max_schedules,
            dedup=not args.no_dedup,
            races=args.races,
        )
        if args.replay:
            trace = ScheduleTrace.load(args.replay)
            failed, replayed, _result = explorer.replay(trace)
            if replayed.divergence:
                print(f"replay DIVERGED: {replayed.divergence}")
                return 2
            print(
                f"replayed {trace.label()} ({len(trace.decisions)} decisions): "
                + (
                    "failure reproduced"
                    if failed
                    else "program passed under the recorded schedule"
                )
            )
            return 1 if failed else 0
        report = explorer.run()
        print(report.summary())
        if report.bug_found and args.record:
            path = report.first_failing_trace().save(args.record)
            print(f"failing schedule written to {path}")
        if args.race_report and report.race_report is not None:
            from pathlib import Path

            target = Path(args.race_report)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(report.race_report.to_json())
            print(f"race report written to {target}")
        return 1 if report.bug_found else 0

    if args.command == "timeline":
        from repro.obs import load_jsonl, render_timeline, timeline_json

        dump = load_jsonl(args.obs)
        if args.json:
            import json

            print(json.dumps(timeline_json(dump), indent=2))
        else:
            print(render_timeline(dump, submission=args.submission))
        return 0

    if args.command == "stats":
        from repro.obs import load_jsonl, render_prom, render_stats, stats_json

        dump = load_jsonl(args.obs)
        if args.prom:
            sys.stdout.write(render_prom(dump))
        elif args.json:
            import json

            print(json.dumps(stats_json(dump), indent=2))
        else:
            print(render_stats(dump))
        return 0

    if args.command == "watch":
        return _watch(args)

    if args.command == "awareness":
        from repro.grading import ProgressLog, analyze_progress

        log = ProgressLog(args.log)
        report = analyze_progress(log, suite=args.suite)
        print(report.render())
        return 0

    raise SystemExit(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
