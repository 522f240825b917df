"""Grading benchmark: grade a seeded class roster and report its metrics.

Run from the repository root::

    python3 gradebench/run.py --workload primes-class --seed 1 \\
        --seconds 30 --trace 0

Each run writes a roster of generated student files (``roster.py``),
grades it in a fresh interpreter (``session.py``) wired as the
workload's ``forkjoin-test grade`` command line (each grading process
pinned to one CPU; ``session.py`` says why), checks every grade
against the pinned verdicts, and prints diagnostics followed by one
JSON line ``{"correct", "attempted", "failed", "metrics"}``.  The loop
is closed with one client: the benchmark hands the grader the roster
and each grade starts when the previous one ends.

``--trace 0`` reports the end-to-end metrics.  Set-up is timed in
``SETUP_SESSIONS`` short sessions that stop after their warm-up grades,
plus the measured session itself, and reported as their median.

``--trace 1`` reports the per-layer metrics: it grades a half-size
roster untraced, then again with the wrappers of
``hook/gradebench_trace.py`` installed in every process of the grader,
and reads the spans they wrote.

The roster size is fixed per workload by ``--seconds`` and a nominal
grading rate measured on a 2-vCPU host, so a faster grader finishes the
same work sooner instead of doing more of it.  The exit status is 0 when
every grade matched, 1 when one did not (the result line still prints),
and 2 when the run itself failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from roster import Entry, check_grade, make_roster  # noqa: E402


@dataclass(frozen=True)
class Workload:
    """One workload: the suite it grades and the shape of its roster."""

    suite: str
    #: Original submissions graded per second on a 2-vCPU host (Xeon,
    #: 2.1 GHz); sizes the roster to about ``--seconds`` of grading.
    rate: float
    duplicate_share: float
    #: Grades before the timed window (in-process); the sharded window
    #: opens at the first graded event instead.
    warmup: int


WORKLOADS = {
    "primes-class": Workload("primes", rate=18.0, duplicate_share=0.1, warmup=2),
    "synclab-explore": Workload("synclab", rate=15.0, duplicate_share=0.0, warmup=2),
    "jacobi-sharded": Workload("jacobi", rate=190.0, duplicate_share=0.0, warmup=0),
}

#: Short sessions per run that time set-up only (the measured session
#: adds one more sample).
SETUP_SESSIONS = 4
#: Share of the roster each of the two sessions of a traced run grades.
TRACE_SHARE = 0.5
#: Wall-clock limit of one run, seconds; a session still running then is
#: killed and the run fails.
RUN_LIMIT = 170.0

END_TO_END = {
    "subs_per_s": "subs/s",
    "grade_p50_ms": "ms",
    "grade_p95_ms": "ms",
    "cpu_ms_per_sub": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "verdict_ok_share": "share",
}

SPAN_STEMS = [
    "grading.submission",
    "testfw.suite",
    "core.perf_check",
    "execution.time_program",
    "execution.run",
    "exploration.search",
    "races.analyze",
    "pool.dispatch",
    "core.trace",
    "core.syntax",
    "core.concurrency",
    "core.semantics",
    "core.credit",
    "core.report",
    "tracing.record",
    "eventdb.query",
    "grading.journal",
    "grading.record",
]
WAIT_STEMS = ["simulation.checkpoint", "scheduling.yield"]


def _layer_units() -> Dict[str, str]:
    units: Dict[str, str] = {}
    for stem in SPAN_STEMS:
        units[f"{stem}.calls_per_sub"] = "calls/sub"
        units[f"{stem}.self_ms_per_sub"] = "ms/sub"
    for stem in WAIT_STEMS:
        units[f"{stem}.calls_per_sub"] = "calls/sub"
        units[f"{stem}.wait_ms_per_sub"] = "ms/sub"
    units.update(
        {
            "exploration.useful_share": "share",
            "exploration.deduped_per_sub": "schedules/sub",
            "pool.respawns": "count",
            "tracing.events_per_sub": "events/sub",
            "grading.dedup_skipped_share": "share",
            "grading.shard_respawns": "count",
            "obs.spans_per_sub": "spans/sub",
            "obs.sidecar_bytes_per_sub": "B/sub",
            "bench.trace_overhead_share": "share",
        }
    )
    return units


PER_LAYER = _layer_units()


class RunError(RuntimeError):
    """The benchmark could not produce a result."""


@dataclass(frozen=True)
class Run:
    """Where and until when one benchmark run works."""

    root: Path
    workdir: Path
    workload: str
    #: ``time.monotonic()`` by which every session must have ended.
    deadline: float


# ----------------------------------------------------------------------
# Sessions
# ----------------------------------------------------------------------
def _session_env(root: Path, workdir: Path, trace_dir: Optional[Path]) -> Dict[str, str]:
    # The grader runs with its defaults: no REPRO_* override leaks in.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    paths = [str(root / "src")]
    env.pop("GRADEBENCH_TRACE_DIR", None)
    if trace_dir is not None:
        paths.insert(0, str(HERE / "hook"))
        env["GRADEBENCH_TRACE_DIR"] = str(trace_dir)
    env["PYTHONPATH"] = os.pathsep.join(paths)
    tmp = workdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def _run_session(
    run: Run, name: str, entries: List[Entry], trace_dir: Optional[Path] = None
) -> Dict[str, Any]:
    spec = WORKLOADS[run.workload]
    sdir = run.workdir / name
    sdir.mkdir(parents=True)
    config = {
        "workload": run.workload,
        "suite": spec.suite,
        "warmup": spec.warmup,
        "workdir": str(sdir),
        "result": str(sdir / "result.json"),
        "roster": [[e.student, e.path, e.copy_of is None] for e in entries],
    }
    config_path = sdir / "config.json"
    config_path.write_text(json.dumps(config))
    env = _session_env(run.root, run.workdir, trace_dir)
    launched = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "session.py"), str(config_path)],
        env=env,
        cwd=str(run.root),
        start_new_session=True,
    )
    try:
        code = proc.wait(timeout=max(1.0, run.deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        _end_group(proc)
    if code != 0:
        raise RunError(f"session {name} failed (exit status {code})")
    result = json.loads((sdir / "result.json").read_text())
    result["launched"] = launched
    return result


def _end_group(proc: subprocess.Popen) -> None:
    """Kill whatever is left of a session's process group and wait for it.

    The group holds the session and every shard worker and pool child it
    started; after a clean exit it is already empty.
    """
    for _ in range(100):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            break
        proc.poll()
        time.sleep(0.05)
    proc.wait()


def _check(entries: List[Entry], result: Dict[str, Any]) -> Counter:
    """Tally the session's grades against the pinned verdicts."""
    grades = result["grades"]
    tally: Counter = Counter()
    for entry in entries:
        grade = grades.get(entry.student)
        verdict = check_grade(entry.variant, grade)
        if verdict == "wrong":
            print(f"# WRONG grade: {entry.student} ({entry.variant}) got {grade}")
        tally[verdict] += 1
    return tally


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _timed(result: Dict[str, Any], sharded: bool) -> Dict[str, Any]:
    """Grade-time samples and window figures of one measured session."""
    events = result["events"]
    start = result["start"]
    first = start["index"]
    window = events[first:]
    if len(window) < 2:
        raise RunError("too few grades in the timed window")
    samples: List[float] = []
    if sharded:
        last_by_shard: Dict[Any, float] = {}
        for t, _student, shard in events:
            if shard in last_by_shard:
                samples.append(t - last_by_shard[shard])
            last_by_shard[shard] = t
    else:
        previous = None
        for t, _student, representative in window:
            if representative:
                if previous is not None:
                    samples.append(t - previous)
                previous = t
    graded = len(window) - 1
    elapsed = window[-1][0] - start["t"]
    return {
        "samples": samples,
        "graded": graded,
        "elapsed": elapsed,
        "setup": start["t"] - result["launched"],
    }


def _percentiles(samples: List[float]) -> Tuple[float, float, int]:
    p50 = statistics.median(samples)
    p95 = statistics.quantiles(samples, n=20, method="inclusive")[18]
    return p50, p95, sum(1 for s in samples if s > p95)


def _steal() -> Tuple[int, int]:
    with open("/proc/stat") as handle:
        fields = [int(x) for x in handle.readline().split()[1:]]
    return fields[7] if len(fields) > 7 else 0, sum(fields)


# ----------------------------------------------------------------------
# Per-layer metrics from the traced session's span files
# ----------------------------------------------------------------------
def _covered(intervals: List[Tuple[int, int]], lo: int, hi: int) -> int:
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def _read_spans(trace_dir: Path) -> Dict[str, Any]:
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    total_ns: Counter = Counter()
    waits: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
    counts: Counter = Counter()
    obs_spans = 0
    missing: set = set()
    submissions: set = set()
    suite_children: Counter = Counter()
    for path in sorted(trace_dir.glob("spans-*.json")):
        data = json.loads(path.read_text())
        spans = {sid: (stem, s, e, p) for sid, stem, s, e, p, _ in data["spans"] if e}
        submissions.update(sub for *_, sub in data["spans"] if sub is not None)
        children: Dict[int, List[int]] = defaultdict(list)
        for sid, (_stem, _s, _e, parent) in spans.items():
            if parent in spans:
                children[parent].append(sid)
        for sid, (stem, s, e, _p) in spans.items():
            kids = [(spans[k][1], spans[k][2]) for k in children[sid]]
            calls[stem] += 1
            total_ns[stem] += e - s
            self_ns[stem] += (e - s) - _covered(kids, s, e)
        for sid, (stem, s, e, parent) in spans.items():
            # Attribute each span's self time to the suite run above it.
            ancestor = parent
            while ancestor in spans and spans[ancestor][0] != "testfw.suite":
                ancestor = spans[ancestor][3]
            if ancestor in spans and stem != "testfw.suite":
                kids = [(spans[k][1], spans[k][2]) for k in children[sid]]
                suite_children[stem] += (e - s) - _covered(kids, s, e)
        for stem, (n, ns) in data["waits"].items():
            waits[stem][0] += n
            waits[stem][1] += ns
        counts.update(data["counts"])
        if data["role"] != "repro.execution.pool_child":
            obs_spans += data["obs_spans"]
        missing.update(data["missing"])
    return {
        "calls": calls,
        "self_ns": self_ns,
        "total_ns": total_ns,
        "waits": waits,
        "counts": counts,
        "obs_spans": obs_spans,
        "missing": sorted(missing),
        "submissions": len(submissions),
        "suite_children": suite_children,
    }


def _layer_metrics(
    traced: Dict[str, Any], spans: Dict[str, Any], reps: int, overhead: float
) -> Dict[str, float]:
    per = 1.0 / reps
    metrics: Dict[str, float] = {}
    for stem in SPAN_STEMS:
        metrics[f"{stem}.calls_per_sub"] = spans["calls"][stem] * per
        metrics[f"{stem}.self_ms_per_sub"] = spans["self_ns"][stem] / 1e6 * per
    for stem in WAIT_STEMS:
        n, ns = spans["waits"].get(stem, (0, 0))
        metrics[f"{stem}.calls_per_sub"] = n * per
        metrics[f"{stem}.wait_ms_per_sub"] = ns / 1e6 * per
    counts = spans["counts"]
    executed = counts["exploration.executed"]
    metrics["exploration.useful_share"] = (
        counts["exploration.enumerated"] / executed if executed else 0.0
    )
    metrics["exploration.deduped_per_sub"] = counts["exploration.deduped"] * per
    metrics["pool.respawns"] = float(counts["pool.respawns"])
    metrics["tracing.events_per_sub"] = counts["tracing.events"] * per
    grouped = counts["dedup.representatives"] + counts["dedup.clones"]
    metrics["grading.dedup_skipped_share"] = (
        counts["dedup.clones"] / grouped if grouped else 0.0
    )
    metrics["grading.shard_respawns"] = float(traced["shard_respawns"])
    metrics["obs.spans_per_sub"] = spans["obs_spans"] * per
    metrics["obs.sidecar_bytes_per_sub"] = traced.get("sidecar_bytes", 0) * per
    metrics["bench.trace_overhead_share"] = overhead
    return metrics


def _print_layer_breakdown(spans: Dict[str, Any], reps: int) -> None:
    root = spans["total_ns"]["grading.submission"] or 1
    print(f"# spans name {spans['submissions']} submissions; {reps} were graded")
    print("# layer            calls/sub   self ms/sub  total ms/sub  share of grading.submission")
    for stem in SPAN_STEMS:
        n = spans["calls"][stem]
        if not n:
            continue
        print(
            f"#   {stem:24s} {n / reps:9.2f} {spans['self_ns'][stem] / 1e6 / reps:12.3f}"
            f" {spans['total_ns'][stem] / 1e6 / reps:12.3f} {spans['total_ns'][stem] / root:8.1%}"
        )
    ranked = spans["suite_children"].most_common(3)
    print("# largest self time under testfw.suite: " + ", ".join(
        f"{stem} {ns / 1e6 / reps:.3f} ms/sub" for stem, ns in ranked))
    if spans["missing"]:
        print("# not found, so not traced: " + ", ".join(spans["missing"]))


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------
def _composition(entries: List[Entry]) -> str:
    counts = Counter(e.variant.split(".", 1)[1] for e in entries)
    copies = sum(1 for e in entries if e.copy_of is not None)
    mix = " ".join(f"{v}={n}" for v, n in sorted(counts.items()))
    return f"{len(entries)} submissions, {copies / len(entries):.1%} duplicates: {mix}"


def _probe_roster(workload: str, entries: List[Entry]) -> List[Entry]:
    """The submissions a set-up session grades before it stops."""
    if workload != "jacobi-sharded":
        return entries[: WORKLOADS[workload].warmup]
    # One submission for each of the service's two shards (it shards by
    # sha256 of the student name), so both shard workers start.
    import hashlib

    chosen: Dict[int, Entry] = {}
    for entry in entries:
        digest = hashlib.sha256(entry.student.encode()).digest()
        chosen.setdefault(int.from_bytes(digest[:8], "big") % 2, entry)
        if len(chosen) == 2:
            break
    return list(chosen.values())


def _measure(run: Run, entries: List[Entry]) -> Tuple[Dict[str, float], Counter]:
    sharded = run.workload == "jacobi-sharded"
    probe = _probe_roster(run.workload, entries)
    setups: List[float] = []
    verdicts: Counter = Counter()
    for i in range(SETUP_SESSIONS):
        result = _run_session(run, f"setup{i}", probe)
        setups.append(_timed_setup(result))
        verdicts.update(_check(probe, result))
    steal0 = _steal()
    result = _run_session(run, "measure", entries)
    steal1 = _steal()
    measured = _check(entries, result)
    verdicts.update(measured)
    timed = _timed(result, sharded)
    setups.append(timed["setup"])
    p50, p95, above = _percentiles(timed["samples"])
    ok = len(entries) - measured["wrong"]
    metrics = {
        "subs_per_s": timed["graded"] / timed["elapsed"],
        "grade_p50_ms": p50 * 1e3,
        "grade_p95_ms": p95 * 1e3,
        "cpu_ms_per_sub": result["cpu_s"] * 1e3 / timed["graded"],
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "setup_s": statistics.median(setups),
        "verdict_ok_share": ok / len(entries),
    }
    steal_share = (steal1[0] - steal0[0]) / max(1, steal1[1] - steal0[1])
    print(f"# timed window: {timed['graded']} grades in {timed['elapsed']:.3f} s")
    print(
        f"# grade samples: {len(timed['samples'])} "
        f"({above} above p95; graded representatives only)"
    )
    print("# set-up samples (s): " + " ".join(f"{s:.4f}" for s in setups))
    print(f"# host CPU steal over the measured session: {steal_share:.2%}")
    print(f"# obs spans retained at the end: {result['spans_retained']}")
    _print_verdicts(verdicts)
    return metrics, verdicts


def _print_verdicts(verdicts: Counter) -> None:
    print("# grades checked: " + ", ".join(
        f"{n} {label}" for label, n in sorted(verdicts.items())))


def _timed_setup(result: Dict[str, Any]) -> float:
    if not result["start"]:
        raise RunError("a set-up session graded nothing")
    return result["start"]["t"] - result["launched"]


def _trace(run: Run, entries: List[Entry]) -> Tuple[Dict[str, float], Counter]:
    sharded = run.workload == "jacobi-sharded"
    verdicts: Counter = Counter()
    plain = _run_session(run, "untraced", entries)
    verdicts.update(_check(entries, plain))
    trace_dir = run.workdir / "spans"
    trace_dir.mkdir()
    traced = _run_session(run, "traced", entries, trace_dir)
    verdicts.update(_check(entries, traced))
    p50_plain = _percentiles(_timed(plain, sharded)["samples"])[0]
    p50_traced = _percentiles(_timed(traced, sharded)["samples"])[0]
    spans = _read_spans(trace_dir)
    reps = sum(1 for e in entries if e.copy_of is None)
    metrics = _layer_metrics(traced, spans, reps, p50_traced / p50_plain - 1.0)
    print(f"# traced grade p50 {p50_traced * 1e3:.3f} ms, untraced {p50_plain * 1e3:.3f} ms")
    _print_layer_breakdown(spans, reps)
    _print_verdicts(verdicts)
    return metrics, verdicts


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("gradebench: run from the repository root (no src/repro here)", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    scale = TRACE_SHARE if args.trace else 1.0
    originals = math.ceil(args.seconds * spec.rate * scale)
    run = Run(
        root=root,
        workdir=root / ".gradebench" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}",
        workload=args.workload,
        deadline=time.monotonic() + RUN_LIMIT,
    )
    try:
        entries = make_roster(
            spec.suite,
            originals,
            args.seed,
            run.workdir / "roster",
            duplicate_share=spec.duplicate_share,
            head=spec.warmup,
        )
        print(f"# workload {args.workload}, seed {args.seed}: {_composition(entries)}")
        if args.trace:
            metrics, verdicts = _trace(run, entries)
            units = PER_LAYER
        else:
            metrics, verdicts = _measure(run, entries)
            units = END_TO_END
    except RunError as exc:
        print(f"gradebench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
        try:
            run.workdir.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    # Every grade the run checked counts, set-up sessions' included.
    attempted = sum(verdicts.values())
    failed = verdicts["wrong"]
    correct = failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
