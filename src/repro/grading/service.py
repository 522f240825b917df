"""Sharded multi-process grading service: crash-tolerant at course scale.

The single-process :class:`~repro.execution.supervisor.GradingSupervisor`
survives hung *children* and wedged *threads*, but one interpreter crash
or OOM-kill still loses the whole batch.  This module grows it across
process boundaries:

* :func:`shard_of` **content-shards** a batch: each student maps to a
  shard by a stable hash of the student name, so the same roster always
  lands in the same shard journals — a resumed batch, a respawned shard,
  and a rerun all agree about who belongs where.
* Each shard is an independent OS process
  (:mod:`repro.grading.shard_worker`) running its own bounded
  supervisor and streaming per-submission results into its own fsynced
  JSONL journal.
* The coordinator (:class:`GradingService`) holds every worker's stdout
  pipe and expects **heartbeats**; a silent or dead shard is
  hard-killed and respawned, and the respawn regrades *only* the
  submissions not yet durable in that shard's journal (the supervisor's
  own journal resume does the dedup).
* A submission that repeatedly takes its shard down is **quarantined**:
  after ``quarantine_after`` worker deaths with the same first-pending
  suspect, the coordinator writes a durable ``crash`` record for it and
  moves on — one poison submission cannot wedge the service.
* ``SIGINT``/``SIGTERM`` at the coordinator trigger a **graceful
  drain**: workers are asked to stop (they finish in-flight work and
  journal it), the remainder is reported as *interrupted*, and the exact
  same command resumes from the journals.
* :func:`merge_shard_journals` folds the per-shard journals into one
  gradebook **deterministically**: batch order, durable-first dedup —
  so a disturbed run and an undisturbed run save byte-identically
  (modulo timestamps).

Shard lifecycle is observable end to end: ``service.shard`` spans per
incarnation, counters for respawns / missed heartbeats / requeues /
quarantines, and a ``service.shards_alive`` gauge.  Fleet telemetry
goes further: each manifest carries a trace context (run id + the
``service.shard`` span id opened pre-spawn), every worker writes a
crash-safe sidecar dump, :meth:`GradingService.merged_dump` stitches
them into ONE causal service-wide trace, and an optional progress
stream feeds the live ``watch`` fleet view.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.execution.faults import ShardFaultProgram
from repro.execution.taxonomy import FailureKind
from repro.grading.gradebook import Gradebook
from repro.grading.journal import GradingJournal, JournalEntry
from repro.grading.records import SubmissionRecord, TestRecord
from repro.grading.shard_worker import EVENT_PREFIX
from repro.obs import get_registry as _obs_registry
from repro.obs.context import TraceContext, new_run_id
from repro.obs.export import ObsDump
from repro.obs.merge import merge_workdir
from repro.obs.stream import ProgressStream

__all__ = [
    "GradingService",
    "ServiceReport",
    "ShardStatus",
    "MergeStats",
    "shard_of",
    "plan_shards",
    "merge_shard_journals",
    "shard_journal_path",
]


def shard_of(student: str, shards: int) -> int:
    """Stable content-shard assignment: hash of the student name.

    Independent of batch order, batch size, and Python's per-process
    hash randomization (``sha256``, not ``hash``), so every run of the
    same roster agrees about which journal holds which student.
    """
    if shards <= 0:
        raise ValueError("shards must be >= 1")
    digest = hashlib.sha256(student.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % shards


def plan_shards(
    submissions: Mapping[str, str], shards: int
) -> List[List[Tuple[str, str]]]:
    """Split a submissions dict into per-shard slices, batch order kept."""
    plan: List[List[Tuple[str, str]]] = [[] for _ in range(shards)]
    for student, identifier in submissions.items():
        plan[shard_of(student, shards)].append((student, identifier))
    return plan


def shard_journal_path(workdir: Path | str, shard: int) -> Path:
    """Canonical journal path of one shard under a service workdir."""
    return Path(workdir) / f"shard-{shard:02d}.jsonl"


@dataclass
class MergeStats:
    """What the deterministic journal merge observed."""

    #: Records read across all shard journals (before dedup).
    records: int = 0
    #: Later duplicates dropped in favour of the durable-first record.
    duplicates_dropped: int = 0
    #: Journals that contributed at least one record.
    journals: int = 0


def merge_shard_journals(
    paths: List[Path | str],
    *,
    suite: str = "",
    order: Optional[List[str]] = None,
) -> Tuple[Gradebook, MergeStats]:
    """Merge per-shard journals into one gradebook, deterministically.

    Journals are read in the order given (shard order) and records
    within a journal in file order; the **first durable record wins**
    for a student seen twice (a submission graded by both a pre-crash
    and a post-respawn incarnation dedupes to the pre-crash record,
    which is the one the respawn should never have regraded).  The
    gradebook is filled in ``order`` (the batch's submission order) when
    given, else sorted by student — never in completion order — so the
    merged artifact depends only on the inputs.

    Torn trailing lines are tolerated per journal (each warns via
    :class:`~repro.grading.journal.JournalWarning`).
    """
    stats = MergeStats()
    first: Dict[str, JournalEntry] = {}
    for path in paths:
        journal = GradingJournal(path)
        entries = journal.entries()
        if entries:
            stats.journals += 1
        for entry in entries:
            stats.records += 1
            if entry.student in first:
                stats.duplicates_dropped += 1
                continue
            first[entry.student] = entry
    if stats.duplicates_dropped:
        _obs_registry().counter("service.journal_duplicates_dropped").inc(
            stats.duplicates_dropped
        )
    book_suite = suite
    if not book_suite:
        for entry in first.values():
            book_suite = entry.record.suite
            break
    book = Gradebook(book_suite)
    students = order if order is not None else sorted(first)
    for student in students:
        entry = first.get(student)
        if entry is not None:
            book.record(entry.record)
    return book, stats


@dataclass
class ShardStatus:
    """One shard's final account: staffing, progress, and casualties."""

    shard: int
    journal: Path
    assigned: List[str] = field(default_factory=list)
    graded: List[str] = field(default_factory=list)
    resumed: List[str] = field(default_factory=list)
    quarantined: List[str] = field(default_factory=list)
    interrupted: List[str] = field(default_factory=list)
    #: Worker incarnations beyond the first (kill/crash recoveries).
    respawns: int = 0
    #: Deaths detected via missed heartbeats (vs. pipe EOF / exit).
    heartbeat_timeouts: int = 0


@dataclass
class ServiceReport:
    """The service's full answer for one sharded batch."""

    gradebook: Gradebook
    shards: List[ShardStatus]
    merge: MergeStats
    #: Students whose grades were already durable before this run.
    resumed: List[str] = field(default_factory=list)
    #: Students quarantined this run (durable ``crash`` records).
    quarantined: List[str] = field(default_factory=list)
    #: Students left ungraded by a graceful drain — resumable, never
    #: written to any journal as graded.
    interrupted: List[str] = field(default_factory=list)

    @property
    def drained(self) -> bool:
        """True when the batch ended by drain rather than completion."""
        return bool(self.interrupted)

    def summary(self) -> str:
        """Operator-facing one-screen account of the sharded batch."""
        total_respawns = sum(s.respawns for s in self.shards)
        lines = [
            f"sharded batch: {len(self.shards)} shard(s), "
            f"{sum(len(s.assigned) for s in self.shards)} submission(s), "
            f"{len(self.resumed)} resumed from journals, "
            f"{total_respawns} shard respawn(s)"
        ]
        for status in self.shards:
            line = (
                f"  shard {status.shard:02d}: {len(status.graded)}/"
                f"{len(status.assigned)} graded"
            )
            if status.respawns:
                line += f", respawned x{status.respawns}"
            if status.heartbeat_timeouts:
                line += f", heartbeat timeouts x{status.heartbeat_timeouts}"
            if status.quarantined:
                line += f", quarantined: {', '.join(status.quarantined)}"
            if status.interrupted:
                line += f", interrupted: {len(status.interrupted)}"
            lines.append(line)
        if self.quarantined:
            lines.append(
                "quarantined (repeated shard crashes): "
                + ", ".join(sorted(self.quarantined))
            )
        if self.interrupted:
            lines.append(
                f"drained with {len(self.interrupted)} submission(s) "
                f"ungraded — rerun the same command to resume"
            )
        if self.merge.duplicates_dropped:
            lines.append(
                f"journal merge dropped {self.merge.duplicates_dropped} "
                f"duplicate record(s) (durable-first)"
            )
        return "\n".join(lines)


class _ShardState:
    """Coordinator-side live state of one shard."""

    def __init__(self, shard: int, journal: Path,
                 assigned: List[Tuple[str, str]]) -> None:
        self.shard = shard
        self.journal = journal
        self.assigned = assigned
        self.status = ShardStatus(
            shard=shard,
            journal=journal,
            assigned=[student for student, _ in assigned],
        )
        self.proc: Optional[subprocess.Popen] = None
        self.reader: Optional[threading.Thread] = None
        self.last_beat = 0.0
        self.incarnation = 0
        self.done = False
        #: The current incarnation's ``service.shard`` span (opened by
        #: the coordinator pre-spawn so its id can ride the manifest).
        self.span = None
        self.sidecar: Optional[Path] = None
        #: Suspect -> deaths observed with that suspect first-pending.
        self.crashes: Dict[str, int] = {}

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None


class GradingService:
    """Grade a submissions dict across N crash-tolerant shard processes.

    Parameters
    ----------
    suite:
        Name of the problem suite (resolved in every worker via
        :func:`repro.graders.build_named_suite`).
    workdir:
        Directory holding the per-shard journals and manifests.  Point
        a later run at the same directory to resume: durable grades are
        never recomputed.
    shards:
        Number of independent worker processes.
    subprocess_mode / jobs_per_shard / retries / deadline /
    explore_schedules / explore_seed / explore_strategy / explore_depth /
    race_detect / race_credit:
        Forwarded to each shard's inner
        :class:`~repro.execution.supervisor.GradingSupervisor` (the race
        flags travel in the shard manifest's ``supervisor`` dict, so a
        respawned incarnation grades with the same race policy).
    pool_size:
        When > 0, each shard worker keeps this many pre-forked warm
        interpreters (:class:`~repro.execution.worker_pool.WorkerPool`)
        and grades on them instead of cold-starting a child per
        submission; implies subprocess isolation inside the shard.
    dedup:
        Forwarded to each shard's supervisor: sha256-identical
        submissions within a shard grade once and fan the record out
        (journal- and resume-safe; see :mod:`repro.grading.dedup`).
    heartbeat_interval:
        Worker heartbeat period, seconds.
    heartbeat_timeout:
        Silence after which a worker is declared wedged, hard-killed,
        and respawned.  Must comfortably exceed the interval and the
        slowest single submission.
    quarantine_after:
        Worker deaths with the same first-pending suspect before that
        submission is quarantined (durable ``crash`` record).
    max_respawns_per_shard:
        Hard ceiling on incarnations per shard (safety net; quarantine
        normally guarantees progress long before it).  ``None`` derives
        a generous bound from the shard size.
    faults:
        Shard -> :class:`~repro.execution.faults.ShardFaultProgram` for
        the deterministic crash drills.  One-shot: cleared on respawn.
    python:
        Interpreter for the workers (defaults to ``sys.executable``).
    progress_stream:
        Optional :class:`~repro.obs.stream.ProgressStream`; when given,
        the coordinator emits one flushed JSONL event per fleet state
        change (spawn/death/graded/quarantine/...) that ``forkjoin-test
        watch`` tails into a live fleet view.
    """

    #: Monitor poll period, seconds.
    POLL = 0.05
    #: Grace given to a SIGTERMed worker before it is hard-killed.
    DRAIN_GRACE = 10.0

    def __init__(
        self,
        suite: str,
        *,
        workdir: Path | str,
        shards: int = 2,
        subprocess_mode: bool = False,
        jobs_per_shard: int = 1,
        retries: int = 0,
        deadline: Optional[float] = None,
        explore_schedules: int = 0,
        explore_seed: int = 0,
        explore_strategy: str = "random-walk",
        explore_depth: int = 3,
        pool_size: int = 0,
        dedup: bool = False,
        race_detect: bool = False,
        race_credit: bool = False,
        heartbeat_interval: float = 0.5,
        heartbeat_timeout: float = 10.0,
        quarantine_after: int = 2,
        max_respawns_per_shard: Optional[int] = None,
        faults: Optional[Mapping[int, ShardFaultProgram]] = None,
        python: Optional[str] = None,
        progress_stream: Optional[ProgressStream] = None,
    ) -> None:
        """Configure the service; see the class docstring for knobs."""
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.suite = suite
        self.workdir = Path(workdir)
        self.shards = int(shards)
        self.subprocess_mode = subprocess_mode
        self.jobs_per_shard = max(1, int(jobs_per_shard))
        self.retries = max(0, int(retries))
        self.deadline = deadline
        self.explore_schedules = max(0, int(explore_schedules))
        self.explore_seed = int(explore_seed)
        self.explore_strategy = explore_strategy
        self.explore_depth = max(0, int(explore_depth))
        self.pool_size = max(0, int(pool_size))
        self.dedup = bool(dedup)
        self.race_credit = bool(race_credit)
        self.race_detect = bool(race_detect) or self.race_credit
        self.heartbeat_interval = float(heartbeat_interval)
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.quarantine_after = max(1, int(quarantine_after))
        self.max_respawns_per_shard = max_respawns_per_shard
        self.faults = dict(faults or {})
        self.python = python or sys.executable
        self.progress = progress_stream
        #: Fleet-wide id shared by every process of one batch (fresh per
        #: :meth:`grade` call; sidecar files are stamped and filtered
        #: by it, so reused work directories never merge stale traces).
        self.run_id = ""
        self._drain = threading.Event()
        self._batch_span = None
        self._progress_lock = threading.Lock()
        self._expected = 0
        self._progress_graded = 0
        self._progress_quarantined = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Request a graceful drain (what SIGINT/SIGTERM do)."""
        self._drain.set()

    def _emit(self, event: str, **fields: Any) -> None:
        """Progress-stream an event; telemetry must never fail grading."""
        if self.progress is None:
            return
        try:
            self.progress.emit(event, **fields)
        except Exception:  # pragma: no cover - full disk etc.
            pass

    def _emit_queue_depth(self) -> None:
        with self._progress_lock:
            graded = self._progress_graded
            settled = graded + self._progress_quarantined
        self._emit(
            "queue-depth",
            graded=graded,
            remaining=max(0, self._expected - settled),
            total=self._expected,
        )

    def merged_dump(self) -> ObsDump:
        """ONE service-wide dump: coordinator registry + shard sidecars.

        Every shard-worker and pool-child span is causally parented
        under this batch's ``service.batch`` root; sidecars from other
        runs in a reused work directory are filtered out by run id.
        """
        return merge_workdir(
            self.workdir, registry=_obs_registry(), run_id=self.run_id
        )

    def grade(self, submissions: Dict[str, str]) -> ServiceReport:
        """Grade the batch across the shards; returns the merged report.

        Installs SIGINT/SIGTERM handlers for the duration when called
        from the main thread (restored afterwards); either signal — or
        :meth:`drain` from any thread — triggers the graceful drain.
        """
        obs = _obs_registry()
        self._drain.clear()
        self.run_id = new_run_id()
        self.workdir.mkdir(parents=True, exist_ok=True)
        plan = plan_shards(submissions, self.shards)
        states = [
            _ShardState(i, shard_journal_path(self.workdir, i), assigned)
            for i, assigned in enumerate(plan)
        ]
        self._expected = len(submissions)
        self._progress_graded = 0
        self._progress_quarantined = 0
        self._emit(
            "batch-start",
            suite=self.suite,
            shards=self.shards,
            submissions=len(submissions),
            run_id=self.run_id,
        )

        batch_span = obs.begin_span(
            "service.batch",
            suite=self.suite,
            shards=self.shards,
            submissions=len(submissions),
        )
        self._batch_span = batch_span
        resumed: List[str] = []
        try:
            for state in states:
                durable = set(GradingJournal(state.journal).completed())
                already = [s for s, _ in state.assigned if s in durable]
                state.status.resumed = already
                resumed.extend(already)
                if already:
                    with self._progress_lock:
                        self._progress_graded += len(already)
                    self._emit(
                        "shard-resumed", shard=state.shard,
                        resumed=len(already),
                    )
                if len(already) == len(state.assigned):
                    state.done = True
                    self._emit("shard-done", shard=state.shard)
                else:
                    self._spawn(state)
            restore = self._install_signal_handlers()
            try:
                self._monitor(states)
            finally:
                restore()
        finally:
            obs.end_span(batch_span)
            self._batch_span = None

        report = self._finalize(submissions, states, sorted(resumed))
        self._emit(
            "batch-end",
            graded=len(report.gradebook.students()),
            drained=report.drained,
            interrupted=len(report.interrupted),
        )
        return report

    # ------------------------------------------------------------------
    # Spawning and events
    # ------------------------------------------------------------------
    def _manifest_path(self, shard: int) -> Path:
        return self.workdir / f"shard-{shard:02d}.manifest.json"

    def _write_manifest(self, state: _ShardState,
                        fault: ShardFaultProgram) -> Path:
        manifest = {
            "shard": state.shard,
            "suite": self.suite,
            "subprocess": self.subprocess_mode,
            "submissions": [list(pair) for pair in state.assigned],
            "journal": str(state.journal),
            "supervisor": {
                "jobs": self.jobs_per_shard,
                "retries": self.retries,
                "deadline": self.deadline,
                "explore_schedules": self.explore_schedules,
                "explore_seed": self.explore_seed,
                "explore_strategy": self.explore_strategy,
                "explore_depth": self.explore_depth,
                "pool_size": self.pool_size,
                "dedup": self.dedup,
                "race_detect": self.race_detect,
                "race_credit": self.race_credit,
            },
            "heartbeat_interval": self.heartbeat_interval,
            "fault": fault.to_dict(),
            "obs": {
                "enabled": _obs_registry().enabled,
                "run_id": self.run_id,
                "incarnation": state.incarnation,
                "parent_process": "coordinator",
                "parent_span_id": (
                    state.span.span_id
                    if state.span is not None and state.span.span_id > 0
                    else None
                ),
                "sidecar": str(state.sidecar) if state.sidecar else None,
            },
        }
        path = self._manifest_path(state.shard)
        path.write_text(json.dumps(manifest, indent=2))
        return path

    def _worker_env(self) -> Dict[str, str]:
        env = dict(os.environ)
        # The worker must import the same `repro` this coordinator runs:
        # prepend its package root, whatever the caller's environment.
        import repro

        package_root = str(Path(repro.__file__).resolve().parent.parent)
        existing = env.get("PYTHONPATH", "")
        if package_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (
                package_root + (os.pathsep + existing if existing else "")
            )
        return env

    def _spawn(self, state: _ShardState) -> None:
        obs = _obs_registry()
        fault = self.faults.get(state.shard, ShardFaultProgram())
        if state.incarnation > 0:
            # Faults are one-shot drills: a respawned incarnation runs
            # clean, so recovery is observable rather than cyclic.
            fault = ShardFaultProgram()
        # The incarnation's `service.shard` span opens *before* the
        # worker exists: its id must ride the manifest so the worker's
        # own root spans stitch under it at merge time.  Detached — the
        # coordinator thread opens overlapping shard lifetimes; the
        # incarnation's reader thread closes it.
        state.span = obs.begin_span(
            "service.shard",
            parent_id=(
                self._batch_span.span_id
                if self._batch_span is not None
                and self._batch_span.span_id > 0
                else None
            ),
            detached=True,
            shard=state.shard,
            incarnation=state.incarnation,
            assigned=len(state.status.assigned),
        )
        state.sidecar = self.workdir / (
            f"obs-shard-{state.shard:02d}.inc{state.incarnation:02d}.jsonl"
        )
        manifest = self._write_manifest(state, fault)
        state.proc = subprocess.Popen(
            [self.python, "-m", "repro.grading.shard_worker", str(manifest)],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=self._worker_env(),
        )
        state.last_beat = time.monotonic()
        state.reader = threading.Thread(
            target=self._reader_loop,
            args=(state, state.proc.stdout, state.span),
            name=f"shard-{state.shard}-reader",
            daemon=True,
        )
        state.reader.start()
        self._emit(
            "shard-spawn",
            shard=state.shard,
            incarnation=state.incarnation,
            assigned=len(state.status.assigned),
        )
        state.incarnation += 1
        obs.counter("service.shards_spawned").inc()
        obs.gauge("service.shards_alive").add(1)

    def _reader_loop(self, state: _ShardState, stream, span) -> None:
        """Drain one worker's stdout; every event line is a heartbeat.

        One reader thread lives exactly as long as one worker
        incarnation, so it closes that incarnation's ``service.shard``
        *span* (opened, detached, by :meth:`_spawn` so its id could
        travel in the manifest).
        """
        obs = _obs_registry()
        try:
            for line in stream:
                if not line.startswith(EVENT_PREFIX):
                    continue  # tested-program noise on the shared fd
                try:
                    event = json.loads(line[len(EVENT_PREFIX):])
                except json.JSONDecodeError:
                    continue
                state.last_beat = time.monotonic()
                if event.get("event") == "graded":
                    student = event.get("student")
                    if student and student not in state.status.graded:
                        state.status.graded.append(student)
                        with self._progress_lock:
                            self._progress_graded += 1
                        self._emit(
                            "graded",
                            shard=state.shard,
                            student=student,
                            failure_kind=event.get("failure_kind"),
                            score=event.get("score"),
                            max_score=event.get("max_score"),
                            graded=len(state.status.graded),
                        )
                        self._emit_queue_depth()
        except (OSError, ValueError):  # pragma: no cover - pipe torn down
            pass
        finally:
            try:
                stream.close()
            except OSError:  # pragma: no cover
                pass
            obs.end_span(span, graded=len(state.status.graded))

    # ------------------------------------------------------------------
    # Monitoring, death handling, respawn
    # ------------------------------------------------------------------
    def _install_signal_handlers(self):
        """SIGINT/SIGTERM -> drain; returns the restore callable."""
        if threading.current_thread() is not threading.main_thread():
            return lambda: None

        previous = {}

        def _handler(signum: int, frame: Any) -> None:
            # Only set an Event: the monitor loop does the actual work,
            # so the handler can never deadlock on coordinator state.
            self._drain.set()

        for signum in (signal.SIGINT, signal.SIGTERM):
            previous[signum] = signal.signal(signum, _handler)

        def _restore() -> None:
            for signum, handler in previous.items():
                signal.signal(signum, handler)

        return _restore

    def _monitor(self, states: List[_ShardState]) -> None:
        obs = _obs_registry()
        while True:
            if self._drain.is_set():
                self._drain_workers(states)
                return
            pending = [s for s in states if not s.done]
            if not pending:
                return
            for state in pending:
                if state.proc is None:
                    continue
                if state.proc.poll() is not None:
                    self._handle_death(state)
                elif (
                    time.monotonic() - state.last_beat
                    > self.heartbeat_timeout
                ):
                    # Alive but silent: wedged or stalled.  Only a hard
                    # kill recovers the shard.
                    obs.counter("service.heartbeat_timeouts").inc()
                    state.status.heartbeat_timeouts += 1
                    self._emit(
                        "shard-health",
                        shard=state.shard,
                        status="heartbeat-timeout",
                    )
                    self._kill(state)
                    self._handle_death(state)
            time.sleep(self.POLL)

    def _kill(self, state: _ShardState) -> None:
        if state.proc is not None and state.proc.poll() is None:
            try:
                state.proc.kill()
            except OSError:  # pragma: no cover - reaped concurrently
                pass
            state.proc.wait()

    def _reap(self, state: _ShardState) -> None:
        if state.proc is not None:
            state.proc.wait()
            if state.reader is not None:
                state.reader.join(timeout=5.0)
            state.proc = None
            state.reader = None
            _obs_registry().gauge("service.shards_alive").add(-1)

    def _durable(self, state: _ShardState) -> set:
        return set(GradingJournal(state.journal).completed())

    def _remaining(self, state: _ShardState) -> List[Tuple[str, str]]:
        durable = self._durable(state)
        quarantined = set(state.status.quarantined)
        return [
            (student, identifier)
            for student, identifier in state.assigned
            if student not in durable and student not in quarantined
        ]

    def _handle_death(self, state: _ShardState) -> None:
        """A worker exited (or was killed): finish, quarantine, respawn."""
        obs = _obs_registry()
        returncode = state.proc.returncode if state.proc else None
        self._reap(state)
        remaining = self._remaining(state)
        if not remaining:
            # Every assigned submission is durable (a clean exit — or a
            # crash precisely after the last record): the shard is done.
            state.done = True
            self._emit("shard-done", shard=state.shard)
            return

        # The shard died with work left.  Blame the first pending
        # submission in manifest order — with a serial inner supervisor
        # that is exactly the one in flight at death.
        suspect = remaining[0][0]
        state.crashes[suspect] = state.crashes.get(suspect, 0) + 1
        obs.counter("service.shard_deaths").inc()
        self._emit(
            "shard-death",
            shard=state.shard,
            returncode=returncode,
            remaining=len(remaining),
        )
        if state.crashes[suspect] >= self.quarantine_after:
            self._quarantine(state, remaining[0], state.crashes[suspect])
            remaining = remaining[1:]
            if not remaining:
                state.done = True
                self._emit("shard-done", shard=state.shard)
                return

        ceiling = self.max_respawns_per_shard
        if ceiling is None:
            ceiling = self.quarantine_after * len(state.assigned) + 2
        if state.incarnation > ceiling:
            # Safety net: mark what's left as infra errors rather than
            # respawn forever.  Durable, so a resume will not loop here.
            for pair in remaining:
                self._record_infra_error(state, pair, returncode)
            state.done = True
            return

        obs.counter("service.shards_respawned").inc()
        obs.counter("service.submissions_requeued").inc(len(remaining))
        state.status.respawns += 1
        self._spawn(state)

    def _quarantine(self, state: _ShardState, pair: Tuple[str, str],
                    deaths: int) -> None:
        """Write the durable crash record that retires a shard-killer."""
        student, identifier = pair
        _obs_registry().counter("service.submissions_quarantined").inc()
        record = SubmissionRecord(
            student=student,
            suite=self.suite,
            timestamp=time.time(),
            tests=[
                TestRecord(
                    test_name="service",
                    score=0.0,
                    max_score=0.0,
                    fatal=(
                        f"submission {identifier!r} took its shard worker "
                        f"down {deaths} time(s); quarantined"
                    ),
                    failure_kind=FailureKind.CRASH.value,
                )
            ],
            failure_kind=FailureKind.CRASH.value,
            attempts=deaths,
            attempt_outcomes=[FailureKind.SIGNAL.value] * deaths,
        )
        GradingJournal(state.journal).append(
            JournalEntry(student=student, identifier=identifier, record=record)
        )
        state.status.quarantined.append(student)
        with self._progress_lock:
            self._progress_quarantined += 1
        self._emit("quarantine", shard=state.shard, student=student)
        self._emit_queue_depth()

    def _record_infra_error(self, state: _ShardState, pair: Tuple[str, str],
                            returncode: Optional[int]) -> None:
        student, identifier = pair
        record = SubmissionRecord(
            student=student,
            suite=self.suite,
            timestamp=time.time(),
            tests=[
                TestRecord(
                    test_name="service",
                    score=0.0,
                    max_score=0.0,
                    fatal=(
                        f"shard {state.shard} exhausted its respawn budget "
                        f"(last exit {returncode}); not graded"
                    ),
                    failure_kind=FailureKind.INFRA_ERROR.value,
                )
            ],
            failure_kind=FailureKind.INFRA_ERROR.value,
        )
        GradingJournal(state.journal).append(
            JournalEntry(student=student, identifier=identifier, record=record)
        )

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------
    def _drain_workers(self, states: List[_ShardState]) -> None:
        """SIGTERM every live worker, wait for drains, kill stragglers."""
        for state in states:
            if state.alive:
                try:
                    state.proc.terminate()
                except OSError:  # pragma: no cover - racing exit
                    pass
        deadline = time.monotonic() + self.DRAIN_GRACE
        for state in states:
            if state.proc is None:
                continue
            while state.proc.poll() is None and time.monotonic() < deadline:
                time.sleep(self.POLL)
            if state.proc.poll() is None:
                self._kill(state)
            self._reap(state)
        for state in states:
            if state.done:
                continue
            state.status.interrupted = [
                student for student, _ in self._remaining(state)
            ]

    # ------------------------------------------------------------------
    # Finalize
    # ------------------------------------------------------------------
    def _finalize(
        self,
        submissions: Dict[str, str],
        states: List[_ShardState],
        resumed: List[str],
    ) -> ServiceReport:
        book, stats = merge_shard_journals(
            [state.journal for state in states],
            suite=self.suite,
            order=list(submissions),
        )
        quarantined = sorted(
            student
            for state in states
            for student in state.status.quarantined
        )
        interrupted = sorted(
            student
            for state in states
            for student in state.status.interrupted
        )
        for state in states:
            durable = self._durable(state)
            state.status.graded = [
                student for student, _ in state.assigned if student in durable
            ]
        return ServiceReport(
            gradebook=book,
            shards=[state.status for state in states],
            merge=stats,
            resumed=resumed,
            quarantined=quarantined,
            interrupted=interrupted,
        )
