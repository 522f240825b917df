"""Seeded class rosters of generated student files, and their pinned grades.

Each generated ``.py`` file is what a student would hand in: a header
unique to that student (so every original file has its own sha256) and
a ``main`` that resolves one registered workload variant.  The grader
sees only the files.

Rosters are balanced: every variant appears equally often among the
originals, and the seed decides only the order, the headers and which
earlier files the duplicates copy.  A seed therefore changes the inputs
but not the mix of work, which keeps runs with different seeds
comparable.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

#: Grade of record per variant, as (score percent, concurrency verdict,
#: failing interleavings, enumerated interleavings).  Verdict and census
#: are ``None`` where the grade carries none (no race detection).
Verdict = Tuple[str, Optional[str], Optional[int], Optional[int]]

PINNED: Dict[str, Verdict] = {
    "primes.correct": ("100.0", None, None, None),
    "primes.serialized": ("86.7", None, None, None),
    "primes.imbalanced": ("93.3", None, None, None),
    "primes.racy": ("93.3", None, None, None),
    "primes.no_fork": ("36.7", None, None, None),
    "primes.wrong_total": ("93.3", None, None, None),
    "primes.syntax_error": ("40.0", None, None, None),
    "primes.wrong_semantics": ("76.7", None, None, None),
    "jacobi.correct": ("100.0", None, None, None),
    "jacobi.in_place": ("58.8", None, None, None),
    "jacobi.missing_round": ("0.0", None, None, None),
    "jacobi.wrong_global_delta": ("88.2", None, None, None),
    "jacobi.no_round_barrier": ("0.0", None, None, None),
    "synclab.lost_update": ("66.7", "wrong", 8, 26),
    "synclab.guarded": ("100.0", "correct", 0, 40),
    "synclab.straggler": ("100.0", "racy-lucky", 0, 44),
}

#: Suites whose programs run on free threads (no controlled scheduler).
#: Now and then the OS runs one worker's whole share without a switch,
#: and the checker fails the thread-interleaving aspect: seen for 3 of
#: 3,000 ``jacobi.correct`` grades under ``--shards 2 --pool-size 1``,
#: and in-process for one ``primes.wrong_semantics`` grade in a run with
#: 4% host CPU steal.  Such a grade is allowed when giving back that
#: aspect's points restores the pinned grade exactly.
FREE_RUNNING = ("primes", "jacobi")


def check_grade(variant: str, grade: Optional[List[Any]]) -> str:
    """``"pinned"``, ``"race-missed"``, ``"interleaving-lost"`` or ``"wrong"``.

    *grade* is ``[percent, verdict, failing, enumerated,
    interleaving_failed, percent_with_interleaving_points]`` as the
    grading session reports it, or ``None`` when the submission has no
    grade.
    """
    if grade is None:
        return "wrong"
    percent, verdict, failing, total, interleaving_failed, restored = grade
    pinned = PINNED[variant]
    if (percent, verdict, failing, total) == pinned:
        return "pinned"
    if variant == "primes.racy" and percent == "100.0":
        # The lost update did not strike: 1 of ~55 racy grades in one
        # primes-class run.
        return "race-missed"
    if (
        interleaving_failed
        and variant.split(".")[0] in FREE_RUNNING
        and (restored, verdict, failing, total) == pinned
    ):
        return "interleaving-lost"
    return "wrong"


VARIANTS: Dict[str, List[str]] = {
    suite: [v for v in PINNED if v.startswith(suite + ".")]
    for suite in ("primes", "jacobi", "synclab")
}


@dataclass(frozen=True)
class Entry:
    """One student's submission."""

    student: str
    path: str
    variant: str
    #: Student whose file this one copies byte for byte (``None`` for
    #: an original).
    copy_of: Optional[str] = None


def _source(student: str, variant: str, token: str) -> str:
    return (
        f'"""Fork-join assignment submission of {student} ({token})."""\n'
        "import repro.workloads  # noqa: F401 - registers the variants\n"
        "from repro.execution.registry import resolve_main\n"
        "\n"
        f"main = resolve_main({variant!r})\n"
    )


def make_roster(
    suite: str,
    originals: int,
    seed: int,
    directory: Path,
    *,
    duplicate_share: float = 0.0,
    head: int = 0,
) -> List[Entry]:
    """Write a roster of *originals* distinct files plus duplicates.

    *originals* is rounded up to a multiple of the suite's variant
    count.  The first *head* entries are originals of the first *head*
    variants in catalogue order: the warm-up grades, the same work for
    every seed.  When *duplicate_share* is positive, about that
    share of the roster are byte-identical copies of an earlier file.
    The synclab straggler exercise is named in its file name, because
    the synclab suite picks its checker from the submission name.
    """
    variants = VARIANTS[suite]
    rng = random.Random(f"{suite}:{seed}")
    order = variants * math.ceil(originals / len(variants))
    for variant in variants[:head]:
        order.remove(variant)
    rng.shuffle(order)
    order = variants[:head] + order
    directory.mkdir(parents=True, exist_ok=True)

    entries: List[Entry] = []
    for index, variant in enumerate(order):
        student = f"s{index:05d}"
        exercise = "_straggler" if variant.endswith("straggler") else ""
        path = directory / f"{student}{exercise}.py"
        token = f"{rng.getrandbits(64):016x}"
        path.write_text(_source(student, variant, token))
        entries.append(Entry(student, str(path.resolve()), variant))

    copies = round(len(entries) * duplicate_share / (1.0 - duplicate_share))
    for n in range(copies):
        position = rng.randrange(head + 1, len(entries) + 1)
        original = rng.choice([e for e in entries[:position] if e.copy_of is None])
        student = f"d{n:05d}"
        path = directory / (student + Path(original.path).name[len(original.student):])
        path.write_bytes(Path(original.path).read_bytes())
        entries.insert(
            position,
            Entry(student, str(path.resolve()), original.variant, original.student),
        )
    return entries
