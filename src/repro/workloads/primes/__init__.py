"""Primes problem: the paper's running example, as tested programs.

Importing this package registers every variant with the execution
registry:

======================   ==============================================
identifier               behaviour
======================   ==============================================
``primes.correct``       reference solution (Fig. 9 — full score)
``primes.serialized``    serialized + imbalanced (Fig. 10 — 80 %)
``primes.syntax_error``  wrong name + loop error (Fig. 11 — 10 %)
``primes.imbalanced``    interleaved but lopsided load
``primes.racy``          unsynchronized total (exploration target)
``primes.wrong_semantics``  inverted primality predicate
``primes.wrong_total``   off-by-one combined total
``primes.no_fork``       root does all the work itself
``primes.perf.*``        performance variants (latency/numpy/cpu/sim)
======================   ==============================================
"""

from repro.workloads.primes import (  # noqa: F401 - imported for registration
    correct,
    imbalanced,
    no_fork,
    perf,
    racy,
    serialized,
    stdin_driven,
    syntax_error,
    uninstrumented,
    wrong_semantics,
    wrong_total,
)
from repro.workloads.primes.spec import (
    DEFAULT_NUM_RANDOMS,
    DEFAULT_NUM_THREADS,
    INDEX,
    IS_PRIME,
    NUM_PRIMES,
    NUMBER,
    RANDOM_NUMBERS,
    TOTAL_NUM_PRIMES,
)

__all__ = [
    "RANDOM_NUMBERS",
    "INDEX",
    "NUMBER",
    "IS_PRIME",
    "NUM_PRIMES",
    "TOTAL_NUM_PRIMES",
    "DEFAULT_NUM_RANDOMS",
    "DEFAULT_NUM_THREADS",
]

#: All functionality-variant identifiers, for batch grading sweeps.
VARIANTS = [
    "primes.correct",
    "primes.serialized",
    "primes.syntax_error",
    "primes.imbalanced",
    "primes.racy",
    "primes.wrong_semantics",
    "primes.wrong_total",
    "primes.no_fork",
]
