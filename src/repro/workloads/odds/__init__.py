"""Odd-numbers problem: the author's worked example (§5).

=======================  =============================================
identifier               behaviour
=======================  =============================================
``odds.correct``         reference solution
``odds.serialized``      threads run one after another
``odds.racy``            unsynchronized total (exploration target)
``odds.wrong_semantics`` inverted odd/even predicate
``odds.wrong_total``     off-by-one combined total
``odds.syntax_error``    misnamed pre-fork property + loop error
``odds.no_fork``         root does all the work itself
=======================  =============================================
"""

from repro.workloads.odds import bugs, correct, perf  # noqa: F401 - registration
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

__all__ = [
    "RANDOM_NUMBERS",
    "INDEX",
    "NUMBER",
    "IS_ODD",
    "NUM_ODDS",
    "TOTAL_NUM_ODDS",
    "DEFAULT_NUM_RANDOMS",
    "DEFAULT_NUM_THREADS",
    "VARIANTS",
]

VARIANTS = [
    "odds.correct",
    "odds.serialized",
    "odds.racy",
    "odds.wrong_semantics",
    "odds.wrong_total",
    "odds.syntax_error",
    "odds.no_fork",
]
