"""Monte-Carlo PI problem: the second workshop exercise (§5).

=====================   ==============================================
identifier              behaviour
=====================   ==============================================
``pi.correct``          reference solution
``pi.serialized``       threads run one after another
``pi.racy``             unsynchronized hit total (exploration target)
``pi.wrong_semantics``  taxicab-norm in-circle test
``pi.wrong_final``      PI printed without the factor 4
``pi.syntax_error``     misnamed pre-fork property
``pi.no_fork``          root throws every dart itself
``pi.perf.latency``     sleep-kernel performance variant
``pi.perf.sim``         virtual-clock performance variant
=====================   ==============================================
"""

from repro.workloads.pi_montecarlo import (  # noqa: F401 - registration
    bugs,
    correct,
    perf,
)
from repro.workloads.pi_montecarlo.spec import (
    DEFAULT_NUM_POINTS,
    DEFAULT_NUM_THREADS,
    IN_CIRCLE,
    INDEX,
    NUM_IN_CIRCLE,
    NUM_POINTS,
    PI_ESTIMATE,
    TOTAL_IN_CIRCLE,
    X,
    Y,
)

__all__ = [
    "NUM_POINTS",
    "INDEX",
    "X",
    "Y",
    "IN_CIRCLE",
    "NUM_IN_CIRCLE",
    "TOTAL_IN_CIRCLE",
    "PI_ESTIMATE",
    "DEFAULT_NUM_POINTS",
    "DEFAULT_NUM_THREADS",
    "VARIANTS",
]

VARIANTS = [
    "pi.correct",
    "pi.serialized",
    "pi.racy",
    "pi.wrong_semantics",
    "pi.wrong_final",
    "pi.syntax_error",
    "pi.no_fork",
]
