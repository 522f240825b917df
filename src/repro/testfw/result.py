"""Test results with scores and fine-grained messages.

Unlike classic xUnit results (pass/fail/error), the paper's tests assign
*scores* and report which requirements were and were not met, so students
can pinpoint problems in in-progress work.  :class:`TestResult` therefore
carries a numeric score out of a maximum plus an ordered list of
:class:`AspectOutcome` lines — one per independently-credited aspect of
the test — and renders exactly the kind of report shown in the paper's
figures 9–12.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["AspectStatus", "AspectOutcome", "TestResult", "SuiteResult"]


class AspectStatus(enum.Enum):
    """Outcome of one independently-checked aspect of a test."""

    PASSED = "passed"
    FAILED = "failed"
    SKIPPED = "skipped"  # e.g. semantics not run after syntax errors

    @property
    def symbol(self) -> str:
        return {"passed": "+", "failed": "-", "skipped": "~"}[self.value]


@dataclass
class AspectOutcome:
    """One requirement line of a test report.

    ``aspect`` is a stable key (``"fork syntax"``, ``"interleaving"`` ...),
    ``message`` the human explanation (empty for clean passes), and the
    points pair the credit earned for this aspect.
    """

    aspect: str
    status: AspectStatus
    message: str = ""
    points_earned: float = 0.0
    points_possible: float = 0.0

    def render(self) -> str:
        text = f"{self.status.symbol} {self.aspect}"
        if self.points_possible:
            text += f" [{self.points_earned:g}/{self.points_possible:g}]"
        if self.message:
            text += f": {self.message}"
        return text


@dataclass
class TestResult:
    """Score and explanation for one run of one test."""

    test_name: str
    score: float
    max_score: float
    outcomes: List[AspectOutcome] = field(default_factory=list)
    #: Fatal condition that pre-empted checking (crash, timeout, missing
    #: program); when set, ``outcomes`` may be empty.
    fatal: str = ""
    #: Failure-taxonomy kind of the underlying execution
    #: (:class:`repro.execution.taxonomy.FailureKind` value: ``"ok"``,
    #: ``"timeout"``, ``"crash"``, ``"signal"``, ``"garbled-trace"``,
    #: ``"infra-error"``); empty for results that never ran a program.
    failure_kind: str = ""
    #: Label of the controlled schedule the program ran under (e.g.
    #: ``preemption-bound:q1.r0``); empty for a run on free threads.
    schedule: str = ""

    @property
    def percent(self) -> float:
        return 100.0 * self.score / self.max_score if self.max_score else 0.0

    @property
    def passed(self) -> bool:
        return not self.fatal and self.score >= self.max_score

    def failed_aspects(self) -> List[AspectOutcome]:
        return [o for o in self.outcomes if o.status is AspectStatus.FAILED]

    def passed_aspects(self) -> List[AspectOutcome]:
        return [o for o in self.outcomes if o.status is AspectStatus.PASSED]

    def skipped_aspects(self) -> List[AspectOutcome]:
        return [o for o in self.outcomes if o.status is AspectStatus.SKIPPED]

    def render(self) -> str:
        """Multi-line report in the style of the paper's test output."""
        lines = [
            f"{self.test_name}: {self.score:g} / {self.max_score:g} "
            f"({self.percent:.0f}%)"
        ]
        if self.fatal:
            lines.append(f"! {self.fatal}")
        lines.extend(outcome.render() for outcome in self.outcomes)
        return "\n".join(lines)


@dataclass
class SuiteResult:
    """Results of all tests in one suite run."""

    suite_name: str
    results: List[TestResult] = field(default_factory=list)

    @property
    def score(self) -> float:
        return sum(r.score for r in self.results)

    @property
    def max_score(self) -> float:
        return sum(r.max_score for r in self.results)

    @property
    def percent(self) -> float:
        return 100.0 * self.score / self.max_score if self.max_score else 0.0

    def result_for(self, test_name: str) -> Optional[TestResult]:
        for result in self.results:
            if result.test_name == test_name:
                return result
        return None

    def by_name(self) -> Dict[str, TestResult]:
        return {r.test_name: r for r in self.results}

    def render(self) -> str:
        header = (
            f"Suite {self.suite_name}: {self.score:g} / {self.max_score:g} "
            f"({self.percent:.0f}%)"
        )
        body = "\n\n".join(result.render() for result in self.results)
        return header + ("\n\n" + body if body else "")
