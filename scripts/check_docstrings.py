#!/usr/bin/env python
"""Docstring check: every public API member must carry a docstring.

AST-based (no imports, so it runs without numpy or any runtime deps) and
scoped to the audited public-API modules listed below.  "Public" means:
module, class, or function/method whose name does not start with ``_``
(``__init__`` is public — it is the constructor signature users read).
Property getters count; ``@overload`` stubs and nested functions do not.

Run from the repository root::

    python scripts/check_docstrings.py

Exit status 1 lists every missing docstring as ``path:line: name``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The audited surface: the public API modules whose docstrings the
#: documentation (docs/*.md) points into.
AUDITED = [
    "src/repro/__init__.py",
    "src/repro/cli.py",
    "src/repro/core/checker.py",
    "src/repro/core/performance.py",
    "src/repro/execution/exploration.py",
    "src/repro/execution/runner.py",
    "src/repro/execution/subprocess_runner.py",
    "src/repro/execution/supervisor.py",
    "src/repro/execution/timing.py",
    "src/repro/grading/export.py",
    "src/repro/grading/gradebook.py",
    "src/repro/grading/html_report.py",
    "src/repro/grading/journal.py",
    "src/repro/grading/logs.py",
    "src/repro/grading/records.py",
    "src/repro/grading/service.py",
    "src/repro/grading/shard_worker.py",
    "src/repro/obs/__init__.py",
    "src/repro/obs/export.py",
    "src/repro/obs/metrics.py",
    "src/repro/obs/registry.py",
    "src/repro/obs/spans.py",
    "src/repro/obs/views.py",
    "src/repro/tracing/print_property.py",
    "src/repro/tracing/session.py",
    "src/repro/util/carriers.py",
]


def is_public(name: str) -> bool:
    return not name.startswith("_") or name == "__init__"


def check_module(path: Path) -> list[str]:
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    rel = path.relative_to(ROOT)
    missing: list[str] = []
    if ast.get_docstring(tree) is None:
        missing.append(f"{rel}:1: module")

    def walk(node: ast.AST, prefix: str, public: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                child_public = public and is_public(child.name)
                qualified = f"{prefix}{child.name}"
                if child_public and ast.get_docstring(child) is None:
                    kind = "class" if isinstance(child, ast.ClassDef) else "def"
                    missing.append(f"{rel}:{child.lineno}: {kind} {qualified}")
                if isinstance(child, ast.ClassDef):
                    # Methods of private classes are private; functions
                    # nested in functions are implementation detail.
                    walk(child, f"{qualified}.", child_public)

    walk(tree, "", True)
    return missing


def main() -> int:
    failures: list[str] = []
    for relative in AUDITED:
        path = ROOT / relative
        if not path.exists():
            failures.append(f"{relative}:1: audited module is missing")
            continue
        failures.extend(check_module(path))
    if failures:
        print(f"{len(failures)} public member(s) missing docstrings:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"docstrings OK across {len(AUDITED)} audited modules")
    return 0


if __name__ == "__main__":
    sys.exit(main())
