"""Smoke check of the grading benchmark on tiny rosters.

Run from the repository root::

    python3 -m pytest gradebench/test_smoke.py -q

Each workload is graded once untraced and once traced with a one-second
roster.  The checks: every metric of ``BENCHMARK.json`` is printed with
its unit, every grade matches its pinned verdict, and the traced run's
zero predictions hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Layer call counts predicted to be zero outside the named workload.
ONLY_ON = {
    "simulation.checkpoint.calls_per_sub": "primes-class",
    "exploration.search.calls_per_sub": "synclab-explore",
    "pool.dispatch.calls_per_sub": "jacobi-sharded",
    "grading.dedup_skipped_share": "primes-class",
}


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "gradebench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    return request.param, {trace: _run(request.param, trace) for trace in (0, 1)}


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(runs, trace, kind):
    _, procs = runs
    result = _result(procs[trace])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    printed = set(procs[trace].stdout.splitlines())
    for metric in SPEC[kind]:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        value = result["metrics"][name]["value"]
        assert f"{name} {value:.6g} {unit}" in printed


def test_every_grade_matches_its_pinned_verdict(runs):
    _, procs = runs
    metrics = _result(procs[0])["metrics"]
    assert metrics["verdict_ok_share"]["value"] == 1.0
    assert "grade samples:" in procs[0].stdout


def test_traced_zero_predictions(runs):
    workload, procs = runs
    metrics = _result(procs[1])["metrics"]
    for name, home in ONLY_ON.items():
        value = metrics[name]["value"]
        if workload == home:
            assert value > 0, name
        else:
            assert value == 0, name


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "gradebench", tmp_path / "gradebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
