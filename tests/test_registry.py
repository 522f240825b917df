"""Loading student submission files: compiled once, executed fresh.

``resolve_main`` on a ``.py`` path reuses the compiled code of a file
whose bytes did not change, but runs the module body into a new module
every time, so nothing a run leaves at module level reaches the next
run.  The code cache is bounded and shared by threads.
"""

from __future__ import annotations

import os
import sys
import threading

import pytest

from repro.execution import registry
from repro.execution.registry import UnknownMainError, resolve_main
from repro.execution.runner import ProgramRunner

COUNTING = """\
from repro.tracing import print_property

RUNS = []


def main(args):
    RUNS.append(len(RUNS) + 1)
    print_property("Runs", len(RUNS))
"""


def write(path, text):
    path.write_text(text)
    return str(path)


def value_of(result, name):
    return [event.value for event in result.events if event.name == name]


class TestFreshModulePerRun:
    def test_module_state_does_not_survive_between_runs(self, tmp_path):
        path = write(tmp_path / "counting.py", COUNTING)
        runner = ProgramRunner(timeout=10.0)
        first = runner.run(path)
        second = runner.run(path)
        assert value_of(first, "Runs") == value_of(second, "Runs") == [1]

    def test_each_resolution_has_its_own_globals(self, tmp_path):
        path = write(tmp_path / "counting.py", COUNTING)
        first, second = resolve_main(path), resolve_main(path)
        assert first is not second
        assert first.__globals__ is not second.__globals__
        assert first.__code__ is second.__code__  # compiled once

    def test_same_length_rewrite_takes_effect(self, tmp_path):
        target = tmp_path / "value.py"
        path = write(target, "def main(args):\n    return 1\n")
        stamp = os.stat(path).st_mtime_ns
        assert resolve_main(path)([]) == 1
        write(target, "def main(args):\n    return 2\n")
        os.utime(path, ns=(stamp, stamp))  # same size, same mtime
        assert resolve_main(path)([]) == 2


class TestBrokenFiles:
    @pytest.mark.parametrize(
        "source",
        [
            "def main(args) :\n    return (\n",
            "import repro_module_that_does_not_exist\n\n\ndef main(args):\n    pass\n",
        ],
        ids=["syntax-error", "import-error"],
    )
    def test_every_load_raises(self, tmp_path, source):
        path = write(tmp_path / "broken.py", source)
        for _ in range(3):
            with pytest.raises(UnknownMainError, match="importing .* failed"):
                resolve_main(path)

    def test_fixed_file_loads_after_a_broken_one(self, tmp_path):
        target = tmp_path / "fixed.py"
        path = write(target, "def main(args) :\n    return (\n")
        with pytest.raises(UnknownMainError, match="importing"):
            resolve_main(path)
        write(target, "def main(args):\n    return 3\n")
        assert resolve_main(path)([]) == 3


class TestCodeCacheBound:
    def test_cache_stays_at_its_bound(self, tmp_path):
        bound = registry.CODE_CACHE_SIZE
        paths = [
            write(tmp_path / f"s{i}.py", f"def main(args):\n    return {i}\n")
            for i in range(bound + 3)
        ]
        for i, path in enumerate(paths):
            assert resolve_main(path)([]) == i
        cached = list(registry._code_cache)
        assert len(cached) == bound
        # Least recently used files were evicted first.
        assert cached == [os.path.abspath(p) for p in paths[-bound:]]

    def test_threads_sharing_the_cache_get_their_own_file(self, tmp_path):
        """More threads than cores and more files than the bound: every
        resolution returns its own file's program, and the cache never
        grows past its bound."""
        files = registry.CODE_CACHE_SIZE + 4
        paths = [
            write(tmp_path / f"t{i}.py", f"def main(args):\n    return {i}\n")
            for i in range(files)
        ]
        wrong = []
        oversize = []

        def worker(offset):
            for round_ in range(40):
                index = (offset + round_) % files
                if resolve_main(paths[index])([]) != index:
                    wrong.append(index)
                with registry._code_lock:
                    size = len(registry._code_cache)
                if size > registry.CODE_CACHE_SIZE:
                    oversize.append(size)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(n,)) for n in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert oversize == []
