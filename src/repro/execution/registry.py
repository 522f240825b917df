"""Resolution of *main class identifiers* to runnable entry points.

The paper's test programs name the program under test with a string such
as ``"ConcurrentPrimeNumbers"`` (the ``mainClassIdentifier`` parameter
method).  In this Python reproduction an identifier resolves, in order:

1. an explicit registration made with :func:`register_main` — the normal
   path for workloads shipped in :mod:`repro.workloads` and for student
   code imported by a grading harness;
2. a dotted path ``"package.module:function"`` (or ``"package.module"``,
   implying a module-level ``main``), imported on demand.

Every entry point has the signature ``main(args: list[str]) -> None``,
the Python analogue of ``public static void main(String[])``.

A ``.py`` file (a student submission) is compiled once per content and
executed into a fresh module on every resolution: schedule exploration
runs one file dozens of times, and module-level state must never leak
from one run into the next.
"""

from __future__ import annotations

import importlib
import importlib.util
import io
import os
import threading
from collections import OrderedDict
from types import CodeType
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "MainFunction",
    "register_main",
    "resolve_main",
    "registered_mains",
    "unregister_main",
    "UnknownMainError",
]

MainFunction = Callable[[List[str]], None]

_lock = threading.Lock()
_registry: Dict[str, MainFunction] = {}

#: Compiled submission files kept for reuse, least recently used first.
#: Resolution runs outside the in-process session lock, so the cache has
#: its own lock.
CODE_CACHE_SIZE = 8
_code_lock = threading.Lock()
_code_cache: "OrderedDict[str, Tuple[bytes, CodeType]]" = OrderedDict()


class UnknownMainError(LookupError):
    """Raised when a main class identifier cannot be resolved."""

    def __init__(self, identifier: str, detail: str = "") -> None:
        message = f"no tested program registered or importable as {identifier!r}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)
        self.identifier = identifier


def register_main(identifier: str) -> Callable[[MainFunction], MainFunction]:
    """Decorator registering *identifier* as the name of a tested program.

    Example::

        @register_main("ConcurrentPrimeNumbers")
        def main(args: list[str]) -> None:
            ...

    Re-registration replaces the previous entry, which lets a grading
    session bind the standard assignment name to successive student
    submissions.
    """

    def decorator(func: MainFunction) -> MainFunction:
        with _lock:
            _registry[identifier] = func
        return func

    return decorator


def unregister_main(identifier: str) -> None:
    """Remove a registration; unknown identifiers are ignored."""
    with _lock:
        _registry.pop(identifier, None)


def registered_mains() -> List[str]:
    """All explicitly registered identifiers, sorted."""
    with _lock:
        return sorted(_registry)


def _compiled(origin: str) -> CodeType:
    """The code object of the file at absolute path *origin*.

    Reads the file on every call and reuses the cached code only while
    the bytes are unchanged, so an edit — even one that keeps the size
    and modification time — takes effect on the next run.  A file that
    does not compile raises and is never cached.
    """
    with io.open_code(origin) as handle:
        source = handle.read()
    with _code_lock:
        entry = _code_cache.get(origin)
        if entry is not None and entry[0] == source:
            _code_cache.move_to_end(origin)
            return entry[1]
    code = compile(source, origin, "exec", dont_inherit=True)
    with _code_lock:
        _code_cache[origin] = (source, code)
        _code_cache.move_to_end(origin)
        while len(_code_cache) > CODE_CACHE_SIZE:
            _code_cache.popitem(last=False)
    return code


def _load_from_file(path: str, attr: str, identifier: str) -> MainFunction:
    """Load a tested program from a source file — a student submission.

    The module body runs into a fresh module on every call; only the
    compiled code is shared (see :func:`_compiled`).
    """
    if not os.path.exists(path):
        raise UnknownMainError(identifier, f"file {path!r} does not exist")
    module_name = f"_submission_{abs(hash(os.path.abspath(path)))}"
    spec = importlib.util.spec_from_file_location(module_name, path)
    if spec is None or spec.origin is None:
        raise UnknownMainError(identifier, f"cannot load {path!r}")
    module = importlib.util.module_from_spec(spec)
    try:
        exec(_compiled(spec.origin), module.__dict__)
    except Exception as exc:  # noqa: BLE001 - import error is a grading fact
        raise UnknownMainError(identifier, f"importing {path!r} failed: {exc}") from exc
    func = getattr(module, attr, None)
    if func is None or not callable(func):
        raise UnknownMainError(identifier, f"file {path!r} has no callable {attr!r}")
    return func


def resolve_main(identifier: str) -> MainFunction:
    """Resolve *identifier* to a callable entry point.

    Resolution order: explicit registration; a ``.py`` file path (with
    optional ``:function``, default ``main``) — the student-submission
    case; finally a dotted module path.
    """
    with _lock:
        registered = _registry.get(identifier)
    if registered is not None:
        return registered
    target, _, attr = identifier.partition(":")
    attr = attr or "main"
    if target.endswith(".py"):
        return _load_from_file(target, attr, identifier)
    try:
        module = importlib.import_module(target)
    except ImportError as exc:
        raise UnknownMainError(identifier, str(exc)) from exc
    func = getattr(module, attr, None)
    if func is None or not callable(func):
        raise UnknownMainError(identifier, f"module {target!r} has no callable {attr!r}")
    return func
