"""Per-worker park/unpark handoff for cooperative schedulers.

A cooperative scheduler lets one enrolled worker run at a time and moves
the grant from worker to worker at scheduling points.  Waking the chosen
worker through one shared condition variable (``notify_all``) wakes
*every* waiting worker, and all but one of them re-check a predicate and
go back to sleep.  :class:`Handoff` gives each worker its own *baton*
instead: a :class:`threading.Lock` the worker blocks on while it is
parked, so a grant wakes exactly the worker it names.

* :meth:`Handoff.park_until` is the worker side: with the scheduler lock
  held, it parks the caller on its baton until the caller's predicate
  holds.  A predicate that already holds (a self-grant) returns at once,
  without blocking or waking anyone.
* :meth:`Handoff.unpark` is the granting side: it releases the named
  worker's baton, and only if that worker is parked.
* :meth:`Handoff.unpark_all` serves abort, deadlock and replay
  divergence: every parked worker wakes and re-checks its predicate.

Every method is called with the owning scheduler's lock held.  A baton's
``parked`` flag is set by its worker and cleared by whoever releases the
baton, both under that lock, so no baton is ever released twice.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Hashable

__all__ = ["Handoff"]


class _Baton:
    """One worker's parking spot: a lock that is held while it is parked."""

    __slots__ = ("lock", "parked")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.lock.acquire()
        self.parked = False


class Handoff:
    """Per-worker batons guarded by one scheduler lock."""

    def __init__(self, lock: threading.Lock) -> None:
        """*lock* is the scheduler lock every call is made under."""
        self._lock = lock
        self._batons: Dict[Hashable, _Baton] = {}

    def add(self, key: Hashable) -> None:
        """Give worker *key* a baton; call before it first parks."""
        self._batons[key] = _Baton()

    def discard(self, key: Hashable) -> None:
        """Drop worker *key*'s baton once it will never park again."""
        self._batons.pop(key, None)

    def park_until(self, key: Hashable, predicate: Callable[[], bool]) -> None:
        """Block worker *key* until *predicate* holds.

        Called, and returns, with the scheduler lock held; the lock is
        released only while the worker is parked.  The predicate is
        re-checked under the lock after every wake-up.
        """
        baton = self._batons[key]
        lock = self._lock
        while not predicate():
            baton.parked = True
            lock.release()
            try:
                baton.lock.acquire()
            finally:
                lock.acquire()

    def unpark(self, key: Hashable) -> None:
        """Wake worker *key* if it is parked; otherwise do nothing."""
        baton = self._batons.get(key)
        if baton is not None and baton.parked:
            baton.parked = False
            baton.lock.release()

    def unpark_all(self) -> None:
        """Wake every parked worker."""
        for baton in self._batons.values():
            if baton.parked:
                baton.parked = False
                baton.lock.release()
