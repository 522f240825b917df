"""Dependency-free utilities shared by the tracing, event-db and
scheduling layers."""

from repro.util.handoff import Handoff
from repro.util.thread_registry import FIRST_THREAD_ID, ThreadRegistry

__all__ = ["Handoff", "ThreadRegistry", "FIRST_THREAD_ID"]
