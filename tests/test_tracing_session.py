"""Unit tests of trace sessions: interception, hiding, capture."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.tracing.print_property import (
    print_property,
    set_standalone_hidden,
    standalone_hidden,
)
from repro.tracing.session import (
    TraceSession,
    current_session,
    get_hide_redirected_prints,
    set_hide_redirected_prints,
)


class TestActivation:
    def test_session_becomes_current(self):
        session = TraceSession()
        with session.activate():
            assert current_session() is session
            assert session.active
        assert current_session() is None
        assert not session.active

    def test_nested_sessions_rejected(self):
        outer = TraceSession()
        inner = TraceSession()
        with outer.activate():
            with pytest.raises(RuntimeError, match="already active"):
                inner._install()

    def test_stdout_restored_after_exit(self):
        before = sys.stdout
        with TraceSession().activate():
            assert sys.stdout is not before
        assert sys.stdout is before

    def test_stdout_restored_after_exception(self):
        before = sys.stdout
        with pytest.raises(ValueError):
            with TraceSession().activate():
                raise ValueError("boom")
        assert sys.stdout is before
        assert current_session() is None


class TestRecording:
    def test_plain_print_records_type_named_event(self):
        session = TraceSession()
        with session.activate():
            print("hello")
            print(42)
        events = session.database.snapshot()
        assert [(e.name, e.value) for e in events] == [("str", "hello"), ("int", 42)]
        assert all(not e.explicit for e in events)

    def test_print_property_records_explicit_event(self):
        session = TraceSession()
        with session.activate():
            print_property("Index", 3)
        [event] = session.database.snapshot()
        assert event.explicit
        assert event.name == "Index"
        assert event.value == 3
        assert event.raw_line == "Thread 23->Index:3"

    def test_print_property_not_double_recorded(self):
        session = TraceSession()
        with session.activate():
            print_property("Index", 0)
        assert len(session.database) == 1

    def test_output_preserves_text_and_order(self):
        session = TraceSession()
        with session.activate():
            print("first")
            print_property("Number", 509)
            print("last")
        assert session.output() == "first\nThread 23->Number:509\nlast\n"

    def test_multi_arg_print_records_joined_string(self):
        session = TraceSession()
        with session.activate():
            print("a", "b", 3)
        [event] = session.database.snapshot()
        assert event.name == "str"
        assert event.value == "a b 3"

    def test_stderr_print_passes_through_unrecorded(self, capsys):
        session = TraceSession()
        with session.activate():
            print("to err", file=sys.stderr)
        assert len(session.database) == 0
        assert "to err" in capsys.readouterr().err

    def test_direct_stdout_write_recorded_per_line(self):
        session = TraceSession()
        with session.activate():
            sys.stdout.write("one\ntwo\n")
        events = session.database.snapshot()
        assert [e.raw_line for e in events] == ["one", "two"]

    def test_partial_line_flushed_at_session_end(self):
        session = TraceSession()
        with session.activate():
            sys.stdout.write("no newline")
        assert session.output_lines() == ["no newline"]

    def test_thread_identity_kept_with_events(self):
        session = TraceSession()
        seen = {}

        def worker():
            print_property("Is Prime", True)
            seen["thread"] = threading.current_thread()

        with session.activate():
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        [event] = session.database.snapshot()
        assert event.thread is seen["thread"]
        assert event.thread is not threading.current_thread()


class TestHiding:
    def test_hidden_print_produces_no_output_and_no_trace(self):
        session = TraceSession(hidden=True)
        with session.activate():
            print("invisible")
            print_property("Index", 0)
        assert session.output() == ""
        assert len(session.database) == 0

    def test_hide_toggle_mid_run(self):
        session = TraceSession()
        with session.activate():
            print_property("A", 1)
            set_hide_redirected_prints(True)
            print_property("B", 2)
            set_hide_redirected_prints(False)
            print_property("C", 3)
        assert [e.name for e in session.database.snapshot()] == ["A", "C"]

    def test_get_hide_outside_session_is_false(self):
        assert get_hide_redirected_prints() is False

    def test_set_hide_outside_session_sets_the_standalone_flag(self, capsys):
        """A program running in a child, or on its own, hides its prints
        as it would under a session."""
        try:
            set_hide_redirected_prints(True)
            assert get_hide_redirected_prints() is True
            assert standalone_hidden() is True
            print_property("Index", 5)
            assert capsys.readouterr().out == ""
        finally:
            set_hide_redirected_prints(False)
        assert get_hide_redirected_prints() is False

    def test_a_session_keeps_its_own_flag(self):
        try:
            set_standalone_hidden(True)
            session = TraceSession()
            with session.activate():
                assert get_hide_redirected_prints() is False
                print_property("Index", 0)
                set_hide_redirected_prints(True)
            assert session.hidden is True
            assert standalone_hidden() is True
            assert len(session.database) == 1
        finally:
            set_standalone_hidden(False)

    def test_get_hide_reflects_session_flag(self):
        session = TraceSession(hidden=True)
        with session.activate():
            assert get_hide_redirected_prints() is True


class TestObservers:
    def test_observers_see_events_synchronously(self):
        session = TraceSession()
        seen = []
        session.add_observer(type("Obs", (), {"notify": staticmethod(seen.append)})())
        with session.activate():
            print_property("Index", 1)
        assert len(seen) == 1
        assert seen[0].name == "Index"


class TestStandalone:
    def test_print_property_without_session_prints(self, capsys):
        print_property("Index", 5)
        out = capsys.readouterr().out
        assert "->Index:5" in out
        assert out.startswith("Thread ")

    def test_print_property_rejects_non_string_name(self):
        with pytest.raises(TypeError, match="property name"):
            print_property(42, "value")
