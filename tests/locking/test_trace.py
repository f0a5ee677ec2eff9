"""LockTrace attachment hygiene: exception safety and nesting.

Regression tests for the sink contract: the trace is the lock table's
``sink`` while attached and nothing afterwards, even when a traced call
raises mid-narrative; a denied request must still leave a trace event;
nested traces unwind in order; and a batched ``acquire_many`` is recorded
as the table's one pass executes it.
"""

import pytest

from repro.errors import LockConflictError
from repro.locking.manager import LockManager
from repro.locking.modes import IS, S, X
from repro.locking.trace import LockTrace
from repro.protocol.base import PlannedLock


RA = ("ra",)


class TestExceptionSafety:
    def test_context_manager_detaches_after_raise(self):
        manager = LockManager()
        manager.acquire("t1", RA, X)
        with pytest.raises(LockConflictError):
            with LockTrace.attach(manager) as trace:
                assert manager.table.sink is trace
                manager.acquire("t2", RA, X, wait=False)
        assert manager.table.sink is None
        # ... and the denial was recorded before the exception propagated
        denied = [e for e in trace.events if e.outcome == "DENIED:LockConflictError"]
        assert len(denied) == 1
        assert denied[0].txn == "t2"

    def test_denied_release_recorded(self):
        manager = LockManager()
        with LockTrace.attach(manager) as trace:
            with pytest.raises(Exception):
                manager.release("nobody", RA)
        assert any(
            e.action == "release" and e.outcome and e.outcome.startswith("DENIED:")
            for e in trace.events
        )

    def test_detach_after_raise_without_context_manager(self):
        manager = LockManager()
        manager.acquire("t1", RA, X)
        trace = LockTrace.attach(manager)
        with pytest.raises(LockConflictError):
            manager.acquire("t2", RA, S, wait=False)
        trace.detach()
        assert manager.table.sink is None
        # tracing stopped: new calls do not append events
        before = len(trace)
        manager.acquire("t3", RA, S)
        assert len(trace) == before


class TestNestedAttach:
    def test_inner_detach_restores_outer_wrapper(self):
        manager = LockManager()
        outer = LockTrace.attach(manager)
        inner = LockTrace.attach(manager)
        manager.acquire("t1", RA, S)
        inner.detach()
        assert manager.table.sink is outer
        # the outer trace records again
        manager.acquire("t2", RA, S)
        assert [e.txn for e in inner.events] == ["t1"]
        assert [e.txn for e in outer.events] == ["t2"]
        outer.detach()
        assert manager.table.sink is None

    def test_detach_is_idempotent(self):
        manager = LockManager()
        trace = LockTrace.attach(manager)
        trace.detach()
        trace.detach()  # no-op, no error
        assert manager.table.sink is None


class TestNarrativeStillWorks:
    def test_grant_wait_wake_sequence(self):
        manager = LockManager()
        with LockTrace.attach(manager) as trace:
            manager.acquire("t1", RA, X)
            request = manager.acquire("t2", RA, S)  # queues
            assert not request.granted
            manager.release("t1", RA)
        actions = [(e.action, e.outcome) for e in trace.events]
        assert ("acquire", "granted") in actions
        assert ("acquire", "WAIT") in actions
        assert ("grant", "woken") in actions
        assert len(trace.waits()) == 1
        assert len(trace.grants()) == 2


class TestBatchedPass:
    def test_nowait_acquire_many_records_the_table_pass(self):
        manager = LockManager()
        manager.acquire("t2", ("db", "c"), X)
        steps = (
            PlannedLock(("db",), IS),
            PlannedLock(("db", "b"), S),
            PlannedLock(("db", "c"), S),
            PlannedLock(("db", "d"), S),
        )
        with LockTrace.attach(manager) as trace:
            with pytest.raises(LockConflictError):
                manager.acquire_many("t1", steps, wait=False)
        assert [(e.action, e.resource, e.outcome) for e in trace.events] == [
            ("acquire", ("db",), "granted"),
            ("acquire", ("db", "b"), "granted"),
            ("acquire", ("db", "c"), "DENIED:LockConflictError"),
        ]

    def test_covered_steps_leave_no_event(self):
        manager = LockManager()
        manager.acquire("t1", RA, X)
        with LockTrace.attach(manager) as trace:
            requests = manager.acquire_many(
                "t1", (PlannedLock(RA, S), PlannedLock(("rb",), S))
            )
        assert [r.resource for r in requests] == [("rb",)]
        assert [(e.resource, e.outcome) for e in trace.events] == [
            (("rb",), "granted")
        ]
