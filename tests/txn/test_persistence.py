"""File-backed long-lock persistence and the lock trace."""

import pytest

from repro.errors import LockConflictError
from repro.graphs.units import object_resource
from repro.locking import LockTrace
from repro.locking.modes import S, X
from repro.txn import Workstation


@pytest.fixture
def ws():
    return Workstation("ws1", principal="user2")


class TestFilePersistence:
    def test_persist_and_restart(self, figure7_stack, ws, tmp_path):
        stack = figure7_stack
        stack.checkout.check_out(ws, "cells", "c1")
        path = tmp_path / "locks.json"
        written = stack.checkout.persist_to_file(path)
        assert written > 0

        restored = stack.checkout.restart_from_file(path)
        assert restored == written
        cell = object_resource(stack.catalog, "cells", "c1")
        assert list(stack.manager.holders(cell).values()) == [X]

    def test_restart_still_blocks_others(self, figure7_stack, ws, tmp_path):
        stack = figure7_stack
        stack.checkout.check_out(ws, "cells", "c1")
        path = tmp_path / "locks.json"
        stack.checkout.persist_to_file(path)
        stack.checkout.restart_from_file(path)
        other = Workstation("ws2", principal="user3")
        with pytest.raises(LockConflictError):
            stack.checkout.check_out(other, "cells", "c1")

    def test_checkin_after_file_restart(self, figure7_stack, ws, tmp_path):
        stack = figure7_stack
        local = stack.checkout.check_out(ws, "cells", "c1")
        local.root["robots"][0]["trajectory"] = "from-file"
        path = tmp_path / "locks.json"
        stack.checkout.persist_to_file(path)
        stack.checkout.restart_from_file(path)
        stack.checkout.check_in(ws, "cells", "c1")
        assert (
            stack.database.get("cells", "c1").root["robots"][0]["trajectory"]
            == "from-file"
        )

    def test_short_transactions_rolled_back(self, figure7_stack, ws, tmp_path):
        stack = figure7_stack
        writer = stack.txns.begin(principal="user3")
        stack.txns.update_component(writer, "cells", "c1", "robots[r2].trajectory", "x")
        stack.checkout.check_out(ws, "cells", "c1", component="robots[r1]")
        path = tmp_path / "locks.json"
        stack.checkout.persist_to_file(path)
        stack.checkout.restart_from_file(path)
        assert (
            stack.database.get("cells", "c1").root["robots"][1]["trajectory"] == "tr2"
        )

    def test_unknown_owner_restored_by_name(self, figure7_stack, tmp_path):
        """Locks whose owner transaction is gone still block (they belong
        to a workstation that has not reconnected yet)."""
        import json

        stack = figure7_stack
        path = tmp_path / "locks.json"
        cell = list(object_resource(stack.catalog, "cells", "c1"))
        json.dump([["lost-workstation", cell, "X"]], open(path, "w"))
        stack.checkout.restart_from_file(path)
        txn = stack.txns.begin()
        from repro.errors import LockConflictError

        with pytest.raises(LockConflictError):
            stack.txns.read_object(txn, "cells", "c1")


class TestLockTrace:
    def test_records_grants_and_waits(self, figure7_stack):
        stack = figure7_stack
        trace = LockTrace.attach(stack.manager)
        reader = stack.txns.begin()
        stack.txns.read_object(reader, "effectors", "e1")
        stack.authorization.grant_modify("lib", "effectors")
        librarian = stack.txns.begin(principal="lib")
        e1 = object_resource(stack.catalog, "effectors", "e1")
        stack.protocol.request(librarian, e1, X, wait=True)
        assert trace.grants()
        assert len(trace.waits()) >= 1  # X on e1 queues behind the S
        trace.detach()

    def test_narrative_renders_in_request_order(self, figure7_stack):
        stack = figure7_stack
        trace = LockTrace.attach(stack.manager)
        txn = stack.txns.begin(principal="user2")
        cell = object_resource(stack.catalog, "cells", "c1")
        stack.protocol.request(txn, cell + ("robots", "r1"), X)
        lines = trace.render().splitlines()
        # the narrative of section 4.4.2.2: IX chain first, X target last
        assert "IX" in lines[0]
        assert any("X -> granted" in line or ("X" in line and "granted" in line)
                   for line in lines[-1:])
        trace.detach()

    def test_wake_events_recorded(self, figure7_stack):
        stack = figure7_stack
        trace = LockTrace.attach(stack.manager)
        e1 = object_resource(stack.catalog, "effectors", "e1")
        holder = stack.txns.begin()
        stack.protocol.request(holder, e1, S)
        stack.authorization.grant_modify("lib", "effectors")
        waiter = stack.txns.begin(principal="lib")
        stack.protocol.request(waiter, e1, X, wait=True)
        stack.txns.commit(holder)
        woken = [e for e in trace.events if e.outcome == "woken"]
        assert any(e.txn is waiter for e in woken)
        trace.detach()

    def test_detach_restores_methods(self, figure7_stack):
        stack = figure7_stack
        trace = LockTrace.attach(stack.manager)
        assert stack.manager.table.sink is trace
        trace.detach()
        assert stack.manager.table.sink is None
        trace.detach()  # idempotent
        assert stack.manager.table.sink is None

    def test_restart_is_recorded_on_the_new_table(self, figure7_stack, ws, tmp_path):
        stack = figure7_stack
        stack.checkout.check_out(ws, "cells", "c1")
        path = tmp_path / "locks.json"
        written = stack.checkout.persist_to_file(path)
        with LockTrace.attach(stack.manager) as trace:
            stack.checkout.restart_from_file(path)
            assert stack.manager.table.sink is trace
        # every long lock restored straight into the new table is an event
        restored = [e for e in trace.events if e.action == "acquire"]
        assert len(restored) == written
        assert all(e.outcome == "granted" for e in restored)
        assert stack.manager.table.sink is None

    def test_for_txn_filter_and_clear(self, figure7_stack):
        stack = figure7_stack
        trace = LockTrace.attach(stack.manager)
        t1 = stack.txns.begin()
        t2 = stack.txns.begin()
        stack.txns.read_object(t1, "effectors", "e1")
        stack.txns.read_object(t2, "effectors", "e2")
        assert all(e.txn is t1 for e in trace.for_txn(t1))
        assert trace.for_txn(t1) and trace.for_txn(t2)
        trace.clear()
        assert len(trace) == 0
        trace.detach()
