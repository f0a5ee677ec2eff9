"""Coarse demands: S/X at database, segment and relation level."""

import pytest

from repro.graphs.units import object_resource
from repro.locking.modes import IS, IX, S, X


class TestRelationLevel:
    def test_s_on_relation_propagates_to_all_entry_points(self, figure7_stack):
        stack = figure7_stack
        txn = stack.txns.begin()
        stack.protocol.request(txn, ("db1", "seg1", "cells"), S)
        locks = stack.manager.locks_of(txn)
        for key in ("e1", "e2", "e3"):
            assert locks[("db1", "seg2", "effectors", key)] is S

    def test_s_on_common_relation_itself(self, figure7_stack):
        stack = figure7_stack
        txn = stack.txns.begin()
        stack.protocol.request(txn, ("db1", "seg2", "effectors"), S)
        locks = stack.manager.locks_of(txn)
        assert locks[("db1", "seg2", "effectors")] is S
        # no references below effectors: no further propagation
        assert len([r for r in locks if len(r) == 4]) == 0


class TestSegmentAndDatabaseLevel:
    def test_s_on_segment_reaches_entry_points_of_its_relations(self, figure7_stack):
        stack = figure7_stack
        txn = stack.txns.begin()
        stack.protocol.request(txn, ("db1", "seg1"), S)
        locks = stack.manager.locks_of(txn)
        # the cells in seg1 reference all three effectors in seg2
        for key in ("e1", "e2", "e3"):
            assert locks[("db1", "seg2", "effectors", key)] is S
        assert locks[("db1", "seg1")] is S
        assert locks[("db1",)] is IS

    def test_x_on_database_covers_everything(self, figure7_stack):
        stack = figure7_stack
        stack.authorization.grant_modify("admin", "cells")
        stack.authorization.grant_modify("admin", "effectors")
        txn = stack.txns.begin(principal="admin")
        stack.protocol.request(txn, ("db1",), X)
        assert stack.manager.held_mode(txn, ("db1",)) is X
        # another transaction is fully excluded
        other = stack.txns.begin()
        granted = stack.protocol.request(
            other, object_resource(stack.catalog, "effectors", "e1"), S, wait=True
        )
        assert not all(r.granted for r in granted)

    def test_segment_lock_blocks_writers_into_it(self, figure7_stack):
        stack = figure7_stack
        txn = stack.txns.begin()
        stack.protocol.request(txn, ("db1", "seg1"), S)
        writer = stack.txns.begin(principal="user2")
        from repro.errors import LockConflictError

        cell = object_resource(stack.catalog, "cells", "c1")
        with pytest.raises(LockConflictError):
            stack.protocol.request(
                writer, cell + ("robots", "r1"), X, wait=False
            )


class TestConversionEdgeCases:
    def test_conversion_waiter_survives_holder_abort(self, figure7_stack):
        """A conversion queued behind another holder is re-processed when
        its own grant disappears (abort path in the lock table)."""
        stack = figure7_stack
        table = stack.manager.table
        resource = ("db1", "seg2", "effectors", "e1")
        table.request("a", resource, S)
        table.request("b", resource, S)
        upgrade = table.request("a", resource, X)  # conversion, waits on b
        assert not upgrade.granted
        # "a" aborts: its grant disappears while the conversion still queues
        table.release_all("a")
        assert upgrade.status == "cancelled"
        # "b" is unaffected and still holds S
        assert table.held_mode("b", resource) is S

    def test_conversion_requeued_as_new_after_release(self, figure7_stack):
        """The defensive branch: a conversion whose base grant vanished is
        demoted to a normal queued request, not lost."""
        stack = figure7_stack
        table = stack.manager.table
        resource = ("r",)
        table.request("a", resource, S)
        table.request("b", resource, S)
        upgrade = table.request("a", resource, X)
        # drop a's grant behind the queue's back (simulates a partial abort)
        entry = table._entries[resource]
        table._drop_grant(entry, "a", resource, entry.granted["a"])
        woken = table.release("b", resource)
        # the conversion was requeued and eventually granted as a new lock
        assert upgrade in woken
        assert table.held_mode("a", resource) is X
