"""Lock table: grants, queues, conversions, fairness, persistence."""

import pytest

from repro.errors import LockConflictError, LockError
from repro.locking.lock_table import LockTable, RequestStatus
from repro.locking.modes import IS, IX, S, SIX, X


@pytest.fixture
def table():
    return LockTable()


R = ("db1", "seg1", "cells", "c1")


class TestBasicGrants:
    def test_first_request_granted(self, table):
        request = table.request("t1", R, S)
        assert request.granted

    def test_compatible_grants_coexist(self, table):
        assert table.request("t1", R, S).granted
        assert table.request("t2", R, S).granted
        assert table.holders(R) == {"t1": S, "t2": S}

    def test_incompatible_request_waits(self, table):
        table.request("t1", R, S)
        request = table.request("t2", R, X)
        assert request.status == RequestStatus.WAITING

    def test_incompatible_nowait_raises(self, table):
        table.request("t1", R, S)
        with pytest.raises(LockConflictError) as err:
            table.request("t2", R, X, wait=False)
        assert err.value.resource == R
        assert err.value.requested is X

    def test_held_mode(self, table):
        table.request("t1", R, IX)
        assert table.held_mode("t1", R) is IX
        assert table.held_mode("t2", R) is None

    def test_holds_at_least(self, table):
        table.request("t1", R, IX)
        assert table.holds_at_least("t1", R, IS)
        assert not table.holds_at_least("t1", R, S)

    def test_intention_modes_share(self, table):
        assert table.request("t1", R, IX).granted
        assert table.request("t2", R, IX).granted
        assert table.request("t3", R, IS).granted


class TestConversion:
    def test_upgrade_is_to_x_alone(self, table):
        table.request("t1", R, IS)
        request = table.request("t1", R, X)
        assert request.granted
        assert table.held_mode("t1", R) is X

    def test_ix_plus_s_yields_six(self, table):
        table.request("t1", R, IX)
        table.request("t1", R, S)
        assert table.held_mode("t1", R) is SIX

    def test_conversion_blocked_by_other_holder(self, table):
        table.request("t1", R, S)
        table.request("t2", R, S)
        request = table.request("t1", R, X)
        assert request.status == RequestStatus.WAITING

    def test_conversion_granted_after_release(self, table):
        table.request("t1", R, S)
        table.request("t2", R, S)
        pending = table.request("t1", R, X)
        woken = table.release("t2", R)
        assert pending in woken
        assert table.held_mode("t1", R) is X

    def test_reacquire_same_mode_counts(self, table):
        table.request("t1", R, S)
        table.request("t1", R, S)
        table.release("t1", R)
        assert table.held_mode("t1", R) is S
        table.release("t1", R)
        assert table.held_mode("t1", R) is None

    def test_conversion_bypasses_queue(self, table):
        table.request("t1", R, S)
        table.request("t2", R, S)
        table.request("t3", R, X)  # queued new request
        # t1's upgrade waits only for t2, not behind t3
        upgrade = table.request("t1", R, X)
        assert upgrade.status == RequestStatus.WAITING
        woken = table.release("t2", R)
        assert upgrade in woken
        assert table.held_mode("t1", R) is X

    def test_conversion_nowait_raises(self, table):
        table.request("t1", R, S)
        table.request("t2", R, S)
        with pytest.raises(LockConflictError):
            table.request("t1", R, X, wait=False)


class TestFairness:
    def test_fifo_no_starvation(self, table):
        """A queued X is not starved by later S requests."""
        table.request("t1", R, S)
        blocked_x = table.request("t2", R, X)
        late_s = table.request("t3", R, S)
        assert late_s.status == RequestStatus.WAITING  # queued behind the X
        woken = table.release("t1", R)
        assert blocked_x in woken
        assert late_s not in woken

    def test_queue_drains_in_order(self, table):
        table.request("t1", R, X)
        first = table.request("t2", R, S)
        second = table.request("t3", R, S)
        woken = table.release("t1", R)
        # both compatible S requests granted together, in order
        assert woken == [first, second]

    def test_release_grants_only_compatible_prefix(self, table):
        table.request("t1", R, X)
        queued_s = table.request("t2", R, S)
        queued_x = table.request("t3", R, X)
        queued_s2 = table.request("t4", R, S)
        woken = table.release("t1", R)
        assert woken == [queued_s]
        assert queued_x.status == RequestStatus.WAITING
        assert queued_s2.status == RequestStatus.WAITING


class TestRelease:
    def test_release_unheld_raises(self, table):
        with pytest.raises(LockError):
            table.release("t1", R)

    def test_release_all_clears(self, table):
        table.request("t1", R, IX)
        table.request("t1", R[:3], IX)
        table.release_all("t1")
        assert table.lock_count() == 0

    def test_release_all_cancels_waiting(self, table):
        table.request("t1", R, X)
        pending = table.request("t2", R, S)
        table.release_all("t2")
        assert pending.status == RequestStatus.CANCELLED

    def test_release_all_keep_long(self, table):
        table.request("t1", R, X, long=True)
        table.request("t1", R[:3], IX)  # short
        table.release_all("t1", keep_long=True)
        assert table.held_mode("t1", R) is X
        assert table.held_mode("t1", R[:3]) is None

    def test_cancel_waiting_request(self, table):
        table.request("t1", R, X)
        pending = table.request("t2", R, S)
        table.cancel(pending)
        assert pending.status == RequestStatus.CANCELLED
        # queue is empty again; new requests grant immediately after release
        table.release("t1", R)
        assert table.request("t3", R, S).granted

    def test_cancel_unblocks_queue(self, table):
        table.request("t1", R, S)
        blocked_x = table.request("t2", R, X)
        blocked_s = table.request("t3", R, S)
        woken = table.cancel(blocked_x)
        assert blocked_s in woken

    def test_cancelled_conversion_keeps_its_grant(self, table):
        table.request("t1", R, S)
        table.request("t2", R, S)
        conversion = table.request("t1", R, X)  # blocked by t2's S
        assert not conversion.granted
        table.cancel(conversion)  # a timeout
        # the failed conversion is gone but the original S grant stays
        assert table.waiting_requests_of("t1") == []
        assert table.held_mode("t1", R) is S
        # and the queue is live: t2 can still convert after t1 releases
        table.release_all("t1")
        assert table.request("t2", R, X).granted
        assert table.held_mode("t2", R) is X


class TestMetrics:
    def test_conflict_tests_counted(self, table):
        table.request("t1", R, S)
        table.request("t2", R, S)
        assert table.conflict_tests >= 1

    def test_request_counters(self, table):
        table.request("t1", R, S)
        table.request("t2", R, X)
        assert table.requests == 2
        assert table.immediate_grants == 1
        assert table.waits == 1

    def test_max_entries_high_water(self, table):
        table.request("t1", ("a",), S)
        table.request("t1", ("b",), S)
        table.release_all("t1")
        assert table.max_entries == 2
        assert table.lock_count() == 0

    def test_lock_count(self, table):
        table.request("t1", R, S)
        table.request("t2", R, S)
        assert table.lock_count() == 2


class TestLongLockPersistence:
    def test_dump_and_restore(self, table):
        table.request("w1", R, X, long=True)
        table.request("w1", R[:3], IX, long=True)
        table.request("t2", ("other",), S)  # short: lost in the crash
        dump = table.dump_long_locks()
        assert len(dump) == 2

        fresh = LockTable()
        fresh.restore_long_locks(dump)
        assert fresh.held_mode("w1", R) is X
        assert fresh.held_mode("w1", R[:3]) is IX
        assert fresh.held_mode("t2", ("other",)) is None

    def test_restored_locks_still_block(self, table):
        table.request("w1", R, X, long=True)
        fresh = LockTable()
        fresh.restore_long_locks(table.dump_long_locks())
        assert fresh.request("t2", R, S).status == RequestStatus.WAITING

    def test_dump_excludes_waiting(self, table):
        table.request("t1", R, X)
        table.request("w1", R, X, long=True)  # waits
        assert table.dump_long_locks() == []


class TestWaitsForEdges:
    def test_edge_from_waiter_to_holder(self, table):
        table.request("t1", R, X)
        table.request("t2", R, S)
        assert ("t2", "t1") in table.waits_for_edges()

    def test_edge_between_queued_requests(self, table):
        table.request("t1", R, S)
        table.request("t2", R, X)  # waits on t1
        table.request("t3", R, X)  # waits on t1 and t2
        edges = set(table.waits_for_edges())
        assert ("t2", "t1") in edges
        assert ("t3", "t2") in edges

    def test_conversion_edges(self, table):
        table.request("t1", R, S)
        table.request("t2", R, S)
        table.request("t1", R, X)  # conversion waiting on t2
        assert ("t1", "t2") in table.waits_for_edges()

    def test_no_edges_when_quiet(self, table):
        table.request("t1", R, S)
        assert table.waits_for_edges() == []


class TestReaderBypassAblation:
    """The fairness ablation: bypass boosts readers, starves writers."""

    def test_bypass_grants_compatible_over_queue(self):
        table = LockTable(reader_bypass=True)
        table.request("t1", R, S)
        blocked_writer = table.request("t2", R, X)
        late_reader = table.request("t3", R, S)
        assert late_reader.granted  # jumped the queued writer
        assert blocked_writer.status == RequestStatus.WAITING

    def test_default_fifo_queues_late_reader(self):
        table = LockTable()
        table.request("t1", R, S)
        table.request("t2", R, X)
        late_reader = table.request("t3", R, S)
        assert late_reader.status == RequestStatus.WAITING

    def test_writer_starvation_under_bypass(self):
        """A continuous reader stream keeps the writer waiting forever."""
        table = LockTable(reader_bypass=True)
        table.request("r0", R, S)
        writer = table.request("w", R, X)
        for index in range(1, 6):
            assert table.request("r%d" % index, R, S).granted
            table.release("r%d" % (index - 1), R)
        assert writer.status == RequestStatus.WAITING  # starved

    def test_writer_progress_under_fifo(self):
        table = LockTable()
        table.request("r0", R, S)
        writer = table.request("w", R, X)
        queued = table.request("r1", R, S)
        assert queued.status == RequestStatus.WAITING
        woken = table.release("r0", R)
        assert writer in woken  # the writer goes first
