"""Batched group acquisition and the per-transaction held-mode summary.

``request_many`` must be *exactly* the sequential path after covered-step
pruning: same grants, same queue state, same counters.  The held-mode
summary backing the pruning (and ``held_mode``) must stay fresh through
every grant/conversion/release path — a stale summary would make batched
pruning skip locks the transaction no longer holds.
"""

import pytest

from repro.errors import LockConflictError
from repro.locking.lock_table import LockTable, RequestStatus
from repro.locking.modes import IS, IX, S, SIX, X
from repro.protocol.base import PlannedLock as Step

R = ("db1", "seg1", "cells", "c1")
PLAN = [
    Step(("db1",), IX),
    Step(("db1", "seg1"), IX),
    Step(("db1", "seg1", "cells"), IX),
    Step(R, X),
]


@pytest.fixture
def table():
    return LockTable()


def counters(table):
    return (
        table.requests,
        table.immediate_grants,
        table.waits,
        table.conflict_tests,
        table.max_entries,
    )


class TestBatchedGrants:
    def test_whole_plan_granted_in_order(self, table):
        granted = table.request_many("t1", PLAN)
        assert [req.resource for req in granted] == [step.resource for step in PLAN]
        assert all(req.granted for req in granted)
        assert table.held_mode("t1", R) is X

    def test_covered_steps_pruned_without_counters(self, table):
        table.request_many("t1", PLAN)
        before = counters(table)
        again = table.request_many("t1", PLAN)
        assert again == []
        assert counters(table) == before

    def test_weaker_covered_mode_pruned(self, table):
        table.request("t1", R, X)
        assert table.request_many("t1", [Step(R, S)]) == []

    def test_uncovered_conversion_submitted(self, table):
        table.request("t1", R, IX)
        granted = table.request_many("t1", [Step(R, S)])
        assert len(granted) == 1 and granted[0].granted
        assert table.held_mode("t1", R) is SIX

    def test_first_blocked_step_queues_and_stops(self, table):
        table.request("t2", R, S)
        granted = table.request_many("t1", PLAN, wait=True)
        # prefix granted, the X on R queued, nothing submitted after it
        assert [req.status for req in granted] == [
            RequestStatus.GRANTED,
            RequestStatus.GRANTED,
            RequestStatus.GRANTED,
            RequestStatus.WAITING,
        ]
        assert table.held_mode("t1", ("db1", "seg1", "cells")) is IX
        assert table.held_mode("t1", R) is None

    def test_nowait_conflict_raises_leaving_prefix(self, table):
        table.request("t2", R, S)
        with pytest.raises(LockConflictError):
            table.request_many("t1", PLAN, wait=False)
        assert table.held_mode("t1", ("db1",)) is IX
        assert table.held_mode("t1", R) is None

    def test_long_flag_propagates(self, table):
        table.request_many("w1", PLAN, long=True)
        dump = table.dump_long_locks()
        assert ("w1", R, "X") in dump


class TestSequentialEquivalence:
    """Same steps through request() (with caller-side pruning) and
    request_many() must leave identical tables and counters."""

    SCRIPTS = [
        # (txn, steps) issued in order; earlier txns may block later ones
        [("t1", PLAN), ("t1", PLAN), ("t1", [Step(R, S)])],
        [("t1", [Step(R, S)]), ("t2", [Step(R, S)]), ("t3", PLAN)],
        [("t1", [Step(R, IX)]), ("t1", [Step(R, S)]), ("t2", [Step(R, IS)])],
    ]

    @pytest.mark.parametrize("script", SCRIPTS)
    def test_counters_and_state_match(self, script):
        sequential = LockTable()
        batched = LockTable()
        for txn, steps in script:
            for step in steps:
                if not sequential.holds_at_least(txn, step.resource, step.mode):
                    sequential.request(txn, step.resource, step.mode)
            batched.request_many(txn, steps)
        assert counters(sequential) == counters(batched)
        for txn, steps in script:
            for step in steps:
                assert sequential.held_mode(
                    txn, step.resource
                ) == batched.held_mode(txn, step.resource)
        assert sequential.lock_count() == batched.lock_count()
        assert sequential.waits_for_edges() == batched.waits_for_edges()


class TestHeldModeSummaryFreshness:
    """Regression (the seed recomputed held modes from entries): release
    and release_all must update the summary, including interleaved
    release/re-acquire and counted releases that shrink the supremum."""

    def test_release_drops_summary_entry(self, table):
        table.request("t1", R, S)
        table.release("t1", R)
        assert table.held_mode("t1", R) is None
        # a fresh batched acquire must re-request, not prune
        before = table.requests
        granted = table.request_many("t1", [Step(R, S)])
        assert len(granted) == 1
        assert table.requests == before + 1

    def test_counted_release_keeps_summary(self, table):
        table.request("t1", R, S)
        table.request("t1", R, S)
        table.release("t1", R)
        assert table.held_mode("t1", R) is S
        assert table.request_many("t1", [Step(R, S)]) == []  # still covered

    def test_release_shrinks_supremum_in_summary(self, table):
        table.request("t1", R, IX)
        table.request("t1", R, S)  # conversion: SIX
        assert table.held_mode("t1", R) is SIX
        table.release("t1", R)  # pops the S grant; supremum back to IX
        assert table.held_mode("t1", R) is IX
        # batched pruning must NOT trust the stale SIX: S is re-requested
        granted = table.request_many("t1", [Step(R, S)])
        assert len(granted) == 1 and granted[0].granted
        assert table.held_mode("t1", R) is SIX

    def test_release_all_clears_summary(self, table):
        table.request_many("t1", PLAN)
        table.release_all("t1")
        assert table.held_mode("t1", R) is None
        granted = table.request_many("t1", PLAN)
        assert len(granted) == len(PLAN)
        assert all(req.granted for req in granted)

    def test_release_all_keep_long_keeps_long_summary(self, table):
        table.request("t1", R, X, long=True)
        table.request("t1", R[:3], IX)  # short
        table.release_all("t1", keep_long=True)
        assert table.held_mode("t1", R) is X
        assert table.held_mode("t1", R[:3]) is None
        assert table.request_many("t1", [Step(R, S)]) == []  # long X covers

    def test_interleaved_release_reacquire_cycles(self, table):
        for _ in range(3):
            granted = table.request_many("t1", PLAN)
            assert all(req.granted for req in granted)
            assert table.request_many("t1", PLAN) == []
            table.release_all("t1")
            assert table.held_mode("t1", R) is None
        assert table.lock_count() == 0

    def test_woken_waiter_lands_in_summary(self, table):
        table.request("t1", R, X)
        pending = table.request_many("t2", [Step(R, S)])[-1]
        assert pending.status == RequestStatus.WAITING
        table.release("t1", R)
        assert pending.granted
        assert table.held_mode("t2", R) is S
        assert table.request_many("t2", [Step(R, S)]) == []

    def test_woken_conversion_lands_in_summary(self, table):
        table.request("t1", R, S)
        table.request("t2", R, S)
        table.request("t1", R, X)  # conversion waits on t2
        table.release("t2", R)
        assert table.held_mode("t1", R) is X
        assert table.request_many("t1", [Step(R, X)]) == []


class TestSummaryRefetch:
    """``request_many`` fetches the held-mode summary once per batch.  The
    dict keeps its identity while the transaction holds anything, so only
    a batch that starts with no summary re-fetches it — once, after its
    first grant created it — and ``summary_rebuilds`` counts that."""

    def test_covered_batch_never_rebuilds(self, table):
        table.request_many("t1", PLAN)
        before = table.summary_rebuilds
        for _ in range(5):
            assert table.request_many("t1", PLAN) == []
        assert table.summary_rebuilds == before

    def test_granting_batch_refetches_once(self, table):
        assert table.summary_rebuilds == 0
        granted = table.request_many("t1", PLAN)
        assert len(granted) == len(PLAN)
        assert all(req.granted for req in granted)
        assert table.summary_rebuilds == 1

    def test_mixed_batch_never_refetches(self, table):
        table.request_many("t1", PLAN[:2])
        before = table.summary_rebuilds
        granted = table.request_many("t1", PLAN)
        assert len(granted) == 2  # two pruned, two granted
        assert table.summary_rebuilds == before


class TestVictimAbortDuringBatch:
    """Satellite: a deadlock victim aborted mid-``request_many`` — the
    waiting tail is cancelled, the granted prefix fully released, and the
    held-mode summary shrinks to nothing."""

    def test_cancel_then_release_clears_partial_prefix(self, table):
        table.request("t2", R, S)  # blocker
        granted = table.request_many("t1", PLAN, wait=True)
        assert granted[-1].status is RequestStatus.WAITING
        table.cancel(granted[-1])
        assert table.waiting_requests_of("t1") == []
        table.release_all("t1")
        for step in PLAN:
            assert table.held_mode("t1", step.resource) is None
        assert table._txn_modes.get("t1") is None
        assert table.lock_count() == 1  # only t2's S survives
        assert not table.waits_for_edges()
        # the summary is honest: a re-run re-requests the whole plan
        table.release("t2", R)
        granted = table.request_many("t1", PLAN)
        assert len(granted) == len(PLAN)
        assert all(req.granted for req in granted)

    def test_manager_victim_release_unblocks_survivor(self):
        """Two batched plans deadlock; aborting the picked victim lets the
        survivor's queued tail be granted."""
        from repro.locking.manager import LockManager

        manager = LockManager()
        a, b = ("obj", "a"), ("obj", "b")
        manager.acquire("t1", a, X)
        manager.acquire("t2", b, X)
        waiting1 = manager.acquire_many("t1", [Step(b, X)], wait=True)[-1]
        waiting2 = manager.acquire_many("t2", [Step(a, X)], wait=True)[-1]
        assert not waiting1.granted and not waiting2.granted
        cycle = manager.detect_deadlock()
        assert cycle is not None
        manager.detector.set_age_of(lambda txn: {"t1": 1.0, "t2": 2.0}[txn])
        victim = manager.detector.pick_victim(cycle)
        assert victim == "t2"  # youngest dies
        for request in manager.table.waiting_requests_of(victim):
            manager.cancel(request)
        manager.release_all(victim)
        assert waiting1.granted  # the survivor's batched tail proceeds
        assert manager.held_mode("t1", b) is X
        assert manager.locks_of("t2") == {}
        assert manager.table._txn_modes.get("t2") is None
        assert manager.detect_deadlock() is None


class TestCancelDuringBatch:
    """A cancellation of another transaction's wait landing between two
    steps of one batch leaves the batch's grants correct."""

    def test_interleaved_cancel_keeps_grants_correct(self, table):
        """After the second submitted step a foreign waiter appears and
        is cancelled; every step of the batch is still granted and held."""
        table.request("t1", PLAN[0].resource, IX)
        table.request("t3", ("other",), X)
        original = table._submit

        def submit_with_interleaved_cancel(entry, txn, resource, mode, long, wait):
            request = original(entry, txn, resource, mode, long, wait)
            if resource == PLAN[1].resource:
                foreign = table.request("t2", ("other",), S)
                assert foreign.status is RequestStatus.WAITING
                table.cancel(foreign)
            return request

        table._submit = submit_with_interleaved_cancel
        try:
            granted = table.request_many("t1", PLAN)
        finally:
            table._submit = original
        assert all(request.granted for request in granted)
        for step in PLAN:
            assert table.holds_at_least("t1", step.resource, step.mode)
