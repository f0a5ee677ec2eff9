"""Failure injection: aborts mid-operation, partial plans, undo chains."""

import pytest

from repro.errors import (
    FaultInjected,
    LockConflictError,
    SchemaError,
    TransactionAborted,
    TransactionError,
)
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.graphs.units import object_resource
from repro.locking.lock_table import RequestStatus
from repro.locking.modes import S, X
from repro.nf2 import make_set, make_tuple
from repro.txn.transaction import Transaction, TxnState


class TestAbortMidPlan:
    def test_conflict_leaves_partial_locks_then_abort_cleans(self, figure7_stack):
        """A plan that conflicts mid-way leaves its earlier steps granted;
        aborting the transaction must release every one of them."""
        stack = figure7_stack
        blocker = stack.txns.begin(name="blocker")
        e1 = object_resource(stack.catalog, "effectors", "e1")
        stack.authorization.grant_modify("libw", "effectors")
        libw = stack.txns.begin(principal="libw")
        stack.protocol.request(libw, e1, X)

        victim = stack.txns.begin(principal="user2", name="victim")
        cell = object_resource(stack.catalog, "cells", "c1")
        with pytest.raises(LockConflictError):
            # X on robot r1 propagates S onto e1 -> conflict mid-plan
            stack.protocol.request(victim, cell + ("robots", "r1"), X, wait=False)
        assert stack.manager.locks_of(victim)  # partial prefix held
        stack.txns.abort(victim)
        assert stack.manager.locks_of(victim) == {}

    def test_failed_update_rolls_back_earlier_writes(self, figure7_stack):
        stack = figure7_stack
        txn = stack.txns.begin(principal="user2")
        stack.txns.update_component(txn, "cells", "c1", "robots[r1].trajectory", "a")
        with pytest.raises(SchemaError):
            stack.txns.update_component(txn, "cells", "c1", "robots[r2].trajectory", 9)
        stack.txns.abort(txn)
        cell = stack.database.get("cells", "c1")
        assert cell.root["robots"][0]["trajectory"] == "tr1"
        assert cell.root["robots"][1]["trajectory"] == "tr2"

    def test_operations_after_abort_rejected(self, figure7_stack):
        stack = figure7_stack
        txn = stack.txns.begin(principal="user2")
        stack.txns.abort(txn)
        with pytest.raises(TransactionAborted):
            stack.txns.read_object(txn, "effectors", "e1")

    def test_operations_after_commit_rejected(self, figure7_stack):
        stack = figure7_stack
        txn = stack.txns.begin()
        stack.txns.commit(txn)
        with pytest.raises(TransactionError):
            stack.txns.read_object(txn, "effectors", "e1")


class TestUndoChains:
    def test_multi_step_undo_in_reverse_order(self, figure7_stack):
        stack = figure7_stack
        txn = stack.txns.begin(principal="user2")
        stack.txns.update_component(txn, "cells", "c1", "robots[r1].trajectory", "v1")
        stack.txns.update_component(txn, "cells", "c1", "robots[r1].trajectory", "v2")
        stack.txns.update_component(txn, "cells", "c1", "robots[r1].trajectory", "v3")
        assert txn.undo_depth() == 3
        stack.txns.abort(txn)
        cell = stack.database.get("cells", "c1")
        assert cell.root["robots"][0]["trajectory"] == "tr1"

    def test_insert_then_update_then_abort(self, figure7_stack):
        stack = figure7_stack
        stack.authorization.grant_modify("lib", "effectors")
        txn = stack.txns.begin(principal="lib")
        stack.txns.insert_object(txn, "effectors", make_tuple(eff_id="e9", tool="t9"))
        stack.txns.update_component(txn, "effectors", "e9", "tool", "t9b")
        stack.txns.abort(txn)
        assert not stack.database.relation("effectors").contains_key("e9")

    def test_delete_then_abort_restores(self, figure7_stack):
        stack = figure7_stack
        stack.authorization.grant_modify("lib", "effectors")
        setup = stack.txns.begin(principal="lib")
        stack.txns.insert_object(setup, "effectors", make_tuple(eff_id="e9", tool="t9"))
        stack.txns.commit(setup)
        txn = stack.txns.begin(principal="lib")
        stack.txns.delete_object(txn, "effectors", "e9")
        stack.txns.abort(txn)
        assert stack.database.get("effectors", "e9").root["tool"] == "t9"

    def test_commit_forgets_undo(self, figure7_stack):
        stack = figure7_stack
        txn = stack.txns.begin(principal="user2")
        stack.txns.update_component(txn, "cells", "c1", "robots[r1].trajectory", "z")
        stack.txns.commit(txn)
        assert txn.undo_depth() == 0
        assert (
            stack.database.get("cells", "c1").root["robots"][0]["trajectory"] == "z"
        )


class TestIsolationUnderFailure:
    def test_aborted_writer_invisible_to_later_reader(self, figure7_stack):
        stack = figure7_stack
        writer = stack.txns.begin(principal="user2")
        stack.txns.update_component(writer, "cells", "c1", "robots[r1].trajectory", "dirty")
        stack.txns.abort(writer)
        reader = stack.txns.begin()
        value = stack.txns.read_component(reader, "cells", "c1", "robots[r1].trajectory")
        assert value == "tr1"

    def test_blocked_reader_proceeds_after_writer_abort(self, figure7_stack):
        stack = figure7_stack
        writer = stack.txns.begin(principal="user2")
        stack.txns.update_component(writer, "cells", "c1", "robots[r1].trajectory", "dirty")
        reader = stack.txns.begin()
        cell = object_resource(stack.catalog, "cells", "c1")
        pending = stack.protocol.request(
            reader, cell + ("robots", "r1", "trajectory"), S, wait=True
        )
        assert not pending[-1].granted
        stack.txns.abort(writer)
        assert pending[-1].granted
        value = stack.database.relation("cells").resolve(
            stack.database.get("cells", "c1"),
            __import__("repro.nf2", fromlist=["parse_path"]).parse_path(
                "robots[r1].trajectory"
            ),
        )
        assert value == "tr1"  # sees the rolled-back (original) value


class TestRaisingUndoClosures:
    """Regression: an undo closure that raises mid-rollback must not skip
    ``release_all`` (the seed aborted the abort, leaking every lock)."""

    def _poisoned_txn(self, stack):
        txn = stack.txns.begin(principal="user2")
        stack.txns.update_component(
            txn, "cells", "c1", "robots[r1].trajectory", "dirty"
        )

        def bad_undo():
            raise RuntimeError("undo I/O failed")

        txn.record_undo(bad_undo)
        return txn

    def test_raising_undo_still_releases_locks(self, figure7_stack):
        stack = figure7_stack
        txn = self._poisoned_txn(stack)
        assert stack.manager.locks_of(txn)
        with pytest.raises(RuntimeError):
            stack.txns.abort(txn)
        assert stack.manager.locks_of(txn) == {}
        assert txn.state is TxnState.ABORTED
        # the rollback did not complete: the transaction stays active,
        # uncounted, for crash recovery or a retried abort to finish
        assert txn in stack.txns.active
        assert stack.txns.aborted == 0

    def test_retry_after_raising_undo_completes_rollback(self, figure7_stack):
        stack = figure7_stack
        txn = self._poisoned_txn(stack)
        with pytest.raises(RuntimeError):
            stack.txns.abort(txn)
        # the raising closure was consumed; the data undo is still queued
        assert txn.undo_depth() == 1
        stack.txns.abort(txn)  # re-entrant retry finishes the rollback
        assert txn.undo_depth() == 0
        cell = stack.database.get("cells", "c1")
        assert cell.root["robots"][0]["trajectory"] == "tr1"

    def test_abort_after_full_abort_is_noop(self, figure7_stack):
        stack = figure7_stack
        txn = stack.txns.begin(principal="user2")
        stack.txns.update_component(
            txn, "cells", "c1", "robots[r1].trajectory", "dirty"
        )
        stack.txns.abort(txn)
        aborted_before = stack.txns.aborted
        stack.txns.abort(txn)
        assert stack.txns.aborted == aborted_before

    def test_injected_undo_fault_preserves_closure_for_retry(self, figure7_stack):
        stack = figure7_stack
        plan = FaultPlan([FaultSpec("txn.undo", occurrence=1, action="error")])
        FaultInjector(plan).install(stack)
        txn = stack.txns.begin(principal="user2")
        stack.txns.update_component(
            txn, "cells", "c1", "robots[r1].trajectory", "dirty"
        )
        with pytest.raises(FaultInjected):
            stack.txns.abort(txn)
        # the fault fired *before* the pop: the closure survives for retry
        assert txn.undo_depth() == 1
        assert stack.manager.locks_of(txn) == {}  # locks released regardless
        stack.txns.abort(txn)
        cell = stack.database.get("cells", "c1")
        assert cell.root["robots"][0]["trajectory"] == "tr1"

    def test_injected_partial_update_rolls_back_cleanly(self, figure7_stack):
        """A fault between the index move and the attribute write leaves a
        half-applied update; abort must restore the index exactly."""
        from repro.errors import InjectedAbort
        from repro.verify import audit

        stack = figure7_stack
        stack.database.create_index("effectors", "tool")
        stack.authorization.grant_modify("lib", "effectors")
        plan = FaultPlan(
            [FaultSpec("txn.partial-update", occurrence=1, action="abort")]
        )
        FaultInjector(plan).install(stack)
        txn = stack.txns.begin(principal="lib")
        with pytest.raises(InjectedAbort):
            stack.txns.update_component(txn, "effectors", "e1", "tool", "t-new")
        stack.txns.abort(txn)
        assert stack.manager.locks_of(txn) == {}
        assert stack.database.get("effectors", "e1").root["tool"] == "t1"
        assert audit(stack.protocol) == []  # index entries restored


class TestKill:
    """``TransactionManager.kill``: cancel every wait, then the re-entrant
    abort under a three-attempt retry."""

    RA, RB, RC = ("kill", "a"), ("kill", "b"), ("kill", "c")

    def victim_waiting_twice(self, stack):
        """A writer with an undo record that holds RC in X and waits on RA
        and RB at once (the served, pipelined case), with a reader parked
        behind each of its three requests.  Returns the victim, its two
        waits and the readers' requests: RA and RB's are granted by the
        cancellations, RC's by the release."""
        txns, manager = stack.txns, stack.manager
        holder = txns.begin(name="holder")
        victim = txns.begin(principal="user2", name="victim")
        txns.update_component(victim, "cells", "c1", "robots[r1].trajectory", "dirty")
        assert manager.acquire(victim, self.RC, X).granted
        for resource in (self.RA, self.RB):
            assert manager.acquire(holder, resource, S).granted
        waits = [manager.acquire(victim, r, X) for r in (self.RA, self.RB)]
        parked = [
            manager.acquire(txns.begin(name="r%d" % i), resource, S)
            for i, resource in enumerate((self.RA, self.RB, self.RC))
        ]
        assert not any(request.granted for request in waits + parked)
        return victim, waits, parked

    def assert_ended(self, stack, victim, waits, parked):
        assert [w.status for w in waits] == [RequestStatus.CANCELLED] * 2
        assert all(request.granted for request in parked)
        assert stack.manager.locks_of(victim) == {}
        assert stack.manager.table.waiting_requests_of(victim) == []
        assert victim.state is TxnState.ABORTED
        assert victim not in stack.txns.active

    def test_cancels_every_wait_then_aborts(self, figure7_stack):
        stack = figure7_stack
        victim, waits, parked = self.victim_waiting_twice(stack)
        # cancel-first, then what the release granted
        assert stack.txns.kill(victim) == parked
        self.assert_ended(stack, victim, waits, parked)
        assert stack.txns.aborted == 1
        cell = stack.database.get("cells", "c1")
        assert cell.root["robots"][0]["trajectory"] == "tr1"

    def test_undo_fault_on_the_first_attempt_is_absorbed(self, figure7_stack):
        stack = figure7_stack
        victim, waits, parked = self.victim_waiting_twice(stack)
        injector = FaultInjector(
            FaultPlan([FaultSpec("txn.undo", occurrence=1)])
        ).install(stack)
        woken = stack.txns.kill(victim)
        assert len(injector.log) == 1
        # RC's reader was granted by the release inside the failed
        # attempt, which raised instead of returning it
        assert woken == parked[:2]
        self.assert_ended(stack, victim, waits, parked)
        cell = stack.database.get("cells", "c1")
        assert cell.root["robots"][0]["trajectory"] == "tr1"

    def test_fault_on_every_attempt_reraises(self, figure7_stack):
        stack = figure7_stack
        victim, waits, parked = self.victim_waiting_twice(stack)
        injector = FaultInjector(FaultPlan([FaultSpec("txn.undo", every=1)])).install(
            stack
        )
        with pytest.raises(FaultInjected):
            stack.txns.kill(victim)
        assert len(injector.log) == 3
        # the locks are gone, but the rollback never ran: the victim
        # stays active, where crash recovery and a later kill find it
        assert [w.status for w in waits] == [RequestStatus.CANCELLED] * 2
        assert all(request.granted for request in parked)
        assert stack.manager.locks_of(victim) == {}
        assert victim.undo_depth() == 1
        assert victim in stack.txns.active
        assert stack.txns.aborted == 0
        injector.enabled = False
        assert stack.txns.kill(victim) == []
        self.assert_ended(stack, victim, waits, parked)
        assert victim.undo_depth() == 0
        assert stack.txns.aborted == 1

    def test_retried_kill_frees_a_transaction_never_begun(self, figure7_stack):
        """A transaction built directly never enters ``txns.active``, so
        only the lock table can tell the retry that its first, failed
        release left work to do."""
        stack = figure7_stack
        txn = Transaction(name="direct")
        assert stack.manager.acquire(txn, self.RA, X).granted
        parked = stack.manager.acquire(stack.txns.begin(name="reader"), self.RA, S)
        injector = FaultInjector(
            FaultPlan([FaultSpec("lock.release", occurrence=1)])
        ).install(stack)
        assert stack.txns.kill(txn) == [parked]
        assert len(injector.log) == 1
        assert stack.manager.locks_of(txn) == {}
        assert stack.manager.table.owns_nothing(txn)
        assert stack.txns.aborted == 0  # it was never active

    def test_release_fault_while_holding_nothing_counts_once(self, figure7_stack):
        stack = figure7_stack
        txn = stack.txns.begin(name="empty")
        FaultInjector(FaultPlan([FaultSpec("lock.release", occurrence=1)])).install(
            stack
        )
        with pytest.raises(FaultInjected):
            stack.txns.abort(txn)
        assert txn in stack.txns.active  # the release raised before the end
        assert stack.txns.kill(txn) == []
        assert txn not in stack.txns.active
        assert stack.txns.aborted == 1

    def test_second_kill_is_a_noop(self, figure7_stack):
        stack = figure7_stack
        victim, waits, parked = self.victim_waiting_twice(stack)
        stack.txns.kill(victim)
        assert stack.txns.kill(victim) == []
        self.assert_ended(stack, victim, waits, parked)
        assert stack.txns.aborted == 1
