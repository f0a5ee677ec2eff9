"""The invariant auditor: clean states pass, broken states are found."""

import pytest

import repro
from repro.graphs.units import component_resource, object_resource
from repro.locking.modes import HELD_UNIT, S, X
from repro.nf2 import parse_path
from repro.protocol import HerrmannProtocol, NaiveDAGUnsafeProtocol
from repro.verify import (
    audit,
    check_compatibility,
    check_deadlock_verdict,
    check_entry_point_visibility,
    check_group_mode,
    check_held_index,
    check_intention_chains,
    check_waiting_consistency,
)
from repro.workloads import Q1, Q2, Q3, build_cells_database


class TestCleanStates:
    def test_empty_state_is_clean(self, figure7_stack):
        assert audit(figure7_stack.protocol) == []

    def test_figure7_scenario_is_clean(self, figure7_stack):
        stack = figure7_stack
        t1 = stack.txns.begin()
        t2 = stack.txns.begin(principal="user2")
        t3 = stack.txns.begin(principal="user3")
        stack.executor.execute(t1, Q1)
        stack.executor.execute(t2, Q2)
        stack.executor.execute(t3, Q3)
        assert audit(stack.protocol) == []

    def test_waiting_scenario_is_clean(self, figure7_stack):
        stack = figure7_stack
        holder = stack.txns.begin()
        e1 = object_resource(stack.catalog, "effectors", "e1")
        stack.protocol.request(holder, e1, S)
        stack.authorization.grant_modify("lib", "effectors")
        waiter = stack.txns.begin(principal="lib")
        stack.protocol.request(waiter, e1, X, wait=True)
        assert audit(stack.protocol) == []

    def test_deep_workload_is_clean(self):
        import random

        from repro.workloads import build_deep_database, random_component

        database, catalog = build_deep_database(n_objects=2, depth=4, fanout=2)
        stack = repro.make_stack(database, catalog)
        rng = random.Random(3)
        for i in range(4):
            txn = stack.txns.begin()
            stack.protocol.request(
                txn, random_component(catalog, 4, 2, rng), S
            )
        assert audit(stack.protocol) == []


class TestBrokenStates:
    def test_unsafe_protocol_flagged_for_entry_points(self, figure7):
        """The auditor independently finds the section-3.2.2 problem."""
        database, catalog = figure7
        stack = repro.make_stack(database, catalog, protocol_cls=NaiveDAGUnsafeProtocol)
        txn = stack.txns.begin()
        cell = object_resource(catalog, "cells", "c1")
        stack.protocol.request(
            txn, component_resource(cell, parse_path("robots[r1]")), X
        )
        violations = audit(stack.protocol)
        rules = {violation.rule for violation in violations}
        assert "entry-point-visibility" in rules

    def test_missing_intention_chain_detected(self, figure7_stack):
        stack = figure7_stack
        cell = object_resource(stack.catalog, "cells", "c1")
        # bypass the protocol: lock a component with no ancestors at all
        stack.manager.acquire("rogue", cell + ("c_objects",), S)
        violations = check_intention_chains(stack.protocol)
        assert violations
        assert violations[0].rule == "intention-chain"

    def test_clean_after_rogue_releases(self, figure7_stack):
        stack = figure7_stack
        cell = object_resource(stack.catalog, "cells", "c1")
        stack.manager.acquire("rogue", cell + ("c_objects",), S)
        stack.manager.release_all("rogue")
        assert audit(stack.protocol) == []

    def test_compatibility_checker_on_forged_state(self, figure7_stack):
        """Forge an incompatible grant directly in the table internals."""
        stack = figure7_stack
        resource = ("db1",)
        stack.manager.acquire("a", resource, X)
        # forge: append a second holder bypassing all checks
        from repro.locking.lock_table import _HeldLock

        entry = stack.manager.table._entries[resource]
        forged = _HeldLock()
        forged.push(S, False)
        entry.granted["b"] = forged
        violations = check_compatibility(stack.manager)
        assert violations and violations[0].rule == "compatibility"

    def test_lost_wakeup_detected(self, figure7_stack):
        """Forge a queue state where the head waiter should have been
        granted (simulates a wake-up bug)."""
        stack = figure7_stack
        resource = ("db1", "seg2", "effectors", "e1")
        stack.manager.acquire("a", resource, S)
        request = stack.manager.acquire("b", resource, X)  # waits
        # remove the blocker behind the table's back
        entry = stack.manager.table._entries[resource]
        del entry.granted["a"]
        violations = check_waiting_consistency(stack.manager)
        assert violations and violations[0].rule == "waiting-consistency"

    def test_missed_deadlock_detected(self, figure7_stack, monkeypatch):
        """A rooted search that wrongly answers "acyclic" (forged: it sees
        nothing reachable) is caught against the reference full pass —
        and only while that verdict still describes the wait graph."""
        manager = figure7_stack.manager
        manager.acquire("a", ("db1", "x"), X)
        manager.acquire("b", ("db1", "y"), X)
        assert manager.detect_deadlock() is None
        manager.acquire("a", ("db1", "y"), S)
        assert manager.detect_deadlock("a") is None
        assert check_deadlock_verdict(manager) == []
        manager.acquire("b", ("db1", "x"), S)  # closes the cycle
        monkeypatch.setattr(
            manager.detector, "_reaches_itself", lambda waiter: False
        )
        assert manager.detect_deadlock("b") is None  # the forged miss
        violations = check_deadlock_verdict(manager)
        assert violations and violations[0].rule == "deadlock-verdict"
        assert "deadlock-verdict" in {v.rule for v in audit(figure7_stack.protocol)}
        manager.acquire("c", ("db1", "z"), X)  # the graph moved on
        assert check_deadlock_verdict(manager) == []

    def test_stale_group_mode_detected(self, figure7_stack):
        """Forge holder counts that drifted from the holders: the table
        would decide its next grant from them."""
        manager = figure7_stack.manager
        resource = ("db1",)
        manager.acquire("a", resource, S)
        assert check_group_mode(manager) == []
        manager.table._entries[resource].held += HELD_UNIT[X.code]
        violations = check_group_mode(manager)
        assert violations and violations[0].rule == "group-mode"
        assert violations[0].resource == resource
        assert "group-mode" in {v.rule for v in audit(figure7_stack.protocol)}

    @pytest.mark.parametrize("forge", ["summary", "owned", "waiting", "empty"])
    def test_stale_held_index_detected(self, figure7_stack, forge):
        """Forge each per-transaction index away from the entries: the
        grant and release fast paths trust them."""
        from repro.locking.lock_table import _ResourceEntry

        manager = figure7_stack.manager
        table = manager.table
        resource = ("db1",)
        manager.acquire("a", resource, S)
        assert check_held_index(manager) == []
        if forge == "summary":
            table._txn_modes["a"][resource] = X
        elif forge == "owned":
            # the summary's keys are the owned index: a held resource
            # missing from them would escape release_all
            del table._txn_modes["a"][resource]
        elif forge == "waiting":
            table._txn_waiting["a"] = {}
        else:
            table._entries[("db1", "gone")] = _ResourceEntry()
        violations = check_held_index(manager)
        assert violations and violations[0].rule == "held-index"
        assert "held-index" in {v.rule for v in audit(figure7_stack.protocol)}

    def test_coarse_cover_is_not_a_false_positive(self, figure7_stack):
        """A txn holding X on the object and nothing on a component is
        fine — implicit locks cover the subtree."""
        stack = figure7_stack
        txn = stack.txns.begin(principal="user2")
        cell = object_resource(stack.catalog, "cells", "c1")
        stack.protocol.request(txn, cell, X)
        assert check_intention_chains(stack.protocol) == []
        assert check_entry_point_visibility(stack.protocol) == []


class TestAuditAfterRandomWorkload:
    def test_simulated_workload_leaves_clean_states(self):
        from repro.sim import Simulator, WorkloadSpec, submit_workload

        database, catalog = build_cells_database(
            n_cells=3, n_robots=3, n_effectors=4, seed=4
        )
        stack = repro.make_stack(database, catalog)
        simulator = Simulator(stack.protocol)
        submit_workload(
            simulator, catalog,
            WorkloadSpec(n_transactions=25, seed=10),
            authorization=stack.authorization,
        )
        simulator.run()
        assert audit(stack.protocol) == []
