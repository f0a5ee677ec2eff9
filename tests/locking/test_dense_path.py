"""The dense-ID fast path: interner, int kernels, pooled lock table.

The dense table claims to be *observationally identical* to the object
path — same grants, same counters, same queues — while running its hot
loops on interned ints, flat ``bytes`` mode tables and pooled records.
These tests pin the equivalence at every layer: the pure kernels, the
interner contract (ids never reused or reassigned), the table against
its object twin, the protocol stack end to end, and the verifier's
dense-state audit.
"""

import pytest

import repro
from repro.graphs.units import component_resource, object_resource
from repro.locking._densecore import (
    count_compatible,
    filter_uncovered,
    supremum_code,
)
from repro.locking.dense import (
    DenseLockTable,
    DenseSteps,
    core,
)
from repro.locking.lock_table import LockTable, RequestStatus
from repro.locking.manager import LockManager
from repro.locking.modes import (
    COMPAT_FLAT,
    COVERS_FLAT,
    IS,
    IX,
    MODES_BY_CODE,
    N_MODES,
    S,
    SIX,
    SUP_FLAT,
    X,
    compatible,
    covers,
    supremum,
)
from repro.nf2 import parse_path
from repro.nf2.surrogate import ResourceInterner
from repro.verify import check_dense_state
from repro.workloads import build_cells_database

ALL_MODES = [IS, IX, S, SIX, X]

R = ("db1", "seg1", "cells", "c1")
PLAN = [
    (("db1",), IX),
    (("db1", "seg1"), IX),
    (("db1", "seg1", "cells"), IX),
    (R, X),
]


def counters(table):
    return (
        table.requests,
        table.immediate_grants,
        table.waits,
        table.conflict_tests,
        table.max_entries,
    )


def dense_steps_for(table, steps):
    """Compile a plain step list into DenseSteps against the table."""
    rids = [table.interner.intern(resource) for resource, _ in steps]
    codes = [mode.code for _, mode in steps]
    return DenseSteps(rids, codes, table.interner)


class TestFlatTablesMatchEnums:
    """The flat bytes tables are the enum tables, index-for-index."""

    def test_compat_flat(self):
        for a in ALL_MODES:
            for b in ALL_MODES:
                assert bool(COMPAT_FLAT[a.code * N_MODES + b.code]) == compatible(a, b)

    def test_covers_flat(self):
        for a in ALL_MODES:
            for b in ALL_MODES:
                assert bool(COVERS_FLAT[a.code * N_MODES + b.code]) == covers(a, b)

    def test_sup_flat_and_kernel(self):
        for a in ALL_MODES:
            for b in ALL_MODES:
                code = supremum_code(a.code, b.code, SUP_FLAT, N_MODES)
                assert MODES_BY_CODE[code] is supremum(a, b)

    def test_modes_by_code_roundtrip(self):
        for mode in ALL_MODES:
            assert MODES_BY_CODE[mode.code] is mode


class TestDenseKernels:
    def test_filter_uncovered_no_summary_keeps_all(self):
        keep = filter_uncovered([3, 7, 9], [IX.code, IX.code, X.code], None,
                                COVERS_FLAT, N_MODES)
        assert keep == [0, 1, 2]

    def test_filter_uncovered_prunes_covered(self):
        held = {3: X.code, 7: IS.code}
        keep = filter_uncovered(
            [3, 7, 9], [S.code, IX.code, S.code], held, COVERS_FLAT, N_MODES
        )
        # 3 held at X covers S; 7 held at IS does not cover IX; 9 unheld
        assert keep == [1, 2]

    def test_count_compatible(self):
        held = [S.code, IS.code, IX.code]
        assert count_compatible(held, S.code, COMPAT_FLAT, N_MODES) == 2
        assert count_compatible(held, X.code, COMPAT_FLAT, N_MODES) == 0

    def test_core_flavor_selected(self):
        # dense.py re-exports the kernel module the protocol filters with
        assert core.filter_uncovered([0], [X.code], None, COVERS_FLAT, N_MODES) == [0]


class TestResourceInterner:
    def test_ids_dense_stable_and_bijective(self):
        interner = ResourceInterner()
        resources = [("a",), ("a", "b"), ("a", "b", "c")]
        ids = [interner.intern(r) for r in resources]
        assert ids == [0, 1, 2]
        # re-interning never reassigns
        assert [interner.intern(r) for r in resources] == ids
        for resource, rid in zip(resources, ids):
            assert interner.id_of(resource) == rid
            assert interner.resource_of(rid) == resource
        assert len(interner) == 3

    def test_version_bumps_only_on_growth(self):
        interner = ResourceInterner()
        v0 = interner.version
        interner.intern(("a",))
        assert interner.version == v0 + 1
        interner.intern(("a",))  # hit: no growth, no bump
        assert interner.version == v0 + 1
        interner.intern_many([("a",), ("b",)])
        assert interner.version == v0 + 2

    def test_id_of_unknown_is_none(self):
        interner = ResourceInterner()
        assert interner.id_of(("missing",)) is None
        assert ("missing",) not in interner


SCRIPTS = [
    [("t1", PLAN), ("t1", PLAN), ("t1", [(R, S)])],
    [("t1", [(R, S)]), ("t2", [(R, S)]), ("t3", PLAN)],
    [("t1", [(R, IX)]), ("t1", [(R, S)]), ("t2", [(R, IS)])],
    [("t1", PLAN), ("t2", PLAN), ("t1", [(R, S)])],
]


class TestTableEquivalence:
    """DenseLockTable must leave identical observable state to LockTable
    for the same scripts — including the conflict_tests accounting of the
    int grant scans and the summary_rebuilds of the dense batch loop."""

    @pytest.mark.parametrize("script", SCRIPTS)
    @pytest.mark.parametrize("as_dense_steps", [False, True])
    def test_counters_and_state_match(self, script, as_dense_steps):
        plain = LockTable()
        dense = DenseLockTable()
        for txn, steps in script:
            plain.request_many(txn, steps)
            if as_dense_steps:
                dense.request_many(txn, dense_steps_for(dense, steps))
            else:
                dense.request_many(txn, steps)
        assert counters(plain) == counters(dense)
        assert plain.summary_rebuilds == dense.summary_rebuilds
        for txn, steps in script:
            for resource, _ in steps:
                assert plain.held_mode(txn, resource) == dense.held_mode(
                    txn, resource
                )
        assert plain.lock_count() == dense.lock_count()
        assert plain.waits_for_edges() == dense.waits_for_edges()
        assert plain._txn_modes == dense._txn_modes

    def test_covered_dense_batch_prunes_without_counters(self):
        dense = DenseLockTable()
        dense.request_many("t1", PLAN)
        steps = dense_steps_for(dense, PLAN)
        before = counters(dense)
        assert dense.request_many("t1", steps) == []
        assert counters(dense) == before

    def test_blocked_dense_batch_stops_at_waiting_tail(self):
        dense = DenseLockTable()
        dense.request("t2", R, S)
        granted = dense.request_many("t1", dense_steps_for(dense, PLAN))
        assert [req.status for req in granted] == [
            RequestStatus.GRANTED,
            RequestStatus.GRANTED,
            RequestStatus.GRANTED,
            RequestStatus.WAITING,
        ]
        assert dense.held_mode("t1", R) is None

    def test_dense_steps_iterate_as_object_pairs(self):
        dense = DenseLockTable()
        steps = dense_steps_for(dense, PLAN)
        assert list(steps) == PLAN
        assert len(steps) == len(PLAN)
        # an object-path table consumes the same DenseSteps unchanged
        plain = LockTable()
        granted = plain.request_many("t1", steps)
        assert all(req.granted for req in granted)
        assert plain.held_mode("t1", R) is X


class TestDenseSummaryMirror:
    def test_summary_mirrors_through_grant_release_cycles(self):
        manager = LockManager(use_dense_path=True)
        table = manager.table
        table.request_many("t1", PLAN)
        table.request("t2", ("db1",), IS)
        assert check_dense_state(manager) == []
        codes = table.dense_summary("t1")
        assert codes[table.interner.id_of(R)] == X.code
        table.release("t2", ("db1",))
        table.release_all("t1")
        assert table.dense_summary("t1") is None
        assert table.dense_summary("t2") is None
        assert check_dense_state(manager) == []
        assert table.lock_count() == 0

    def test_conversion_updates_code(self):
        manager = LockManager(use_dense_path=True)
        table = manager.table
        table.request("t1", R, IX)
        table.request("t1", R, S)  # conversion: SIX
        rid = table.interner.id_of(R)
        assert table.dense_summary("t1")[rid] == SIX.code
        table.release("t1", R)  # pops the S grant; supremum back to IX
        assert table.dense_summary("t1")[rid] == IX.code
        assert check_dense_state(manager) == []

    def test_check_dense_state_detects_drift(self):
        manager = LockManager(use_dense_path=True)
        table = manager.table
        table.request("t1", R, S)
        table._txn_codes["t1"][table.interner.id_of(R)] = X.code  # sabotage
        assert any(v.rule == "dense-state" for v in check_dense_state(manager))

    def test_check_dense_state_noop_on_object_table(self):
        manager = LockManager()
        manager.table.request("t1", R, S)
        assert check_dense_state(manager) == []


class TestRecordPooling:
    def test_held_records_recycled(self):
        dense = DenseLockTable()
        dense.request_many("t1", PLAN)
        dense.release_all("t1")
        assert len(dense._held_pool) == len(PLAN)
        assert len(dense._entry_pool) == len(PLAN)
        dense.request_many("t1", PLAN)
        assert dense._held_pool == []
        assert dense._entry_pool == []
        # recycled records behave like fresh ones
        assert dense.held_mode("t1", R) is X
        assert dense.lock_count() == len(PLAN)

    def test_recycled_held_is_scrubbed(self):
        dense = DenseLockTable()
        dense.request("t1", R, X, long=True)
        dense.release_all("t1", keep_long=False)
        dense.request("t2", R, IS)
        assert dense.held_mode("t2", R) is IS
        held = dense._entries[R].granted["t2"]
        assert held.modes == [IS] and held.long is False and held.code == IS.code

    def test_pooling_can_be_disabled(self):
        dense = DenseLockTable(pool_records=False)
        dense.request_many("t1", PLAN)
        dense.release_all("t1")
        assert dense._held_pool == []
        assert dense._entry_pool == []


def grant_figure7_rights(stack, principal):
    stack.authorization.grant_modify(principal, "cells")
    stack.authorization.grant_read(principal, "effectors")


DEMANDS = [
    ("cells", "c1", "", S),
    ("cells", "c1", "", X),
    ("cells", "c1", "robots[r1]", X),
    ("cells", "c1", "robots[r2].trajectory", S),
    ("effectors", "e2", "", S),
]


class TestProtocolStackEquivalence:
    """End to end: the dense stack grants exactly what the object stack
    grants, and the verifier's full audit stays clean."""

    def _stacks(self):
        plain = repro.make_stack(*build_cells_database(figure7=True))
        dense = repro.make_stack(
            *build_cells_database(figure7=True),
            use_batched_acquire=True,
            use_dense_path=True,
        )
        for stack in (plain, dense):
            grant_figure7_rights(stack, "u")
        return plain, dense

    def test_request_grants_match(self):
        plain, dense = self._stacks()
        assert isinstance(dense.manager.table, DenseLockTable)
        for _ in range(2):  # second round exercises plan-cache hits
            for relation, key, path, mode in DEMANDS:
                t_p = plain.txns.begin(principal="u")
                t_d = dense.txns.begin(principal="u")
                target_p = object_resource(plain.catalog, relation, key)
                target_d = object_resource(dense.catalog, relation, key)
                if path:
                    target_p = component_resource(target_p, parse_path(path))
                    target_d = component_resource(target_d, parse_path(path))
                granted_p = plain.protocol.request(t_p, target_p, mode)
                granted_d = dense.protocol.request(t_d, target_d, mode)
                assert [
                    (req.resource, req.target_mode, req.status)
                    for req in granted_p
                ] == [
                    (req.resource, req.target_mode, req.status)
                    for req in granted_d
                ]
                assert check_dense_state(dense.manager) == []
                plain.txns.commit(t_p)
                dense.txns.commit(t_d)
        assert plain.manager.table.lock_count() == 0
        assert dense.manager.table.lock_count() == 0
        assert dense.protocol.plan_cache.hits > 0

    def test_full_audit_clean_mid_transaction(self):
        from repro.verify import audit

        _, dense = self._stacks()
        txn = dense.txns.begin(principal="u")
        cell = object_resource(dense.catalog, "cells", "c1")
        dense.protocol.request(txn, cell, X)
        assert audit(dense.protocol) == []
        dense.txns.commit(txn)

    def test_metrics_expose_dense_flags(self):
        _, dense = self._stacks()
        cell = object_resource(dense.catalog, "cells", "c1")
        dense.protocol.request(dense.txns.begin(principal="u"), cell, IS)
        metrics = dense.protocol.metrics()
        assert metrics["use_dense_path"] is True
        assert "summary_rebuilds" in metrics
