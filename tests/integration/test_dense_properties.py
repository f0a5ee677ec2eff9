"""Property tests: interner stability under arbitrary mutation traces.

The dense path's central contract is that a :class:`ResourceInterner` id,
once assigned, is never reused or reassigned — compiled plans cache flat
arrays of ids and would silently lock the wrong resources otherwise.
These tests drive the same random operation traces the reference-index
properties use (inserts, deletes, replacement, component writes, undo on
abort) through a fully dense stack and assert after every step that

* every id ever observed still maps to the resource that produced it,
* the interner stays bijective and its version only grows,
* the int-keyed held-mode summary mirrors the object-keyed one
  (:func:`repro.verify.check_dense_state`).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.nf2 import make_tuple
from repro.nf2.surrogate import ResourceInterner
from repro.verify import check_dense_state
from repro.workloads import build_cells_database

dense_ops = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "insert_eff",
                "delete_eff",
                "update_eff",
                "add_ref",
                "update_traj",
                "read_cell",
            ]
        ),
        st.integers(1, 6),  # effector key suffix
        st.integers(0, 4),  # value suffix / robot pick
        st.booleans(),      # commit (True) or abort (False)
    ),
    min_size=1,
    max_size=15,
)


def snapshot(interner: ResourceInterner):
    return {rid: resource for rid, resource in interner.items()}


def assert_interner_stable(interner, seen):
    """Ids already seen must be unchanged; new ids extend the snapshot."""
    current = snapshot(interner)
    for rid, resource in seen.items():
        assert current[rid] == resource, (
            "id %d was reassigned: %r -> %r" % (rid, resource, current[rid])
        )
    # bijectivity both ways
    assert len(current) == len(interner)
    for rid, resource in current.items():
        assert interner.id_of(resource) == rid
    seen.update(current)


class TestInternerTraceProperty:
    @given(dense_ops)
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_ids_stable_after_any_trace(self, trace):
        database, catalog = build_cells_database(figure7=True)
        stack = repro.make_stack(
            database,
            catalog,
            use_batched_acquire=True,
            use_dense_path=True,
        )
        stack.authorization.grant_modify("w", "cells")
        stack.authorization.grant_modify("w", "effectors")
        table = stack.manager.table
        interner = table.interner
        seen = snapshot(interner)
        version = interner.version

        for action, key_n, value_n, commit in trace:
            key = "e%d" % key_n
            robot = "r%d" % (value_n % 2 + 1)
            txn = stack.txns.begin(principal="w")
            try:
                if action == "insert_eff":
                    stack.txns.insert_object(
                        txn,
                        "effectors",
                        make_tuple(eff_id=key, tool="t%d" % value_n),
                    )
                elif action == "delete_eff":
                    # fails with IntegrityError while referenced
                    stack.txns.delete_object(txn, "effectors", key)
                elif action == "update_eff":
                    stack.txns.update_object(
                        txn,
                        "effectors",
                        key,
                        make_tuple(eff_id=key, tool="t%d" % value_n),
                    )
                elif action == "add_ref":
                    eff = database.get("effectors", key)
                    stack.txns.add_element(
                        txn,
                        "cells",
                        "c1",
                        "robots[%s].effectors" % robot,
                        eff.reference(),
                    )
                elif action == "update_traj":
                    stack.txns.update_component(
                        txn,
                        "cells",
                        "c1",
                        "robots[%s].trajectory" % robot,
                        "traj%d" % value_n,
                    )
                else:
                    stack.txns.read_component(
                        txn, "cells", "c1", "robots[%s].trajectory" % robot
                    )
            except Exception:
                stack.txns.abort(txn)
                assert_interner_stable(interner, seen)
                assert check_dense_state(stack.manager) == []
                continue
            # mid-transaction: locks held, dense summary populated
            assert check_dense_state(stack.manager) == []
            if commit:
                stack.txns.commit(txn)
            else:
                stack.txns.abort(txn)  # undo replays through the same hooks
            assert_interner_stable(interner, seen)
            assert interner.version >= version
            version = interner.version
            assert check_dense_state(stack.manager) == []
        assert table.lock_count() == 0
