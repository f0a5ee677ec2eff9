"""Surrogate generation (MeLo83-style) and resource interning."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.nf2 import make_tuple
from repro.nf2.surrogate import ResourceInterner, SurrogateGenerator
from repro.verify import check_held_index
from repro.workloads import build_cells_database


class TestSurrogateGenerator:
    def test_unique_within_relation(self):
        gen = SurrogateGenerator()
        seen = {gen.next_for("cells") for _ in range(100)}
        assert len(seen) == 100

    def test_unique_across_relations(self):
        gen = SurrogateGenerator()
        a = gen.next_for("cells")
        b = gen.next_for("effectors")
        assert a != b
        # counters are shared: the numeric suffixes never collide
        assert a.rsplit(":", 1)[1] != b.rsplit(":", 1)[1]

    def test_relation_name_embedded(self):
        gen = SurrogateGenerator()
        assert gen.next_for("cells").startswith("@cells:")

    def test_independent_generators_may_collide(self):
        # surrogates are unique per database, not globally
        assert SurrogateGenerator().next_for("x") == SurrogateGenerator().next_for("x")

    def test_fork_state_continues_monotonically(self):
        gen = SurrogateGenerator()
        gen.next_for("a")
        position = gen.fork_state()
        following = gen.next_for("a")
        assert int(following.rsplit(":", 1)[1]) > position


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

    def test_id_of_unknown_is_none(self):
        interner = ResourceInterner()
        assert interner.id_of(("missing",)) is None
        assert ("missing",) not in interner


trace_ops = st.lists(
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
    """The binary wire names every resource by its interned id, so an id
    that moved would rename a resource under a connected client.  Random
    operation traces (inserts, deletes, replacement, component writes,
    undo on abort), with every resource a transaction locks interned as
    it goes, must leave every id ever observed mapped to the resource
    that produced it."""

    @given(trace_ops)
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_ids_stable_after_any_trace(self, trace):
        database, catalog = build_cells_database(figure7=True)
        stack = repro.make_stack(database, catalog)
        stack.authorization.grant_modify("w", "cells")
        stack.authorization.grant_modify("w", "effectors")
        interner = ResourceInterner()
        seen = snapshot(interner)

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
                assert check_held_index(stack.manager) == []
                continue
            # mid-transaction: intern what the transaction locked
            for resource in stack.manager.locks_of(txn):
                interner.intern(resource)
            assert check_held_index(stack.manager) == []
            if commit:
                stack.txns.commit(txn)
            else:
                stack.txns.abort(txn)  # undo replays through the same hooks
            assert_interner_stable(interner, seen)
            assert check_held_index(stack.manager) == []
        assert stack.manager.lock_count() == 0
