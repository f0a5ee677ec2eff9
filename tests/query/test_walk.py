"""The compiled walk of a prepared query.

The walk evaluates a query and instantiates its stored lock graph from
what the query's shape fixes, binding only the literals per execution.
Its rows and demands must equal, in order, those of
:class:`~tests.query.reference_executor.ReferenceExecutor`, which
re-derives all of it on every call.  Element keys come from the schema
(:attr:`TupleType.key`), as everywhere else.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.catalog import Catalog
from repro.errors import LockConflictError
from repro.graphs.units import object_resource
from repro.locking.modes import X
from repro.nf2 import (
    AtomicType,
    Database,
    RelationSchema,
    SetType,
    TupleType,
    make_set,
    make_tuple,
)
from repro.nf2.paths import resolve_value
from repro.workloads import build_cells_database, build_partlib_database
from tests.query.reference_executor import ReferenceExecutor

BOLT = (
    "SELECT p FROM b IN bins, p IN b.parts "
    "WHERE b.bin_id = 'b1' AND p.name = 'bolt' FOR UPDATE"
)


def bins_stack():
    """Bins of parts whose element key, ``name``, is no ``*_id``."""
    part = TupleType([("name", AtomicType("str")), ("qty", AtomicType("int"))], key="name")
    database = Database("db1")
    catalog = Catalog(database)
    database.create_relation(
        RelationSchema(
            "bins",
            TupleType([("bin_id", AtomicType("str")), ("parts", SetType(part))]),
        )
    )
    for bin_id in ("b1", "b2"):
        database.insert(
            "bins",
            make_tuple(
                bin_id=bin_id,
                parts=make_set(
                    make_tuple(name="bolt", qty=3),
                    make_tuple(name="nut", qty=5),
                    make_tuple(name="washer", qty=7),
                ),
            ),
        )
    return repro.make_stack(database, catalog)


class TestSchemaElementKeys:
    def test_element_is_named_by_its_schema_key(self):
        stack = bins_stack()
        txn = stack.txns.begin()
        stack.executor.execute(txn, BOLT + " SET p.qty = 4")
        bolt = object_resource(stack.catalog, "bins", "b1") + ("parts", "bolt")
        assert stack.manager.locks_of(txn)[bolt] is X

    def test_writer_blocks_a_second_writer_of_the_element(self):
        stack = bins_stack()
        writer = stack.txns.begin()
        stack.executor.execute(writer, BOLT + " SET p.qty = 4")
        # the element's value changed, its name did not: the second
        # transaction must wait instead of reading the uncommitted qty = 4
        reader = stack.txns.begin()
        with pytest.raises(LockConflictError):
            stack.executor.execute(reader, BOLT, wait=False)

    @pytest.mark.parametrize("text", [
        "SELECT p FROM b IN bins, p IN b.parts WHERE b.bin_id = 'b2' FOR READ",
        "SELECT p.qty FROM b IN bins, p IN b.parts FOR READ",
        "SELECT p FROM b IN bins, p IN b.parts WHERE p.qty = 5 FOR READ",
    ])
    def test_rows_resolve_to_their_values(self, text):
        stack = bins_stack()
        txn = stack.txns.begin()
        rows = stack.executor.execute(txn, text)
        assert rows
        object_type = stack.catalog.schema("bins").object_type
        for row in rows:
            assert resolve_value(row.object.root, object_type, row.steps) is row.value


# -- differential: the compiled walk against the reference evaluator -------------


def cell_queries():
    """Queries over the synthetic cells database (cells c1-c4, e1-e6)."""
    cell = st.sampled_from(["'c1'", "'c3'", "'c9'"])  # c9: no such cell
    effector = st.sampled_from(["'e2'", "'e5'", "'e9'"])
    tool = st.sampled_from(["'tool-2'", "'tool-6'", "'tool-0'"])
    access = st.sampled_from(["READ", "UPDATE"])
    root = st.one_of(st.just(""), cell.map("c.cell_id = {}".format))
    objects = st.tuples(
        st.sampled_from(["SELECT o", "SELECT o.obj_name"]),
        root,
        st.sampled_from(["", "o.obj_id = 2", "o.obj_name = 'obj-3-4'", "o.obj_id = 9"]),
        access,
    ).map(lambda parts: (parts[0] + " FROM c IN cells, o IN c.c_objects",) + parts[1:])
    robots = st.tuples(
        st.sampled_from(["SELECT r", "SELECT r.trajectory"]),
        root,
        st.sampled_from(["", "r.robot_id = 'r1_2'", "r.trajectory = 'tr-3-1'"]),
        access,
    ).map(lambda parts: (parts[0] + " FROM c IN cells, r IN c.robots",) + parts[1:])
    # two levels, the inner one over references (no schema key)
    tools = st.tuples(
        st.just("SELECT t FROM c IN cells, r IN c.robots, t IN r.effectors"),
        root,
        st.sampled_from(["", "r.robot_id = 'r3_1'", "t.eff_id = 'e1'"]),
        st.just("READ"),
    )
    whole = st.tuples(
        st.sampled_from(["SELECT c", "SELECT c.cell_id"]).map("{} FROM c IN cells".format),
        root, st.just(""), access,
    )
    effectors = st.tuples(
        st.sampled_from(["SELECT e", "SELECT e.tool"]).map("{} FROM e IN effectors".format),
        st.one_of(
            st.just(""),
            effector.map("e.eff_id = {}".format),
            tool.map("e.tool = {}".format),
            st.tuples(tool, effector).map(lambda pair: "e.tool = %s AND e.eff_id = %s" % pair),
        ),
        st.just(""),
        access,
    )
    return st.one_of(objects, robots, tools, whole, effectors)


def partlib_queries():
    """Queries over the part library (assemblies a1-a4, parts p1-p6)."""
    assembly = st.sampled_from(["'a1'", "'a4'", "'a7'"])
    positions = st.tuples(
        st.sampled_from(["SELECT p", "SELECT p.quantity"]).map(
            "{} FROM a IN assemblies, p IN a.positions".format
        ),
        st.one_of(st.just(""), assembly.map("a.asm_id = {}".format)),
        st.sampled_from(["", "p.pos_id = 2", "p.quantity = 12", "p.pos_id = 7"]),
        st.sampled_from(["READ", "UPDATE"]),
    )
    materials = st.tuples(
        st.just("SELECT m FROM q IN parts, m IN q.materials"),
        st.sampled_from(["", "q.part_id = 'p2'", "q.name = 'bolt-1'", "q.name = 'ic-0'"]),
        st.just(""),
        st.just("READ"),
    )
    return st.one_of(positions, materials)


def query_text(parts) -> str:
    head, root, nested, access = parts
    where = " AND ".join(clause for clause in (root, nested) if clause)
    return "%s%s FOR %s" % (head, " WHERE " + where if where else "", access)


STOCK = (("bolt", 3), ("nut", 5), ("washer", 7))


def sited_bins_database():
    """Bins at three sites, two each: an equality on the non-key ``site``
    selects several objects without escalating to the relation, so their
    parts sets are per-object granules above the first element step."""
    part = TupleType([("name", AtomicType("str")), ("qty", AtomicType("int"))], key="name")
    database = Database("db1")
    catalog = Catalog(database)
    database.create_relation(
        RelationSchema(
            "bins",
            TupleType([
                ("bin_id", AtomicType("str")), ("site", AtomicType("str")),
                ("parts", SetType(part)),
            ]),
        )
    )
    for number in range(6):
        database.insert(
            "bins",
            make_tuple(
                bin_id="b%d" % number,
                site=("north", "south", "east")[number % 3],
                parts=make_set(*(
                    make_tuple(name=name, qty=qty)
                    for name, qty in STOCK[: 1 + (number + number // 3) % 3]
                )),
            ),
        )
    return database, catalog


def bin_queries():
    """Scan- or index-rooted queries over several bins of one site."""
    site = st.sampled_from(["b.site = 'north'", "b.site = 'east'", "b.site = 'west'"])
    return st.tuples(
        st.sampled_from([
            "SELECT p FROM b IN bins, p IN b.parts", "SELECT p.qty FROM b IN bins, p IN b.parts",
            "SELECT b FROM b IN bins",
        ]),
        site,
        st.sampled_from(["", "p.qty = 5", "p.name = 'washer'"]),
        st.sampled_from(["READ", "UPDATE"]),
    ).filter(lambda parts: parts[0] != "SELECT b FROM b IN bins" or not parts[2])


DATABASES = {
    "bins": (sited_bins_database, bin_queries(), ("bins", "site")),
    "cells": (
        lambda: build_cells_database(
            n_cells=4, n_objects=5, n_robots=3, n_effectors=6, refs_per_robot=2, seed=7
        ),
        cell_queries(),
        ("effectors", "tool"),
    ),
    "partlib": (lambda: build_partlib_database(seed=11), partlib_queries(), ("parts", "name")),
}


def outcome(executor, stack, text):
    txn = stack.txns.begin()
    try:
        rows, demands = executor.lock_requirements(txn, text)
    finally:
        stack.txns.commit(txn)
    return [(row.object.key, row.steps, row.value) for row in rows], demands


@pytest.mark.parametrize("name", sorted(DATABASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_walk_matches_reference(name, data):
    build, queries, (relation, attribute) = DATABASES[name]
    stack = repro.make_stack(*build())
    reference = ReferenceExecutor(stack.protocol, stack.optimizer)
    texts = data.draw(st.lists(queries.map(query_text), min_size=1, max_size=6))
    # index-assisted root access from the start, or only on a second pass
    # over the same texts, whose prepared walks the new index made stale
    passes = [texts] if data.draw(st.booleans()) else [texts, texts]
    for number, batch in enumerate(passes, 1):
        if number == len(passes):
            stack.database.create_index(relation, attribute)
        for text in batch:
            assert outcome(stack.executor, stack, text) == outcome(reference, stack, text)


def test_granule_above_the_first_element_step_is_one_per_object():
    stack = repro.make_stack(*sited_bins_database())
    txn = stack.txns.begin()
    rows, demands = stack.executor.lock_requirements(
        txn, "SELECT p.qty FROM b IN bins, p IN b.parts WHERE b.site = 'east' FOR UPDATE"
    )
    assert [row.object.key for row in rows] == ["b2", "b2", "b2", "b5"]
    assert demands == [
        (object_resource(stack.catalog, "bins", key) + ("parts",), X) for key in ("b2", "b5")
    ]
