"""Composed Herrmann plans against the uncomposed reference builder.

On a plan-cache miss :class:`~repro.protocol.herrmann.HerrmannProtocol`
assembles the merged steps from a head, one downward suffix per lower
entry point (shared under the plan stamp) and the target.  Whatever the
catalog, modes, rule 4', principal, propagation and world changes in
between, every plan must equal in order, as ``(resource, mode, reason)``,
what :mod:`tests.protocol.reference_plans` builds on a fresh protocol.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.errors import AuthorizationError
from repro.graphs.units import index_entry_resource, object_resource
from repro.locking.modes import CLASSIC_MODES, SEMANTIC_MODES, S, X
from repro.nf2 import (
    AtomicType,
    RefType,
    RelationSchema,
    SetType,
    TupleType,
    make_list,
    make_set,
    make_tuple,
)
from repro.protocol.herrmann import HerrmannProtocol
from repro.workloads import build_cells_database, build_partlib_database
from tests.protocol.reference_plans import reference_steps

#: per catalog: builder, (relation, key) of one object with components,
#: a component path below it, the common-data relation rule 4' withholds
#: from the restricted principal, and the indexed (relation, attribute,
#: value) whose entry is demanded
CATALOGS = {
    "cells": (
        lambda: build_cells_database(
            n_cells=3, n_objects=2, n_robots=2, n_effectors=4, refs_per_robot=2, seed=5
        ),
        ("cells", "c2"),
        ("robots", "r2_1"),
        "effectors",
        ("effectors", "tool", "tool-2"),
    ),
    "partlib": (
        lambda: build_partlib_database(seed=11),
        ("assemblies", "a2"),
        ("positions", "1"),
        "materials",
        ("parts", "name", "bolt-1"),
    ),
}

PRINCIPALS = ("restricted", "anyone")


def demand_resources(stack, name):
    """Database, segment, relation, object, component, entry-point and
    index-entry demands of the catalog."""
    _, (relation, key), component, common, (indexed, attribute, value) = CATALOGS[name]
    obj = object_resource(stack.catalog, relation, key)
    entry = object_resource(
        stack.catalog, common, next(iter(stack.database.relation(common))).key
    )
    return [
        obj[:1], obj[:2], obj[:3], obj, obj + component, obj + component[:1],
        entry, entry[:3], index_entry_resource(stack.catalog, indexed, attribute, value),
    ]


def grant_rights(stack, name):
    """``restricted`` may modify everything but the common-data relation
    rule 4' is about; ``anyone`` keeps the permissive defaults."""
    common = CATALOGS[name][3]
    for relation in stack.catalog.relation_names():
        if relation != common:
            stack.authorization.grant_modify("restricted", relation)
    stack.authorization.grant_read("restricted", common)


def mutate(stack, name, mutation, number):
    """Move the world the way stale suffixes and plans would show."""
    database = stack.database
    common = CATALOGS[name][3]
    if mutation == "grant":
        stack.authorization.grant_modify("restricted", common)
    elif mutation == "revoke":
        stack.authorization.revoke_modify("restricted", common)
    elif name != "cells":
        return  # the structural changes below are written against cells
    elif mutation == "insert":
        # a new effector, reachable only through a new cell's robot
        effector = database.insert("effectors", make_tuple(eff_id="x%d" % number, tool="new"))
        robot = make_tuple(
            robot_id="rx%d" % number, trajectory="t", effectors=make_set(effector.reference())
        )
        database.insert(
            "cells",
            make_tuple(cell_id="cx%d" % number, c_objects=make_set(), robots=make_list(robot)),
        )
    elif mutation == "replace":
        # robot r2_1 of c2 now reaches every effector
        txn = stack.txns.begin()
        refs = make_set(*(obj.reference() for obj in database.relation("effectors")))
        stack.txns.update_component(txn, "cells", "c2", "robots[r2_1].effectors", refs)
        stack.txns.commit(txn)
    elif mutation == "create" and "racks" not in stack.catalog.relation_names():
        # a new relation reaching a new effector: database-level demands
        # gain an entry point
        database.create_relation(
            RelationSchema(
                "racks",
                TupleType([("rack_id", AtomicType("str")), ("held", SetType(RefType("effectors")))]),
                segment="seg1",
            )
        )
        effector = database.insert("effectors", make_tuple(eff_id="y%d" % number, tool="rack"))
        database.insert("racks", make_tuple(rack_id="k1", held=make_set(effector.reference())))


def spelled(plan):
    return [(step.resource, step.mode, step.reason) for step in plan]


def check_against_fresh(stack, options, resource, mode, principal, propagate=True):
    """Plan one demand on ``stack`` and on a fresh protocol over the same
    world; the two must agree in order."""
    fresh = HerrmannProtocol(
        stack.manager, stack.catalog, authorization=stack.authorization, **options
    )
    txn = stack.txns.begin(principal=principal)
    try:
        plan = stack.protocol.plan_request(txn, resource, mode, propagate=propagate)
    finally:
        stack.txns.abort(txn)
    assert spelled(plan) == spelled(reference_steps(fresh, txn, resource, mode, propagate))
    return plan


@pytest.mark.parametrize("mutation", ["none", "grant", "revoke", "insert", "replace", "create"])
def test_stale_cases_match_a_fresh_protocol(mutation):
    """Every demand is planned by both principals before and after one world
    change: a suffix shared across principals, or kept across the change,
    shows as a plan the fresh protocol does not make."""
    options = dict(rule4prime=True)
    stack = repro.make_stack(*CATALOGS["cells"][0](), **options)
    grant_rights(stack, "cells")
    if mutation == "revoke":
        stack.authorization.grant_modify("restricted", "effectors")
    robot = object_resource(stack.catalog, "cells", "c2") + ("robots", "r2_1")
    demands = [(robot, X), (robot[:4], X), (robot[:3], S), (robot[:1], X), (robot[:2], S)]
    for passes in range(2):
        if passes:
            mutate(stack, "cells", mutation, 99)
        for resource, mode in demands:
            for principal in PRINCIPALS:
                check_against_fresh(stack, options, resource, mode, principal)
    if mutation in ("grant", "revoke"):
        # rule 4' flipped the propagated mode of the restricted principal
        flipped = {"grant": X, "revoke": S}[mutation]
        plan = check_against_fresh(stack, options, robot, X, "restricted")
        assert {step.mode for step in plan if step.reason == "downward"} == {flipped}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_composed_plans_match_the_reference(data):
    name = data.draw(st.sampled_from(sorted(CATALOGS)))
    semantic = data.draw(st.booleans())
    options = dict(
        rule4prime=data.draw(st.booleans()),
        transitive_propagation=data.draw(st.booleans()),
        use_semantic_modes=semantic,
    )
    stack = repro.make_stack(*CATALOGS[name][0](), **options)
    indexed, attribute, _ = CATALOGS[name][4]
    stack.database.create_index(indexed, attribute)
    grant_rights(stack, name)
    modes = CLASSIC_MODES + (SEMANTIC_MODES if semantic else ())
    demand = st.tuples(
        st.sampled_from(demand_resources(stack, name)),
        st.one_of(st.sampled_from((S, X)), st.sampled_from(modes)),
        st.booleans(),
    )
    mutation = st.sampled_from(["grant", "revoke", "insert", "replace", "create"])
    script = data.draw(st.lists(st.one_of(demand, demand, mutation), min_size=1, max_size=16))
    planned = []
    for number, action in enumerate(script):
        if isinstance(action, str):
            mutate(stack, name, action, number)
            batch = planned  # planned again: a suffix kept across the change shows
        else:
            planned.append(action)
            batch = [action]
        for resource, mode, propagate in batch:
            for principal in PRINCIPALS:  # a suffix must not leak between them
                try:
                    check_against_fresh(stack, options, resource, mode, principal, propagate)
                except AuthorizationError:
                    pass  # rule 4': the principal may not modify the demanded relation
