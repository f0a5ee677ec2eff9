"""Prepared queries: one plan per query shape, recompiled when stale.

Every test compares the stack's long-lived executor, whose prepared plan
may be stale, with a fresh :class:`QueryExecutor` that plans from scratch.
"""

import pytest

from repro.errors import AuthorizationError
from repro.graphs.units import index_entry_resource, object_resource
from repro.locking.modes import S
from repro.nf2 import (
    AtomicType,
    RelationSchema,
    TupleType,
    make_list,
    make_set,
    make_tuple,
    parse_path,
)
from repro.query import QueryExecutor

ROBOT_QUERY = (
    "SELECT r FROM c IN cells, r IN c.robots "
    "WHERE c.cell_id = 'c%d' AND r.robot_id = 'r%d_1' FOR READ"
)
OBJECT_BY_NAME = (
    "SELECT o FROM c IN cells, o IN c.c_objects "
    "WHERE c.cell_id = 'c1' AND o.obj_name = 'obj-1-1' FOR READ"
)
EFFECTOR_BY_TOOL = "SELECT e FROM e IN effectors WHERE e.tool = 'tool-2' FOR READ"
ALL_TOOLS = "SELECT t FROM t IN tools FOR READ"


def demands(executor, stack, text):
    txn = stack.txns.begin()
    try:
        return executor.lock_requirements(txn, text)[1]
    finally:
        stack.txns.commit(txn)


def fresh_demands(stack, text):
    return demands(QueryExecutor(stack.protocol, stack.optimizer), stack, text)


def robots_set(stack, cell):
    return object_resource(stack.catalog, "cells", cell) + ("robots",)


class TestStalePlans:
    def test_observe_fanout_flips_the_granule(self, synthetic_stack):
        stack = synthetic_stack
        before = demands(stack.executor, stack, ROBOT_QUERY % (1, 1))
        assert all(resource != robots_set(stack, "c1") for resource, _ in before)
        # one robot per cell: the key predicate now selects every element,
        # so the optimizer anticipates the escalation to the robots set
        stack.statistics.observe_fanout("cells", parse_path("robots"), 1.0)
        after = demands(stack.executor, stack, ROBOT_QUERY % (1, 1))
        assert after == fresh_demands(stack, ROBOT_QUERY % (1, 1))
        assert robots_set(stack, "c1") in [resource for resource, _ in after]

    def test_refresh_after_inserts(self, synthetic_stack):
        stack = synthetic_stack
        fine = demands(stack.executor, stack, OBJECT_BY_NAME)
        for index in range(5, 9):
            stack.database.insert(
                "cells",
                make_tuple(
                    cell_id="c%d" % index,
                    c_objects=make_set(
                        *(make_tuple(obj_id=i, obj_name="x%d" % i) for i in range(500))
                    ),
                    robots=make_list(),
                ),
            )
        # the inserts moved the structure version, not the statistics
        stale = demands(stack.executor, stack, OBJECT_BY_NAME)
        assert stale == fine == fresh_demands(stack, OBJECT_BY_NAME)
        stack.refresh_statistics()
        coarse = demands(stack.executor, stack, OBJECT_BY_NAME)
        assert coarse == fresh_demands(stack, OBJECT_BY_NAME)
        assert coarse != fine

    def test_structure_version_bump(self, synthetic_stack):
        stack = synthetic_stack
        # created after the last refresh: the statistics count its objects
        # live, so only the structure version tells the plan it is stale
        stack.database.create_relation(
            RelationSchema("tools", TupleType([("tool_id", AtomicType("str"))]))
        )
        stack.database.insert("tools", make_tuple(tool_id="t1"))
        one = demands(stack.executor, stack, ALL_TOOLS)
        version = stack.database.structure_version
        stack.database.insert("tools", make_tuple(tool_id="t2"))
        assert stack.database.structure_version > version
        both = demands(stack.executor, stack, ALL_TOOLS)
        assert both == fresh_demands(stack, ALL_TOOLS)
        # one object is locked on its own, two escalate to the relation
        assert [resource[-1] for resource, _ in one] == ["t1"]
        assert [resource[-1] for resource, _ in both] == ["tools"]

    def test_create_index_moves_the_walk_to_the_index(self, synthetic_stack):
        stack = synthetic_stack
        scanned = demands(stack.executor, stack, EFFECTOR_BY_TOOL)
        index = stack.database.create_index("effectors", "tool")
        lookups = []
        lookup = index.lookup
        index.lookup = lambda value: lookups.append(value) or lookup(value)
        indexed = demands(stack.executor, stack, EFFECTOR_BY_TOOL)
        assert lookups == ["tool-2"]
        entry = (index_entry_resource(stack.catalog, "effectors", "tool", "tool-2"), S)
        assert indexed == scanned + [entry]
        assert indexed == fresh_demands(stack, EFFECTOR_BY_TOOL)


class TestPreparedOnce:
    def test_shape_is_analyzed_once(self, synthetic_stack):
        stack = synthetic_stack
        analyzed = []
        analyze = stack.executor.analyzer.analyze

        def counting(query):
            analyzed.append(query)
            return analyze(query)

        stack.executor.analyzer.analyze = counting
        for cell in (1, 2, 3):
            demands(stack.executor, stack, ROBOT_QUERY % (cell, cell))
        assert len(analyzed) == 1
        stack.statistics.observe_fanout("cells", parse_path("robots"), 2.0)
        demands(stack.executor, stack, ROBOT_QUERY % (4, 4))
        assert len(analyzed) == 2

    @pytest.mark.parametrize("executions", [1, 5])
    def test_anticipated_counts_every_execution(self, synthetic_stack, executions):
        stack = synthetic_stack
        text = "SELECT o FROM c IN cells, o IN c.c_objects WHERE c.cell_id = 'c%d' FOR READ"
        optimizer = stack.optimizer
        start = optimizer.anticipated
        demands(stack.executor, stack, text % 1)
        per_plan = optimizer.anticipated - start
        assert per_plan >= 1
        for cell in range(executions):
            demands(stack.executor, stack, text % (cell % 4 + 1))
        assert optimizer.anticipated - start == (executions + 1) * per_plan

    def test_authorization_checked_on_every_execution(self, figure7_stack):
        stack = figure7_stack
        text = "SELECT c FROM c IN cells WHERE c.cell_id = 'c1' FOR UPDATE"
        txn = stack.txns.begin(principal="user2")
        stack.executor.execute(txn, text)
        stack.txns.commit(txn)
        stack.authorization.restrict("outsider")
        outsider = stack.txns.begin(principal="outsider")
        with pytest.raises(AuthorizationError):
            stack.executor.lock_requirements(outsider, text)  # requests no lock

    def test_rows_of_several_objects_lock_each_object(self, synthetic_stack):
        stack = synthetic_stack
        stack.database.insert("effectors", make_tuple(eff_id="e99", tool="tool-2"))
        # a non-key predicate: each matching effector is locked on its own
        got = demands(stack.executor, stack, EFFECTOR_BY_TOOL)
        assert [resource[-1] for resource, _ in got] == ["e2", "e99"]
