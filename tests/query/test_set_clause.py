"""SET clauses: mutating FOR UPDATE queries end to end."""

import pytest

import repro
from repro.errors import QueryError, SchemaError
from repro.query.parser import parse_query
from repro.workloads import build_cells_database


class TestParsing:
    def test_single_assignment(self):
        query = parse_query(
            "SELECT r FROM c IN cells, r IN c.robots "
            "WHERE c.cell_id = 'c1' AND r.robot_id = 'r1' "
            "FOR UPDATE SET r.trajectory = 'tr1b'"
        )
        [assignment] = query.assignments
        assert assignment.var == "r"
        assert assignment.path == ("trajectory",)
        assert assignment.value == "tr1b"

    def test_multiple_assignments(self):
        query = parse_query(
            "SELECT e FROM e IN effectors WHERE e.eff_id = 'e1' "
            "FOR UPDATE SET e.tool = 'a', e.tool = 'b'"
        )
        assert len(query.assignments) == 2

    def test_set_requires_update(self):
        with pytest.raises(QueryError):
            parse_query("SELECT c FROM c IN cells FOR READ SET c.cell_id = 'x'")

    def test_set_through_other_variable_rejected(self):
        with pytest.raises(QueryError):
            parse_query(
                "SELECT r FROM c IN cells, r IN c.robots "
                "FOR UPDATE SET c.cell_id = 'x'"
            )

    def test_set_with_projection_rejected(self):
        with pytest.raises(QueryError):
            parse_query(
                "SELECT r.trajectory FROM c IN cells, r IN c.robots "
                "FOR UPDATE SET r.trajectory = 'x'"
            )

    def test_set_needs_literal(self):
        with pytest.raises(QueryError):
            parse_query(
                "SELECT c FROM c IN cells FOR UPDATE SET c.cell_id = other"
            )


class TestExecution:
    def test_update_robot_trajectory(self, figure7_stack):
        txn = figure7_stack.txns.begin(principal="user2")
        figure7_stack.executor.execute(
            txn,
            "SELECT r FROM c IN cells, r IN c.robots "
            "WHERE c.cell_id = 'c1' AND r.robot_id = 'r1' "
            "FOR UPDATE SET r.trajectory = 'reprogrammed'",
        )
        cell = figure7_stack.database.get("cells", "c1")
        assert cell.root["robots"][0]["trajectory"] == "reprogrammed"

    def test_rolls_back_on_abort(self, figure7_stack):
        txn = figure7_stack.txns.begin(principal="user2")
        figure7_stack.executor.execute(
            txn,
            "SELECT r FROM c IN cells, r IN c.robots "
            "WHERE c.cell_id = 'c1' AND r.robot_id = 'r1' "
            "FOR UPDATE SET r.trajectory = 'dirty'",
        )
        figure7_stack.txns.abort(txn)
        cell = figure7_stack.database.get("cells", "c1")
        assert cell.root["robots"][0]["trajectory"] == "tr1"

    def test_updates_every_selected_row(self, figure7_stack):
        txn = figure7_stack.txns.begin(principal="user2")
        figure7_stack.executor.execute(
            txn,
            "SELECT r FROM c IN cells, r IN c.robots "
            "WHERE c.cell_id = 'c1' FOR UPDATE SET r.trajectory = 'same'",
        )
        cell = figure7_stack.database.get("cells", "c1")
        assert [r["trajectory"] for r in cell.root["robots"]] == ["same", "same"]

    def test_schema_violation_rejected(self, figure7_stack):
        txn = figure7_stack.txns.begin(principal="user2")
        with pytest.raises(SchemaError):
            figure7_stack.executor.execute(
                txn,
                "SELECT r FROM c IN cells, r IN c.robots "
                "WHERE c.cell_id = 'c1' AND r.robot_id = 'r1' "
                "FOR UPDATE SET r.trajectory = 7",
            )

    def test_bad_set_path_rejected(self, figure7_stack):
        txn = figure7_stack.txns.begin(principal="user2")
        with pytest.raises((QueryError, Exception)):
            figure7_stack.executor.execute(
                txn,
                "SELECT r FROM c IN cells, r IN c.robots "
                "WHERE c.cell_id = 'c1' AND r.robot_id = 'r1' "
                "FOR UPDATE SET r.nonexistent = 'x'",
            )

    def test_concurrent_reader_blocked_until_commit(self, figure7_stack):
        stack = figure7_stack
        writer = stack.txns.begin(principal="user2")
        stack.executor.execute(
            writer,
            "SELECT r FROM c IN cells, r IN c.robots "
            "WHERE c.cell_id = 'c1' AND r.robot_id = 'r1' "
            "FOR UPDATE SET r.trajectory = 'v2'",
        )
        from repro.errors import LockConflictError

        reader = stack.txns.begin()
        with pytest.raises(LockConflictError):
            stack.txns.read_component(reader, "cells", "c1", "robots[r1].trajectory")
        stack.txns.commit(writer)
        value = stack.txns.read_component(
            reader, "cells", "c1", "robots[r1].trajectory"
        )
        assert value == "v2"


def small_cells_stack():
    return repro.make_stack(
        *build_cells_database(n_cells=3, n_objects=2, n_robots=2, n_effectors=3, seed=4)
    )


ROBOT = (
    "SELECT r FROM c IN cells, r IN c.robots "
    "WHERE c.cell_id = 'c1' AND r.robot_id = '%s' FOR UPDATE"
)


class TestKeysAndIndexesAreNotAssignable:
    """A SET that changes a key or an indexed attribute would change what
    other transactions lock (or find through the index) without their locks
    or the index following; such writes go through update_component."""

    def test_element_key_refused_and_nothing_readable_under_the_new_name(self):
        stack = small_cells_stack()
        writer = stack.txns.begin()
        with pytest.raises(QueryError, match="update_component"):
            stack.executor.execute(writer, ROBOT % "r1_1" + " SET r.robot_id = 'r9'")
        reader = stack.txns.begin()
        assert stack.executor.execute(reader, ROBOT % "r9") == []
        assert len(stack.executor.execute(reader, ROBOT % "r1_1")) == 1

    def test_root_key_refused_and_the_object_still_found(self):
        stack = small_cells_stack()
        txn = stack.txns.begin()
        with pytest.raises(QueryError, match="update_component"):
            stack.executor.execute(
                txn, "SELECT c FROM c IN cells WHERE c.cell_id = 'c1' FOR UPDATE SET c.cell_id = 'zz'"
            )
        stack.txns.commit(txn)
        reader = stack.txns.begin()
        find = "SELECT c FROM c IN cells WHERE c.cell_id = '%s' FOR READ"
        assert len(stack.executor.execute(reader, find % "c1")) == 1
        assert stack.executor.execute(reader, find % "zz") == []

    def test_indexed_attribute_refused_once_the_index_exists(self):
        stack = small_cells_stack()
        update = "SELECT e FROM e IN effectors WHERE e.eff_id = 'e1' FOR UPDATE SET e.tool = '%s'"
        txn = stack.txns.begin()
        stack.executor.execute(txn, update % "before")
        stack.txns.commit(txn)
        stack.database.create_index("effectors", "tool")
        txn = stack.txns.begin()
        with pytest.raises(QueryError, match="update_component"):
            stack.executor.execute(txn, update % "NEWVAL")
        stack.txns.commit(txn)
        reader = stack.txns.begin()
        find = "SELECT e FROM e IN effectors WHERE e.tool = '%s' FOR READ"
        assert stack.executor.execute(reader, find % "NEWVAL") == []
        assert len(stack.executor.execute(reader, find % "before")) == 1

    def test_lock_requirements_refuse_too(self):
        stack = small_cells_stack()
        txn = stack.txns.begin()
        with pytest.raises(QueryError):
            stack.executor.lock_requirements(txn, ROBOT % "r1_1" + " SET r.robot_id = 'r9'")


class TestRejectedSetWritesNothing:
    def test_schema_error_leaves_the_value_and_a_valid_set_succeeds(self):
        stack = small_cells_stack()
        [robot] = [r for r in stack.database.get("cells", "c1").root["robots"] if r["robot_id"] == "r1_1"]
        before = robot["trajectory"]
        txn = stack.txns.begin()
        with pytest.raises(SchemaError):
            stack.executor.execute(
                txn, ROBOT % "r1_1" + " SET r.trajectory = 'kept-out', r.trajectory = 7"
            )
        stack.txns.commit(txn)
        assert robot["trajectory"] == before
        txn = stack.txns.begin()
        stack.executor.execute(txn, ROBOT % "r1_1" + " SET r.trajectory = 'valid'")
        stack.txns.commit(txn)
        assert robot["trajectory"] == "valid"
