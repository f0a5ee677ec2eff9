"""Query-pipeline benchmark: parse → analyze → optimize → lock → bind.

The phase separation of section 4.1 end to end, measured per stage on
Figure 3's Q2 and on a larger synthetic instance.
"""

import itertools

import pytest

import repro
from repro.catalog import Statistics
from repro.protocol import LockRequestOptimizer
from repro.query import QueryAnalyzer, parse_query
from repro.workloads import Q2, build_cells_database


@pytest.fixture(scope="module")
def big_stack():
    database, catalog = build_cells_database(
        n_cells=20, n_objects=30, n_robots=6, n_effectors=10, seed=4
    )
    return repro.make_stack(database, catalog)


def test_parse(benchmark):
    """A full parse: a text of a shape not seen before."""
    texts = iter(
        "SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' "
        "AND r.robot_id = 'r1' AND r.p%d = 1 FOR UPDATE" % index
        for index in itertools.count()
    )
    query = benchmark(lambda: parse_query(next(texts)))
    assert query.select_var == "r"


def test_parse_prepared_hit(benchmark):
    """A text of a known shape: lift the literals, re-bind the parse."""
    parse_query(Q2)
    texts = iter(
        Q2.replace("'r1'", "'r%d'" % index) for index in itertools.count()
    )
    query = benchmark(lambda: parse_query(next(texts)))
    assert query.shape == parse_query(Q2).shape


def test_execute_prepared_hit(benchmark, big_stack):
    """Execution of a prepared shape, with no lock requested: authorize,
    bind, evaluate and instantiate, without analysis or optimization."""
    stack = big_stack
    stack.authorization.grant_modify("engineer", "cells")
    stack.authorization.grant_read("engineer", "effectors")
    text = (
        "SELECT r FROM c IN cells, r IN c.robots "
        "WHERE c.cell_id = 'c7' AND r.robot_id = 'r7_3' FOR UPDATE"
    )
    txn = stack.txns.begin(principal="engineer")
    stack.executor.lock_requirements(txn, text)
    query = parse_query(text)
    rows, demands = benchmark(stack.executor.lock_requirements, txn, query)
    stack.txns.commit(txn)
    assert len(rows) == 1 and demands


def test_execute_prepared_many_rows(benchmark, big_stack):
    """The 30-row shape that is half of both in-process query mixes,
    prepared, with no lock requested: the per-row cost of the walk and of
    instantiating the stored lock graph."""
    stack = big_stack
    stack.authorization.grant_read("engineer", "cells")
    text = "SELECT o FROM c IN cells, o IN c.c_objects WHERE c.cell_id = 'c7' FOR READ"
    txn = stack.txns.begin(principal="engineer")
    stack.executor.lock_requirements(txn, text)
    query = parse_query(text)
    rows, demands = benchmark(stack.executor.lock_requirements, txn, query)
    stack.txns.commit(txn)
    assert len(rows) == 30 and demands


def test_analyze(benchmark, big_stack):
    query = parse_query(
        "SELECT r FROM c IN cells, r IN c.robots "
        "WHERE c.cell_id = 'c7' AND r.robot_id = 'r7_3' FOR UPDATE"
    )
    analyzer = QueryAnalyzer(big_stack.catalog, big_stack.statistics)
    intents = benchmark(analyzer.analyze, query)
    assert len(intents) == 1


def test_optimize(benchmark, big_stack):
    query = parse_query(
        "SELECT r FROM c IN cells, r IN c.robots "
        "WHERE c.cell_id = 'c7' AND r.robot_id = 'r7_3' FOR UPDATE"
    )
    analyzer = QueryAnalyzer(big_stack.catalog, big_stack.statistics)
    intents = analyzer.analyze(query)
    graphs = benchmark(big_stack.optimizer.plan_query, intents)
    assert "cells" in graphs


def test_full_pipeline_with_locks(benchmark, big_stack):
    stack = big_stack
    stack.authorization.grant_modify("engineer", "cells")
    stack.authorization.grant_read("engineer", "effectors")

    def pipeline():
        txn = stack.txns.begin(principal="engineer")
        rows = stack.executor.execute(
            txn,
            "SELECT r FROM c IN cells, r IN c.robots "
            "WHERE c.cell_id = 'c7' AND r.robot_id = 'r7_3' FOR UPDATE",
        )
        stack.txns.commit(txn)
        return rows

    rows = benchmark(pipeline)
    assert len(rows) == 1


def test_repeated_pipeline_reference_index_ablation(benchmark, big_stack):
    """Repeated FOR UPDATE pipelines: per-execution propagation cost.

    Every execution plans an X demand on a robot component, which closes
    over the reachable effector entry points.  With the reference index
    the closure is memoized across executions; the naive scan re-walks
    the cell's subtree every time.
    """
    import time

    from benchmarks._common import print_table

    stack = big_stack
    stack.authorization.grant_modify("engineer", "cells")
    stack.authorization.grant_read("engineer", "effectors")
    database = stack.database
    query = (
        "SELECT r FROM c IN cells, r IN c.robots "
        "WHERE c.cell_id = 'c7' AND r.robot_id = 'r7_3' FOR UPDATE"
    )

    def pipeline():
        txn = stack.txns.begin(principal="engineer")
        rows = stack.executor.execute(txn, query)
        stack.txns.commit(txn)
        return rows

    repeats = 50
    rows = []
    ops = {}
    for label, use_index in (("naive scan", False), ("cached index", True)):
        database.use_reference_index = use_index
        database.reset_ref_scan_ops()
        database.reference_index.reset_counters()
        t0 = time.perf_counter()
        for _ in range(repeats):
            assert len(pipeline()) == 1
        wall = time.perf_counter() - t0
        ops[label] = (database.reference_index.lookups if use_index
                      else database.ref_scan_ops)
        rows.append((label, round(wall, 4), ops[label]))
    database.use_reference_index = True
    print_table(
        "pipeline x%d, naive scan vs. reference index" % repeats,
        ("path", "wall time (s)", "ref-scan ops"),
        rows,
    )
    assert ops["naive scan"] >= 3 * max(ops["cached index"], 1)
    benchmark(pipeline)


def test_statistics_refresh(benchmark, big_stack):
    statistics = Statistics(big_stack.database)
    benchmark(statistics.refresh)
    assert statistics.object_count("cells") == 20
