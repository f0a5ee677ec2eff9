"""Compiled lock-plan cache (perf ablation) and batched re-acquisition.

Repeated demands against the same object graph dominate the paper's
workstation scenario: every checkout/read of a cell re-derives the same
rule 1-4' expansion.  The plan cache memoizes the merged step list keyed
by (resource, mode, propagate, principal-class) and stamped with the
structure/authorization versions.  It must be invisible in lock
semantics (see ``repro-check differential``) — here we measure what it
buys in wall time and lock-table traffic, and what the lock table's
group request (``request_many``, the served path) costs on a covered
plan.
"""

import statistics
import time

import repro
from benchmarks._common import print_table
from repro.graphs.units import object_resource
from repro.locking.lock_table import LockTable
from repro.locking.modes import IX, S, X
from repro.locking.plancache import PlanCache
from repro.protocol.base import PlannedLock
from repro.workloads import build_cells_database

DB_KWARGS = dict(n_cells=6, n_robots=10, n_effectors=30)
N_TXNS = 300


def _stack(cached):
    """``cached=False`` installs a zero-budget cache: every demand is
    compiled afresh and none is retained."""
    database, catalog = build_cells_database(**DB_KWARGS)
    stack = repro.make_stack(database, catalog)
    if not cached:
        stack.protocol.plan_cache = PlanCache(0)
    cells = [
        object_resource(catalog, "cells", obj.key)
        for obj in database.relation("cells")
    ]
    return stack, cells


def _repeated_demands(cached, n_txns=N_TXNS):
    """n short transactions, each S-locking one whole cell (round-robin)."""
    stack, cells = _stack(cached)
    start = time.perf_counter()
    for i in range(n_txns):
        txn = stack.txns.begin()
        stack.protocol.request(txn, cells[i % len(cells)], S)
        stack.txns.commit(txn)
    elapsed = time.perf_counter() - start
    return elapsed, stack.protocol.metrics()


def _best(variant, fn=None, rounds=3):
    fn = fn or _repeated_demands
    times = []
    metrics = None
    for _ in range(rounds):
        elapsed, metrics = fn(*variant)
        times.append(elapsed)
    return min(times), metrics


#: The headline gate times the two variants in adjacent pairs of short
#: chunks, alternating which one goes first, and takes the median of the
#: per-pair ratios.  A slow spell of a shared host (they last about a
#: second on a 2-vCPU machine, longer than a whole best-of-3 series of
#: one variant) then slows both sides of the pairs it covers instead of
#: one variant's series.
GATE_PAIRS = 41
GATE_CHUNK = 50


def _demand_chunk(stack, cells, count):
    """``count`` one-demand transactions over ``cells`` (round-robin)."""
    start = time.perf_counter()
    for i in range(count):
        txn = stack.txns.begin()
        stack.protocol.request(txn, cells[i % len(cells)], S)
        stack.txns.commit(txn)
    return time.perf_counter() - start


def test_plan_cache_repeated_demands(benchmark):
    """The BENCH_2 headline: cache on vs off on repeated whole-cell reads."""
    (off, cells), (cached, _) = _stack(False), _stack(True)
    ratios = []
    for pair in range(GATE_PAIRS):
        if pair % 2:
            cache_time = _demand_chunk(cached, cells, GATE_CHUNK)
            off_time = _demand_chunk(off, cells, GATE_CHUNK)
        else:
            off_time = _demand_chunk(off, cells, GATE_CHUNK)
            cache_time = _demand_chunk(cached, cells, GATE_CHUNK)
        ratios.append(off_time / cache_time)
    speedup = statistics.median(ratios)
    off_metrics, cache_metrics = off.protocol.metrics(), cached.protocol.metrics()
    print_table(
        "Plan cache: %d x %d repeated S demands (%d cells x %d robots)"
        % (GATE_PAIRS, GATE_CHUNK, DB_KWARGS["n_cells"], DB_KWARGS["n_robots"]),
        ("variant", "chunk", "median speedup", "cache hits", "misses"),
        [
            ("compile every demand", "%.4fs" % off_time, "1.00x", "-", "-"),
            (
                "plan cache",
                "%.4fs" % cache_time,
                "%.2fx" % speedup,
                cache_metrics["plan_cache_hits"],
                cache_metrics["plan_cache_misses"],
            ),
        ],
    )
    # Same lock traffic either way — the ablation only moves compile time.
    assert off_metrics["locks_requested"] == cache_metrics["locks_requested"]
    total = GATE_PAIRS * GATE_CHUNK
    assert cache_metrics["plan_cache_hits"] >= total - DB_KWARGS["n_cells"]
    # the acceptance bar; measured 1.36-1.52x (median of pairs) per run
    assert speedup >= 1.3
    benchmark.extra_info["plan_cache_speedup"] = round(speedup, 3)
    benchmark.extra_info["plan_cache_hits"] = cache_metrics["plan_cache_hits"]
    benchmark.extra_info["plan_cache_misses"] = cache_metrics["plan_cache_misses"]
    benchmark.pedantic(
        _repeated_demands, args=(True,), rounds=5
    )


#: more robots than the default 16 384-step budget holds plans for (a
#: robot X plan is 9 steps here: 5 ancestors, 2 effectors with their
#: relation and segment, the target)
SPILL_KWARGS = dict(n_cells=300, n_objects=1, n_robots=10, n_effectors=20)
N_SPILL_DEMANDS = 12000


def _spill_demands(plan_cache):
    """Seeded X demands on robots drawn from all of them, one transaction
    each; ``plan_cache`` replaces the shipped cache unless None."""
    import random

    database, catalog = build_cells_database(**SPILL_KWARGS)
    stack = repro.make_stack(database, catalog)
    if plan_cache is not None:
        stack.protocol.plan_cache = plan_cache
    robots = [
        object_resource(catalog, "cells", obj.key) + ("robots", robot["robot_id"])
        for obj in database.relation("cells")
        for robot in obj.root["robots"]
    ]
    rng = random.Random(3)
    draws = [rng.choice(robots) for _ in range(N_SPILL_DEMANDS)]
    start = time.perf_counter()
    for robot in draws:
        txn = stack.txns.begin()
        stack.protocol.request(txn, robot, X)
        stack.txns.commit(txn)
    elapsed = time.perf_counter() - start
    return elapsed, stack.protocol.metrics()


def test_plan_cache_spill_misses(benchmark):
    """Robot X demands over more distinct plans than the step budget
    holds: half the demands miss, and each miss composes its plan from
    the head, the shared effector suffixes and the target."""
    rows = []
    results = {}
    for label, cache in (
        ("compose every demand", PlanCache(0)),
        ("shipped budget (16 384 steps)", None),
        ("unbounded budget", PlanCache(10 ** 9)),
    ):
        elapsed, metrics = _best((cache,), _spill_demands, rounds=1)
        results[label] = metrics
        demands = metrics["plan_cache_hits"] + metrics["plan_cache_misses"]
        rows.append((
            label,
            "%.1f" % (elapsed / N_SPILL_DEMANDS * 1e6),
            "%.2f" % (metrics["plan_cache_hits"] / demands),
            metrics["plan_cache_misses"],
            metrics["plan_cache_steps"],
        ))
    print_table(
        "Plan cache spill: %d robot X demands over %d robots"
        % (N_SPILL_DEMANDS, SPILL_KWARGS["n_cells"] * SPILL_KWARGS["n_robots"]),
        ("variant", "us/demand", "hit ratio", "misses", "steps kept"),
        rows,
    )
    shipped = results["shipped budget (16 384 steps)"]
    locks = {metrics["locks_requested"] for metrics in results.values()}
    assert len(locks) == 1  # the budget moves compile time, never locks
    assert shipped["plan_cache_misses"] > N_SPILL_DEMANDS // 4
    assert shipped["plan_cache_steps"] <= PlanCache().max_steps
    benchmark.extra_info["spill_hit_ratio"] = rows[1][2]
    benchmark.extra_info["spill_us_per_demand"] = rows[1][1]
    benchmark.pedantic(_spill_demands, args=(None,), rounds=1)


def test_plan_cache_invalidation_churn(benchmark):
    """Structural mutations between demands bound the attainable hit rate."""
    rows = []
    for label, every in (("no mutations", 0), ("insert every 10th", 10),
                         ("insert every 3rd", 3)):
        stack, cells = _stack(True)
        from repro.nf2 import make_tuple

        inserted = 0
        for i in range(N_TXNS):
            if every and i % every == 0:
                stack.database.insert(
                    "effectors",
                    make_tuple(eff_id="bench-e%d" % i, tool="probe"),
                )
                inserted += 1
            txn = stack.txns.begin()
            stack.protocol.request(txn, cells[i % len(cells)], S)
            stack.txns.commit(txn)
        metrics = stack.protocol.metrics()
        rows.append(
            (
                label,
                inserted,
                metrics["plan_cache_hits"],
                metrics["plan_cache_misses"],
                metrics["plan_cache_invalidations"],
            )
        )
    print_table(
        "Version-stamp invalidation: structural churn vs cache hit rate",
        ("mutation rate", "inserts", "hits", "misses", "invalidations"),
        rows,
    )
    none, light, heavy = rows
    assert none[4] == 0 and none[2] > light[2] > heavy[2]
    assert heavy[4] > light[4] > 0
    benchmark.extra_info["hits_no_churn"] = none[2]
    benchmark.extra_info["hits_heavy_churn"] = heavy[2]
    benchmark.pedantic(_repeated_demands, args=(True,), rounds=3)


def _sequential_reacquire(table, plan, rounds):
    for _ in range(rounds):
        for step in plan:
            if not table.holds_at_least("t1", step.resource, step.mode):
                table.request("t1", step.resource, step.mode)


def _batched_reacquire(table, plan, rounds):
    for _ in range(rounds):
        table.request_many("t1", plan)


def test_batched_reacquire_fast_path(benchmark):
    """A fully covered group request is one summary probe per step."""
    plan = [
        PlannedLock(("db1",), IX),
        PlannedLock(("db1", "seg1"), IX),
        PlannedLock(("db1", "seg1", "cells"), IX),
        PlannedLock(("db1", "seg1", "cells", "c1"), X),
    ]
    rounds = 2000
    timings = {}
    for label, runner in (
        ("sequential request()", _sequential_reacquire),
        ("request_many()", _batched_reacquire),
    ):
        table = LockTable()
        table.request_many("t1", plan)
        start = time.perf_counter()
        runner(table, plan, rounds)
        timings[label] = time.perf_counter() - start
        assert table.lock_count() == len(plan)
    print_table(
        "Covered re-acquisition of a %d-step plan (%d rounds)"
        % (len(plan), rounds),
        ("path", "time"),
        [(label, "%.4fs" % t) for label, t in timings.items()],
    )
    benchmark.extra_info["sequential_s"] = round(
        timings["sequential request()"], 4
    )
    benchmark.extra_info["batched_s"] = round(timings["request_many()"], 4)
    table = LockTable()
    table.request_many("t1", plan)
    benchmark.pedantic(
        _batched_reacquire, args=(table, plan, rounds), rounds=5
    )
