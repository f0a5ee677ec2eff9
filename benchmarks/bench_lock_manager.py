"""E11 — lock-manager microbenchmarks.

Raw cost of the bookkeeping everything else sits on: grant, re-grant,
conversion, release, queue processing, waits-for-edge extraction, and
deadlock detection on a populated table, one uncontended transaction's
lifecycle — plus the fast-path ablations (dense mode tables vs. the
defining dicts, indexed release_all vs. table size, memoized deadlock
checks).
"""

import time

import pytest

from benchmarks._common import print_table
from repro.locking import LockManager, LockTable, find_cycle
from repro.locking.modes import (
    ALL_MODES,
    IS,
    IX,
    S,
    X,
    compatible,
    compatible_naive,
    supremum,
    supremum_naive,
)
from repro.protocol.base import PlannedLock


def test_acquire_release_cycle(benchmark):
    manager = LockManager()
    resource = ("db", "seg", "rel", "obj")

    def cycle():
        manager.acquire("t1", resource, X)
        manager.release("t1", resource)

    benchmark(cycle)


def test_hierarchical_chain_acquire(benchmark):
    manager = LockManager()
    chain = [("db",), ("db", "seg"), ("db", "seg", "rel"), ("db", "seg", "rel", "o")]

    def cycle():
        for resource in chain[:-1]:
            manager.acquire("t1", resource, IX)
        manager.acquire("t1", chain[-1], X)
        manager.release_all("t1")

    benchmark(cycle)


def test_uncontended_txn_lifecycle(benchmark):
    """E11f: one uncontended transaction, end to end at the manager.

    A fresh 20-step plan (intention chain, then leaves nobody holds)
    through ``acquire_many``, then ``release_all``: every step builds its
    entry already granted and EOT release walks the grants once.
    """
    manager = LockManager()
    chain = [("db",), ("db", "seg"), ("db", "seg", "rel"), ("db", "seg", "rel", "o")]
    plan = [PlannedLock(resource, IX) for resource in chain]
    plan += [
        PlannedLock(chain[-1] + ("m%d" % i,), S) for i in range(20 - len(chain))
    ]

    def lifecycle():
        granted = manager.acquire_many("t1", plan)
        manager.release_all("t1")
        return len(granted)

    assert benchmark(lifecycle) == len(plan) == 20
    assert manager.lock_count() == 0
    assert manager.table._entries == {}


def test_regrant_of_held_mode(benchmark):
    manager = LockManager()
    resource = ("r",)
    manager.acquire("t1", resource, S)

    def regrant():
        manager.acquire("t1", resource, S)
        manager.release("t1", resource)

    benchmark(regrant)


def test_conversion(benchmark):
    manager = LockManager()
    resource = ("r",)

    def convert():
        manager.acquire("t1", resource, IS)
        manager.acquire("t1", resource, X)
        manager.release_all("t1")

    benchmark(convert)


def test_contended_queue_processing(benchmark):
    def contended():
        table = LockTable()
        table.request("w", ("r",), X)
        pending = [table.request("t%d" % i, ("r",), S) for i in range(20)]
        woken = table.release("w", ("r",))
        for request in pending:
            assert request.granted
        for i in range(20):
            table.release_all("t%d" % i)
        return len(woken)

    woken = benchmark(contended)
    assert woken == 20


def test_waits_for_edges_extraction(benchmark):
    table = LockTable()
    for i in range(10):
        table.request("holder%d" % i, ("r%d" % i,), X)
        table.request("waiter%d" % i, ("r%d" % i,), X)

    edges = benchmark(table.waits_for_edges)
    assert len(edges) == 10


def contended_table(hot=8, depth=17, readers=8):
    """A lock manager shaped like the simulator's deadlock-heavy overload.

    ``hot`` entries, each held in S by ``readers`` transactions and with a
    ``depth``-deep queue of mixed S/X waiters (the first one an X, so the
    rest queue behind it).  The readers of entry ``k`` are waiters at entry
    ``k + 1``: blocked lock holders block others, and the graph is dense
    but acyclic.  Two entries created last carry the one cycle, so a full
    pass walks the whole acyclic part before it finds it.
    """
    manager = LockManager()
    pattern = "XSSXSXXSXSSXXSXSX"

    def waiter(k, i):
        return "w%d_%d" % (k, i)

    for k in range(hot):
        for i in range(readers):
            holder = waiter(k + 1, i) if k + 1 < hot else "r%d_%d" % (k, i)
            manager.acquire(holder, ("hot", k), S)
    for k in range(hot):
        for i in range(depth):
            mode = X if pattern[i % len(pattern)] == "X" else S
            assert not manager.acquire(waiter(k, i), ("hot", k), mode).granted
    manager.acquire("c1", ("ring", 0), X)
    manager.acquire("c2", ("ring", 1), X)
    manager.acquire("c1", ("ring", 1), X)
    manager.acquire("c2", ("ring", 0), X)
    return manager


def test_deadlock_detection_on_populated_table(benchmark):
    """E11: one full detection pass over a dense waits-for graph.

    ~136 waiters and ~1 450 edges on eight hot entries (``contended_table``),
    one two-transaction cycle.  Every round first grants and releases an
    unrelated lock, so the detector's quiescence memo (E11d) cannot answer
    and the round is a real full pass: graph assembly from the per-entry
    memo, then the search.  The answer is held to the reference
    ``find_cycle`` over the complete edge list.
    """
    manager = contended_table()
    table = manager.table
    edges = table.waits_for_edges()
    waiters = {src for src, _ in edges}
    assert 120 <= len(waiters) <= 150 and 1300 <= len(edges) <= 1600
    reference = find_cycle(edges)
    assert set(reference) == {"c1", "c2"}

    rounds = []

    def touch():
        manager.acquire("bench", ("free",), X)
        manager.release("bench", ("free",))
        rounds.append(None)

    detections = manager.detector.detections
    cycle = benchmark.pedantic(
        manager.detect_deadlock, setup=touch, rounds=200, warmup_rounds=5
    )
    assert cycle == reference
    # every round was a full pass, none answered by the quiescence memo
    assert manager.detector.cached_checks == 0
    assert manager.detector.detections - detections == len(rounds)


def test_mode_tables_vs_dicts(benchmark):
    """E11b: dense int-indexed mode tables vs. the Enum-tuple dicts.

    ``compatible``/``supremum`` run on every conflict test; the rows
    compare the table lookup against the dict path the seed used (kept as
    ``*_naive`` for exactly this ablation).
    """
    pairs = [(a, b) for a in ALL_MODES for b in ALL_MODES]
    rounds = 2000

    def sweep(comp, sup):
        for a, b in pairs:
            comp(a, b)
            sup(a, b)

    for comp, sup in ((compatible, supremum), (compatible_naive, supremum_naive)):
        for a, b in pairs:
            assert comp(a, b) == compatible_naive(a, b) or comp is compatible_naive
            assert sup(a, b) is supremum_naive(a, b) or sup is supremum_naive

    t0 = time.perf_counter()
    for _ in range(rounds):
        sweep(compatible_naive, supremum_naive)
    naive_time = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(rounds):
        sweep(compatible, supremum)
    table_time = time.perf_counter() - t0
    print_table(
        "E11b: %d compatible+supremum evaluations" % (rounds * len(pairs) * 2),
        ("path", "wall time (s)"),
        [("enum-tuple dicts", round(naive_time, 4)),
         ("dense int tables", round(table_time, 4))],
    )
    benchmark.extra_info["dict_time"] = round(naive_time, 4)
    benchmark.extra_info["table_time"] = round(table_time, 4)
    benchmark(sweep, compatible, supremum)


def test_covered_reacquire(benchmark):
    """E11e: repeated whole-object demands at the table level.

    A whole-object demand expands to the intention chain plus dozens of
    member locks; re-demanding a covered object is the hot case.  The
    re-grant path re-submits every step through ``request()`` (the table
    detects the held mode per step); the group request prunes against
    the per-transaction held-mode summary.
    """
    plan = [
        PlannedLock(("db1",), IX),
        PlannedLock(("db1", "seg1"), IX),
        PlannedLock(("db1", "seg1", "cells"), IX),
        PlannedLock(("db1", "seg1", "cells", "c1"), IX),
    ]
    for i in range(60):
        plan.append(
            PlannedLock(("db1", "seg1", "cells", "c1", "robots", "r%d" % i), S)
        )
    rounds = 2000

    def regrant(table):
        for _ in range(rounds):
            for step in plan:
                table.request("t1", step.resource, step.mode)

    def batched(table):
        for _ in range(rounds):
            table.request_many("t1", plan)

    timings = {}
    for label, runner in (
        ("re-grant request()", regrant),
        ("batch request_many()", batched),
    ):
        table = LockTable()
        table.request_many("t1", plan)
        start = time.perf_counter()
        runner(table)
        timings[label] = time.perf_counter() - start
        assert table.lock_count() == len(plan)
    base = timings["re-grant request()"]
    print_table(
        "E11e: covered re-demand of a %d-step whole-object plan (%d rounds)"
        % (len(plan), rounds),
        ("path", "time", "speedup"),
        [
            (label, "%.4fs" % t, "%.2fx" % (base / t))
            for label, t in timings.items()
        ],
    )
    benchmark.extra_info["batched_reacquire_speedup"] = round(
        base / timings["batch request_many()"], 3
    )
    table = LockTable()
    table.request_many("t1", plan)
    benchmark.pedantic(batched, args=(table,), rounds=5)


def test_release_all_scales_with_own_locks_not_table(benchmark):
    """E11c: release_all cost vs. unrelated table size.

    The seed scanned every resource entry looking for waiting requests of
    the finishing transaction; the per-transaction waiting index makes
    release_all proportional to the transaction's own footprint.  The
    rows hold the footprint fixed (5 grants + 2 waits) while growing the
    table 20x under other transactions.
    """
    def populate(n_entries):
        table = LockTable()
        for i in range(n_entries):
            table.request("other%d" % i, ("r%d" % i,), X)
        for i in range(5):
            table.request("t", ("own%d" % i,), X)
        table.request("blocker_a", ("w0",), X)
        table.request("blocker_b", ("w1",), X)
        table.request("t", ("w0",), X)   # waits
        table.request("t", ("w1",), X)   # waits
        return table

    rows = []
    timings = {}
    for n_entries in (100, 2000):
        reps = 200
        elapsed = 0.0
        for _ in range(reps):
            table = populate(n_entries)
            t0 = time.perf_counter()
            table.release_all("t")
            elapsed += time.perf_counter() - t0
        timings[n_entries] = elapsed / reps
        rows.append((n_entries, round(elapsed / reps * 1e6, 2)))
    print_table(
        "E11c: release_all of 5 grants + 2 waits vs. unrelated entries",
        ("unrelated entries", "mean release_all (us)"),
        rows,
    )
    # 20x the table must not cost anywhere near 20x the release
    assert timings[2000] < timings[100] * 10
    table = populate(100)
    benchmark(table.release_all, "t")


def test_deadlock_check_memoized_on_quiescent_table(benchmark):
    """E11d: repeated detection between lock-table changes is O(1).

    The detector keys its last answer on ``wait_graph_version``; polling
    monitors re-check for the cost of an integer compare until the table
    actually changes.
    """
    manager = LockManager()
    for i in range(50):
        manager.acquire("h%d" % i, ("r%d" % i,), X)
        manager.acquire("w%d" % i, ("r%d" % i,), S)

    manager.detect_deadlock()  # warm: full graph build
    before = manager.detector.cached_checks
    for _ in range(10):
        assert manager.detect_deadlock() is None
    assert manager.detector.cached_checks == before + 10

    cycle = benchmark(manager.detect_deadlock)
    assert cycle is None


def test_long_lock_dump_restore(benchmark):
    table = LockTable()
    for i in range(100):
        table.request("ws", ("r%d" % i,), X, long=True)

    def dump_restore():
        dump = table.dump_long_locks()
        fresh = LockTable()
        fresh.restore_long_locks(dump)
        return fresh.lock_count()

    count = benchmark(dump_restore)
    assert count == 100
