"""Dense-ID fast path: the ablation ladder (perf tentpole).

Four variants of the same stack climb from the object path to the full
dense path:

* **object** — every optimization layer off: plans recompiled per
  demand, locks acquired one ``request()`` at a time;
* **plan cache + batching** — the PR 3 layers: memoized plans, one
  group request per plan, object-keyed pruning;
* **dense** — this PR: interned resource ids, flat-array compiled
  plans, int-probed summaries, flat ``bytes`` mode tables, pooled
  held/entry records;
* **dense (no pooling)** — the freelists ablated away, isolating what
  record reuse contributes.

The workload is the paper's workstation pattern: transactions that
repeatedly demand whole cells (S on the object root expands to the
intention chain plus entry-point locks), where the re-demand of an
already-covered object is the hot case the dense filter vectorizes.
"""

import time

import repro
from benchmarks._common import print_table
from repro.graphs.units import object_resource
from repro.locking.modes import S
from repro.locking.plancache import PlanCache
from repro.workloads import build_cells_database

DB_KWARGS = dict(n_cells=6, n_robots=10, n_effectors=30)
ROUNDS = 300

VARIANTS = [
    ("object", dict(cached=False)),
    ("plan cache + batching", dict(use_batched_acquire=True)),
    ("dense", dict(use_batched_acquire=True, use_dense_path=True)),
    (
        "dense (no pooling)",
        dict(use_batched_acquire=True, use_dense_path=True, pool_records=False),
    ),
]


def _stack(flags):
    flags = dict(flags)
    pool = flags.pop("pool_records", True)
    cached = flags.pop("cached", True)
    database, catalog = build_cells_database(**DB_KWARGS)
    stack = repro.make_stack(database, catalog, **flags)
    if not cached:
        # zero budget: every demand compiled afresh, none retained
        stack.protocol.plan_cache = PlanCache(0)
    if not pool:
        stack.manager.table.pool_records = False
    cells = [
        object_resource(catalog, "cells", obj.key)
        for obj in database.relation("cells")
    ]
    return stack, cells


def _covered_redemands(flags, rounds=ROUNDS):
    """One transaction re-demanding every whole cell ``rounds`` times.

    After the first pass everything is covered: the object path still
    pays plan recompilation + per-step filtering; the dense path pays a
    plan-cache probe + the int filter.  This is the hot loop of a
    workstation that keeps touching its checked-out objects.
    """
    stack, cells = _stack(flags)
    txn = stack.txns.begin()
    for cell in cells:
        stack.protocol.request(txn, cell, S)
    start = time.perf_counter()
    for _ in range(rounds):
        for cell in cells:
            stack.protocol.request(txn, cell, S)
    elapsed = time.perf_counter() - start
    stack.txns.commit(txn)
    return elapsed, stack.protocol.metrics()


def _txn_churn(flags, n_txns=ROUNDS):
    """n short transactions, each S-locking one whole cell (round-robin).

    Grants and releases dominate; this is where the record pools earn
    (or fail to earn) their keep.
    """
    stack, cells = _stack(flags)
    start = time.perf_counter()
    for i in range(n_txns):
        txn = stack.txns.begin()
        stack.protocol.request(txn, cells[i % len(cells)], S)
        stack.txns.commit(txn)
    elapsed = time.perf_counter() - start
    return elapsed, stack.protocol.metrics()


def _best(fn, flags, rounds=3):
    times, metrics = [], None
    for _ in range(rounds):
        elapsed, metrics = fn(flags)
        times.append(elapsed)
    return min(times), metrics


def test_dense_path_ablation_ladder(benchmark):
    """The BENCH_4 headline: the ablation ladder on covered re-demands."""
    results = {}
    for label, flags in VARIANTS:
        results[label] = _best(_covered_redemands, flags)
    base_time = results["object"][0]
    rows = []
    for label, (elapsed, metrics) in results.items():
        rows.append(
            (
                label,
                "%.4fs" % elapsed,
                "%.2fx" % (base_time / elapsed),
                metrics["plan_cache_hits"],
            )
        )
    print_table(
        "Dense-path ablation: %d covered whole-cell re-demand rounds "
        "(%d cells x %d robots)"
        % (ROUNDS, DB_KWARGS["n_cells"], DB_KWARGS["n_robots"]),
        ("variant", "best of 3", "speedup", "cache hits"),
        rows,
    )
    dense_time, dense_metrics = results["dense"]
    speedup = base_time / dense_time
    # identical lock traffic on every rung — only the bookkeeping moved
    locks = {m["locks_requested"] for _, m in results.values()}
    assert len(locks) == 1, "ablation rungs disagree on lock traffic"
    assert dense_metrics["use_dense_path"] is True
    # the PR's acceptance bar: >= 3x dense vs object on repeated
    # whole-object demands (measured ~9x; wide margin for CI jitter)
    assert speedup >= 3.0, "dense path only %.2fx vs object" % speedup
    benchmark.extra_info["dense_speedup"] = round(speedup, 3)
    benchmark.extra_info["dense_vs_plan_cache_speedup"] = round(
        results["plan cache + batching"][0] / dense_time, 3
    )
    benchmark.pedantic(
        _covered_redemands, args=(dict(VARIANTS[2][1]),), rounds=5
    )


def test_dense_path_txn_churn(benchmark):
    """Grant/release churn: what interning + pooling cost or save when
    nothing is covered and every transaction starts cold."""
    results = {label: _best(_txn_churn, flags) for label, flags in VARIANTS}
    base_time = results["object"][0]
    print_table(
        "Dense-path ablation: %d one-cell transactions (cold grants)" % ROUNDS,
        ("variant", "best of 3", "speedup"),
        [
            (label, "%.4fs" % elapsed, "%.2fx" % (base_time / elapsed))
            for label, (elapsed, _) in results.items()
        ],
    )
    dense_time, _ = results["dense"]
    nopool_time, _ = results["dense (no pooling)"]
    # cold churn is release/commit bound: dense must at least not regress
    assert dense_time < base_time * 1.10
    benchmark.extra_info["dense_churn_speedup"] = round(base_time / dense_time, 3)
    benchmark.extra_info["pooling_speedup"] = round(nopool_time / dense_time, 3)
    benchmark.pedantic(_txn_churn, args=(dict(VARIANTS[2][1]),), rounds=3)
