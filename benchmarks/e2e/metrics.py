"""From raw phases to the named metrics of ``BENCHMARK.json``.

``BENCHMARK.json`` at the repository root is the contract: it names every
workload and metric, gives each end-to-end metric its direction and the
share of the baseline by which it may worsen, and this module must
produce exactly those names — ``test_smoke.py`` holds the two together.
"""

from __future__ import annotations

import json
import os
import statistics
from typing import Dict, List, Sequence

from benchmarks.e2e.workloads import ROOT, Phase, Window


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an unsorted sample (0.0 when empty)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def window_end_to_end(window: Window) -> Dict[str, float]:
    """The client-observed numbers of one window."""
    return {
        "txn_per_s": _ratio(window.committed, window.wall_s),
        "txn_p50_ms": percentile(window.txn_ns, 0.50) / 1e6,
        "txn_p99_ms": percentile(window.txn_ns, 0.99) / 1e6,
    }


def timings(phase: Phase) -> Dict[str, float]:
    """Each number of the phase, read off its windows at the tercile on
    the *slow* side: the throughput a third of the windows stay below, the
    latency a third of them exceed.

    Not the median, because of how this host misbehaves: about a fifth of
    the time, in bursts of 5-15 s, everything runs ~29% faster (a recorded
    15 min of ``inproc_query_fit`` windows reads 6.0k or 7.7k txn/s and
    little in between).  A median over windows jumps by those 29% as soon
    as bursts cover half a run, and ten 16 s runs then spread by more than
    a tenth in one set of ten out of four.  The slow tercile jumps only
    when bursts cover two thirds of the run; replayed on the same
    recording with 20 s runs it keeps the spread of ten runs under 7%
    every time (median 2.8%).  A change to the program moves every window
    alike, so it moves the tercile as it would move the median.
    """
    per_window = [window_end_to_end(window) for window in phase.windows]
    out = {}
    for name in per_window[0]:
        # slowest first: ascending throughput, descending latency
        ordered = sorted((w[name] for w in per_window), reverse=name != "txn_per_s")
        out[name] = ordered[len(ordered) // 3]
    return out


def end_to_end(phase: Phase, setup_s: float, peak_rss_mb: float) -> Dict[str, float]:
    out = timings(phase)
    del out["txn_p99_ms"]  # reported per layer, see per_layer()
    out["setup_s"] = setup_s
    out["peak_rss_mb"] = peak_rss_mb
    return out


def per_layer(untraced: Phase, traced: Phase, spans: Dict[str, dict]) -> Dict[str, float]:
    """The per-layer budget.

    Span times and the counter ratios beside them come from the traced
    phase (counts are taken where the work happens); the process-CPU and
    client-side figures come from the untraced phase of the same run.
    Every "per req" is per frame answered, every "per txn" per committed
    transaction, so the served rows add up to ``cpu_us_per_req``.  A
    metric whose layer a workload does not touch reads 0.
    """

    def self_us(*names: str) -> float:
        return sum(spans.get(name, {}).get("self_ns", 0) for name in names) / 1e3

    def total_us(name: str) -> float:
        return spans.get(name, {}).get("total_ns", 0) / 1e3

    def calls(*names: str) -> float:
        return float(sum(spans.get(name, {}).get("calls", 0) for name in names))

    def items(name: str) -> float:
        return float(spans.get(name, {}).get("items", 0))

    def count(key: str) -> float:
        return float(traced.counters.get(key, 0))

    frames = float(traced.frames)
    txns = float(traced.committed)
    steps = count("table.requests")
    all_self_us = sum(span["self_ns"] for span in spans.values()) / 1e3
    traced_cpu_us_per_req = _ratio(traced.server_cpu_s * 1e6, frames)

    return {
        # wire + server process (served workloads)
        "service.wire.decode_us_per_req": _ratio(self_us("service.wire.decode"), frames),
        "service.wire.encode_us_per_req": _ratio(self_us("service.wire.encode"), frames),
        "service.server.cpu_us_per_req": _ratio(untraced.server_cpu_s * 1e6, untraced.frames),
        "service.server.cpu_util": _ratio(untraced.server_cpu_s, untraced.wall_s),
        "service.server.traced_cpu_us_per_req": traced_cpu_us_per_req,
        "service.server.residual_us_per_req": (
            traced_cpu_us_per_req - _ratio(all_self_us, frames) if frames else 0.0
        ),
        "service.server.frames_per_flush": _ratio(
            untraced.counters.get("server.frames", 0), untraced.counters.get("server.batches", 0)
        ),
        "service.server.timeouts": float(untraced.counters.get("server.timeouts", 0))
        + count("server.timeouts"),
        "service.client.cpu_us_per_req": _ratio(untraced.client_cpu_s * 1e6, untraced.frames),
        "service.client.req_per_s": _ratio(len(untraced.req_ns), untraced.wall_s),
        "service.client.req_p50_ms": percentile(untraced.req_ns, 0.50) / 1e6,
        "service.client.req_p99_ms": percentile(untraced.req_ns, 0.99) / 1e6,
        "service.client.abort_ratio": _ratio(untraced.victims, untraced.attempts),
        "service.client.retries_per_txn": _ratio(
            untraced.attempts - untraced.attempted if untraced.attempts else 0,
            untraced.attempted,
        ),
        "service.client.attempts_max": float(untraced.attempts_max),
        "service.sharded.acquire_us_per_req": _ratio(
            self_us("locking.manager.acquire_many"), frames
        ),
        # protocol: demand expansion
        "protocol.plan_us_per_demand": _ratio(
            self_us("protocol.plan_request"), calls("protocol.plan_request")
        ),
        "protocol.execute_plan_us_per_demand": _ratio(
            self_us("protocol.execute_plan"), calls("protocol.execute_plan")
        ),
        "protocol.steps_per_demand": _ratio(
            items("protocol.plan_request"), calls("protocol.plan_request")
        ),
        "protocol.demands_per_txn": _ratio(calls("protocol.plan_request"), txns),
        "locking.plancache.hit_ratio": _ratio(
            count("plancache.hits"), count("plancache.hits") + count("plancache.misses")
        ),
        "locking.plancache.invalidations": count("plancache.invalidations"),
        "nf2.refindex.lookups_per_txn": _ratio(count("refindex.lookups"), txns),
        # lock manager + table + transactions
        "locking.table.request_us_per_step": _ratio(
            self_us("locking.table.request", "locking.table.request_many"), steps
        ),
        "locking.manager.acquire_us_per_step": _ratio(
            self_us("locking.manager.acquire"), calls("locking.manager.acquire")
        ),
        "locking.manager.release_all_us_per_txn": _ratio(
            total_us("locking.manager.release_all"), txns
        ),
        "txn.begin_us_per_txn": _ratio(self_us("txn.begin"), calls("txn.begin")),
        "txn.commit_us_per_txn": _ratio(self_us("txn.commit"), calls("txn.commit")),
        "locking.table.immediate_grant_ratio": _ratio(count("table.immediate_grants"), steps),
        "locking.table.summary_rebuilds_per_txn": _ratio(count("table.summary_rebuilds"), txns),
        # contention
        "locking.table.wait_ratio": _ratio(count("table.waits"), steps),
        "locking.table.conflict_tests_per_step": _ratio(count("table.conflict_tests"), steps),
        "locking.deadlock.detect_us_per_pass": _ratio(
            total_us("locking.deadlock.detect"), calls("locking.deadlock.detect")
        ),
        "locking.deadlock.passes": calls("locking.deadlock.detect"),
        "locking.deadlock.victims_per_ktxn": _ratio(1000.0 * count("deadlock.found"), txns),
        # query pipeline (in-process workloads)
        "query.parse_us_per_txn": _ratio(self_us("query.parse"), txns),
        "query.analyze_us_per_txn": _ratio(self_us("query.analyze"), txns),
        "protocol.optimizer.plan_query_us_per_txn": _ratio(
            self_us("protocol.optimizer.plan_query"), txns
        ),
        "query.executor.self_us_per_txn": _ratio(self_us("query.executor.execute"), txns),
        # simulator: exact counts of one traced simulation
        "sim.locks_requested": count("sim.locks_requested"),
        "sim.conflict_tests": count("sim.conflict_tests"),
        "sim.deadlocks": count("sim.deadlocks"),
        "sim.restarts": count("sim.restarts"),
        "sim.makespan": count("sim.makespan"),
        "sim.simulator.self_us_per_txn": _ratio(self_us("sim.simulator.run"), txns),
        # not repeatable within a tenth on a shared 2-core host, so reported
        # here (from the untraced phase) instead of gated end to end
        "txn_p99_ms": timings(untraced)["txn_p99_ms"],
        # the price of looking
        "trace.overhead_ratio": _ratio(
            timings(untraced)["txn_per_s"], timings(traced)["txn_per_s"]
        ),
    }


# -- comparing two result files -----------------------------------------------


def iqr(values: Sequence[float]) -> float:
    """Distance between the first and the third quartile (0.0 below 2 values)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return quartiles[2] - quartiles[0]


#: ``BENCHMARK.json`` holds the bounds the benchmark driver applies.  It
#: reads each as a share of the base median, refuses a benchmark whose own
#: ten-run spread exceeds one, and this host's speed moves by 20-29% for
#: up to a minute at a time (README, "Load shape"), so the timings carry
#: the widest share it allows, 0.25.  ``--compare`` is for people and
#: applies the bounds the benchmark was specified with (ISSUE 12): a tenth
#: on the timings — a wider spread reads ``unresolved``, not ``ok`` — and
#: +0.25 s on ``setup_s``, +0.001 on ``fail_ratio`` whatever the base.
SPECIFIED_SHARES = {"txn_per_s": 0.10, "txn_p50_ms": 0.10}
ABSOLUTE_BOUNDS = {"setup_s": 0.25, "fail_ratio": 0.001}


def _row(workload: str, metric: dict, old_runs, new_runs) -> dict:
    name = metric["name"]
    if not old_runs or not new_runs:
        return {"workload": workload, "metric": name, "verdict": "missing"}
    old_mid, new_mid = statistics.median(old_runs), statistics.median(new_runs)
    absolute = name in ABSOLUTE_BOUNDS
    bound = ABSOLUTE_BOUNDS[name] if absolute else SPECIFIED_SHARES.get(name, metric["bound"])
    scale = 1.0 if absolute else abs(old_mid)  # what the bound is a share of
    sign = 1.0 if metric["better"] == "lower" else -1.0
    worsening = _ratio(sign * (new_mid - old_mid), scale)
    widest = _ratio(max(iqr(old_runs), iqr(new_runs)), scale)
    if metric["better"] == "lower":
        clean_win = max(new_runs) < min(old_runs)
    else:
        clean_win = min(new_runs) > max(old_runs)
    if widest > bound and not clean_win:
        verdict = "unresolved"
    elif worsening > bound:
        verdict = "regressed"
    else:
        verdict = "ok"
    return {
        "workload": workload,
        "metric": name,
        "unit": metric["unit"],
        "base": old_mid,
        "new": new_mid,
        "absolute": absolute,
        "worsening": worsening,
        "bound": bound,
        "spread": widest,
        "verdict": verdict,
    }


def compare(base: dict, new: dict, contract: dict) -> List[dict]:
    """One row per (workload, end-to-end metric) and one for
    ``fail_ratio``: ``ok``, ``regressed`` (the new median is worse than
    the base median by more than the metric's bound) or ``unresolved``
    (either side's run-to-run spread is wider than the bound — unless
    every new run beats every base run)."""
    fail_ratio = {"name": "fail_ratio", "unit": "ratio", "better": "lower"}
    rows = []
    for workload in contract["workloads"]:
        name = workload["name"]
        old, fresh = base["workloads"].get(name, {}), new["workloads"].get(name, {})
        for metric in contract["end_to_end"]:
            rows.append(_row(
                name, metric,
                old.get("runs", {}).get(metric["name"]),
                fresh.get("runs", {}).get(metric["name"]),
            ))
        rows.append(_row(
            name, fail_ratio,
            [old["fail_ratio"]] if "fail_ratio" in old else None,
            [fresh["fail_ratio"]] if "fail_ratio" in fresh else None,
        ))
    return rows


def exact_count_mismatches(base: dict, new: dict) -> List[str]:
    """``sim.*`` counts are deterministic: any difference is a finding."""
    out = []
    for name, entry in new["workloads"].items():
        old_layers = base["workloads"].get(name, {}).get("per_layer", {})
        for metric, value in entry.get("per_layer", {}).items():
            if metric.startswith("sim.") and metric != "sim.simulator.self_us_per_txn":
                if metric in old_layers and old_layers[metric] != value:
                    out.append("%s %s: %r -> %r" % (name, metric, old_layers[metric], value))
    return out
