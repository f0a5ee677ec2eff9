"""Metrics collected by the concurrency simulator.

These quantify exactly the qualitative trade-offs of the paper:

* *degree of concurrency* — throughput, mean/percentile response time,
  time transactions spend blocked;
* *concurrency-control overhead* — explicit lock requests, conflict
  tests, peak lock-table size, reverse-scan work (naive baseline);
* *robustness* — deadlocks, aborts/restarts.
"""

from __future__ import annotations

from typing import Dict, List


def _percentile(sorted_values: List[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(fraction * (len(sorted_values) - 1)))
    return sorted_values[index]


class SimulationMetrics:
    """Mutable collector; ``report()`` freezes it into a dict."""

    def __init__(self):
        self.committed = 0
        self.aborted = 0
        self.restarts = 0
        #: aborted runs the retry policy gave up on (done without commit)
        self.abandoned = 0
        #: aborts caused by lock timeouts (includes injected timeouts)
        self.timeouts = 0
        #: faults delivered by an installed fault injector
        self.injected_faults = 0
        self.deadlocks = 0
        self.response_times: List[float] = []
        self.wait_times: List[float] = []
        self.makespan = 0.0
        self.locks_requested = 0
        self.conflict_tests = 0
        self.max_lock_entries = 0
        self.scan_items = 0
        self.work_time = 0.0
        #: logical demands served by the protocol (denominator of the
        #: per-demand lock-op overhead the paper's section 4.5 argues about)
        self.demands = 0
        # plan-compilation cache counters (0 when the cache is disabled)
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        self.plan_cache_invalidations = 0

    # -- recording -------------------------------------------------------------

    def txn_committed(self, response_time: float, wait_time: float):
        self.committed += 1
        self.response_times.append(response_time)
        self.wait_times.append(wait_time)

    def txn_aborted(self):
        self.aborted += 1

    # -- reporting --------------------------------------------------------------

    @property
    def throughput(self) -> float:
        if self.makespan <= 0:
            return 0.0
        return self.committed / self.makespan

    @property
    def mean_response_time(self) -> float:
        if not self.response_times:
            return 0.0
        return sum(self.response_times) / len(self.response_times)

    @property
    def mean_wait_time(self) -> float:
        if not self.wait_times:
            return 0.0
        return sum(self.wait_times) / len(self.wait_times)

    @property
    def total_wait_time(self) -> float:
        return sum(self.wait_times)

    def report(self) -> Dict[str, float]:
        ordered = sorted(self.response_times)
        return {
            "committed": self.committed,
            "aborted": self.aborted,
            "restarts": self.restarts,
            "abandoned": self.abandoned,
            "timeouts": self.timeouts,
            "injected_faults": self.injected_faults,
            "deadlocks": self.deadlocks,
            "makespan": round(self.makespan, 6),
            "throughput": round(self.throughput, 6),
            "mean_response_time": round(self.mean_response_time, 6),
            "p95_response_time": round(_percentile(ordered, 0.95), 6),
            "mean_wait_time": round(self.mean_wait_time, 6),
            "total_wait_time": round(self.total_wait_time, 6),
            "locks_requested": self.locks_requested,
            "demands": self.demands,
            "locks_per_demand": (
                round(self.locks_requested / self.demands, 4)
                if self.demands
                else 0.0
            ),
            "conflict_tests": self.conflict_tests,
            "max_lock_entries": self.max_lock_entries,
            "scan_items": self.scan_items,
            "plan_cache_hits": self.plan_cache_hits,
            "plan_cache_misses": self.plan_cache_misses,
            "plan_cache_invalidations": self.plan_cache_invalidations,
        }

    def __repr__(self):
        return "SimulationMetrics(%r)" % (self.report(),)
