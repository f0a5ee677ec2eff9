"""Simulation metrics: aggregation, percentiles, report stability."""

import pytest

from repro.sim.metrics import SimulationMetrics, _percentile


class TestPercentile:
    def test_empty(self):
        assert _percentile([], 0.95) == 0.0

    def test_single_value(self):
        assert _percentile([4.0], 0.95) == 4.0

    def test_p95_of_uniform(self):
        values = sorted(float(i) for i in range(1, 101))
        assert _percentile(values, 0.95) == pytest.approx(95.0, abs=1.5)

    def test_p0_is_min(self):
        assert _percentile([1.0, 2.0, 3.0], 0.0) == 1.0


class TestAggregation:
    def test_throughput_zero_before_makespan(self):
        metrics = SimulationMetrics()
        metrics.txn_committed(1.0, 0.0)
        assert metrics.throughput == 0.0

    def test_throughput(self):
        metrics = SimulationMetrics()
        for _ in range(10):
            metrics.txn_committed(1.0, 0.2)
        metrics.makespan = 5.0
        assert metrics.throughput == 2.0

    def test_means(self):
        metrics = SimulationMetrics()
        metrics.txn_committed(2.0, 1.0)
        metrics.txn_committed(4.0, 3.0)
        assert metrics.mean_response_time == 3.0
        assert metrics.mean_wait_time == 2.0
        assert metrics.total_wait_time == 4.0

    def test_empty_means(self):
        metrics = SimulationMetrics()
        assert metrics.mean_response_time == 0.0
        assert metrics.mean_wait_time == 0.0

    def test_abort_counter(self):
        metrics = SimulationMetrics()
        metrics.txn_aborted()
        metrics.txn_aborted()
        assert metrics.aborted == 2

    def test_report_is_serializable_and_rounded(self):
        import json

        metrics = SimulationMetrics()
        metrics.txn_committed(1.23456789, 0.5)
        metrics.makespan = 10.0
        report = metrics.report()
        json.dumps(report)  # plain scalars only
        assert report["mean_response_time"] == round(1.23456789, 6)

    def test_report_contains_all_counters(self):
        report = SimulationMetrics().report()
        expected = {
            "committed", "aborted", "restarts", "abandoned", "timeouts",
            "injected_faults", "deadlocks", "makespan",
            "throughput", "mean_response_time", "p95_response_time",
            "mean_wait_time", "total_wait_time", "locks_requested",
            "demands", "locks_per_demand",
            "conflict_tests", "max_lock_entries", "scan_items",
            "plan_cache_hits", "plan_cache_misses",
            "plan_cache_invalidations",
        }
        assert expected == set(report)
