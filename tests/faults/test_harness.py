"""Fault campaigns: probes, seeded/exhaustive runs, leak detection."""

import json

import pytest

import repro
from repro.check.workloads import WORKLOADS
from repro.faults import (
    FaultPlan,
    FaultSpec,
    certify_faults,
    check_plan_consistency,
    exhaustive_campaign,
    probe_counts,
    run_fault_schedule,
    seeded_campaign,
)
from repro.graphs.units import object_resource
from repro.locking.modes import S
from repro.workloads import build_cells_database


class TestProbe:
    def test_probe_measures_horizons(self):
        counts = probe_counts(WORKLOADS["partlib"])
        assert counts["lock.enqueue"] > 0
        assert counts["lock.grant"] > 0
        assert counts["plan.expand"] > 0
        assert counts["lock.release"] > 0

    def test_probe_is_deterministic(self):
        assert probe_counts(WORKLOADS["deadlock"], walk_seed=3) == probe_counts(
            WORKLOADS["deadlock"], walk_seed=3
        )

    def test_deadlock_workload_reaches_victim_point(self):
        counts = probe_counts(WORKLOADS["deadlock"])
        assert counts.get("deadlock.victim", 0) >= 1


class TestSeededCampaigns:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_campaign_certifies_clean(self, workload, seed):
        result = seeded_campaign(WORKLOADS[workload], seed)
        assert result.ok, result.violations
        assert result.fired  # the plan landed, we did not certify a no-op

    def test_campaign_is_deterministic(self):
        one = seeded_campaign(WORKLOADS["partlib"], 2)
        two = seeded_campaign(WORKLOADS["partlib"], 2)
        assert one.fired == two.fired
        assert one.outcomes == two.outcomes
        assert one.steps == two.steps

    def test_summary_is_json_serializable(self):
        result = seeded_campaign(WORKLOADS["from-the-side"], 0)
        json.dumps(result.summary())

    def test_certify_faults_report(self):
        report = certify_faults(WORKLOADS["deadlock"], seeds=[0, 1])
        assert report["ok"] is True
        assert report["violations"] == 0
        assert report["faults_fired"] > 0
        assert len(report["runs"]) == 2
        json.dumps(report)


class TestExhaustiveCampaigns:
    def test_every_single_fault_on_deadlock_certifies(self):
        results = exhaustive_campaign(
            WORKLOADS["deadlock"], k=1, max_occurrences=3
        )
        assert results
        assert all(result.ok for result in results), [
            result.violations for result in results if not result.ok
        ]
        # every enumerated plan is within the probe horizon, so it fires
        assert all(result.fired for result in results)


class TestLeakDetection:
    def test_injected_timeout_mid_walk_leaves_no_trace(self):
        plan = FaultPlan(
            [FaultSpec("lock.enqueue", occurrence=5, action="timeout")]
        )
        result = run_fault_schedule(WORKLOADS["partlib"], plan)
        assert result.ok, result.violations
        assert result.fired == [("lock.enqueue", 5, "timeout")]

    def test_clean_cache_passes_consistency(self):
        database, catalog = build_cells_database(figure7=True)
        stack = repro.make_stack(database, catalog)
        cell = object_resource(stack.catalog, "cells", "c1")
        stack.protocol.plan_request(stack.txns.begin(), cell, S)
        assert check_plan_consistency(stack.protocol) == []

    def test_poisoned_cache_is_detected(self):
        """A cached plan silently diverging from a fresh replan is exactly
        the stamp leak the final audit must catch."""
        database, catalog = build_cells_database(figure7=True)
        stack = repro.make_stack(database, catalog)
        cell = object_resource(stack.catalog, "cells", "c1")
        stack.protocol.plan_request(stack.txns.begin(), cell, S)
        cache = stack.protocol.plan_cache
        (key, compiled), = list(cache._plans.items())
        compiled.steps = compiled.steps[:-1]  # drop a step, keep the stamp
        findings = check_plan_consistency(stack.protocol)
        assert findings and findings[0][0] == "plan-cache-stamp"
