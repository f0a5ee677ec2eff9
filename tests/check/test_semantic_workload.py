"""The commuting-inserts workload, certified end-to-end by the oracle.

The tentpole claim of the semantic modes, stated as tests:

* with ``use_semantic_modes`` the explorer admits **strictly more**
  interleavings of the shared-part insert workload than plain X locks
  allow — in fact every interleaving (the full multinomial), because
  commuting SI claims never block each other;
* the oracle certifies **every** one of them: set inserts commute, so
  no precedence edges arise between the inserters and each schedule is
  trivially serializable under strict 2PL;
* with the flag off the same workload serializes exactly as today, and
  on classic workloads the flag itself is invisible down to the lock
  trace (the differential leg);
* the operation classes feed the oracle: commuting kinds impose no
  precedence edges, non-commuting kinds still do.
"""

import pytest

from repro.check import WORKLOADS, certify, precedence_edges
from repro.check.differential import (
    check_rules_for,
    differential_check,
    semantic_modes_fingerprints,
    assert_ablations_agree,
)
from repro.check.oracle import DataOp
from repro.check.program import SharedCounterIncrement, SharedSetInsert
from repro.check.scheduler import Explorer
from repro.locking.modes import INC, SI, X
from repro.protocol import PROTOCOLS


def _explore(enabled, prune=True, max_schedules=2000):
    explorer = Explorer(
        WORKLOADS["commuting-inserts"],
        variant={
            "protocol_cls": PROTOCOLS["herrmann"],
            "use_semantic_modes": enabled,
        },
        check_rules=check_rules_for("herrmann"),
        max_schedules=max_schedules,
        max_steps=200,
        prune=prune,
    )
    return explorer.explore()


@pytest.fixture(scope="module")
def unpruned_reports():
    return {
        enabled: _explore(enabled, prune=False) for enabled in (False, True)
    }


class TestCommutingInsertsCertified:
    def test_every_schedule_serializable_flag_on(self, unpruned_reports):
        report = unpruned_reports[True]
        assert report.exhaustive
        assert report.counterexamples(visibility_obliged=True) == []

    def test_every_schedule_serializable_flag_off(self, unpruned_reports):
        report = unpruned_reports[False]
        assert report.exhaustive
        assert report.counterexamples(visibility_obliged=True) == []

    def test_strictly_more_admissible_interleavings(self, unpruned_reports):
        with_si = len(unpruned_reports[True])
        with_x = len(unpruned_reports[False])
        assert with_si > with_x
        # under SI *nothing* blocks: all interleavings of three 2-insert
        # transactions are admissible — the full multinomial count of
        # the workload's scheduler steps
        assert with_si == 1680

    def test_all_transactions_commit_everywhere(self, unpruned_reports):
        for result in unpruned_reports[True].results:
            assert set(result.outcomes.values()) == {"committed"}

    def test_no_precedence_edges_between_inserters(self, unpruned_reports):
        for result in unpruned_reports[True].results[:50]:
            verdict = certify(result, visibility_obliged=True)
            assert verdict.ok
            assert verdict.edges == []

    def test_pruning_collapses_si_to_one_class(self):
        # the same fact seen from the DPOR side: when every pair of
        # operations commutes, the sleep sets prune the entire tree down
        # to a single representative schedule
        assert len(_explore(True, prune=True)) == 1
        assert len(_explore(False, prune=True)) > 1


class TestFlagInvisibleOnClassicWorkloads:
    def test_partlib_traces_bit_identical(self):
        fingerprints = semantic_modes_fingerprints(
            WORKLOADS["partlib"], max_schedules=400, max_steps=60
        )
        assert assert_ablations_agree(fingerprints) >= 2

    def test_differential_check_includes_the_leg(self):
        summary = differential_check(
            WORKLOADS["deadlock"],
            max_schedules=400,
            max_steps=60,
            ablations=False,
            plan_cache=False,
        )
        assert summary["semantic_modes_schedules"] >= 2

    def test_leg_skipped_on_commuting_workloads(self):
        # the flag is *supposed* to change commuting-inserts traces, so
        # the invisibility leg must exclude it
        assert WORKLOADS["commuting-inserts"].has_commuting_ops
        summary = differential_check(
            WORKLOADS["commuting-inserts"],
            protocols=("herrmann",),
            max_schedules=400,
            max_steps=200,
            ablations=False,
            plan_cache=False,
        )
        assert "semantic_modes_schedules" not in summary


class TestOperationClassification:
    class _Run:
        def __init__(self, enabled):
            class _Protocol:
                use_semantic_modes = enabled

            self.protocol = _Protocol()

    def test_demand_mode_follows_the_flag(self):
        insert = SharedSetInsert(("db1", "x"), "materials")
        increment = SharedCounterIncrement(("db1", "x"), "stock")
        assert insert.demand_mode(self._Run(True)) is SI
        assert insert.demand_mode(self._Run(False)) is X
        assert increment.demand_mode(self._Run(True)) is INC
        assert increment.demand_mode(self._Run(False)) is X

    def test_commuting_kinds_impose_no_edges(self):
        ops = [
            DataOp(0, "T1", "si", ("db1", "r", "x")),
            DataOp(1, "T2", "si", ("db1", "r", "x")),
            DataOp(2, "T3", "si", ("db1", "r", "x", "materials")),
        ]
        assert precedence_edges(ops, {"T1", "T2", "T3"}) == []

    def test_non_commuting_kinds_still_do(self):
        ops = [
            DataOp(0, "T1", "si", ("db1", "r", "x")),
            DataOp(1, "T2", "ap", ("db1", "r", "x")),
            DataOp(2, "T3", "w", ("db1", "r", "x")),
        ]
        edges = precedence_edges(ops, {"T1", "T2", "T3"})
        assert ("T1", "T2", ("db1", "r", "x")) in edges
        assert ("T2", "T3", ("db1", "r", "x")) in edges
