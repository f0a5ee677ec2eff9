"""Differential protocol testing, ablation equivalence, and the CLI."""

import pytest

import repro.cli
from repro.errors import CheckError
from repro.locking import modes
from repro.check import (
    SAFE_PROTOCOLS,
    UNSAFE_PROTOCOLS,
    VISIBILITY_OBLIGED,
    WORKLOADS,
    ablation_fingerprints,
    assert_ablations_agree,
    assert_safe_protocols_agree,
    differential_check,
    explore_protocols,
    find_unsafe_counterexample,
    naive_mode_tables,
)
from repro.check.cli import main as check_main
from repro.check.differential import check_rules_for


@pytest.fixture(scope="module")
def from_the_side_reports():
    return explore_protocols(
        WORKLOADS["from-the-side"], max_schedules=400, max_steps=60
    )


class TestProtocolClassification:
    def test_partition_is_total(self):
        from repro.protocol import PROTOCOLS

        classified = set(SAFE_PROTOCOLS) | set(UNSAFE_PROTOCOLS)
        # every registered protocol except the pessimistic XSQL baseline
        # (relation-level S/X locks make schedule exploration degenerate)
        assert classified == set(PROTOCOLS) - {"xsql"}

    def test_obliged_protocols_claim_implicit_cover(self):
        assert "herrmann" in VISIBILITY_OBLIGED
        assert "naive_dag_unsafe" in VISIBILITY_OBLIGED
        assert "naive_dag" not in VISIBILITY_OBLIGED
        assert "system_r_relation" not in VISIBILITY_OBLIGED

    def test_check_rules_extend_for_obliged(self):
        assert "entry-point-visibility" in check_rules_for("herrmann")
        assert "entry-point-visibility" not in check_rules_for("naive_dag")


class TestSafeProtocolsAgree:
    def test_every_safe_protocol_certifies_everything(
        self, from_the_side_reports
    ):
        summaries = assert_safe_protocols_agree(from_the_side_reports)
        assert set(summaries) == set(SAFE_PROTOCOLS)
        for summary in summaries.values():
            assert summary["exhaustive"]

    def test_disagreement_raises(self, from_the_side_reports):
        with pytest.raises(CheckError, match="claimed safe"):
            assert_safe_protocols_agree(
                from_the_side_reports, safe=("naive_dag_unsafe",)
            )


class TestAnomalyRediscovery:
    def test_unsafe_baseline_yields_counterexample(self, from_the_side_reports):
        evidence = find_unsafe_counterexample(
            from_the_side_reports["naive_dag_unsafe"]
        )
        assert evidence is not None
        result, verdict = evidence
        assert not verdict.ok
        assert verdict.visibility  # the section 3.2.2 signature

    def test_anomaly_includes_lost_update(self, from_the_side_reports):
        # At least one explored schedule under the unsafe horn is not
        # conflict-serializable: both writers read e2 before either wrote.
        verdicts = from_the_side_reports["naive_dag_unsafe"].verdicts(
            visibility_obliged=True
        )
        assert any(not verdict.serializable for _, verdict in verdicts)

    def test_safe_protocols_never_show_it(self, from_the_side_reports):
        for name in SAFE_PROTOCOLS:
            assert not from_the_side_reports[name].counterexamples(
                visibility_obliged=name in VISIBILITY_OBLIGED
            )


class TestAblations:
    def test_all_four_paths_agree(self):
        fingerprints = ablation_fingerprints(
            WORKLOADS["from-the-side"], max_schedules=400, max_steps=60
        )
        assert len(fingerprints) == 4
        assert assert_ablations_agree(fingerprints) >= 2

    def test_divergence_raises(self):
        with pytest.raises(CheckError, match="diverge"):
            assert_ablations_agree({"a": ("x",), "b": ("y",)})

    def test_divergence_names_the_schedule_and_the_element(self):
        """Two explorations of equal size that differ in one lock-trace
        event of one schedule: the error says which, not just "5 vs 5"."""
        same = ((0, 1), (("T1", "committed"),), (), "state", ("req", "grant"))
        ours = ((1, 0), (("T1", "committed"),), (), "state", ("req", "grant"))
        theirs = ours[:4] + (("req", "wait"),)
        with pytest.raises(CheckError) as caught:
            assert_ablations_agree(
                {"cached": (same, ours), "uncached": (same, theirs)}
            )
        message = str(caught.value)
        assert "schedule #1 (choices (1, 0)), lock trace[1]" in message
        assert "'grant' under cached but 'wait' under uncached" in message

    def test_naive_mode_tables_patch_and_restore(self):
        import repro.locking.lock_table as lock_table
        import repro.verify as verify

        dense = (lock_table.compatible, verify.covers)
        with naive_mode_tables():
            assert lock_table.compatible is modes.compatible_naive
            assert verify.covers is modes.covers_naive
        assert (lock_table.compatible, verify.covers) == dense


class TestDifferentialCheck:
    def test_full_story_from_the_side(self):
        summary = differential_check(
            WORKLOADS["from-the-side"], max_schedules=400, max_steps=60
        )
        assert summary["workload"] == "from-the-side"
        assert set(summary["safe"]) == set(SAFE_PROTOCOLS)
        assert "naive_dag_unsafe" in summary["anomalies"]
        assert summary["ablation_schedules"] >= 2

    def test_workload_without_anomaly_passes(self):
        # Deadlock workload: direct demands only, no implicit cover — the
        # unsafe baseline is honestly safe here and that is not a failure.
        summary = differential_check(
            WORKLOADS["deadlock"], max_schedules=400, max_steps=60
        )
        assert "anomalies" not in summary


class TestCli:
    def test_list(self, capsys):
        assert check_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "from-the-side" in out
        assert "unsafe" in out

    def test_certify_safe_exits_zero(self, capsys):
        assert check_main(
            ["certify", "-w", "from-the-side", "-p", "herrmann"]
        ) == 0
        assert "exhaustively certified" in capsys.readouterr().out

    def test_certify_unsafe_exits_nonzero(self, capsys):
        assert check_main(
            ["certify", "-w", "from-the-side", "-p", "naive_dag_unsafe"]
        ) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_counterexample_prints_narrative(self, capsys):
        assert check_main(["counterexample", "-w", "from-the-side"]) == 0
        out = capsys.readouterr().out
        assert "interleaving" in out
        assert "lock narrative" in out

    def test_explore_with_walks(self, capsys):
        assert check_main(
            ["explore", "-w", "from-the-side", "-p", "herrmann",
             "--walks", "3", "--seed", "9"]
        ) == 0
        assert "sampled" in capsys.readouterr().out

    def test_smoke_passes(self, capsys):
        assert check_main(["smoke"]) == 0
        out = capsys.readouterr().out
        assert "anomaly rediscovered" in out

    def test_main_cli_forwards_check(self, capsys):
        assert repro.cli.main(["check", "list"]) == 0
        assert "workloads" in capsys.readouterr().out
