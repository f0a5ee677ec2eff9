"""The deterministic scheduler and the bounded explorer."""

import pytest

from repro.errors import CheckError
from repro.locking.modes import IX, S, X
from repro.check import WORKLOADS, Explorer, ScheduleResult, independent
from repro.check.scheduler import ScheduleRun


def fresh(workload_name, **variant):
    stack, programs = WORKLOADS[workload_name].build(**variant)
    return ScheduleRun(stack, programs)


class TestScheduleRun:
    def test_sequential_run_commits_everyone(self):
        run = fresh("from-the-side")
        try:
            while not run.finished:
                run.step(run.enabled()[0])
        finally:
            run.close()
        assert run.outcomes() == {"T1": "committed", "T2": "committed"}

    def test_step_records_choice_sequence(self):
        run = fresh("from-the-side")
        try:
            run.step(0)
            run.step(1)
            assert run.choices == [0, 1]
        finally:
            run.close()

    def test_stepping_finished_program_raises(self):
        run = fresh("from-the-side")
        try:
            while 0 in run.enabled():
                run.step(0)
            with pytest.raises(CheckError):
                run.step(0)
        finally:
            run.close()

    @pytest.mark.parametrize("error", [AttributeError, TypeError, NameError])
    def test_programming_error_is_not_an_abort(self, monkeypatch, error):
        """A bug in the code under test must stop the exploration, not be
        filed as the transaction's outcome ``failed:AttributeError``."""
        run = fresh("from-the-side")
        try:
            def broken(*args, **kwargs):
                raise error("a bug, not a failure of the transaction")

            monkeypatch.setattr(run.manager, "acquire", broken)
            with pytest.raises(error):
                run.step(0)
            assert run.outcomes()["T1"] is None
        finally:
            run.close()

    def test_blocked_program_leaves_enabled_set(self):
        # Both writers target effector e2; after T1 holds its X locks,
        # stepping T2 into the conflicting demand must block it.
        run = fresh("from-the-side")
        try:
            while True:
                run.step(0)
                if 0 not in run.enabled():
                    break  # T1 finished
                run.step(1)
                if 1 not in run.enabled():
                    break  # T2 blocked behind T1
            assert not run.finished
        finally:
            run.close()

    def test_replay_is_deterministic(self):
        fingerprints = []
        for _ in range(2):
            run = fresh("from-the-side")
            try:
                run.run()
                fingerprints.append(ScheduleResult(run).fingerprint())
            finally:
                run.close()
        assert fingerprints[0] == fingerprints[1]

    def test_run_follows_choice_prefix(self):
        run = fresh("from-the-side")
        try:
            run.run(choices=[1, 1])
            assert run.choices[:2] == [1, 1]
            assert run.finished
        finally:
            run.close()

    def test_max_steps_guard(self):
        stack, programs = WORKLOADS["partlib"].build()
        run = ScheduleRun(stack, programs, max_steps=2)
        try:
            with pytest.raises(CheckError):
                run.run()
        finally:
            run.close()

    def test_data_ops_recorded_in_program_order(self):
        run = fresh("from-the-side")
        try:
            run.run()
        finally:
            run.close()
        kinds = [(op.txn, op.kind) for op in run.data_ops]
        # Each writer reads e2, then read-modify-writes it.
        assert kinds == [
            ("T1", "r"), ("T1", "r"), ("T1", "w"),
            ("T2", "r"), ("T2", "r"), ("T2", "w"),
        ]

    def test_trace_detached_after_close(self):
        run = fresh("from-the-side")
        manager = run.manager
        run.run()
        assert manager.table.sink is run.trace
        run.close()
        assert manager.table.sink is None


class TestIndependence:
    def test_data_conflict_on_hierarchical_overlap(self):
        a = [("data", ("db", "rel", "o1"), "w")]
        b = [("data", ("db", "rel", "o1", "comp"), "r")]
        assert not independent(a, b)

    def test_reads_commute(self):
        a = [("data", ("db", "rel", "o1"), "r")]
        b = [("data", ("db", "rel", "o1"), "r")]
        assert independent(a, b)

    def test_disjoint_resources_commute(self):
        a = [("data", ("db", "rel", "o1"), "w")]
        b = [("data", ("db", "rel", "o2"), "w")]
        assert independent(a, b)

    def test_lock_conflict_only_when_incompatible(self):
        resource = ("db", "rel", "o1")
        assert independent([("lock", resource, S)], [("lock", resource, S)])
        assert not independent([("lock", resource, S)], [("lock", resource, X)])
        assert independent([("lock", resource, IX)], [("lock", resource, IX)])

    def test_lock_and_data_commute(self):
        resource = ("db", "rel", "o1")
        assert independent(
            [("lock", resource, X)], [("data", resource, "w")]
        )

    def test_unlocks_always_commute(self):
        resource = ("db", "rel", "o1")
        assert independent(
            [("unlock", resource, X)], [("unlock", resource, X)]
        )


class TestExplorer:
    def test_exhaustive_exploration_terminates(self):
        report = Explorer(WORKLOADS["from-the-side"]).explore()
        assert report.exhaustive
        assert len(report) >= 2
        assert report.replays > len(report)

    def test_pruning_preserves_final_states(self):
        pruned = Explorer(WORKLOADS["from-the-side"]).explore()
        full = Explorer(WORKLOADS["from-the-side"], prune=False).explore()
        assert {r.final_state for r in pruned.results} == {
            r.final_state for r in full.results
        }
        assert len(pruned) <= len(full)

    def test_every_schedule_is_unique(self):
        report = Explorer(WORKLOADS["partlib"]).explore()
        schedules = [tuple(r.choices) for r in report.results]
        assert len(schedules) == len(set(schedules))

    def test_random_walks_are_reproducible(self):
        explorer = Explorer(WORKLOADS["from-the-side"])
        first = explorer.random_walks(walks=5, seed=42)
        second = explorer.random_walks(walks=5, seed=42)
        assert first.fingerprint() == second.fingerprint()
        assert not first.exhaustive

    def test_random_walks_all_complete(self):
        report = Explorer(WORKLOADS["partlib"]).random_walks(walks=8, seed=1)
        for result in report.results:
            assert set(result.outcomes.values()) <= {
                "committed", "deadlock-victim"
            }

    def test_schedule_budget_truncates(self):
        report = Explorer(WORKLOADS["partlib"], max_schedules=2).explore()
        assert len(report) == 2
        assert report.truncated
        assert not report.exhaustive
