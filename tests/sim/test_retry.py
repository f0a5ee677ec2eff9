"""Abort/retry policy: backoff curves, abandonment, faults in the sim."""

import pytest

import repro
from repro.errors import SimulationError
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.graphs.units import object_resource
from repro.locking.modes import X
from repro.sim import LockOp, RetryPolicy, Simulator, WorkOp


@pytest.fixture
def stack(figure7):
    database, catalog = figure7
    return repro.make_stack(database, catalog)


def deadlock_programs(stack):
    """Two transactions locking e1/e3 in opposite order: guaranteed cycle."""
    e1 = object_resource(stack.catalog, "effectors", "e1")
    e3 = object_resource(stack.catalog, "effectors", "e3")
    return [
        [LockOp(e1, X), WorkOp(2.0), LockOp(e3, X), WorkOp(1.0)],
        [LockOp(e3, X), WorkOp(2.0), LockOp(e1, X), WorkOp(1.0)],
    ]


class TestRetryPolicy:
    def test_kinds_and_caps(self):
        assert RetryPolicy(kind="linear", backoff=2.0).delay(3) == 6.0
        assert RetryPolicy(kind="exponential", backoff=2.0).delay(3) == 8.0
        assert RetryPolicy(kind="constant", backoff=2.0).delay(3) == 2.0
        assert RetryPolicy(kind="exponential", backoff=2.0, cap=5.0).delay(3) == 5.0

    def test_should_retry_is_bounded(self):
        policy = RetryPolicy(max_retries=2)
        assert [policy.should_retry(n) for n in (1, 2, 3)] == [True, True, False]

    def test_none_policy_never_retries(self):
        assert not RetryPolicy.none().should_retry(1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(SimulationError):
            RetryPolicy(kind="fibonacci")

    def test_legacy_knobs_map_to_linear_policy(self, stack):
        sim = Simulator(stack.protocol, restart_backoff=3.0, max_restarts=7)
        assert sim.retry_policy.kind == "linear"
        assert sim.retry_policy.max_retries == 7
        assert sim.retry_policy.delay(2) == 6.0
        sim = Simulator(stack.protocol, restart_aborted=False)
        assert not sim.retry_policy.should_retry(1)


class TestSimulatorRetries:
    def test_deadlock_victim_restarts_and_commits(self, stack):
        sim = Simulator(stack.protocol, retry_policy=RetryPolicy(max_retries=5))
        for index, ops in enumerate(deadlock_programs(stack)):
            sim.submit(ops, name="t%d" % index)
        metrics = sim.run()
        assert metrics.committed == 2
        assert metrics.deadlocks >= 1
        assert metrics.restarts >= 1
        assert metrics.abandoned == 0
        assert stack.manager.lock_count() == 0

    def test_no_retry_abandons_the_victim(self, stack):
        sim = Simulator(stack.protocol, retry_policy=RetryPolicy.none())
        for index, ops in enumerate(deadlock_programs(stack)):
            sim.submit(ops, name="t%d" % index)
        metrics = sim.run()
        assert metrics.committed == 1
        assert metrics.aborted == 1
        assert metrics.abandoned == 1
        assert metrics.restarts == 0
        assert stack.manager.lock_count() == 0

    def test_exponential_backoff_stretches_makespan(self):
        from repro.workloads import build_cells_database

        def run(policy):
            database, catalog = build_cells_database(figure7=True)
            local = repro.make_stack(database, catalog)
            sim = Simulator(local.protocol, retry_policy=policy)
            for index, ops in enumerate(deadlock_programs(local)):
                sim.submit(ops, name="t%d" % index)
            return sim.run().makespan

        slow = run(RetryPolicy(max_retries=5, backoff=50.0, kind="exponential"))
        fast = run(RetryPolicy(max_retries=5, backoff=0.5, kind="constant"))
        assert slow > fast


class TestSimulatorUnderFaults:
    def test_injected_timeouts_are_retried_to_commit(self, stack):
        plan = FaultPlan(
            [FaultSpec("lock.enqueue", every=7, action="timeout")]
        )
        FaultInjector(plan).install_protocol(stack.protocol)
        e1 = object_resource(stack.catalog, "effectors", "e1")
        sim = Simulator(
            stack.protocol, retry_policy=RetryPolicy(max_retries=10, backoff=1.0)
        )
        for index in range(3):
            sim.submit([LockOp(e1, X), WorkOp(1.0)], name="t%d" % index)
        metrics = sim.run()
        assert metrics.committed == 3
        assert metrics.timeouts >= 1
        assert metrics.restarts >= 1
        assert stack.manager.lock_count() == 0

    def test_injected_release_fault_does_not_leak_locks(self, stack):
        plan = FaultPlan([FaultSpec("lock.release", occurrence=1)])
        FaultInjector(plan).install_protocol(stack.protocol)
        e1 = object_resource(stack.catalog, "effectors", "e1")
        sim = Simulator(stack.protocol)
        sim.submit([LockOp(e1, X), WorkOp(1.0)], name="t0")
        metrics = sim.run()
        # the fault fails the commit: the run is killed and restarted
        assert metrics.injected_faults == 1
        assert metrics.restarts == 1
        assert metrics.committed == 1
        assert stack.manager.lock_count() == 0

    def test_abandoned_runs_fire_on_done(self, stack):
        plan = FaultPlan([FaultSpec("lock.grant", occurrence=1, action="abort")])
        FaultInjector(plan).install_protocol(stack.protocol)
        e1 = object_resource(stack.catalog, "effectors", "e1")
        sim = Simulator(stack.protocol, retry_policy=RetryPolicy.none())
        run = sim.submit([LockOp(e1, X)], name="t0")
        finished = []
        run.on_done = finished.append
        metrics = sim.run()
        assert finished == [run]
        assert metrics.abandoned == 1
        assert metrics.injected_faults == 1
        assert stack.manager.lock_count() == 0
