"""Exact simulation counts, pinned.

Deadlock handling reads the waits-for graph per waiter
(``LockTable.blockers_of``) instead of rebuilding the whole edge list on
every wait.  That is only a cost change if every simulation replays bit
for bit — victims, restarts, conflict tests, the simulated clock.  The
numbers below were recorded with the whole-table pass on every wait.
"""

import pytest

import repro
from repro.sim import Simulator, WorkloadSpec, submit_workload
from repro.workloads import build_cells_database


def simulate(cells, n_transactions, policy="detect"):
    database, catalog = build_cells_database(seed=4, **cells)
    stack = repro.make_stack(database, catalog)
    spec = WorkloadSpec(
        n_transactions=n_transactions,
        update_fraction=0.6,
        whole_object_fraction=0.2,
        library_update_fraction=0.1,
        work_time=1.0,
        mean_interarrival=0.15,
        seed=1,
    )
    simulator = Simulator(
        stack.protocol, lock_cost=0.02, scan_item_cost=0.01, deadlock_policy=policy
    )
    submit_workload(simulator, catalog, spec, authorization=stack.authorization)
    return stack, simulator.run()


def counts(metrics):
    return (
        metrics.committed,
        metrics.restarts,
        metrics.deadlocks,
        metrics.locks_requested,
        metrics.conflict_tests,
        metrics.makespan,
    )


SMALL = dict(n_cells=4, n_objects=6, n_robots=3, n_effectors=4)


@pytest.mark.parametrize(
    "policy, expected",
    [
        ("detect", (150, 51, 51, 1575, 31686, 53.53663986607237)),
        # the prevention policies order one waiter's blockers by start_ts
        ("wait_die", (150, 205, 0, 2424, 9579, 52.97740233621033)),
        ("wound_wait", (150, 209, 0, 2766, 22842, 49.373255967501144)),
    ],
)
def test_policy_counts_are_pinned(policy, expected):
    _, metrics = simulate(SMALL, 150, policy)
    assert counts(metrics) == expected


def test_benchmark_spec_counts_are_pinned():
    """The ``sim_contended`` workload of benchmarks/e2e, one simulation."""
    stack, metrics = simulate(
        dict(n_cells=8, n_objects=10, n_robots=4, n_effectors=6), 1500
    )
    assert counts(metrics) == (
        1500, 690, 690, 16297, 1281907, 314.12164365961655
    )
    detector = stack.manager.detector
    # one check per wait plus one per victim; all but the 690 that found
    # a cycle (and the very first) were answered from the waiter alone
    assert detector.detections == 4385
    assert detector.deadlocks_found == 690
    assert detector.rooted_checks == 4385 - 690 - 1
