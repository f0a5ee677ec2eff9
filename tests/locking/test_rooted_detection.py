"""Rooted deadlock detection against the reference full pass.

``DeadlockDetector.check(waiter)`` searches from the transaction that just
started waiting; ``find_cycle`` / ``all_cycle_members`` over the complete
edge list stay the reference.  The differential drives random
request / convert / release / cancel / abort / escalate traces the way the
on-wait callers do (one outstanding request per transaction, blocked
transactions passive) and demands, at every wait, the same verdict *and*
the same cycle — including after waits nobody checked and after resolve
loops abandoned with a cycle standing, where the detector must notice on
its own that the rooted premise is gone.  ``DeadlockDetector.resolve``
is the loop those callers run.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FaultInjected
from repro.locking.deadlock import DeadlockDetector, all_cycle_members, find_cycle
from repro.locking.escalation import Escalator, children_held
from repro.locking.lock_table import LockTable, RequestStatus
from repro.locking.manager import LockManager
from repro.locking.modes import CLASSIC_MODES, MODES_BY_CODE, S, X, compatible

PARENT = ("db", "rel")
RESOURCES = [PARENT] + [PARENT + ("c%d" % i,) for i in range(3)]
TXNS = ["t%d" % i for i in range(5)]

MANAGERS = {
    "single": lambda bypass: LockManager(reader_bypass=bypass),
}

# (kind, txn index, resource index, mode index, discipline)
ACTIONS = st.lists(
    st.tuples(
        st.sampled_from(
            ["request"] * 6 + ["release", "cancel", "abort", "escalate", "full"]
        ),
        st.integers(0, len(TXNS) - 1),
        st.integers(0, len(RESOURCES) - 1),
        # half the draws are S/X (codes 2 and 4): conflicts, hence waits
        st.one_of(st.sampled_from([2, 4]), st.integers(0, len(MODES_BY_CODE) - 1)),
        # how the caller treats a wait: resolve to a fixpoint (the on-wait
        # callers), never ask the detector, or stop after the first victim
        st.sampled_from(["resolve"] * 3 + ["unchecked"] * 2 + ["interrupted"]),
    ),
    min_size=1,
    max_size=60,
)


def reference_edges(manager):
    """The waits-for edges straight from the definition, one
    ``compatible()`` call per pair and no memo (table order: entry by
    entry, conversions before the queue)."""
    edges = []
    for entry in manager.table._entries.values():
        for request in entry.conversions:
            for txn, held in entry.granted.items():
                if txn != request.txn and not compatible(
                    held.mode, request.target_mode
                ):
                    edges.append((request.txn, txn))
        ahead = list(entry.conversions)
        for request in entry.queue:
            for txn, held in entry.granted.items():
                if not compatible(held.mode, request.target_mode):
                    edges.append((request.txn, txn))
            for earlier in ahead:
                if not compatible(earlier.target_mode, request.target_mode):
                    edges.append((request.txn, earlier.txn))
            ahead.append(request)
    return edges


def assert_views_agree(manager):
    """The memoized edge list is the definition's (order included),
    per-waiter blockers are that list regrouped, "is anyone waiting for
    me" is its set of edge targets, and the rooted search is exact for
    every node, not just the latest waiter."""
    table = manager.table
    edges = table.waits_for_edges()
    assert edges == reference_edges(manager)
    on_cycle = all_cycle_members(edges)
    waited_for = {dst for _, dst in edges}
    for txn in TXNS:
        assert table.blockers_of(txn) == [dst for src, dst in edges if src == txn]
        assert table.is_waited_for(txn) == (txn in waited_for)
        assert manager.detector._reaches_itself(txn) == (txn in on_cycle)


def on_wait(manager, waiter, discipline):
    if discipline == "unchecked":
        return
    while True:
        assert_views_agree(manager)
        reference = find_cycle(manager.table.waits_for_edges())
        assert manager.detect_deadlock(waiter) == reference
        if reference is None:
            return
        manager.release_all(manager.detector.pick_victim(reference))
        if discipline == "interrupted":
            return


@pytest.mark.parametrize("kind", sorted(MANAGERS))
@pytest.mark.parametrize("semantic", [False, True], ids=["classic", "semantic"])
@given(actions=ACTIONS, bypass=st.booleans())
@settings(max_examples=150, deadline=None)
def test_rooted_check_agrees_with_full_pass(kind, semantic, actions, bypass):
    manager = MANAGERS[kind](bypass)
    modes = MODES_BY_CODE if semantic else CLASSIC_MODES
    escalator = Escalator(manager, threshold=1)
    for action, t, r, m, discipline in actions:
        txn, resource, mode = TXNS[t], RESOURCES[r], modes[m % len(modes)]
        waiting = manager.table.waiting_requests_of(txn)
        if action == "full":
            assert manager.detect_deadlock() == find_cycle(
                manager.table.waits_for_edges()
            )
        elif action == "abort":
            manager.release_all(txn)
        elif waiting:
            if action == "cancel":
                manager.cancel(waiting[0])  # a timeout
        elif action == "request":
            if not manager.acquire(txn, resource, mode).granted:
                on_wait(manager, txn, discipline)
        elif action == "release":
            if manager.held_mode(txn, resource) is not None:
                manager.release(txn, resource)
        elif action == "escalate" and children_held(manager, txn, PARENT):
            if not escalator.escalate(txn, PARENT, wait=True).granted:
                on_wait(manager, txn, discipline)
        assert_views_agree(manager)
    assert manager.detect_deadlock() == find_cycle(manager.table.waits_for_edges())


class TestPremise:
    """The detector owns "the graph was acyclic before this wait"."""

    def crossed(self):
        table = LockTable()
        detector = DeadlockDetector(table)
        table.request("t1", "a", X)
        table.request("t2", "b", X)
        return table, detector

    def test_rooted_answer_leaves_the_table_alone(self, monkeypatch):
        table, detector = self.crossed()
        assert detector.check() is None  # the acyclic stamp
        table.request("t2", "a", S)
        monkeypatch.setattr(
            table, "waits_for_edges", lambda: pytest.fail("full pass ran")
        )
        assert detector.check("t2") is None
        assert detector.rooted_checks == 1

    def test_positive_is_chosen_by_the_full_pass(self):
        table, detector = self.crossed()
        assert detector.check() is None
        table.request("t2", "a", S)
        assert detector.check("t2") is None
        table.request("t1", "b", S)
        assert detector.check("t1") == find_cycle(table.waits_for_edges())
        assert detector.rooted_checks == 1  # the positive is not counted

    def test_no_prior_verdict_means_full_pass(self):
        table, detector = self.crossed()
        table.request("t2", "a", S)
        assert detector.check("t2") is None
        assert detector.rooted_checks == 0

    def test_unchecked_wait_forces_full_pass(self):
        """t1 and t2 deadlock while nobody asks; t3's wait is off the
        cycle, so a search from t3 alone would miss it."""
        table, detector = self.crossed()
        assert detector.check() is None
        table.request("t2", "a", S)
        table.request("t1", "b", S)
        table.request("t3", "c", X)
        table.request("t4", "c", X)
        cycle = detector.check("t4")
        assert cycle is not None and set(cycle) == {"t1", "t2"}
        assert detector.rooted_checks == 0

    def test_reset_metrics_drops_the_stamp(self):
        manager = LockManager()
        manager.acquire("t1", "a", X)
        assert manager.detect_deadlock() is None
        manager.acquire("t2", "a", S)  # waits == 1 == stamp + 1 ...
        manager.reset_metrics()  # ... but the counter restarted
        manager.acquire("t3", "a", S)
        assert manager.detect_deadlock("t3") is None
        assert manager.detector.rooted_checks == 0


def kill(manager):
    """``on_victim`` at the lock layer: cancel the victim's waits, then
    release what it holds."""

    def on_victim(victim, cycle):
        for request in manager.table.waiting_requests_of(victim):
            manager.cancel(request)
        manager.release_all(victim)

    return on_victim


class TestResolveFromTheWaiter:
    """``detector.resolve(on_victim, waiter)`` the way the on-wait callers
    run it, at the two places that could hide a cycle: one that only the
    *last* waiter closes, and one left standing by a resolve loop that
    died half-way."""

    RA, RB, RC, RD = ("ra",), ("rb",), ("rc",), ("rd",)

    def test_cycle_closed_by_the_last_of_three_waiters(self):
        manager = LockManager()
        detector = manager.detector
        for txn, resource in (("t1", self.RA), ("t2", self.RB), ("t3", self.RC)):
            assert manager.acquire(txn, resource, X).granted
        t1_waits = manager.acquire("t1", self.RB, X)
        assert detector.resolve(kill(manager), "t1") == []
        t2_waits = manager.acquire("t2", self.RC, X)
        assert detector.resolve(kill(manager), "t2") == []
        # two chained waits, no cycle, the second answered from t2 alone
        assert (detector.detections, detector.deadlocks_found) == (2, 0)
        assert detector.rooted_checks == 1
        t3_waits = manager.acquire("t3", self.RA, X)  # t3 -> t1 -> t2 -> t3
        # t3 (youngest by repr) dies on its own wait; the chain unwinds
        assert detector.resolve(kill(manager), "t3") == ["t3"]
        assert t3_waits.status == RequestStatus.CANCELLED
        assert t2_waits.granted and not t1_waits.granted
        manager.release_all("t2")
        assert t1_waits.granted
        manager.release_all("t1")
        assert detector.deadlocks_found == 1
        assert manager.lock_count() == 0

    def test_full_pass_after_an_interrupted_resolve_loop(self, monkeypatch):
        """The victim's cancellation faults, so t2's resolve dies with the
        t1/t2 cycle still in the table.  t3's later wait is nowhere near
        that cycle: only the full pass can find it, and the detector must
        choose that on its own."""
        manager = LockManager()
        detector = manager.detector
        for txn, resource in (("t1", self.RA), ("t2", self.RB), ("t4", self.RD)):
            assert manager.acquire(txn, resource, X).granted
        t1_waits = manager.acquire("t1", self.RB, X)
        assert detector.resolve(kill(manager), "t1") == []

        cancel = manager.cancel
        faults = []

        def faulty_cancel(request):
            if not faults:
                faults.append(request)
                raise FaultInjected("cancel of %r" % (request,))
            return cancel(request)

        monkeypatch.setattr(manager, "cancel", faulty_cancel)
        orphan = manager.acquire("t2", self.RA, X)
        with pytest.raises(FaultInjected):
            detector.resolve(kill(manager), "t2")
        assert faults == [orphan]
        assert orphan.status == RequestStatus.WAITING  # the cycle stands
        assert detector.deadlocks_found == 1

        rooted_before = detector.rooted_checks
        t3_waits = manager.acquire("t3", self.RD, X)  # waits on t4
        # t3's resolve found and broke the old cycle without a rooted answer
        assert detector.resolve(kill(manager), "t3") == ["t2"]
        assert detector.deadlocks_found == 2
        assert detector.rooted_checks == rooted_before
        assert orphan.status == RequestStatus.CANCELLED
        assert t1_waits.granted  # t2's kill released RB
        manager.release_all("t4")
        assert t3_waits.granted
        manager.release_all("t1")
        manager.release_all("t3")
        assert manager.lock_count() == 0
