"""Threaded lock manager: blocking semantics with real threads.

Small-scale only — correctness of blocking/waking/deadlock handling, never
throughput (see DESIGN.md on the GIL).
"""

import threading
import time

import pytest

from repro.errors import DeadlockError, FaultInjected, LockTimeoutError
from repro.locking.lock_table import RequestStatus
from repro.locking.manager import ThreadedLockManager
from repro.locking.modes import S, X


RA, RB = ("ra",), ("rb",)


class TestBlockingAcquire:
    def test_blocks_until_release(self):
        tlm = ThreadedLockManager()
        tlm.acquire("t1", RA, X)
        order = []

        def second():
            tlm.acquire("t2", RA, S, timeout=5.0)
            order.append("t2-granted")

        thread = threading.Thread(target=second)
        thread.start()
        time.sleep(0.15)
        order.append("releasing")
        tlm.release("t1", RA)
        thread.join(timeout=5.0)
        assert order == ["releasing", "t2-granted"]

    def test_timeout(self):
        tlm = ThreadedLockManager()
        tlm.acquire("t1", RA, X)
        with pytest.raises(LockTimeoutError):
            tlm.acquire("t2", RA, S, timeout=0.2)

    def test_deadlock_victim_raises(self):
        tlm = ThreadedLockManager()
        tlm.acquire("t1", RA, X)
        tlm.acquire("t2", RB, X)
        errors = []

        def t1_path():
            try:
                tlm.acquire("t1", RB, X, timeout=5.0)
                tlm.release_all("t1")
            except (DeadlockError, LockTimeoutError) as err:
                errors.append(("t1", type(err).__name__))
                tlm.release_all("t1")

        def t2_path():
            try:
                tlm.acquire("t2", RA, X, timeout=5.0)
                tlm.release_all("t2")
            except (DeadlockError, LockTimeoutError) as err:
                errors.append(("t2", type(err).__name__))
                tlm.release_all("t2")

        threads = [threading.Thread(target=t1_path), threading.Thread(target=t2_path)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert len(errors) >= 1
        assert any(kind == "DeadlockError" for _, kind in errors)

    def test_concurrent_readers(self):
        tlm = ThreadedLockManager()
        granted = []

        def reader(name):
            tlm.acquire(name, RA, S, timeout=5.0)
            granted.append(name)

        threads = [threading.Thread(target=reader, args=("r%d" % i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5.0)
        assert len(granted) == 4

    def test_release_all_notifies(self):
        tlm = ThreadedLockManager()
        tlm.acquire("t1", RA, X)
        tlm.acquire("t1", RB, X)
        results = []

        def waiter():
            tlm.acquire("t2", RA, X, timeout=5.0)
            tlm.acquire("t2", RB, X, timeout=5.0)
            results.append("done")

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.1)
        tlm.release_all("t1")
        thread.join(timeout=5.0)
        assert results == ["done"]


class TestTimeoutLeavesQueue:
    """Regression: a timed-out request must be cancelled out of the queue
    and waiters behind it re-woken (the seed left the expired request
    queued, so a compatible S behind an expired X blocked forever)."""

    def test_waiter_behind_expired_request_is_granted(self):
        tlm = ThreadedLockManager()
        tlm.acquire("t1", RA, S)
        events = []

        def writer():
            try:
                tlm.acquire("t2", RA, X, timeout=0.4)
                events.append("t2-granted")
            except LockTimeoutError:
                events.append("t2-timeout")

        def reader():
            tlm.acquire("t3", RA, S, timeout=5.0)
            events.append("t3-granted")

        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        time.sleep(0.15)  # t2's X is queued behind t1's S
        reader_thread = threading.Thread(target=reader)
        reader_thread.start()
        time.sleep(0.1)
        # FIFO: t3's S really waits behind the incompatible queued X
        assert events == []
        writer_thread.join(timeout=5.0)
        reader_thread.join(timeout=5.0)
        assert "t2-timeout" in events
        assert "t3-granted" in events
        # the expired request left no trace in the queue
        assert tlm._manager.table.waiting_requests_of("t2") == []
        assert tlm._manager.locks_of("t2") == {}

    def test_expired_conversion_leaves_grant_intact(self):
        tlm = ThreadedLockManager()
        tlm.acquire("t1", RA, S)
        tlm.acquire("t2", RA, S)
        with pytest.raises(LockTimeoutError):
            tlm.acquire("t1", RA, X, timeout=0.2)  # conversion blocked by t2
        # the failed conversion is gone but the original S grant stays
        assert tlm._manager.table.waiting_requests_of("t1") == []
        assert tlm._manager.held_mode("t1", RA) is S
        # and the queue is live: t2 can still convert after t1 releases
        tlm.release_all("t1")
        tlm.acquire("t2", RA, X, timeout=1.0)
        assert tlm._manager.held_mode("t2", RA) is X


class TestDetectionFromTheWaiter:
    """On-wait detection starts from the thread's own transaction
    (``detect_deadlock(txn)``); these are the two places that could hide a
    cycle: one that only the *last* waiter closes, and one left standing
    by a resolve loop that died half-way."""

    RC, RD = ("rc",), ("rd",)

    @staticmethod
    def parked(tlm, txn):
        """Block until ``txn`` has a request queued."""
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            with tlm._lock:
                if tlm.core.table.waiting_requests_of(txn):
                    return
            time.sleep(0.005)
        raise AssertionError("%r never started waiting" % (txn,))

    @staticmethod
    def path(tlm, txn, resource, outcomes, release=True):
        def run():
            try:
                tlm.acquire(txn, resource, X, timeout=5.0)
                outcomes.append((txn, "granted"))
            except (DeadlockError, LockTimeoutError, FaultInjected) as err:
                outcomes.append((txn, type(err).__name__))
            finally:
                if release:
                    tlm.release_all(txn)

        thread = threading.Thread(target=run)
        thread.start()
        return thread

    def test_cycle_closed_by_the_last_of_three_waiters(self):
        tlm = ThreadedLockManager()
        detector = tlm.core.detector
        outcomes = []
        tlm.acquire("t1", RA, X)
        tlm.acquire("t2", RB, X)
        tlm.acquire("t3", self.RC, X)
        threads = [self.path(tlm, "t1", RB, outcomes)]
        self.parked(tlm, "t1")
        threads.append(self.path(tlm, "t2", self.RC, outcomes))
        self.parked(tlm, "t2")
        # two chained waits, no cycle, the second answered from t2 alone
        assert (detector.detections, detector.deadlocks_found) == (2, 0)
        assert detector.rooted_checks == 1
        threads.append(self.path(tlm, "t3", RA, outcomes))  # t3 -> t1 -> t2 -> t3
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        # t3 (youngest by repr) dies on its own wait; the chain unwinds
        assert outcomes == [
            ("t3", "DeadlockError"),
            ("t2", "granted"),
            ("t1", "granted"),
        ]
        assert detector.deadlocks_found == 1
        assert tlm.core.lock_count() == 0

    def test_full_pass_after_an_interrupted_resolve_loop(self, monkeypatch):
        """The victim's cancellation faults, so t2's acquire dies with the
        t1/t2 cycle still in the table.  t3's later wait is nowhere near
        that cycle: only the full pass can find it, and the detector must
        choose that on its own."""
        tlm = ThreadedLockManager()
        detector = tlm.core.detector
        outcomes = []
        tlm.acquire("t1", RA, X)
        tlm.acquire("t2", RB, X)
        tlm.acquire("t4", self.RD, X)
        threads = [self.path(tlm, "t1", RB, outcomes)]
        self.parked(tlm, "t1")

        cancel = tlm.core.cancel
        faults = []

        def faulty_cancel(request):
            if not faults:
                faults.append(request)
                raise FaultInjected("cancel of %r" % (request,))
            return cancel(request)

        monkeypatch.setattr(tlm.core, "cancel", faulty_cancel)
        # release=False: t2's abort "hangs" after the fault
        victim_thread = self.path(tlm, "t2", RA, outcomes, release=False)
        victim_thread.join(timeout=10.0)
        assert outcomes == [("t2", "FaultInjected")]
        (orphan,) = faults
        assert orphan.status == RequestStatus.WAITING  # the cycle stands
        assert detector.deadlocks_found == 1

        rooted_before = detector.rooted_checks
        threads.append(self.path(tlm, "t3", self.RD, outcomes))  # waits on t4
        self.parked(tlm, "t3")
        # t3's check found and broke the old cycle without a rooted answer
        assert detector.deadlocks_found == 2
        assert detector.rooted_checks == rooted_before
        assert orphan.status == RequestStatus.CANCELLED

        tlm.release_all("t2")  # t1 gets RB
        tlm.release_all("t4")  # t3 gets RD
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        assert sorted(outcomes[1:]) == [("t1", "granted"), ("t3", "granted")]
        assert tlm.core.lock_count() == 0
