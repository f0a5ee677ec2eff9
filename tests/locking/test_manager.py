"""Lock manager facade: delegation, deadlock resolution, metrics."""

import pytest

from repro.errors import LockConflictError
from repro.locking.manager import LockManager
from repro.locking.modes import IS, IX, S, X


@pytest.fixture
def manager():
    return LockManager()


RA, RB = ("ra",), ("rb",)


class TestAcquireRelease:
    def test_acquire_and_holders(self, manager):
        manager.acquire("t1", RA, S)
        assert manager.holders(RA) == {"t1": S}

    def test_locks_of(self, manager):
        manager.acquire("t1", RA, IX)
        manager.acquire("t1", RB, X)
        assert manager.locks_of("t1") == {RA: IX, RB: X}

    def test_release_wakes(self, manager):
        manager.acquire("t1", RA, X)
        pending = manager.acquire("t2", RA, S)
        woken = manager.release("t1", RA)
        assert pending in woken

    def test_release_all(self, manager):
        manager.acquire("t1", RA, X)
        manager.acquire("t1", RB, S)
        manager.release_all("t1")
        assert manager.locks_of("t1") == {}

    def test_nowait_conflict(self, manager):
        manager.acquire("t1", RA, X)
        with pytest.raises(LockConflictError):
            manager.acquire("t2", RA, S, wait=False)

    def test_lock_count(self, manager):
        manager.acquire("t1", RA, S)
        manager.acquire("t2", RA, S)
        assert manager.lock_count() == 2


class TestDeadlockResolution:
    def make_deadlock(self, manager):
        manager.acquire("t1", RA, X)
        manager.acquire("t2", RB, X)
        manager.acquire("t1", RB, X)
        manager.acquire("t2", RA, X)

    def test_detect(self, manager):
        self.make_deadlock(manager)
        assert manager.detect_deadlock() is not None

    def test_resolve_aborts_victim(self, manager):
        self.make_deadlock(manager)
        victims = manager.detector.resolve(lambda t, _: manager.release_all(t))
        assert len(victims) == 1
        assert manager.detect_deadlock() is None

    def test_resolve_multiple_cycles(self, manager):
        self.make_deadlock(manager)
        manager.acquire("t3", ("rc",), X)
        manager.acquire("t4", ("rd",), X)
        manager.acquire("t3", ("rd",), X)
        manager.acquire("t4", ("rc",), X)
        victims = manager.detector.resolve(lambda t, _: manager.release_all(t))
        assert len(victims) == 2

    def test_resolve_none(self, manager):
        manager.acquire("t1", RA, S)
        assert manager.detector.resolve(lambda t, _: None) == []


class TestMetrics:
    def test_snapshot_keys(self, manager):
        manager.acquire("t1", RA, S)
        metrics = manager.metrics()
        for key in (
            "requests",
            "immediate_grants",
            "waits",
            "conflict_tests",
            "max_entries",
            "deadlocks",
        ):
            assert key in metrics

    def test_reset(self, manager):
        manager.acquire("t1", RA, S)
        manager.reset_metrics()
        assert manager.metrics()["requests"] == 0
