"""The one-step uncontended lifecycle: fresh-entry grants and one-pass EOT
release — pinned scenarios, then random scripts against the manager's
``on_wake`` hook.

EOT release walks the transaction's grants in first-grant order, then the
resources it only waits on in enqueue order — never in an order that
depends on memory addresses.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LockConflictError, LockError
from repro.locking.lock_table import LockTable, RequestStatus
from repro.locking.manager import LockManager
from repro.locking.modes import CLASSIC_MODES, IS, IX, S, X
from repro.protocol.base import PlannedLock as Step
from repro.verify import check_held_index

R1, R2 = ("r1",), ("r2",)


class _TableFront:
    """The manager call names over a bare table."""

    def __init__(self, table):
        self.table = table
        self.acquire = table.request
        self.acquire_many = table.request_many
        self.release = table.release
        self.release_all = table.release_all
        self.cancel = table.cancel


FRONTS = {
    "object": lambda: _TableFront(LockTable()),
}


def _audit(front):
    assert check_held_index(front) == []


@pytest.fixture(params=sorted(FRONTS))
def front(request):
    return FRONTS[request.param]()


@pytest.mark.parametrize("first, second", [(R1, R2), (R2, R1)])
def test_waiting_only_resources_wake_in_enqueue_order(front, first, second):
    """T holds S on r1 and r2; B waits for X on both (``first`` enqueued
    first); C queues S on r1 and D on r2 behind B.  Releasing B cancels
    its waits in enqueue order, so the queue behind its first wait wakes
    first, whichever resource was created first."""
    front.acquire("T", R1, S)
    front.acquire("T", R2, S)
    front.acquire("B", first, X)
    front.acquire("B", second, X)
    behind = {R1: "C", R2: "D"}
    front.acquire("C", R1, S)
    front.acquire("D", R2, S)
    _audit(front)
    woken = front.release_all("B")
    assert [(r.txn, r.resource) for r in woken] == [
        (behind[first], first),
        (behind[second], second),
    ]
    _audit(front)


def test_held_resources_wake_in_first_grant_order(front):
    front.acquire("A", R2, X)
    front.acquire("A", R1, X)
    front.acquire("B", R1, S)
    front.acquire("C", R2, S)
    woken = front.release_all("A")
    assert [(r.txn, r.resource) for r in woken] == [("C", R2), ("B", R1)]
    _audit(front)


def test_uncontended_lifecycle_leaves_nothing(front):
    plan = [
        Step(("db",), IX), Step(("db", "seg"), IX), Step(("db", "seg", "o"), X),
        Step(R1, S),
    ]
    granted = front.acquire_many("t", plan)
    assert [r.status for r in granted] == [RequestStatus.GRANTED] * len(plan)
    _audit(front)
    assert front.release_all("t") == []
    assert front.table.lock_count() == 0
    assert dict(front.table._entries) == {}
    assert not front.table._txn_modes
    _audit(front)


def test_conflict_mid_plan_keeps_the_granted_prefix_releasable(front):
    """A ``wait=False`` conflict raises with the plan's prefix granted;
    the abort path's ``release_all`` must find every granted lock."""
    front.acquire("o", R2, X)
    steps = [Step(R1, S), Step(R2, S)]
    with pytest.raises(LockConflictError):
        front.acquire_many("t", steps, wait=False)
    _audit(front)
    assert front.table.held_mode("t", R1) is S
    front.release_all("t")
    assert front.table.held_mode("t", R1) is None
    assert front.table.holders(R1) == {}
    _audit(front)


def test_keep_long_releases_only_short_locks(front):
    front.acquire("w", R1, S, long=True)
    front.acquire("w", R2, X)
    front.acquire("v", R2, IS)
    woken = front.release_all("w", keep_long=True)
    assert [(r.txn, r.resource) for r in woken] == [("v", R2)]
    assert front.table.held_mode("w", R1) is S
    assert front.table.held_mode("w", R2) is None
    _audit(front)
    front.release_all("w")
    assert front.table.held_mode("w", R1) is None
    _audit(front)


class _RaiseOn:
    def __init__(self, point):
        self.point = point

    def fire(self, point, **context):
        if point == self.point:
            raise RuntimeError(point)


@pytest.mark.parametrize("kind", ["object"])
def test_enqueue_fault_fires_before_the_entry_exists(kind):
    """``lock.enqueue`` fires before any state change, the fresh entry's
    creation included: a raise leaves no empty entry behind."""
    table = LockTable()
    table.fault_injector = _RaiseOn("lock.enqueue")
    with pytest.raises(RuntimeError):
        table.request("t", R1, X)
    assert table._entries == {}
    assert table.max_entries == 0
    assert check_held_index(_TableFront(table)) == []


# -- random scripts: the on_wake hook -------------------------------------------

RESOURCES = [("db",), ("db", "a"), ("db", "a", "o1"), ("db", "b"), ("db", "b", "o2")]
TXNS = ["t%d" % i for i in range(4)]
_TXN = st.integers(0, len(TXNS) - 1)
_RESOURCE = st.integers(0, len(RESOURCES) - 1)
_MODE = st.integers(0, len(CLASSIC_MODES) - 1)

# (kind, txn, resource, mode, long / keep_long, wait, request_many plan);
# each kind reads the fields it needs.  Waiting is the common case, so
# transactions pile up waits on several resources.
SCRIPTS = st.lists(
    st.tuples(
        st.sampled_from(
            ["request"] * 5
            + ["request_many"] * 2
            + ["regrant", "release", "release_all", "cancel"]
        ),
        _TXN,
        _RESOURCE,
        _MODE,
        st.booleans(),
        st.sampled_from([True, True, True, False]),
        st.lists(st.tuples(_RESOURCE, _MODE), min_size=1, max_size=4),
    ),
    min_size=10,
    max_size=60,
)


def _apply(manager, op, waiting):
    """Run one script step; returns what a ``release``, ``release_all``
    or ``cancel`` woke (None for every other step)."""
    kind, t, r, m, flag, wait, steps = op
    txn, resource, mode = TXNS[t], RESOURCES[r], CLASSIC_MODES[m]
    try:
        if kind == "request":
            waiting.append(manager.acquire(txn, resource, mode, long=flag, wait=wait))
        elif kind == "request_many":
            plan = [Step(RESOURCES[r], CLASSIC_MODES[m]) for r, m in steps]
            waiting.extend(manager.acquire_many(txn, plan, long=flag, wait=wait))
        elif kind == "regrant":
            held = manager.held_mode(txn, resource)
            if held is not None:
                # a counted re-grant of the covered mode
                manager.acquire(txn, resource, held)
        elif kind == "release":
            return manager.release(txn, resource)
        elif kind == "release_all":
            return manager.release_all(txn, keep_long=flag)
        else:
            live = [w for w in waiting if w.status == RequestStatus.WAITING]
            if live:
                return manager.cancel(live[m % len(live)])
    except (LockConflictError, LockError):
        pass
    return None


@given(script=SCRIPTS)
@settings(max_examples=60, deadline=None)
def test_on_wake_reports_each_waking_call_once(script):
    """``on_wake`` is called once by every ``release``, ``release_all``
    and ``cancel`` that wakes someone, with the very list the call
    returns (wake order), and never with an empty list; nothing else
    calls it.  The ``held-index`` audit stays clean after every step."""
    manager = LockManager()
    calls = []
    manager.on_wake = calls.append
    waiting = []
    for op in script:
        before = len(calls)
        woken = _apply(manager, op, waiting)
        assert calls[before:] == ([woken] if woken else []), op
        if woken:
            assert calls[-1] is woken
        _audit(manager)
