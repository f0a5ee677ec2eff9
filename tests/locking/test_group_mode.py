"""The group-mode grant test against a table that scans every holder.

``LockTable`` decides a grant from ``entry.held`` — per-mode holder counts
packed into one int — and only *accounts* for the sequential scan it no
longer makes.  ``ReferenceTable`` below is that scan, straight from the
definition: every grant test walks ``granted`` with ``compatible_naive``
and counts one conflict test per holder it examines.  Random traces
(request, re-request, conversion, counted release, ``release_all`` with
and without ``keep_long``, cancel; transactions may keep requesting while
they wait and may release the hold a conversion of theirs waits on) are
replayed against both, and after every step the outcome, the wake list,
``conflict_tests``, the holders and both queues must be equal, and the
``group-mode`` audit rule clean.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.locking.lock_table import LockTable
from repro.locking.modes import (
    CLASSIC_MODES,
    CONFLICT_MASK,
    HELD_BITS,
    HELD_UNIT,
    MODES_BY_CODE,
    compatible_naive,
    supremum_naive,
)
from repro.verify import check_group_mode

RESOURCES = [("db",), ("db", "rel"), ("db", "rel", "o1")]
TXNS = ["t%d" % i for i in range(4)]

TABLES = {"object": LockTable}

# (kind, txn index, resource index, mode index, long / keep_long)
STEPS = st.lists(
    st.tuples(
        st.sampled_from(["request"] * 6 + ["release"] * 2 + ["release_all", "cancel"]),
        st.integers(0, len(TXNS) - 1),
        st.integers(0, len(RESOURCES) - 1),
        st.integers(0, len(MODES_BY_CODE) - 1),
        st.booleans(),
    ),
    min_size=1,
    max_size=80,
)


class TestDerivedTables:
    def test_mask_is_the_conflict_column(self):
        field = (1 << HELD_BITS) - 1
        for requested in MODES_BY_CODE:
            for held in MODES_BY_CODE:
                conflicts = bool(
                    HELD_UNIT[held.code] * field & CONFLICT_MASK[requested.code]
                )
                assert conflicts == (not compatible_naive(held, requested))

    def test_fields_do_not_overlap(self):
        assert sum(HELD_UNIT) * ((1 << HELD_BITS) - 1) == (
            1 << HELD_BITS * len(MODES_BY_CODE)
        ) - 1


class _Hold:
    def __init__(self):
        self.modes = []
        self.long = False

    @property
    def mode(self):
        effective = self.modes[0]
        for mode in self.modes[1:]:
            effective = supremum_naive(effective, mode)
        return effective


class _Entry:
    def __init__(self):
        self.granted = {}  # txn -> _Hold, grant order
        self.conversions = []
        self.queue = []


class _Request(SimpleNamespace):
    """A reference request, compared by identity as ``LockRequest`` is: a
    transaction may queue two requests that are equal field by field, and
    cancelling one must not remove the other."""

    __eq__ = object.__eq__
    __hash__ = object.__hash__


class ReferenceTable:
    """Gray-style FIFO lock table; every grant test scans the holders."""

    def __init__(self, reader_bypass):
        self.reader_bypass = reader_bypass
        self.entries = {}
        self.owned = {}  # txn -> {resource: None}, first-grant order
        self.conflict_tests = 0

    def _others_compatible(self, entry, txn, mode):
        for other, hold in entry.granted.items():
            if other == txn:
                continue
            self.conflict_tests += 1
            if not compatible_naive(hold.mode, mode):
                return False
        return True

    def _grant(self, entry, request):
        hold = entry.granted.setdefault(request.txn, _Hold())
        hold.modes.append(request.mode)
        hold.long = hold.long or request.long
        self.owned.setdefault(request.txn, {})[request.resource] = None
        request.granted = True

    def request(self, txn, resource, mode, long):
        entry = self.entries.setdefault(resource, _Entry())
        request = _Request(
            txn=txn, resource=resource, mode=mode, target=mode, long=long,
            granted=False,
        )
        hold = entry.granted.get(txn)
        if hold is not None:
            request.target = supremum_naive(hold.mode, mode)
            if request.target is hold.mode or self._others_compatible(
                entry, txn, request.target
            ):
                self._grant(entry, request)
            else:
                entry.conversions.append(request)
        elif (
            self.reader_bypass or not (entry.conversions or entry.queue)
        ) and self._others_compatible(entry, txn, mode):
            self._grant(entry, request)
        else:
            entry.queue.append(request)
        return request

    def _wake(self, resource, entry):
        woken = []
        progressed = True
        while progressed:
            progressed = False
            for request in list(entry.conversions):
                hold = entry.granted.get(request.txn)
                if hold is None:  # its base grant vanished: now a new request
                    entry.conversions.remove(request)
                    entry.queue.insert(0, request)
                    progressed = True
                    continue
                request.target = supremum_naive(hold.mode, request.mode)
                if self._others_compatible(entry, request.txn, request.target):
                    entry.conversions.remove(request)
                    self._grant(entry, request)
                    woken.append(request)
                    progressed = True
            while entry.queue and not entry.conversions:
                request = entry.queue[0]
                if not self._others_compatible(entry, request.txn, request.target):
                    break
                entry.queue.pop(0)
                self._grant(entry, request)
                woken.append(request)
                progressed = True
        if not (entry.granted or entry.conversions or entry.queue):
            del self.entries[resource]
        return woken

    def _drop(self, entry, txn, resource):
        del entry.granted[txn]
        self.owned[txn].pop(resource, None)

    def release(self, txn, resource):
        entry = self.entries[resource]
        hold = entry.granted[txn]
        hold.modes.pop()
        if not hold.modes:
            self._drop(entry, txn, resource)
        return self._wake(resource, entry)

    def release_all(self, txn, keep_long, waited_on):
        """``waited_on``: the resources of ``txn``'s waiting requests, in
        the order the real table visits them (enqueue order)."""
        resources = list(self.owned.get(txn, ()))
        for resource in waited_on:
            if resource not in resources:
                resources.append(resource)
        woken = []
        for resource in resources:
            entry = self.entries.get(resource)
            if entry is None:
                continue
            hold = entry.granted.get(txn)
            if hold is not None and not (keep_long and hold.long):
                self._drop(entry, txn, resource)
            entry.conversions = [r for r in entry.conversions if r.txn != txn]
            entry.queue = [r for r in entry.queue if r.txn != txn]
            woken.extend(self._wake(resource, entry))
        if not keep_long:
            self.owned.pop(txn, None)
        return woken

    def cancel(self, request):
        entry = self.entries[request.resource]
        for queue in (entry.conversions, entry.queue):
            if request in queue:
                queue.remove(request)
        return self._wake(request.resource, entry)


def state_of(entries):
    """Holders and both queues of every entry, of either table."""
    return {
        resource: (
            [(txn, held.mode) for txn, held in entry.granted.items()],
            [(r.txn, r.mode) for r in entry.conversions],
            [(r.txn, r.mode) for r in entry.queue],
        )
        for resource, entry in entries.items()
    }


def described(woken):
    return [(r.txn, r.resource, r.mode) for r in woken]


@pytest.mark.parametrize("kind", sorted(TABLES))
@pytest.mark.parametrize("semantic", [False, True], ids=["classic", "semantic"])
@given(steps=STEPS, bypass=st.booleans())
@settings(max_examples=200, deadline=None)
def test_group_mode_table_is_the_scanning_table(kind, semantic, steps, bypass):
    table = TABLES[kind](reader_bypass=bypass)
    reference = ReferenceTable(bypass)
    modes = MODES_BY_CODE if semantic else CLASSIC_MODES
    waiting = []  # (real request, reference request), oldest first
    for action, t, r, m, flag in steps:
        txn, resource, mode = TXNS[t], RESOURCES[r], modes[m % len(modes)]
        woken = expected = []
        if action == "request":
            request = table.request(txn, resource, mode, long=flag)
            twin = reference.request(txn, resource, mode, flag)
            assert request.granted == twin.granted
            if not request.granted:
                waiting.append((request, twin))
        elif action == "release":
            if table.held_mode(txn, resource) is not None:
                woken = table.release(txn, resource)
                expected = reference.release(txn, resource)
        elif action == "release_all":
            waited_on = [w.resource for w in table.waiting_requests_of(txn)]
            woken = table.release_all(txn, keep_long=flag)
            expected = reference.release_all(txn, flag, waited_on)
        else:
            mine = [pair for pair in waiting if pair[0].txn == txn]
            if mine:
                woken = table.cancel(mine[0][0])
                expected = reference.cancel(mine[0][1])
        assert all(request.granted for request in woken)
        assert described(woken) == described(expected)
        waiting = [pair for pair in waiting if pair[0].status == "waiting"]
        assert table.conflict_tests == reference.conflict_tests
        assert state_of(table._entries) == state_of(reference.entries)
        assert check_group_mode(SimpleNamespace(table=table)) == []
        waited_for = {dst for _, dst in table.waits_for_edges()}
        for txn in TXNS:
            assert table.is_waited_for(txn) == (txn in waited_for)
