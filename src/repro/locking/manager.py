"""The lock manager facade.

Section 4.1: "locks are requested from a lock manager.  The lock manager
tests whether a certain lock request can be granted or not by observing
certain rules."  :class:`LockManager` is that component: a non-blocking
core under the protocols, the schedule oracle and the discrete-event
simulator.  ``acquire`` either grants immediately, returns a WAITING
request or raises :class:`~repro.errors.LockConflictError`
(``wait=False``).  Who waits on a WAITING request is the caller's
business — simulated time (:mod:`repro.sim`), an explored schedule
(:mod:`repro.check`) or an asyncio future (:mod:`repro.service`); real
threads are never used (see DESIGN.md on the GIL).  Deadlocks are broken
by :meth:`DeadlockDetector.resolve` over ``manager.detector``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.locking.deadlock import DeadlockDetector
from repro.locking.lock_table import LockRequest, LockTable
from repro.locking.modes import LockMode


class LockManager:
    """Grants, queues and releases locks on opaque resources.

    All protocol classes in :mod:`repro.protocol` sit on top of this
    manager; the per-granule rules live there, the bookkeeping lives here.
    """

    def __init__(self, age_of=None, reader_bypass: bool = False):
        self.table = LockTable(reader_bypass=reader_bypass)
        self.detector = DeadlockDetector(self.table, age_of=age_of)
        #: optional callback(list of woken LockRequests): called once by
        #: each ``release``, ``release_all`` or ``cancel`` that granted
        #: queued waiters, with them in wake order — the asyncio server
        #: resolves its parked futures from here
        self.on_wake = None

    def set_age_of(self, age_of) -> "LockManager":
        """Install the age function used for deadlock victim selection.

        ``make_stack`` wires the manager before transactions exist, so the
        detector starts with the trivial age function (ties broken by
        repr).  Schedulers and tests that need the paper's "youngest dies"
        semantics deterministically install ``lambda txn: txn.start_ts``
        here.  Returns the manager for chaining.
        """
        self.detector.set_age_of(age_of)
        return self

    # -- delegation -----------------------------------------------------------

    def acquire(
        self,
        txn,
        resource,
        mode: LockMode,
        long: bool = False,
        wait: bool = True,
    ) -> LockRequest:
        """Request ``mode`` on ``resource``; see :meth:`LockTable.request`."""
        request = self.table.request(txn, resource, mode, long=long, wait=wait)
        if request.granted and self.table.fault_injector is not None:
            # fires with the grant already in the table: the caller never
            # learns about the lock it now holds — only an abort path that
            # releases everything the transaction owns recovers from this
            self.table.fault_injector.fire(
                "lock.grant", txn=txn, resource=resource, mode=mode
            )
        return request

    def acquire_many(
        self, txn, steps, long: bool = False, wait: bool = True
    ) -> List[LockRequest]:
        """Acquire an ordered plan of steps in one pass.

        Covered steps are pruned against the table's per-transaction
        held-mode summary; at most the last returned request is WAITING.
        See :meth:`LockTable.request_many`.
        """
        requests = self.table.request_many(txn, steps, long=long, wait=wait)
        if (
            requests
            and requests[-1].granted
            and self.table.fault_injector is not None
        ):
            last = requests[-1]
            self.table.fault_injector.fire(
                "lock.grant", txn=txn, resource=last.resource, mode=last.mode
            )
        return requests

    def release(self, txn, resource) -> List[LockRequest]:
        return self._woke(self.table.release(txn, resource))

    def release_all(self, txn, keep_long: bool = False) -> List[LockRequest]:
        return self._woke(self.table.release_all(txn, keep_long=keep_long))

    def cancel(self, request: LockRequest) -> List[LockRequest]:
        return self._woke(self.table.cancel(request))

    def _woke(self, woken: List[LockRequest]) -> List[LockRequest]:
        if woken and self.on_wake is not None:
            self.on_wake(woken)
        return woken

    def holders(self, resource) -> Dict[object, LockMode]:
        return self.table.holders(resource)

    def held_mode(self, txn, resource) -> Optional[LockMode]:
        return self.table.held_mode(txn, resource)

    def holds_at_least(self, txn, resource, mode: LockMode) -> bool:
        return self.table.holds_at_least(txn, resource, mode)

    def held_modes(self, txn) -> Optional[Dict[object, LockMode]]:
        """``txn``'s held-mode summary, resource -> effective mode (None
        when it holds nothing): the table's own dict, so a caller checking
        many resources pays one probe for the transaction and one per
        resource.  Read it, never write it."""
        return self.table._txn_modes.get(txn)

    def locks_of(self, txn) -> Dict[object, LockMode]:
        """All resources ``txn`` currently holds, with modes."""
        return {
            resource: self.table.held_mode(txn, resource)
            for resource in self.table.resources_of(txn)
        }

    def lock_count(self) -> int:
        return self.table.lock_count()

    # -- deadlock handling ------------------------------------------------------

    def detect_deadlock(self, waiter=None) -> Optional[List[object]]:
        """One detection pass; returns a cycle or None.

        Pass the transaction whose request was just enqueued as ``waiter``
        when checking on every wait: detection then starts from it instead
        of walking the table (see :class:`DeadlockDetector`).
        """
        return self.detector.check(waiter)

    # -- metrics ---------------------------------------------------------------

    def metrics(self) -> Dict[str, int]:
        """Snapshot of the bookkeeping counters (benchmark instrumentation)."""
        return {
            "requests": self.table.requests,
            "immediate_grants": self.table.immediate_grants,
            "waits": self.table.waits,
            "conflict_tests": self.table.conflict_tests,
            "max_entries": self.table.max_entries,
            "summary_rebuilds": self.table.summary_rebuilds,
            "deadlocks": self.detector.deadlocks_found,
        }

    def reset_metrics(self):
        self.table.requests = 0
        self.table.immediate_grants = 0
        self.table.waits = 0
        self.table.conflict_tests = 0
        self.table.max_entries = 0
        self.table.summary_rebuilds = 0
        self.detector.reset_metrics()
