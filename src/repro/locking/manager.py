"""The lock manager facade.

Section 4.1: "locks are requested from a lock manager.  The lock manager
tests whether a certain lock request can be granted or not by observing
certain rules."  This module provides that component in two flavours:

* :class:`LockManager` — non-blocking core used by the protocols and the
  discrete-event simulator.  ``acquire`` either grants immediately,
  returns a WAITING request (simulator mode) or raises
  :class:`~repro.errors.LockConflictError` (``wait=False``).
* :class:`ThreadedLockManager` — a thin blocking wrapper with a condition
  variable, used by the threaded integration tests and the check-out
  examples.  Throughput experiments never use threads (see DESIGN.md on
  the GIL); this wrapper exists to prove the semantics carry over to real
  concurrent callers.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional

from repro.errors import DeadlockError, LockTimeoutError
from repro.locking.deadlock import DeadlockDetector
from repro.locking.lock_table import LockRequest, LockTable, RequestStatus
from repro.locking.modes import LockMode


class LockManager:
    """Grants, queues and releases locks on opaque resources.

    All protocol classes in :mod:`repro.protocol` sit on top of this
    manager; the per-granule rules live there, the bookkeeping lives here.
    """

    def __init__(self, age_of=None, reader_bypass: bool = False):
        self.table = LockTable(reader_bypass=reader_bypass)
        self.detector = DeadlockDetector(self.table, age_of=age_of)

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
        """Acquire an ordered plan of ``(resource, mode)`` pairs in one pass.

        Covered pairs are pruned against the table's per-transaction
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
        return self.table.release(txn, resource)

    def release_all(self, txn, keep_long: bool = False) -> List[LockRequest]:
        return self.table.release_all(txn, keep_long=keep_long)

    def cancel(self, request: LockRequest) -> List[LockRequest]:
        return self.table.cancel(request)

    def holders(self, resource) -> Dict[object, LockMode]:
        return self.table.holders(resource)

    def held_mode(self, txn, resource) -> Optional[LockMode]:
        return self.table.held_mode(txn, resource)

    def holds_at_least(self, txn, resource, mode: LockMode) -> bool:
        return self.table.holds_at_least(txn, resource, mode)

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

    def resolve_deadlocks(self, abort_callback, waiter=None) -> List[object]:
        """Detect and break every deadlock; returns aborted victims.

        ``abort_callback(victim)`` must release the victim's locks (usually
        by aborting the transaction).  Loops until no cycle remains —
        breaking one cycle can expose another.  ``waiter``: as for
        :meth:`detect_deadlock`.
        """
        victims = []
        while True:
            cycle = self.detector.check(waiter)
            if cycle is None:
                return victims
            victim = self.detector.pick_victim(cycle)
            victims.append(victim)
            abort_callback(victim)

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


class ThreadedLockManager:
    """Blocking adapter over :class:`LockManager` for real threads.

    ``acquire`` blocks the calling thread until the lock is granted, the
    optional timeout expires (:class:`LockTimeoutError`) or the waiter is
    aborted as a deadlock victim (:class:`DeadlockError`).

    Waiters are woken by ``notify_all`` when a release (or a victim
    cancellation) changes the table — no polling.  Deadlock detection runs
    once per *enqueue*: a waits-for cycle can only close at the moment a
    new wait edge is added, so checking then is both sufficient and far
    cheaper than the seed's 50 ms poll-and-recheck loop.
    """

    def __init__(self):
        self._manager = LockManager()
        self._lock = threading.Lock()
        self._granted = threading.Condition(self._lock)

    @property
    def core(self) -> LockManager:
        return self._manager

    def acquire(
        self,
        txn,
        resource,
        mode: LockMode,
        long: bool = False,
        timeout: Optional[float] = None,
    ):
        with self._granted:
            request = self._manager.acquire(txn, resource, mode, long=long)
            if request.granted:
                return request
            self._resolve_cycles(txn, request)
            deadline = None if timeout is None else time.monotonic() + timeout
            while not request.granted:
                if request.status == RequestStatus.CANCELLED:
                    raise DeadlockError(
                        "transaction %r aborted while waiting" % (txn,)
                    )
                if deadline is None:
                    self._granted.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        # The expired request must leave the queue entirely
                        # (a ghost entry would keep blocking FIFO successors
                        # and feed phantom waits-for edges); cancel() also
                        # grants whatever the departure unblocked, and the
                        # notify_all hands those grants to their threads.
                        self._manager.cancel(request)
                        assert request.status == RequestStatus.CANCELLED, (
                            "timed-out request still queued: %r" % (request,)
                        )
                        self._granted.notify_all()
                        raise LockTimeoutError(
                            "timed out waiting for %s on %r" % (mode, resource),
                            resource=resource,
                            requested=mode,
                        )
                    self._granted.wait(timeout=remaining)
            return request

    def _resolve_cycles(self, txn, request: LockRequest):
        """Break every cycle the wait edge just added may have closed.

        Caller holds the mutex.  Every node on a waits-for cycle has an
        outgoing edge, i.e. is waiting, so a victim always has requests to
        cancel and each round removes edges — the loop terminates.
        """
        while True:
            cycle = self._manager.detect_deadlock(txn)
            if cycle is None:
                return
            victim = self._manager.detector.pick_victim(cycle)
            if victim == txn:
                self._manager.cancel(request)
                self._granted.notify_all()
                raise DeadlockError(
                    "transaction %r chosen as deadlock victim" % (txn,),
                    cycle=cycle,
                )
            for waiting in self._manager.table.waiting_requests_of(victim):
                self._manager.cancel(waiting)
            self._granted.notify_all()

    def release(self, txn, resource):
        with self._granted:
            woken = self._manager.release(txn, resource)
            if woken:
                self._granted.notify_all()
            return woken

    def release_all(self, txn, keep_long: bool = False):
        with self._granted:
            woken = self._manager.release_all(txn, keep_long=keep_long)
            self._granted.notify_all()
            return woken

    def holders(self, resource):
        with self._lock:
            return self._manager.holders(resource)

    def held_mode(self, txn, resource):
        with self._lock:
            return self._manager.held_mode(txn, resource)
