"""The lock table: granted locks, wait queues and conversions.

This is the pure state machine underneath the lock manager.  It knows
nothing about lock *graphs* or protocols — it manages named resources
(opaque hashable ids; the protocols use instance paths), grants and queues
requests according to the compatibility matrix, performs lock conversions
via the supremum lattice, and exposes the waits-for graph the deadlock
detector consumes.

Counting conventions (used by the benchmarks):

* ``conflict_tests`` — holders a sequential compatibility scan examines
  (the paper-facing cost model): every other holder for a grant, up to
  and including the first incompatible one for a refusal.  The table
  decides a grant from the entry's group mode and adds the count such a
  scan would have made;
* ``requests`` / ``immediate_grants`` / ``waits`` — request outcomes;
* ``max_entries`` — high-water mark of lock-table size (the paper's
  "administration of locks" overhead).

The table is also the one source of lock events.  An attached ``sink``
(a :class:`~repro.locking.trace.LockTrace`) hears each public call —
``request``, every step ``request_many`` submits, ``release``,
``release_all`` and ``cancel`` — as one ``sink.record(action, txn,
resource, mode, outcome)``, followed by a ``grant ... woken`` event for
each request the call woke.  A request or release that raises (a refused
``wait=False`` request, an injected fault, a release of nothing held) is
recorded as ``DENIED:<ExceptionName>`` before the exception propagates.
Untraced, the cost is one ``sink is None`` test per call.

The uncontended lifecycle is one step per layer.  A request for a
resource nobody holds or waits on builds its entry already granted
(:meth:`LockTable._submit`); EOT release (rule 5, :meth:`LockTable.
release_all`) walks the transaction's grants once in grant order and
drops its held-mode summary wholesale afterwards, waking only entries
that have queues and retiring empty entries inline.
"""

from __future__ import annotations

from collections import deque
from itertools import count, repeat
from typing import Collection, Deque, Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import LockConflictError, LockError
from repro.locking.modes import (
    COMPAT_FLAT,
    CONFLICT_MASK,
    HELD_UNIT,
    N_MODES,
    LockMode,
    compatible,
    covers,
    supremum,
)


class RequestStatus:
    GRANTED = "granted"
    WAITING = "waiting"
    CANCELLED = "cancelled"


#: ``RequestStatus.GRANTED``, for the hot loops' identity tests
GRANTED = RequestStatus.GRANTED


def _outcome(request: "LockRequest") -> str:
    return "granted" if request.status is GRANTED else "WAIT"


def _denied(exc: Exception) -> str:
    return "DENIED:%s" % type(exc).__name__


def _record_woken(sink, woken: List["LockRequest"]):
    for request in woken:
        sink.record(
            "grant", request.txn, request.resource, request.target_mode, "woken"
        )


class LockRequest:
    """One lock request; the simulator holds these while waiting."""

    __slots__ = (
        "txn",
        "resource",
        "mode",
        "target_mode",
        "status",
        "long",
        "is_conversion",
        "enqueued_at",
    )

    def __init__(self, txn, resource, mode, target_mode, long, is_conversion):
        self.txn = txn
        self.resource = resource
        self.mode = mode
        self.target_mode = target_mode
        self.status = RequestStatus.WAITING
        self.long = long
        self.is_conversion = is_conversion
        #: position in its table's enqueue sequence (None until the
        #: request waits)
        self.enqueued_at = None

    @property
    def granted(self) -> bool:
        return self.status == RequestStatus.GRANTED

    def __repr__(self):
        return "LockRequest(txn=%r, resource=%r, mode=%s, status=%s)" % (
            self.txn,
            self.resource,
            self.target_mode,
            self.status,
        )


class _HeldLock:
    """Locks one transaction holds on one resource.

    ``modes`` is a stack of granted modes (re-requests push); the effective
    mode is their supremum, **cached** in ``mode`` and maintained
    incrementally on push (a supremum only grows) — the seed recomputed the
    whole fold on every conflict test.  ``long`` marks persistent
    (check-out) locks.
    """

    __slots__ = ("modes", "long", "mode", "code")

    def __init__(self, mode: Optional[LockMode] = None, long: bool = False):
        """A record holding nothing, or already granted ``mode``."""
        self.modes: List[LockMode] = [] if mode is None else [mode]
        self.long = long
        self.mode = mode
        #: int twin of ``mode`` (-1 when nothing is held), kept in
        #: lockstep: the entry's group mode counts holders by it
        self.code = -1 if mode is None else mode.code

    def push(self, mode: LockMode, long: bool):
        self.modes.append(mode)
        self.mode = mode if self.mode is None else supremum(self.mode, mode)
        self.code = self.mode.code
        self.long = self.long or long

    def pop(self):
        """Drop the most recent of several grants (the last one leaves
        with the whole record: ``LockTable._drop_grant``)."""
        self.modes.pop()
        # Releases may shrink the supremum; refold over what remains (the
        # rare path — pushes dominate).
        effective = self.modes[0]
        for m in self.modes[1:]:
            effective = supremum(effective, m)
        self.mode = effective
        self.code = effective.code


class _ResourceEntry:
    __slots__ = (
        "granted", "held", "conversions", "queue", "version", "waits_cache"
    )

    def __init__(self):
        #: txn -> _HeldLock, in grant order (dicts keep insertion order)
        self.granted: Dict[object, _HeldLock] = {}
        #: the group mode: holders of ``granted`` counted per mode code,
        #: packed as ``sum(HELD_UNIT[held.code])`` (see repro.locking.modes).
        #: Updated inline wherever a held mode changes — the grant tests
        #: read it instead of walking ``granted``.
        self.held = 0
        # conversion requests take priority over new requests
        self.conversions: Deque[LockRequest] = deque()
        self.queue: Deque[LockRequest] = deque()
        #: bumped on every grant/queue/mode change; keys ``waits_cache``
        self.version = 0
        #: (version, waiting request -> blockers, the entry's waits-for
        #: nodes in first-appearance order) memo; see LockTable._entry_waits
        self.waits_cache: Optional[
            Tuple[int, Dict[LockRequest, List[object]], Dict[object, None]]
        ] = None

    def empty(self) -> bool:
        return not (self.granted or self.conversions or self.queue)


class LockTable:
    """Resource-level lock bookkeeping with FIFO fairness.

    Fairness rules (standard, Gray et al. style):

    * a new request is granted only when no other request is queued ahead
      of it and its mode is compatible with every lock held by *other*
      transactions;
    * conversion requests (the transaction already holds a lock on the
      resource) bypass the normal queue but wait until every *other*
      holder's mode is compatible with the conversion target.
    """

    def __init__(self, reader_bypass: bool = False):
        #: optional :class:`repro.faults.FaultInjector`; fires the
        #: ``lock.enqueue`` / ``lock.release`` points *before* the
        #: corresponding state change, so an injected raise leaves the
        #: table untouched (fail-fast placement)
        self.fault_injector = None
        #: optional event sink (``record(action, txn, resource, mode,
        #: outcome)``, see the module docstring); set by ``LockTrace.attach``
        self.sink = None
        self._entries: Dict[object, _ResourceEntry] = {}
        #: per-transaction held-mode summary: txn -> {resource: effective
        #: mode}.  Mirrors ``entry.granted[txn].mode`` and is maintained at
        #: every grant/conversion/release site, so "do I already hold at
        #: least this mode?" is one dict probe instead of two — the hot
        #: question of plan filtering and batched acquisition.  Its keys
        #: are also the transaction's resources in first-grant order (a
        #: conversion rewrites a value, never moves a key): ``release_all``
        #: walks them, so the wake order of end-of-transaction release is
        #: the grant order.
        self._txn_modes: Dict[object, Dict[object, LockMode]] = {}
        #: txn -> {waiting request: None} (conversion or queued), in
        #: enqueue order; lets release_all and deadlock victim handling
        #: find a transaction's waits without scanning every resource
        #: entry, and makes the cancel order of EOT release the wait order
        self._txn_waiting: Dict[object, Dict[LockRequest, None]] = {}
        #: global wait-graph version: bumped with every entry change, so
        #: the deadlock detector can skip re-detection on a quiescent table
        self.wait_graph_version = 0
        #: batched passes that started with no summary and re-fetched it
        #: after their first grant created it
        self.summary_rebuilds = 0
        #: stamps ``LockRequest.enqueued_at`` of every wait
        self._enqueue_seq = count()
        #: ablation switch: when True, a new request compatible with every
        #: *holder* is granted even while incompatible requests queue —
        #: higher read concurrency, but writers can starve (the classic
        #: fairness trade; benchmarked in bench_ablations).
        self.reader_bypass = reader_bypass
        # metrics
        self.conflict_tests = 0
        self.requests = 0
        self.immediate_grants = 0
        self.waits = 0
        self.max_entries = 0

    # -- inspection ---------------------------------------------------------

    def holders(self, resource) -> Dict[object, LockMode]:
        """Transactions currently holding ``resource`` and their modes."""
        entry = self._entries.get(resource)
        if entry is None:
            return {}
        return {txn: held.mode for txn, held in entry.granted.items()}

    def held_mode(self, txn, resource) -> Optional[LockMode]:
        """Mode ``txn`` holds on ``resource`` (None if not held).

        Answered from the per-transaction summary — O(1) and entry-free.
        """
        modes = self._txn_modes.get(txn)
        if modes is None:
            return None
        return modes.get(resource)

    def holds_at_least(self, txn, resource, mode: LockMode) -> bool:
        """Does ``txn`` hold ``resource`` in at least ``mode``?"""
        modes = self._txn_modes.get(txn)
        if modes is None:
            return False
        held = modes.get(resource)
        return held is not None and covers(held, mode)

    def resources_of(self, txn) -> Set[object]:
        return set(self._txn_modes.get(txn, ()))

    def locked_resources(self) -> List[object]:
        return [r for r, e in self._entries.items() if e.granted]

    def lock_count(self) -> int:
        """Number of (txn, resource) grants currently in the table."""
        return sum(len(e.granted) for e in self._entries.values())

    def waiting_requests(self) -> List[LockRequest]:
        out = []
        for entry in self._entries.values():
            out.extend(entry.conversions)
            out.extend(entry.queue)
        return out

    def waiting_requests_of(self, txn) -> List[LockRequest]:
        """All waiting requests of one transaction (O(1) index lookup)."""
        return list(self._txn_waiting.get(txn, ()))

    def owns_nothing(self, txn) -> bool:
        """``txn`` holds no lock and waits on no request."""
        return txn not in self._txn_modes and txn not in self._txn_waiting

    # -- wait-graph bookkeeping ----------------------------------------------

    def _touch(self, entry: _ResourceEntry):
        """Record that ``entry``'s grants/queues changed (edge cache key)."""
        entry.version += 1
        self.wait_graph_version += 1

    def _enqueue_wait(self, request: LockRequest):
        request.enqueued_at = next(self._enqueue_seq)
        self._txn_waiting.setdefault(request.txn, {})[request] = None

    def _dequeue_wait(self, request: LockRequest):
        waiting = self._txn_waiting.get(request.txn)
        if waiting is not None:
            waiting.pop(request, None)
            if not waiting:
                del self._txn_waiting[request.txn]

    # -- request / release ----------------------------------------------------

    def request(
        self, txn, resource, mode: LockMode, long: bool = False, wait: bool = True
    ) -> LockRequest:
        """Request ``mode`` on ``resource`` for ``txn``.

        Returns a :class:`LockRequest` whose status is GRANTED or WAITING.
        With ``wait=False`` an ungrantable request raises
        :class:`LockConflictError` instead of queueing.
        """
        self.requests += 1
        try:
            request = self._submit(
                self._entries.get(resource), txn, resource, mode, long, wait
            )
        except Exception as exc:
            if self.sink is not None:
                self.sink.record("acquire", txn, resource, mode, _denied(exc))
            raise
        if self.sink is not None:
            self.sink.record("acquire", txn, resource, mode, _outcome(request))
        return request

    def request_many(
        self, txn, steps, long: bool = False, wait: bool = True
    ) -> List[LockRequest]:
        """Acquire a whole lock plan in one table pass.

        ``steps`` is an ordered iterable of steps with a ``resource`` and
        a ``mode`` — typically one demand's compiled plan as the plan cache
        holds it (:class:`~repro.protocol.base.PlannedLock`).  Semantics
        are exactly those of issuing each step through :meth:`request`
        after pruning steps the transaction already covers: pruned steps
        touch no counters, the compatible prefix is granted in order, and
        the first step that cannot be granted either queues (``wait=True``,
        returned WAITING as the last element) or raises
        :class:`LockConflictError` (``wait=False``), leaving the prefix
        granted for the caller's abort path to release.  An iterator is
        consumed up to that step, so a later pass resumes right behind it.

        The batching win: one call boundary for N locks, covered-step
        pruning via the O(1) per-transaction held-mode summary, and — since
        at most the final request can block — callers need a single
        deadlock check per plan instead of one per lock.
        """
        out: List[LockRequest] = []
        entries = self._entries
        # One summary fetch serves the whole batch: the dict keeps its
        # identity while the transaction holds anything, and nothing
        # outside this synchronous call can release its locks.  Only a
        # transaction that held nothing re-fetches it, once, after the
        # first grant created it (counted in ``summary_rebuilds``).
        modes = self._txn_modes.get(txn)
        sink = self.sink
        for step in steps:
            resource, mode = step.resource, step.mode
            if modes is not None:
                held_mode = modes.get(resource)
                if held_mode is not None and covers(held_mode, mode):
                    continue  # already satisfied: pruned, not re-requested
            self.requests += 1
            try:
                request = self._submit(
                    entries.get(resource), txn, resource, mode, long, wait
                )
            except Exception as exc:
                if sink is not None:
                    sink.record("acquire", txn, resource, mode, _denied(exc))
                raise
            if sink is not None:
                sink.record("acquire", txn, resource, mode, _outcome(request))
            out.append(request)
            if request.status is not GRANTED:
                break
            if modes is None:
                modes = self._txn_modes[txn]
                self.summary_rebuilds += 1
        return out

    def _submit(
        self, entry, txn, resource, mode: LockMode, long: bool, wait: bool
    ) -> LockRequest:
        """Grant/queue one counted request against ``resource``'s entry
        (None: nobody holds or waits on it — the entry is built granted)."""
        if self.fault_injector is not None:
            self.fault_injector.fire(
                "lock.enqueue", txn=txn, resource=resource, mode=mode
            )
        if entry is None:
            entry = self._entries[resource] = _ResourceEntry()
            if len(self._entries) > self.max_entries:
                self.max_entries = len(self._entries)
            request = LockRequest(txn, resource, mode, mode, long, False)
        else:
            held = entry.granted.get(txn)
            if held is not None:  # a conversion, or a covered re-request
                target = supremum(held.mode, mode)
                request = LockRequest(txn, resource, mode, target, long, True)
                if target == held.mode:
                    held.push(mode, long)
                elif self._conversion_grantable(entry, txn, target):
                    entry.held += HELD_UNIT[target.code] - HELD_UNIT[held.code]
                    held.push(mode, long)
                    self._summary_set(txn, resource, held.mode)
                    self._touch(entry)
                else:
                    return self._refused(entry, request, wait)
                request.status = RequestStatus.GRANTED
                self.immediate_grants += 1
                return request
            request = LockRequest(txn, resource, mode, mode, long, False)
            if (entry.conversions or entry.queue) and not self.reader_bypass:
                return self._refused(entry, request, wait)
            if entry.held & CONFLICT_MASK[mode.code]:
                self.conflict_tests += self._refusal_cost(entry, txn, mode)
                return self._refused(entry, request, wait)
            self.conflict_tests += len(entry.granted)
        self._grant(entry, request, None)
        self.immediate_grants += 1
        return request

    def _refused(self, entry, request: LockRequest, wait: bool) -> LockRequest:
        """``request`` cannot be granted now: queue it, or raise
        :class:`LockConflictError` with ``wait=False``."""
        if not wait:
            holders = self.holders(request.resource)
            if request.is_conversion:
                message = "conversion of %r on %r to %s conflicts with %r" % (
                    request.txn, request.resource, request.target_mode, holders
                )
            else:
                message = "%s on %r for %r conflicts with %r" % (
                    request.mode, request.resource, request.txn, holders
                )
            raise LockConflictError(
                message,
                resource=request.resource,
                requested=request.target_mode,
                holders=holders.items(),
            )
        if request.is_conversion:
            entry.conversions.append(request)
        else:
            entry.queue.append(request)
        self._enqueue_wait(request)
        self._touch(entry)
        self.waits += 1
        return request

    def release(self, txn, resource) -> List[LockRequest]:
        """Release one grant of ``txn`` on ``resource``.

        Grants are counted: a transaction that acquired a node twice must
        release it twice (or use :meth:`release_all`).  Returns the list of
        requests that became granted as a consequence.
        """
        try:
            if self.fault_injector is not None:
                self.fault_injector.fire(
                    "lock.release", txn=txn, resource=resource
                )
            entry = self._entries.get(resource)
            if entry is None or txn not in entry.granted:
                raise LockError("%r holds no lock on %r" % (txn, resource))
        except Exception as exc:
            if self.sink is not None:
                self.sink.record("release", txn, resource, None, _denied(exc))
            raise
        held = entry.granted[txn]
        if len(held.modes) == 1:
            self._drop_grant(entry, txn, resource, held)
        else:
            # A counted release may shrink the supremum: the group mode and
            # the summary must follow, or batched pruning would trust a
            # stale stronger mode.
            before = held.code
            held.pop()
            entry.held += HELD_UNIT[held.code] - HELD_UNIT[before]
            self._summary_set(txn, resource, held.mode)
        self._touch(entry)
        woken = self._process_queue(entry)
        self._drop_if_empty(resource, entry)
        if self.sink is not None:
            self.sink.record("release", txn, resource)
            _record_woken(self.sink, woken)
        return woken

    def release_all(self, txn, keep_long: bool = False) -> List[LockRequest]:
        """Release every lock of ``txn`` (EOT release, rule 5).

        One pass over the transaction's grants in first-grant order, then
        over the resources it only waits on in enqueue order (which makes
        the wake order deterministic): each held grant leaves its entry,
        ``txn``'s waits there are cancelled, the entry's queue is
        processed only when it has one, and an emptied entry is retired
        inline.  The held-mode summary is dropped once at the end.

        With ``keep_long=True`` only short locks are dropped — used when a
        workstation transaction hands over to a long check-out lock; the
        kept locks stay in the summary, so each dropped one leaves it as
        it goes.
        """
        if self.fault_injector is not None:
            self.fault_injector.fire("lock.release", txn=txn, resource=None)
        woken: List[LockRequest] = []
        entries = self._entries
        resources = dict.fromkeys(self._txn_modes.get(txn, ()))
        for request in self._txn_waiting.get(txn, ()):
            resources.setdefault(request.resource)
        for resource in resources:
            entry = entries.get(resource)
            if entry is None:
                continue
            held = entry.granted.get(txn)
            if held is not None and not (keep_long and held.long):
                if keep_long:
                    self._drop_grant(entry, txn, resource, held)
                else:
                    del entry.granted[txn]
                    entry.held -= HELD_UNIT[held.code]
                entry.version += 1
                self.wait_graph_version += 1
            if entry.conversions or entry.queue:
                if txn in self._txn_waiting:
                    self._cancel_waiting(entry, txn)
                woken.extend(self._process_queue(entry))
            if not (entry.granted or entry.conversions or entry.queue):
                del entries[resource]
        if not keep_long:
            self._txn_modes.pop(txn, None)
        if self.sink is not None:
            self.sink.record("release_all", txn, None)
            _record_woken(self.sink, woken)
        return woken

    def cancel(self, request: LockRequest) -> List[LockRequest]:
        """Withdraw a waiting request (deadlock victim / timeout)."""
        woken: List[LockRequest] = []
        entry = self._entries.get(request.resource)
        if entry is not None:
            for queue in (entry.conversions, entry.queue):
                try:
                    queue.remove(request)
                    request.status = RequestStatus.CANCELLED
                    self._dequeue_wait(request)
                    self._touch(entry)
                except ValueError:
                    pass
            woken = self._process_queue(entry)
            self._drop_if_empty(request.resource, entry)
        if self.sink is not None:
            self.sink.record(
                "cancel", request.txn, request.resource, request.mode
            )
            _record_woken(self.sink, woken)
        return woken

    # -- persistence of long locks (workstation-server, section 3.1) --------

    def dump_long_locks(self) -> List[Tuple[object, object, str]]:
        """Serialize long locks as (txn, resource, mode) triples.

        Long locks "must survive system shutdowns and system crashes"; the
        checkout manager persists this dump and restores it after a
        simulated restart.  Short locks and waiting requests are dropped by
        a crash, matching the paper's model.
        """
        out = []
        for resource, entry in self._entries.items():
            for txn, held in entry.granted.items():
                if held.long:
                    out.append((txn, resource, held.mode.value))
        return out

    def restore_long_locks(self, dump: Iterable[Tuple[object, object, str]]):
        """Re-install long locks from :meth:`dump_long_locks` output."""
        for txn, resource, mode_name in dump:
            request = self.request(
                txn, resource, LockMode(mode_name), long=True, wait=False
            )
            if not request.granted:  # pragma: no cover - wait=False raises
                raise LockError("could not restore long lock on %r" % (resource,))

    # -- waits-for edges (deadlock detection input) --------------------------

    def waits_for_edges(self) -> List[Tuple[object, object]]:
        """Edges (waiter, blocker): waiter cannot proceed until blocker moves.

        A conversion waiter waits for every *other* holder whose mode is
        incompatible with the conversion target.  A queued waiter waits for
        incompatible holders and for incompatible requests queued ahead of
        it (FIFO fairness makes those real blockers too).

        The reference form of the graph, derived on demand from the
        per-entry memo (entry by entry, conversions before the queue) for
        the auditor, the oracle and the tests; detection reads
        :meth:`waits_for_graph` instead and never builds this list.
        """
        edges: List[Tuple[object, object]] = []
        for entry in self._entries.values():
            if entry.conversions or entry.queue:
                for request, blockers in self._entry_waits(entry)[1].items():
                    edges.extend(zip(repeat(request.txn), blockers))
        return edges

    def waits_for_graph(self) -> Tuple[List[object], Dict[object, List[object]]]:
        """``(nodes, adjacency)`` of :meth:`waits_for_edges`, read off the
        memo: what :func:`repro.locking.deadlock.edge_graph` builds from
        the edge list, without building the edge list.

        ``nodes`` is the edges' first-appearance order (the start order of
        the detector's search); ``adjacency`` maps each waiter to its
        blockers.  The lists are the memo's own when the waiter waits at
        one entry — callers must not write them.
        """
        order: Dict[object, None] = {}
        adjacency: Dict[object, List[object]] = {}
        entry_waits = self._entry_waits
        for entry in self._entries.values():
            if entry.conversions or entry.queue:
                _, waits, nodes = entry_waits(entry)
                order.update(nodes)
                # a transaction waiting at several entries gets the
                # concatenation of its blockers, in edge order
                for request, blockers in waits.items():
                    if blockers:
                        txn = request.txn
                        before = adjacency.get(txn)
                        adjacency[txn] = (
                            blockers if before is None else before + blockers
                        )
        return list(order), adjacency

    def blockers_of(self, txn) -> List[object]:
        """The transactions ``txn`` waits for: ``dst`` of every edge
        ``(txn, dst)`` of :meth:`waits_for_edges`, in the same order, as a
        fresh list.

        Costs one probe of the per-transaction waiting index plus the memo
        of the entries ``txn`` waits on — never a walk over the table.
        """
        blockers: List[object] = []
        for request in self._txn_waiting.get(txn, ()):
            entry = self._entries[request.resource]
            blockers.extend(self._entry_waits(entry)[1][request])
        return blockers

    def blocked_by(self, txns: Collection[object]) -> Set[object]:
        """Every transaction some member of ``txns`` waits for: one step
        of a search over the waits-for graph, read from the memo lists
        of the entries they wait on, in place.  Proportional to the waits
        of ``txns``, not to the table — which is what lets deadlock
        detection start from one waiter."""
        reached: Set[object] = set()
        entries = self._entries
        entry_waits = self._entry_waits
        for txn in txns:
            for request in self._txn_waiting.get(txn, ()):
                reached.update(entry_waits(entries[request.resource])[1][request])
        return reached

    def _entry_waits(self, entry: _ResourceEntry):
        """``(version, request -> blockers, nodes)`` of one entry, memoized
        on the entry version: the blockers of every waiting request
        (conversions first, then the queue, each in order) and the
        entry's waits-for nodes in first-appearance order of its edges
        (each waiter with a blocker, then its blockers).  The whole-graph
        reader and the per-waiter readers share this one memo and its one
        invalidation rule; none of them writes a memo list.  Only read for
        entries somebody waits on."""
        cached = entry.waits_cache
        if cached is not None and cached[0] == entry.version:
            return cached
        blockers: Dict[LockRequest, List[object]] = {}
        nodes: Dict[object, None] = {}
        # codes whose holders are in ``nodes``; has a waiter without
        # blockers been passed?
        listed: Set[int] = set()
        silent = False
        compat = COMPAT_FLAT
        # Waiters for one mode code share their blockers: the holders
        # incompatible with that code (found once per distinct code) and,
        # for a queued request, the incompatible waiters ahead of it (one
        # running list per code, fed as the walk passes each waiter).
        granted = entry.granted
        group = entry.held
        holding: Dict[int, List[object]] = {}
        ahead: Dict[int, List[object]] = {
            request.target_mode.code: [] for request in entry.queue
        }
        # waiter's code -> the running lists of the codes it blocks
        feeds: Dict[int, List[List[object]]] = {}
        for requests, queued in ((entry.conversions, False), (entry.queue, True)):
            for request in requests:
                waiter = request.txn
                code = request.target_mode.code
                mine = holding.get(code)
                if mine is None:
                    mine = holding[code] = (
                        [
                            txn
                            for txn, held in granted.items()
                            if not compat[held.code * N_MODES + code]
                        ]
                        if group & CONFLICT_MASK[code]
                        else []
                    )
                if queued:
                    mine = mine + ahead[code]
                else:
                    # a conversion does not wait for its own hold
                    mine = [txn for txn in mine if txn != waiter]
                blockers[request] = mine
                if mine:
                    # the edge stream node by node: the waiter, then its
                    # blockers — the holders once per code, and the
                    # waiters ahead, all in ``nodes`` already unless one
                    # of them waits for nobody
                    nodes[waiter] = None
                    if code not in listed:
                        listed.add(code)
                        nodes.update(dict.fromkeys(holding[code]))
                    if queued and silent:
                        nodes.update(dict.fromkeys(ahead[code]))
                else:
                    silent = True
                fed = feeds.get(code)
                if fed is None:
                    row = code * N_MODES
                    fed = feeds[code] = [
                        waiters
                        for behind, waiters in ahead.items()
                        if not compat[row + behind]
                    ]
                for waiters in fed:
                    waiters.append(waiter)
        cached = entry.waits_cache = (entry.version, blockers, nodes)
        return cached

    def is_waited_for(self, txn) -> bool:
        """Does any waits-for edge end in ``txn``?

        ``any(dst == txn for _, dst in waits_for_edges())``, read off the
        entries ``txn`` holds (a waiter whose target mode its hold
        conflicts with) and the queues behind its own waiting requests —
        no blocker list is built.  A transaction nobody waits for is on no
        cycle, which is all the deadlock detector asks.
        """
        compat = COMPAT_FLAT
        entries = self._entries
        for resource in self._txn_modes.get(txn, ()):
            entry = entries[resource]
            if not (entry.conversions or entry.queue):
                continue
            row = entry.granted[txn].code * N_MODES
            for request in entry.conversions:
                if request.txn != txn and not compat[row + request.target_mode.code]:
                    return True
            for request in entry.queue:
                if not compat[row + request.target_mode.code]:
                    return True
        for waiting in self._txn_waiting.get(txn, ()):
            row = waiting.target_mode.code * N_MODES
            entry = entries[waiting.resource]
            # FIFO: every queued request behind ``waiting`` also waits for
            # it — all of ``queue`` for a conversion, else the tail after it
            behind = waiting in entry.conversions
            for request in entry.queue:
                if behind:
                    if not compat[row + request.target_mode.code]:
                        return True
                elif request is waiting:
                    behind = True
        return False

    # -- internals -------------------------------------------------------------

    # The grant test (here and in ``_submit``): a mode is compatible with
    # every other holder iff the entry's group mode has no holder in a
    # conflicting field.
    # ``conflict_tests`` advances by what a sequential scan of ``granted``
    # would have examined — every other holder on a grant, and on a
    # refusal the (then really walked) prefix up to the first incompatible
    # one.

    def _conversion_grantable(self, entry, txn, target: LockMode) -> bool:
        """Is ``target`` compatible with every holder other than ``txn``?"""
        others = entry.held
        examined = len(entry.granted)
        own = entry.granted.get(txn)
        if own is not None:
            others -= HELD_UNIT[own.code]
            examined -= 1
        if not others & CONFLICT_MASK[target.code]:
            self.conflict_tests += examined
            return True
        self.conflict_tests += self._refusal_cost(entry, txn, target)
        return False

    def _refusal_cost(self, entry, txn, mode: LockMode) -> int:
        """Holders other than ``txn`` up to the first one incompatible
        with ``mode``, that one included."""
        examined = 0
        for other, held in entry.granted.items():
            if other == txn:
                continue
            examined += 1
            if not compatible(held.mode, mode):
                break
        return examined

    # -- held-mode summary writes --------------------------------------------

    def _summary_set(self, txn, resource, mode: LockMode):
        modes = self._txn_modes.get(txn)
        if modes is None:
            self._txn_modes[txn] = {resource: mode}
        else:
            modes[resource] = mode

    def _summary_drop(self, txn, resource):
        modes = self._txn_modes.get(txn)
        if modes is not None:
            modes.pop(resource, None)
            if not modes:
                del self._txn_modes[txn]

    def _drop_grant(self, entry, txn, resource, held: _HeldLock):
        """Take ``txn``'s whole grant ``held`` on ``resource`` out of the
        table and the summary (``release_all`` without ``keep_long`` drops
        the summary wholesale instead)."""
        del entry.granted[txn]
        entry.held -= HELD_UNIT[held.code]
        self._summary_drop(txn, resource)

    def _grant(self, entry, request: LockRequest, held: Optional[_HeldLock]):
        """Grant ``request``; ``held`` is its txn's record on ``entry``
        (None: a new holder)."""
        txn = request.txn
        resource = request.resource
        mode = request.mode
        if held is None:
            held = entry.granted[txn] = _HeldLock(mode, request.long)
            entry.held += HELD_UNIT[mode.code]
        else:
            before = held.code
            held.push(mode, request.long)
            entry.held += HELD_UNIT[held.code] - HELD_UNIT[before]
        request.status = RequestStatus.GRANTED
        self._summary_set(txn, resource, held.mode)
        entry.version += 1
        self.wait_graph_version += 1

    def _process_queue(self, entry) -> List[LockRequest]:
        """Grant now-compatible waiters; conversions first, then FIFO."""
        woken: List[LockRequest] = []
        # nobody waiting (every uncontended release): nothing to wake
        progressed = bool(entry.conversions or entry.queue)
        while progressed:
            progressed = False
            for request in list(entry.conversions):
                held = entry.granted.get(request.txn)
                if held is None:
                    # Holder aborted while waiting for conversion: treat as new.
                    entry.conversions.remove(request)
                    entry.queue.appendleft(request)
                    self._touch(entry)
                    progressed = True
                    continue
                target = supremum(held.mode, request.mode)
                request.target_mode = target
                if self._conversion_grantable(entry, request.txn, target):
                    entry.conversions.remove(request)
                    entry.held += HELD_UNIT[target.code] - HELD_UNIT[held.code]
                    held.push(request.mode, request.long)
                    self._summary_set(request.txn, request.resource, held.mode)
                    request.status = RequestStatus.GRANTED
                    self._dequeue_wait(request)
                    self._touch(entry)
                    woken.append(request)
                    progressed = True
            while entry.queue and not entry.conversions:
                request = entry.queue[0]
                if not self._conversion_grantable(
                    entry, request.txn, request.target_mode
                ):
                    break
                entry.queue.popleft()
                self._dequeue_wait(request)
                self._grant(entry, request, entry.granted.get(request.txn))
                woken.append(request)
                progressed = True
        return woken

    def _cancel_waiting(self, entry, txn):
        for queue in (entry.conversions, entry.queue):
            for request in list(queue):
                if request.txn == txn:
                    queue.remove(request)
                    request.status = RequestStatus.CANCELLED
                    self._dequeue_wait(request)
                    self._touch(entry)

    def _drop_if_empty(self, resource, entry):
        if entry.empty():
            self._entries.pop(resource, None)
