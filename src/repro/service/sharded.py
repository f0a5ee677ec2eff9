"""A lock manager partitioned into N independent shard tables.

:class:`ShardedLockManager` is a drop-in replacement for
:class:`~repro.locking.manager.LockManager`: same call surface, same
observable behavior — the differential suite replays whole workloads
against both and requires bit-identical lock traces.  Internally every
resource is routed to one of N :class:`~repro.locking.lock_table.
LockTable` shards by its interned id (:func:`shard_of`), so there is no
global lock table and no shard ever inspects another shard's state on
the request path.  Three things genuinely cross shards:

* **release order at EOT** — the single table wakes waiters in the
  victim's global first-grant order (it walks its insertion-ordered
  per-transaction resource index).  The manager therefore keeps its own
  global grant-order index and drives each shard's per-resource release
  body (:meth:`LockTable._release_resource`) in that order;
* **deadlock detection** — waits-for cycles can span shards; the
  :class:`_AggregateTable` facade merges the per-shard waits-for graphs
  (each shard's blocker lists stay memoized on its entries) and sums
  the per-shard wait-graph versions into one quiescence stamp, so the
  unchanged :class:`~repro.locking.deadlock.DeadlockDetector` runs over
  the union graph with the same O(1) re-check on a quiet system;
* **auditing** — the verifier and the fault harness introspect
  ``manager.table``; the facade merges the per-shard views on demand.

Routing is a pure function of the interned id: the router interner is
append-only (ids are never reused), so ``shard_of`` is stable across
interner growth and a compiled plan's resources never migrate.  That is
what lets the manager memoize resource -> shard table on first touch:
every routed call after it is one dict probe.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Collection, Dict, List, Optional, Set, Tuple

from repro.errors import LockError
from repro.locking.deadlock import DeadlockDetector
from repro.locking.lock_table import GRANTED, LockRequest, LockTable, eot_order
from repro.locking.modes import LockMode, covers
from repro.nf2.surrogate import ResourceInterner


_ENQUEUED_AT = attrgetter("enqueued_at")


def shard_of(router: ResourceInterner, resource, n_shards: int) -> int:
    """The shard owning ``resource``: ``intern(resource) % n_shards``.

    Pure in the interned id — the router never reassigns ids, so the
    answer for a given resource is fixed at first touch and survives
    arbitrary interner growth.
    """
    return router.intern(resource) % n_shards


class _AggregateTable:
    """Read-mostly union view over a manager's shard tables.

    Everything the rest of the library expects of ``manager.table`` —
    the verifier's entry scans, the deadlock detector's edge reads, the
    fault harness's leak checks, the trace wrapper's ``holds_at_least``
    pruning — is answered by merging the shard tables.  Writes route:
    ``cancel`` goes to the owning shard (through the manager, which
    keeps its grant-order index current) and setting ``fault_injector``
    fans the injector out to every shard.
    """

    def __init__(self, manager: "ShardedLockManager"):
        self._manager = manager

    @property
    def _shards(self) -> List[LockTable]:
        return self._manager.shards

    # -- fault injection: one injector, fanned out to every shard ----------

    @property
    def fault_injector(self):
        return self._manager._fault_injector

    @fault_injector.setter
    def fault_injector(self, injector):
        self._manager._fault_injector = injector
        for shard in self._shards:
            shard.fault_injector = injector

    # -- merged inspection ---------------------------------------------------

    @property
    def _entries(self) -> Dict[object, object]:
        merged: Dict[object, object] = {}
        for shard in self._shards:
            merged.update(shard._entries)
        return merged

    @property
    def _txn_modes(self) -> Dict[object, Dict[object, LockMode]]:
        merged: Dict[object, Dict[object, LockMode]] = {}
        for shard in self._shards:
            for txn, modes in shard._txn_modes.items():
                merged.setdefault(txn, {}).update(modes)
        return merged

    @property
    def _txn_waiting(self) -> Dict[object, Dict[LockRequest, None]]:
        """txn -> {waiting request: None}, in the global enqueue order."""
        merged: Dict[object, Dict[LockRequest, None]] = {}
        for shard in self._shards:
            for txn in shard._txn_waiting:
                if txn not in merged:
                    merged[txn] = dict.fromkeys(self._manager._waiting_of(txn))
        return merged

    def holders(self, resource) -> Dict[object, LockMode]:
        return self._manager.shard_table(resource).holders(resource)

    def held_mode(self, txn, resource) -> Optional[LockMode]:
        return self._manager.shard_table(resource).held_mode(txn, resource)

    def holds_at_least(self, txn, resource, mode: LockMode) -> bool:
        return self._manager.holds_at_least(txn, resource, mode)

    def resources_of(self, txn) -> Set[object]:
        out: Set[object] = set()
        for shard in self._shards:
            out.update(shard.resources_of(txn))
        return out

    def locked_resources(self) -> List[object]:
        out: List[object] = []
        for shard in self._shards:
            out.extend(shard.locked_resources())
        return out

    def lock_count(self) -> int:
        return sum(shard.lock_count() for shard in self._shards)

    def waiting_requests(self) -> List[LockRequest]:
        out: List[LockRequest] = []
        for shard in self._shards:
            out.extend(shard.waiting_requests())
        return out

    def waiting_requests_of(self, txn) -> List[LockRequest]:
        return self._manager._waiting_of(txn)

    # -- waits-for union graph ----------------------------------------------

    @property
    def wait_graph_version(self) -> int:
        """Sum of the shard stamps: moves iff some shard's graph moved."""
        return sum(shard.wait_graph_version for shard in self._shards)

    def waits_for_edges(self) -> List[Tuple[object, object]]:
        """Edges of the union graph, concatenated in shard-index order.

        Edge *order* differs from the single table's (shard order, not
        global entry-creation order) — victim selection is
        order-invariant (max over the cycle), so this is unobservable
        whenever at most one cycle exists at a time.
        """
        edges: List[Tuple[object, object]] = []
        for shard in self._shards:
            edges.extend(shard.waits_for_edges())
        return edges

    def waits_for_graph(self) -> Tuple[List[object], Dict[object, List[object]]]:
        """``(nodes, adjacency)`` of :meth:`waits_for_edges`: the shard
        graphs merged in shard-index order, a transaction waiting on
        several shards getting its blockers concatenated in that order."""
        order: Dict[object, None] = {}
        adjacency: Dict[object, List[object]] = {}
        for shard in self._shards:
            shard._graph_into(order, adjacency)
        return list(order), adjacency

    def blocked_by(self, txns: Collection[object]) -> Set[object]:
        """Every transaction some member of ``txns`` waits for, on any
        shard (one search step over the union graph)."""
        reached: Set[object] = set()
        for shard in self._shards:
            reached |= shard.blocked_by(txns)
        return reached

    def blockers_of(self, txn) -> List[object]:
        """Whom ``txn`` waits for, across shards (shard-index order); each
        shard answers from its waiting index and per-entry memo."""
        blockers: List[object] = []
        for shard in self._shards:
            blockers.extend(shard.blockers_of(txn))
        return blockers

    def is_waited_for(self, txn) -> bool:
        """Does any edge of the union graph end in ``txn``?"""
        return any(shard.is_waited_for(txn) for shard in self._shards)

    # -- summed counters ------------------------------------------------------

    @property
    def summary_version(self) -> int:
        return sum(shard.summary_version for shard in self._shards)

    @property
    def requests(self) -> int:
        return sum(shard.requests for shard in self._shards)

    @property
    def immediate_grants(self) -> int:
        return sum(shard.immediate_grants for shard in self._shards)

    @property
    def waits(self) -> int:
        return sum(shard.waits for shard in self._shards)

    @property
    def conflict_tests(self) -> int:
        return sum(shard.conflict_tests for shard in self._shards)

    @property
    def max_entries(self) -> int:
        return sum(shard.max_entries for shard in self._shards)

    @property
    def summary_rebuilds(self) -> int:
        return sum(shard.summary_rebuilds for shard in self._shards)

    # -- routed writes --------------------------------------------------------

    def cancel(self, request: LockRequest) -> List[LockRequest]:
        return self._manager.cancel(request)

    def release(self, txn, resource) -> List[LockRequest]:
        return self._manager.release(txn, resource)

    def release_all(self, txn, keep_long: bool = False) -> List[LockRequest]:
        return self._manager.release_all(txn, keep_long=keep_long)

    # -- long-lock persistence ------------------------------------------------

    def dump_long_locks(self) -> List[Tuple[object, object, str]]:
        out: List[Tuple[object, object, str]] = []
        for shard in self._shards:
            out.extend(shard.dump_long_locks())
        return out

    def restore_long_locks(self, dump):
        manager = self._manager
        for txn, resource, mode_name in dump:
            request = manager.shard_table(resource).request(
                txn, resource, LockMode(mode_name), long=True, wait=False
            )
            if not request.granted:  # pragma: no cover - wait=False raises
                raise LockError(
                    "could not restore long lock on %r" % (resource,)
                )
            manager._note_granted(request)


class ShardedLockManager:
    """N shard lock tables behind the :class:`LockManager` call surface.

    ``shards`` are plain :class:`LockTable` instances; ``table`` is the
    :class:`_AggregateTable` facade the rest of the library introspects,
    and ``detector`` is the stock deadlock detector running over that
    facade's union waits-for graph.
    """

    def __init__(
        self,
        n_shards: int = 4,
        age_of=None,
        reader_bypass: bool = False,
        router: Optional[ResourceInterner] = None,
    ):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        #: the routing interner: resource -> dense id, append-only, so
        #: ``shard_of`` is a pure, growth-stable function of the resource
        self.router = router if router is not None else ResourceInterner()
        self.n_shards = n_shards
        self.shards = [
            LockTable(reader_bypass=reader_bypass) for _ in range(n_shards)
        ]
        # one enqueue sequence for all shards: it orders a transaction's
        # waits across shards as one table's sequence would
        enqueue_seq = self.shards[0]._enqueue_seq
        for shard in self.shards:
            shard._enqueue_seq = enqueue_seq
        self._fault_injector = None
        self.table = _AggregateTable(self)
        self.detector = DeadlockDetector(self.table, age_of=age_of)
        #: txn -> {resource: None}: global first-grant order across all
        #: shards — the walk order of :meth:`release_all`, which is what
        #: keeps EOT wake order identical to the single table's
        self._txn_order: Dict[object, Dict[object, None]] = {}
        #: resource -> owning shard table, filled from ``shard_of`` on
        #: first touch (ids never move, so an entry never goes stale)
        self._shard_tables: Dict[object, LockTable] = {}
        #: optional callback(list-of-woken-LockRequests), invoked after
        #: any release/cancel that granted queued waiters — the asyncio
        #: server resolves its wait futures from here
        self.on_wake = None

    # -- routing --------------------------------------------------------------

    def shard_of(self, resource) -> int:
        return shard_of(self.router, resource, self.n_shards)

    def shard_table(self, resource) -> LockTable:
        table = self._shard_tables.get(resource)
        if table is None:
            table = self._shard_tables[resource] = self.shards[
                self.shard_of(resource)
            ]
        return table

    def set_age_of(self, age_of) -> "ShardedLockManager":
        self.detector.set_age_of(age_of)
        return self

    # -- grant-order bookkeeping ----------------------------------------------

    def _note_granted(self, request: LockRequest):
        # dict insert keeps the first position on re-grant: order is
        # *first*-grant order, matching the single table's index
        self._txn_order.setdefault(request.txn, {})[request.resource] = None

    def _note_woken(self, woken: List[LockRequest]):
        for request in woken:
            self._note_granted(request)
        if woken and self.on_wake is not None:
            self.on_wake(woken)

    def _note_released(self, txn, resource):
        order = self._txn_order.get(txn)
        if order is not None:
            order.pop(resource, None)
            if not order:
                del self._txn_order[txn]

    # -- the LockManager surface ----------------------------------------------

    def acquire(
        self,
        txn,
        resource,
        mode: LockMode,
        long: bool = False,
        wait: bool = True,
    ) -> LockRequest:
        request = self.shard_table(resource).request(
            txn, resource, mode, long=long, wait=wait
        )
        if request.granted:
            self._note_granted(request)
            if self._fault_injector is not None:
                self._fault_injector.fire(
                    "lock.grant", txn=txn, resource=resource, mode=mode
                )
        return request

    def acquire_many(
        self, txn, steps, long: bool = False, wait: bool = True
    ) -> List[LockRequest]:
        """Batched plan acquisition, split into per-shard runs.

        The ordered plan is cut into maximal runs of consecutive
        same-shard steps; each run goes through its shard's
        ``request_many`` (covered-pair pruning against that shard's
        held-mode summary, at most the run's last request WAITING).
        Semantics per step are identical to the single table's batched
        pass — pruning is per (txn, resource) and therefore shard-local.
        """
        out: List[LockRequest] = []
        run: List[Tuple[object, LockMode]] = []
        run_table = None
        tables = self._shard_tables
        try:
            for step in steps:
                table = tables.get(step[0])
                if table is None:
                    table = self.shard_table(step[0])
                if table is not run_table:
                    if run:
                        granted = run_table.request_many(txn, run, long, wait)
                        out.extend(granted)
                        run = []
                        if granted and granted[-1].status is not GRANTED:
                            break
                    run_table = table
                run.append(step)
            else:
                if run:
                    out.extend(run_table.request_many(txn, run, long, wait))
                    run = []
        finally:
            # A wait=False conflict (or an injected fault) raises inside a
            # run with a prefix granted, and the caller's abort path
            # releases it: the grant-order index must cover ``out`` and
            # what the raising run's shard granted before it raised.
            order = self._txn_order.setdefault(txn, {})
            for request in out:
                if request.status is GRANTED:
                    order[request.resource] = None
            for resource, _ in run:
                if resource in run_table._txn_modes.get(txn, ()):
                    order[resource] = None
            if not order:
                del self._txn_order[txn]
        if (
            out
            and out[-1].granted
            and self._fault_injector is not None
        ):
            last = out[-1]
            self._fault_injector.fire(
                "lock.grant", txn=txn, resource=last.resource, mode=last.mode
            )
        return out

    def release(self, txn, resource) -> List[LockRequest]:
        shard = self.shard_table(resource)
        woken = shard.release(txn, resource)
        if shard.held_mode(txn, resource) is None:
            self._note_released(txn, resource)
        self._note_woken(woken)
        return woken

    def release_all(self, txn, keep_long: bool = False) -> List[LockRequest]:
        """EOT release across shards, in the single table's order.

        Walks the manager's own grant-order index (not any shard's), then
        the resources the txn only waits on in global enqueue order, and
        runs each resource's release body on its owning shard — wake
        order is therefore the one the single table produces.
        """
        if self._fault_injector is not None:
            self._fault_injector.fire("lock.release", txn=txn, resource=None)
        resources = eot_order(self._txn_order.get(txn, ()), self._waiting_of(txn))
        woken: List[LockRequest] = []
        tables = self._shard_tables
        for resource in resources:
            table = tables.get(resource)
            if table is None:
                table = self.shard_table(resource)
            table._release_resource(txn, resource, keep_long, woken)
        if not keep_long:
            for shard in self.shards:
                shard._txn_resources.pop(txn, None)
                shard._summary_clear(txn)
            self._txn_order.pop(txn, None)
        else:
            order = self._txn_order.get(txn)
            if order is not None:
                for resource in resources:
                    if (
                        self.shard_table(resource).held_mode(txn, resource)
                        is None
                    ):
                        order.pop(resource, None)
                if not order:
                    del self._txn_order[txn]
        self._note_woken(woken)
        return woken

    def _waiting_of(self, txn) -> List[LockRequest]:
        """``txn``'s waiting requests on every shard, in the global
        enqueue order — the order one table's waiting index keeps."""
        waiting: List[LockRequest] = []
        for shard in self.shards:
            waiting.extend(shard._txn_waiting.get(txn, ()))
        if len(waiting) > 1:
            waiting.sort(key=_ENQUEUED_AT)
        return waiting

    def cancel(self, request: LockRequest) -> List[LockRequest]:
        woken = self.shard_table(request.resource).cancel(request)
        self._note_woken(woken)
        return woken

    def holders(self, resource) -> Dict[object, LockMode]:
        return self.table.holders(resource)

    def held_mode(self, txn, resource) -> Optional[LockMode]:
        return self.table.held_mode(txn, resource)

    def holds_at_least(self, txn, resource, mode: LockMode) -> bool:
        """One memo probe and the owning shard's summary dict: the
        per-step question of plan filtering."""
        table = self._shard_tables.get(resource)
        if table is None:
            table = self.shard_table(resource)
        modes = table._txn_modes.get(txn)
        if modes is None:
            return False
        held = modes.get(resource)
        return held is not None and covers(held, mode)

    def locks_of(self, txn) -> Dict[object, LockMode]:
        return {
            resource: self.table.held_mode(txn, resource)
            for resource in self.table.resources_of(txn)
        }

    def lock_count(self) -> int:
        return self.table.lock_count()

    # -- deadlock handling ----------------------------------------------------

    def detect_deadlock(self, waiter=None) -> Optional[List[object]]:
        return self.detector.check(waiter)

    # -- metrics --------------------------------------------------------------

    def metrics(self) -> Dict[str, int]:
        return {
            "requests": self.table.requests,
            "immediate_grants": self.table.immediate_grants,
            "waits": self.table.waits,
            "conflict_tests": self.table.conflict_tests,
            "max_entries": self.table.max_entries,
            "summary_rebuilds": self.table.summary_rebuilds,
            "deadlocks": self.detector.deadlocks_found,
            "shards": self.n_shards,
        }

    def reset_metrics(self):
        for shard in self.shards:
            shard.requests = 0
            shard.immediate_grants = 0
            shard.waits = 0
            shard.conflict_tests = 0
            shard.max_entries = 0
            shard.summary_rebuilds = 0
        self.detector.reset_metrics()
