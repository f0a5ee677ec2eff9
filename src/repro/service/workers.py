"""Multiprocess shard workers: lock tables that escape the GIL.

``repro-serve --workers K`` partitions the N shard tables across K
worker *processes* instead of K objects on the router's event loop.
Each worker owns the shards ``{s : s % K == worker_index}`` as plain
:class:`~repro.locking.lock_table.LockTable` instances keyed by dense
interned resource ids, and runs a synchronous request/response loop over
a ``multiprocessing.Pipe``: grant scans, conversion lattice work and
queue processing all happen off the router's interpreter.

The router keeps the brains:

* :class:`WorkerProxyManager` implements the ``LockManager`` call
  surface the server, the transaction manager and the lock trace expect
  (``acquire`` / ``acquire_many`` / ``release`` / ``release_all`` /
  ``cancel`` / ``on_wake`` / ``table`` / ``detector``), translating
  resources to rids and driving the owning worker over its pipe.  Every
  RPC is strictly blocking request/response — the asyncio server calls
  the proxy through ``run_in_executor``, so worker round-trips never
  stall the event loop;
* the **interner snapshot** is shipped to each worker at fork and
  extended append-only over the same pipe (an ``extend`` control message
  precedes any rid the worker has not seen), mirroring the router
  interner's growth;
* **cross-shard deadlock detection** runs in the router: workers dump
  serialized waits-for edges (transaction *names* — the only identity
  that crosses the process boundary) and the stock
  :class:`~repro.locking.deadlock.DeadlockDetector` finds cycles over
  the union graph, memoized on the summed per-shard versions exactly as
  in-process sharding does.

Semantics are bit-identical to :class:`ShardedLockManager` by
construction: workers run the *real* ``LockTable`` code (``request_many``
with covered-pair pruning, ``_release_resource`` in the router's global
first-grant order, FIFO queues and the conversion lattice), and the wire
differential certifies identical lock traces on every check workload.

Wake notifications need no extra channel: workers are passive, so every
grant of a queued request happens inside some release/cancel RPC and
rides back on that RPC's reply.
"""

from __future__ import annotations

import multiprocessing
import threading
from typing import Dict, List, Optional, Tuple

from repro.errors import LockConflictError, LockError
from repro.locking.deadlock import DeadlockDetector
from repro.locking.lock_table import LockTable, RequestStatus
from repro.locking.modes import MODES_BY_CODE, LockMode, covers
from repro.nf2.surrogate import ResourceInterner


class WorkerError(RuntimeError):
    """A worker process reported an unexpected failure."""


class _WorkerTxn:
    """Worker-side transaction token: identity is the router-given name."""

    __slots__ = ("name", "long")

    def __init__(self, name: str, long: bool = False):
        self.name = name
        self.long = long

    def __repr__(self):
        return "WorkerTxn(%s)" % self.name


# -- the worker process -------------------------------------------------------


def _worker_main(conn, worker_index: int, n_shards: int, n_workers: int,
                 snapshot):
    """Run one worker: owned shard tables behind a sync message loop."""
    tables: Dict[int, LockTable] = {
        shard: LockTable()
        for shard in range(n_shards)
        if shard % n_workers == worker_index
    }
    paths: Dict[int, str] = dict(snapshot)  # the interner snapshot at fork
    txns: Dict[str, _WorkerTxn] = {}
    waiting: Dict[Tuple[str, int], object] = {}

    def txn_of(name: str, long: bool = False) -> _WorkerTxn:
        txn = txns.get(name)
        if txn is None:
            txn = txns[name] = _WorkerTxn(name, long)
        return txn

    def table_of(rid: int) -> LockTable:
        return tables[rid % n_shards]

    def woken_out(woken) -> List[Tuple[str, int, int, int]]:
        out = []
        for request in woken:
            waiting.pop((request.txn.name, request.resource), None)
            held = table_of(request.resource).held_mode(
                request.txn, request.resource
            )
            out.append(
                (
                    request.txn.name,
                    request.resource,
                    request.target_mode.code,
                    held.code if held is not None else -1,
                )
            )
        return out

    def result_out(request) -> Tuple[int, int, int, int, int]:
        rid = request.resource
        held = table_of(rid).held_mode(request.txn, rid)
        if not request.granted:
            waiting[(request.txn.name, rid)] = request
        return (
            rid,
            request.mode.code,
            request.target_mode.code,
            1 if request.granted else 0,
            held.code if held is not None else -1,
        )

    def held_snapshot(txn) -> List[Tuple[int, int]]:
        out = []
        for table in tables.values():
            modes = table._txn_modes.get(txn)
            if modes:
                out.extend((rid, mode.code) for rid, mode in modes.items())
        return out

    def run_steps(txn, steps, long: bool, wait: bool):
        """Mirror of ShardedLockManager.acquire_many over owned tables:
        maximal consecutive same-shard runs, stop on a WAITING tail."""
        out = []
        run: List[Tuple[int, LockMode]] = []
        run_shard = -1
        blocked = False
        for rid, code in steps:
            shard = rid % n_shards
            if shard != run_shard and run:
                granted = tables[run_shard].request_many(
                    txn, run, long=long, wait=wait
                )
                out.extend(granted)
                run = []
                if granted and not granted[-1].granted:
                    blocked = True
                    break
            run_shard = shard
            run.append((rid, MODES_BY_CODE[code]))
        if run and not blocked:
            out.extend(
                tables[run_shard].request_many(txn, run, long=long, wait=wait)
            )
        return out

    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        op = msg[0]
        try:
            if op == "run" or op == "acquire":
                _, name, long, wait, steps = msg
                txn = txn_of(name, long)
                try:
                    requests = run_steps(txn, steps, long, wait)
                except LockConflictError as exc:
                    # wait=False: the prefix granted inside the raising
                    # request_many is lost to the caller (exactly as on
                    # the in-process sharded manager) but *held* in the
                    # table — ship a held-mode snapshot so the router's
                    # mirror stays table-truth for plan pruning.
                    reply = (
                        "conflict",
                        exc.resource,
                        exc.requested.code if exc.requested else -1,
                        held_snapshot(txn),
                    )
                else:
                    reply = ("ok", [result_out(r) for r in requests])
            elif op == "release":
                _, name, rid = msg
                txn = txn_of(name)
                try:
                    woken = table_of(rid).release(txn, rid)
                except LockError as exc:
                    reply = ("exc", "LockError", str(exc))
                else:
                    held = table_of(rid).held_mode(txn, rid)
                    reply = (
                        "ok",
                        held.code if held is not None else -1,
                        woken_out(woken),
                    )
            elif op == "release_run":
                _, name, keep_long, rids = msg
                txn = txn_of(name)
                per_resource = []
                for rid in rids:
                    woken = table_of(rid)._release_resource(
                        txn, rid, keep_long
                    )
                    held = table_of(rid).held_mode(txn, rid)
                    per_resource.append(
                        (
                            rid,
                            held.code if held is not None else -1,
                            woken_out(woken),
                        )
                    )
                reply = ("ok", per_resource)
            elif op == "cleanup":
                _, name = msg
                txn = txns.pop(name, None)
                if txn is not None:
                    for table in tables.values():
                        table._txn_resources.pop(txn, None)
                        table._summary_clear(txn)
                reply = ("ok",)
            elif op == "cancel":
                _, name, rid = msg
                request = waiting.get((name, rid))
                if request is None:
                    reply = ("ok", "missing", -1, [])
                elif request.granted:
                    waiting.pop((name, rid), None)
                    reply = ("ok", "granted", -1, [])
                else:
                    woken = table_of(rid).cancel(request)
                    waiting.pop((name, rid), None)
                    reply = ("ok", "cancelled", -1, woken_out(woken))
            elif op == "edges":
                edges = []
                version = 0
                for shard in sorted(tables):
                    table = tables[shard]
                    version += table.wait_graph_version
                    edges.extend(
                        (waiter.name, holder.name)
                        for waiter, holder in table.waits_for_edges()
                    )
                reply = ("ok", edges, version)
            elif op == "counters":
                counters = {
                    "requests": 0,
                    "immediate_grants": 0,
                    "waits": 0,
                    "conflict_tests": 0,
                    "max_entries": 0,
                    "summary_rebuilds": 0,
                    "lock_count": 0,
                }
                for table in tables.values():
                    counters["requests"] += table.requests
                    counters["immediate_grants"] += table.immediate_grants
                    counters["waits"] += table.waits
                    counters["conflict_tests"] += table.conflict_tests
                    counters["max_entries"] += table.max_entries
                    counters["summary_rebuilds"] += table.summary_rebuilds
                    counters["lock_count"] += table.lock_count()
                reply = ("ok", counters)
            elif op == "reset":
                for table in tables.values():
                    table.requests = 0
                    table.immediate_grants = 0
                    table.waits = 0
                    table.conflict_tests = 0
                    table.max_entries = 0
                    table.summary_rebuilds = 0
                reply = ("ok",)
            elif op == "locked":
                rids: List[int] = []
                for shard in sorted(tables):
                    rids.extend(tables[shard].locked_resources())
                reply = ("ok", rids)
            elif op == "extend":
                _, items = msg
                paths.update(items)  # append-only: rids never remap
                reply = ("ok",)
            elif op == "ping":
                reply = ("ok", worker_index, sorted(tables), len(paths))
            elif op == "stop":
                conn.send(("ok",))
                break
            else:
                reply = ("error", "unknown worker op %r" % (op,))
        except Exception as exc:  # never kill the loop on a handler bug
            reply = ("error", "%s: %s" % (type(exc).__name__, exc))
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    conn.close()


# -- the router-side pool and proxy ------------------------------------------


class WorkerPool:
    """K worker processes, one blocking pipe (plus send lock) each."""

    def __init__(self, n_shards: int, n_workers: int, snapshot=()):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_shards = n_shards
        self.n_workers = n_workers
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        snapshot = list(snapshot)
        self._conns = []
        self._locks = []
        self._procs = []
        for index in range(n_workers):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(child, index, n_shards, n_workers, snapshot),
                name="repro-lock-worker-%d" % index,
                daemon=True,
            )
            proc.start()
            child.close()
            self._conns.append(parent)
            self._locks.append(threading.Lock())
            self._procs.append(proc)
        self.snapshot_len = len(snapshot)

    def worker_of(self, shard: int) -> int:
        return shard % self.n_workers

    def call(self, worker: int, msg: tuple) -> tuple:
        with self._locks[worker]:
            conn = self._conns[worker]
            conn.send(msg)
            reply = conn.recv()
        if reply[0] == "error":
            raise WorkerError(reply[1])
        return reply

    def stop(self):
        for worker, proc in enumerate(self._procs):
            try:
                self.call(worker, ("stop",))
            except (WorkerError, BrokenPipeError, EOFError, OSError):
                pass
            self._conns[worker].close()
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=2.0)


class ProxyLockRequest:
    """Router-side stand-in for a worker's :class:`LockRequest`."""

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

    def __init__(self, txn, resource, mode, target_mode, long, granted):
        self.txn = txn
        self.resource = resource
        self.mode = mode
        self.target_mode = target_mode
        self.status = (
            RequestStatus.GRANTED if granted else RequestStatus.WAITING
        )
        self.long = long
        self.is_conversion = False
        self.enqueued_at = None

    @property
    def granted(self) -> bool:
        return self.status == RequestStatus.GRANTED

    def __repr__(self):
        return "ProxyLockRequest(txn=%r, resource=%r, mode=%s, status=%s)" % (
            self.txn,
            self.resource,
            self.target_mode,
            self.status,
        )


class _ProxyTable:
    """``manager.table`` facade over the worker fleet.

    Held-mode questions (``holds_at_least`` — the plan filter and the
    trace replay prune on it) come from the router's mirror, which is
    table-truth: every grant crosses the pipe in some RPC reply.  The
    waits-for union graph is fetched live from the workers' serialized
    edge dumps; transaction names map back to router transactions.
    """

    def __init__(self, proxy: "WorkerProxyManager"):
        self._proxy = proxy
        self.fault_injector = None  # workers run without lock-point faults

    def holds_at_least(self, txn, resource, mode: LockMode) -> bool:
        held = self._proxy._held.get(txn, {}).get(resource)
        return held is not None and covers(held, mode)

    def held_mode(self, txn, resource) -> Optional[LockMode]:
        return self._proxy._held.get(txn, {}).get(resource)

    def resources_of(self, txn):
        return set(self._proxy._held.get(txn, ()))

    def locked_resources(self) -> List[object]:
        proxy = self._proxy
        out: List[object] = []
        for worker in range(proxy.pool.n_workers):
            (rids,) = proxy.pool.call(worker, ("locked",))[1:]
            out.extend(proxy.router.resource_of(rid) for rid in rids)
        return out

    def lock_count(self) -> int:
        return sum(
            counters["lock_count"] for counters in self._proxy._counters()
        )

    def waiting_requests(self) -> List[ProxyLockRequest]:
        return [
            request
            for request in self._proxy._waiting.values()
            if request.status == RequestStatus.WAITING
        ]

    def waiting_requests_of(self, txn) -> List[ProxyLockRequest]:
        name = getattr(txn, "name", txn)
        return [
            request
            for (owner, _), request in self._proxy._waiting.items()
            if owner == name and request.status == RequestStatus.WAITING
        ]

    @property
    def wait_graph_version(self) -> int:
        return self._proxy._edge_dump()[1]

    def waits_for_edges(self) -> List[Tuple[object, object]]:
        proxy = self._proxy
        edges = []
        for waiter_name, holder_name in proxy._edge_dump()[0]:
            waiter = proxy._txns_by_name.get(waiter_name)
            holder = proxy._txns_by_name.get(holder_name)
            if waiter is not None and holder is not None:
                edges.append((waiter, holder))
        return edges


class WorkerProxyManager:
    """The ``LockManager`` surface, served by worker processes.

    Drop-in for :class:`~repro.service.sharded.ShardedLockManager` from
    the :class:`~repro.service.server.LockServer`'s point of view — but
    every method is *blocking* (pipe round-trips), so the server invokes
    it through ``run_in_executor``.  A single re-entrant mutex serializes
    router-side bookkeeping (the held-mode mirror, the grant-order index,
    the waiting registry); per-worker pipe locks serialize the transport.
    """

    def __init__(self, pool: WorkerPool, router: Optional[ResourceInterner] = None,
                 age_of=None):
        self.pool = pool
        self.router = router if router is not None else ResourceInterner()
        self.n_shards = pool.n_shards
        self.n_workers = pool.n_workers
        self.use_dense_path = False
        self.table = _ProxyTable(self)
        self.detector = DeadlockDetector(self.table, age_of=age_of)
        self.on_wake = None
        self._mutex = threading.RLock()
        #: txn -> {resource: LockMode}: mirror of worker-side held modes
        self._held: Dict[object, Dict[object, LockMode]] = {}
        #: txn -> {resource: None}: global first-grant order (EOT walk)
        self._txn_order: Dict[object, Dict[object, None]] = {}
        #: (txn name, resource) -> parked ProxyLockRequest
        self._waiting: Dict[Tuple[str, object], ProxyLockRequest] = {}
        self._txns_by_name: Dict[str, object] = {}
        #: per-worker count of interner entries already shipped
        self._shipped = [pool.snapshot_len] * pool.n_workers

    # -- routing and interner shipping ---------------------------------------

    def shard_of(self, resource) -> int:
        return self.router.intern(resource) % self.n_shards

    def _worker_of_rid(self, rid: int) -> int:
        return (rid % self.n_shards) % self.n_workers

    def _ship(self, worker: int):
        """Extend the worker's interner snapshot append-only."""
        have = self._shipped[worker]
        total = len(self.router)
        if have >= total:
            return
        items = [
            (
                rid,
                "/".join(str(p) for p in self.router.resource_of(rid)),
            )
            for rid in range(have, total)
        ]
        self.pool.call(worker, ("extend", items))
        self._shipped[worker] = total

    def _call(self, worker: int, msg: tuple) -> tuple:
        self._ship(worker)
        return self.pool.call(worker, msg)

    def set_age_of(self, age_of) -> "WorkerProxyManager":
        self.detector.set_age_of(age_of)
        return self

    # -- bookkeeping mirrors (same rules as ShardedLockManager) ---------------

    def _note_granted(self, txn, resource, held_mode: LockMode):
        self._held.setdefault(txn, {})[resource] = held_mode
        self._txn_order.setdefault(txn, {})[resource] = None

    def _note_released(self, txn, resource):
        held = self._held.get(txn)
        if held is not None:
            held.pop(resource, None)
            if not held:
                del self._held[txn]
        order = self._txn_order.get(txn)
        if order is not None:
            order.pop(resource, None)
            if not order:
                del self._txn_order[txn]

    def _register(self, txn):
        self._txns_by_name[txn.name] = txn

    def _adopt_results(self, txn, results, long: bool) -> List[ProxyLockRequest]:
        out = []
        for rid, mode_code, target_code, granted, held_code in results:
            resource = self.router.resource_of(rid)
            request = ProxyLockRequest(
                txn,
                resource,
                MODES_BY_CODE[mode_code],
                MODES_BY_CODE[target_code],
                long,
                bool(granted),
            )
            if granted:
                self._note_granted(txn, resource, MODES_BY_CODE[held_code])
            else:
                self._waiting[(txn.name, resource)] = request
            out.append(request)
        return out

    def _adopt_woken(self, items) -> List[ProxyLockRequest]:
        """Turn a reply's wake list into granted proxy requests (no
        ``on_wake`` here — callers fire it once per manager operation)."""
        out = []
        for name, rid, target_code, held_code in items:
            resource = self.router.resource_of(rid)
            txn = self._txns_by_name.get(name)
            request = self._waiting.pop((name, resource), None)
            if request is None:  # pragma: no cover - wake without a park
                request = ProxyLockRequest(
                    txn, resource, MODES_BY_CODE[target_code],
                    MODES_BY_CODE[target_code], False, True,
                )
            request.status = RequestStatus.GRANTED
            request.target_mode = MODES_BY_CODE[target_code]
            if txn is not None:
                self._note_granted(txn, resource, MODES_BY_CODE[held_code])
            out.append(request)
        return out

    def _fire_wake(self, woken: List[ProxyLockRequest]):
        if woken and self.on_wake is not None:
            self.on_wake(woken)

    def _raise_conflict(self, txn, reply, requested: Optional[LockMode]):
        _, rid, requested_code, snapshot = reply
        # true up the mirror: the conflicting call's granted prefix is
        # held in the table even though no result row reported it
        for held_rid, held_code in snapshot:
            resource = self.router.resource_of(held_rid)
            self._held.setdefault(txn, {})[resource] = MODES_BY_CODE[held_code]
        resource = self.router.resource_of(rid) if rid is not None else None
        mode = (
            MODES_BY_CODE[requested_code]
            if requested_code >= 0
            else requested
        )
        raise LockConflictError(
            "lock %s on %r denied for %r" % (mode, resource, txn),
            resource=resource,
            requested=mode,
        )

    # -- the LockManager surface ----------------------------------------------

    def acquire(self, txn, resource, mode: LockMode, long: bool = False,
                wait: bool = True) -> ProxyLockRequest:
        with self._mutex:
            self._register(txn)
            rid = self.router.intern(resource)
            worker = self._worker_of_rid(rid)
            reply = self._call(
                worker, ("acquire", txn.name, long, wait, [(rid, mode.code)])
            )
            if reply[0] == "conflict":
                self._raise_conflict(txn, reply, mode)
            results = self._adopt_results(txn, reply[1], long)
            if not results:
                # covered by an already-held mode: synthesize the granted
                # request the in-process manager's caller would never see
                # either — acquire() on a covered resource still submits
                # (no pruning on the single-step path), so this only
                # happens for a re-request, which the table grants
                raise WorkerError(
                    "worker pruned a single acquire of %r" % (resource,)
                )
            return results[0]

    def acquire_many(self, txn, steps, long: bool = False,
                     wait: bool = True) -> List[ProxyLockRequest]:
        with self._mutex:
            self._register(txn)
            out: List[ProxyLockRequest] = []
            run: List[Tuple[int, int]] = []
            run_worker = -1
            blocked = False
            for resource, mode in steps:
                rid = self.router.intern(resource)
                worker = self._worker_of_rid(rid)
                if worker != run_worker and run:
                    reply = self._call(
                        run_worker, ("run", txn.name, long, wait, run)
                    )
                    if reply[0] == "conflict":
                        self._raise_conflict(txn, reply, None)
                    granted = self._adopt_results(txn, reply[1], long)
                    out.extend(granted)
                    run = []
                    if granted and not granted[-1].granted:
                        blocked = True
                        break
                run_worker = worker
                run.append((rid, mode.code))
            if run and not blocked:
                reply = self._call(
                    run_worker, ("run", txn.name, long, wait, run)
                )
                if reply[0] == "conflict":
                    self._raise_conflict(txn, reply, None)
                out.extend(self._adopt_results(txn, reply[1], long))
            return out

    def release(self, txn, resource) -> List[ProxyLockRequest]:
        with self._mutex:
            self._register(txn)
            rid = self.router.intern(resource)
            reply = self._call(
                self._worker_of_rid(rid), ("release", txn.name, rid)
            )
            if reply[0] == "exc":
                raise LockError(reply[2])
            held_code, woken_items = reply[1], reply[2]
            if held_code < 0:
                self._note_released(txn, resource)
            else:
                self._held.setdefault(txn, {})[resource] = MODES_BY_CODE[
                    held_code
                ]
            woken = self._adopt_woken(woken_items)
            self._fire_wake(woken)
            return woken

    def release_all(self, txn, keep_long: bool = False) -> List[ProxyLockRequest]:
        with self._mutex:
            self._register(txn)
            resources = list(self._txn_order.get(txn, ()))
            touched = set(resources)
            for (name, resource), request in list(self._waiting.items()):
                if name == txn.name and resource not in touched:
                    touched.add(resource)
                    resources.append(resource)
            woken: List[ProxyLockRequest] = []
            held_after: Dict[object, int] = {}
            index = 0
            # maximal consecutive same-worker runs of the global
            # first-grant order: wake order inside a run is the worker's
            # sequential release order, runs are dispatched in order, so
            # the global wake order matches the single table's
            while index < len(resources):
                rid = self.router.intern(resources[index])
                worker = self._worker_of_rid(rid)
                run_rids = [rid]
                stop = index + 1
                while stop < len(resources):
                    next_rid = self.router.intern(resources[stop])
                    if self._worker_of_rid(next_rid) != worker:
                        break
                    run_rids.append(next_rid)
                    stop += 1
                reply = self._call(
                    worker, ("release_run", txn.name, keep_long, run_rids)
                )
                for rid, held_code, woken_items in reply[1]:
                    held_after[self.router.resource_of(rid)] = held_code
                    woken.extend(self._adopt_woken(woken_items))
                index = stop
            # the victim's own parked requests were cancelled inside
            # _release_resource on the worker; retire them here too
            for key in [
                key for key in self._waiting if key[0] == txn.name
            ]:
                request = self._waiting.pop(key)
                if not request.granted:
                    request.status = RequestStatus.CANCELLED
            if not keep_long:
                for worker in range(self.n_workers):
                    self._call(worker, ("cleanup", txn.name))
                self._txn_order.pop(txn, None)
                self._held.pop(txn, None)
            else:
                held = self._held.get(txn, {})
                order = self._txn_order.get(txn)
                for resource in resources:
                    code = held_after.get(resource, -1)
                    if code < 0:
                        held.pop(resource, None)
                        if order is not None:
                            order.pop(resource, None)
                    else:
                        held[resource] = MODES_BY_CODE[code]
                if order is not None and not order:
                    del self._txn_order[txn]
                if not held:
                    self._held.pop(txn, None)
            self._fire_wake(woken)
            return woken

    def cancel(self, request: ProxyLockRequest) -> List[ProxyLockRequest]:
        with self._mutex:
            txn = request.txn
            rid = self.router.intern(request.resource)
            reply = self._call(
                self._worker_of_rid(rid), ("cancel", txn.name, rid)
            )
            state, woken_items = reply[1], reply[3]
            if state == "cancelled":
                request.status = RequestStatus.CANCELLED
                self._waiting.pop((txn.name, request.resource), None)
            woken = self._adopt_woken(woken_items)
            self._fire_wake(woken)
            return woken

    # -- inspection ----------------------------------------------------------

    def holders(self, resource) -> Dict[object, LockMode]:
        out: Dict[object, LockMode] = {}
        for txn, held in self._held.items():
            mode = held.get(resource)
            if mode is not None:
                out[txn] = mode
        return out

    def held_mode(self, txn, resource) -> Optional[LockMode]:
        return self.table.held_mode(txn, resource)

    def holds_at_least(self, txn, resource, mode: LockMode) -> bool:
        return self.table.holds_at_least(txn, resource, mode)

    def locks_of(self, txn) -> Dict[object, LockMode]:
        return dict(self._held.get(txn, {}))

    def lock_count(self) -> int:
        with self._mutex:
            return self.table.lock_count()

    # -- deadlock handling ----------------------------------------------------

    def _edge_dump(self) -> Tuple[List[Tuple[str, str]], int]:
        edges: List[Tuple[str, str]] = []
        version = 0
        for worker in range(self.n_workers):
            reply = self._call(worker, ("edges",))
            edges.extend(reply[1])
            version += reply[2]
        return edges, version

    def detect_deadlock(self):
        with self._mutex:
            return self.detector.check()

    def resolve_deadlocks(self, abort_callback):
        victims = []
        while True:
            cycle = self.detect_deadlock()
            if cycle is None:
                return victims
            victim = self.detector.pick_victim(cycle)
            victims.append(victim)
            abort_callback(victim)

    # -- metrics --------------------------------------------------------------

    def _counters(self) -> List[Dict[str, int]]:
        return [
            self._call(worker, ("counters",))[1]
            for worker in range(self.n_workers)
        ]

    def metrics(self) -> Dict[str, int]:
        with self._mutex:
            totals = {
                "requests": 0,
                "immediate_grants": 0,
                "waits": 0,
                "conflict_tests": 0,
                "max_entries": 0,
                "summary_rebuilds": 0,
            }
            for counters in self._counters():
                for key in totals:
                    totals[key] += counters[key]
            totals["deadlocks"] = self.detector.deadlocks_found
            totals["shards"] = self.n_shards
            totals["workers"] = self.n_workers
            return totals

    def reset_metrics(self):
        with self._mutex:
            for worker in range(self.n_workers):
                self._call(worker, ("reset",))
            self.detector.reset_metrics()

    def stop(self):
        self.pool.stop()
