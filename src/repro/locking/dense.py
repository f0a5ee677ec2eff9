"""The dense-ID fast path of the lock table.

:class:`DenseLockTable` is a drop-in :class:`~repro.locking.lock_table.
LockTable` whose hot loops run on dense integers instead of objects:

* every locked resource is interned to a small int by a
  :class:`~repro.nf2.surrogate.ResourceInterner` at registration time
  (entry creation / first summary write);
* the per-transaction held-mode summary is mirrored as ``_txn_codes``
  (txn -> {resource-id: mode code}), so batched pruning and compiled-plan
  filtering are int-dict probes plus one flat ``bytes`` subscript — no
  tuple hashing, no enum members;
* ``_HeldLock`` and resource-entry records are pooled on a freelist
  (``pool_records``) to kill the per-request allocation churn;
* the int kernels live in :mod:`repro.locking._densecore`.

Everything observable — grants, queue order, wake order, counters, the
waits-for graph, fault-injection points — is bit-identical to the object
path: the object-keyed ``_entries`` / ``_txn_modes`` / ``_txn_waiting``
structures are inherited and stay authoritative (the verifier and the
fault harness introspect them), the dense structures are maintained in
lockstep through the summary hooks, and ``repro-check differential``
replays lock traces across the ``use_dense_path`` flag to prove it.

Waiting :class:`LockRequest` records are deliberately *not* pooled: the
simulator and the threaded manager hold references to WAITING requests
across arbitrary code, so recycling them would alias live objects.  The
allocation win comes from the pruned fast path (which allocates nothing)
plus the held/entry freelists, whose records never escape the table.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.locking import _densecore as core  # noqa: F401  (re-exported)
from repro.locking.lock_table import (
    GRANTED,
    LockRequest,
    LockTable,
    _HeldLock,
    _ResourceEntry,
)
from repro.locking.modes import (
    COVERS_FLAT,
    MODES_BY_CODE,
    N_MODES,
    LockMode,
)
from repro.nf2.surrogate import ResourceInterner

#: freelist bound: beyond this, retired records go to the allocator
_POOL_MAX = 1024


class DenseSteps:
    """A lock plan as parallel int arrays, addressed through an interner.

    ``rids``/``codes`` are parallel sequences (resource ids and mode
    codes); ``keep`` optionally selects a subsequence by index (the
    per-transaction filter's survivors) without copying the arrays.

    Iteration yields ``(resource, mode)`` pairs, so a :class:`DenseSteps`
    is accepted anywhere a plain step list is — the lock-trace wrapper
    replays it per step and an object-path table consumes it unchanged.
    Only :class:`DenseLockTable.request_many` recognizes the type and
    runs the int pruning loop instead.
    """

    __slots__ = ("rids", "codes", "keep", "interner")

    def __init__(self, rids, codes, interner, keep=None):
        self.rids = rids
        self.codes = codes
        self.interner = interner
        self.keep = range(len(rids)) if keep is None else keep

    def __len__(self):
        return len(self.keep)

    def __iter__(self):
        resource_of = self.interner.resource_of
        rids, codes = self.rids, self.codes
        for i in self.keep:
            yield resource_of(rids[i]), MODES_BY_CODE[codes[i]]

    def __repr__(self):
        return "DenseSteps(%d of %d steps)" % (len(self.keep), len(self.rids))


class DenseLockTable(LockTable):
    """Int-indexed, record-pooling lock table (see module docstring)."""

    def __init__(
        self,
        reader_bypass: bool = False,
        interner: Optional[ResourceInterner] = None,
        pool_records: bool = True,
    ):
        super().__init__(reader_bypass=reader_bypass)
        self.interner = interner if interner is not None else ResourceInterner()
        #: dense twin of ``_txn_modes``: txn -> {resource-id: mode code}
        self._txn_codes: Dict[object, Dict[int, int]] = {}
        #: ablation switch for the freelists (benchmarked separately)
        self.pool_records = pool_records
        self._held_pool: List[_HeldLock] = []
        self._entry_pool: List[_ResourceEntry] = []

    # -- dense accessors -----------------------------------------------------

    def dense_summary(self, txn) -> Optional[Dict[int, int]]:
        """The int-keyed held-mode summary of ``txn`` (None if empty)."""
        return self._txn_codes.get(txn)

    # -- allocation hooks: interning + freelists -----------------------------

    def _new_entry(self, resource) -> _ResourceEntry:
        self.interner.intern(resource)
        if self._entry_pool:
            return self._entry_pool.pop()
        return _ResourceEntry()

    def _retire_entry(self, resource, entry: _ResourceEntry):
        if self.pool_records and len(self._entry_pool) < _POOL_MAX:
            entry.waits_cache = None
            self._entry_pool.append(entry)

    def _new_held(self, mode: LockMode, long: bool) -> _HeldLock:
        if self._held_pool:
            held = self._held_pool.pop()
            held.modes.append(mode)
            held.mode = mode
            held.code = mode.code
            held.long = long
            return held
        return _HeldLock(mode, long)

    def _retire_held(self, held: _HeldLock):
        if self.pool_records and len(self._held_pool) < _POOL_MAX:
            # a dropped grant is retired as it stood; scrub before reuse
            held.modes.clear()
            held.mode = None
            held.code = -1
            held.long = False
            self._held_pool.append(held)

    # -- summary hooks: mirror writes into the int summary -------------------

    def _summary_set(self, txn, resource, mode: LockMode):
        super()._summary_set(txn, resource, mode)
        rid = self.interner.intern(resource)
        self._txn_codes.setdefault(txn, {})[rid] = mode.code

    def _summary_drop(self, txn, resource):
        super()._summary_drop(txn, resource)
        codes = self._txn_codes.get(txn)
        if codes is not None:
            rid = self.interner.id_of(resource)
            if rid is not None:
                codes.pop(rid, None)
            if not codes:
                del self._txn_codes[txn]

    def _summary_clear(self, txn):
        super()._summary_clear(txn)
        self._txn_codes.pop(txn, None)

    # -- the dense batched pass ----------------------------------------------

    def request_many(
        self, txn, steps, long: bool = False, wait: bool = True
    ) -> List[LockRequest]:
        if not isinstance(steps, DenseSteps):
            return super().request_many(txn, steps, long=long, wait=wait)
        out: List[LockRequest] = []
        rids, codes = steps.rids, steps.codes
        resource_of = steps.interner.resource_of
        covers = COVERS_FLAT
        held = self._txn_codes.get(txn)
        stamp = self.summary_version
        for i in steps.keep:
            if stamp != self.summary_version:
                held = self._txn_codes.get(txn)
                stamp = self.summary_version
                self.summary_rebuilds += 1
            rid = rids[i]
            code = codes[i]
            if held is not None:
                held_code = held.get(rid, -1)
                if held_code >= 0 and covers[held_code * N_MODES + code]:
                    continue  # covered: pruned without touching counters
            self.requests += 1
            resource = resource_of(rid)
            request = self._submit(
                self._entries.get(resource),
                txn,
                resource,
                MODES_BY_CODE[code],
                long,
                wait,
            )
            out.append(request)
            if request.status is not GRANTED:
                break
        return out
