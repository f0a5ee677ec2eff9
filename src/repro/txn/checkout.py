"""Check-out / check-in for workstation–server environments.

Section 1: "different users or user groups may check-out complex objects
of a central database onto workstations.  Data which are checked out can
be regarded (at least temporarily) as private, local databases.  A
check-in ... may be done for data which have been changed."

Long locks protect checked-out data; "in contrast to traditional short
locks, long locks must survive system shutdowns and system crashes"
(section 3.1).  The simplification of section 3.1 is adopted: long locks
use the ordinary IS/IX/S/X modes, flagged persistent.

:class:`CheckoutManager` implements the cycle:

* ``check_out`` — lock the requested granules *long* under the paper's
  protocol (so common data of a checked-out object is handled by
  downward propagation / rule 4'), snapshot the object into the
  workstation's private store;
* local edits happen on the private copy, offline;
* ``check_in`` — replay the private copy into the central database and
  release the long locks;
* ``cancel_checkout`` — drop the copy and the locks without writing;
* ``simulate_crash_and_restart`` — persist the long-lock dump, rebuild
  the lock manager, restore: long locks survive, short locks do not.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Tuple

from repro.errors import CheckoutError
from repro.graphs.units import component_resource, object_resource
from repro.locking.modes import S, X, LockMode
from repro.nf2.paths import parse_path
from repro.nf2.values import ComplexObject


class Workstation:
    """A private, local database: snapshots of checked-out objects."""

    def __init__(self, name: str, principal=None):
        self.name = name
        self.principal = principal if principal is not None else name
        self._store: Dict[Tuple[str, object], ComplexObject] = {}

    def holds(self, relation_name: str, key) -> bool:
        return (relation_name, key) in self._store

    def copy_of(self, relation_name: str, key) -> ComplexObject:
        try:
            return self._store[(relation_name, key)]
        except KeyError:
            raise CheckoutError(
                "workstation %r holds no copy of %s[%r]"
                % (self.name, relation_name, key)
            )

    def store(self, obj: ComplexObject):
        self._store[(obj.relation, obj.key)] = obj

    def drop(self, relation_name: str, key):
        self._store.pop((relation_name, key), None)

    def inventory(self) -> List[Tuple[str, object]]:
        return sorted(self._store, key=repr)

    def __repr__(self):
        return "Workstation(%r, %d objects)" % (self.name, len(self._store))


class CheckoutRecord:
    """Bookkeeping for one checked-out object."""

    __slots__ = ("workstation", "relation", "key", "mode", "txn", "resources")

    def __init__(self, workstation, relation, key, mode, txn, resources):
        self.workstation = workstation
        self.relation = relation
        self.key = key
        self.mode = mode
        self.txn = txn
        self.resources = resources


class CheckoutManager:
    """Coordinates check-out/check-in against the central database."""

    def __init__(self, txn_manager):
        self.txn_manager = txn_manager
        self.protocol = txn_manager.protocol
        self.catalog = txn_manager.catalog
        self.database = txn_manager.database
        self._records: Dict[Tuple[str, str, object], CheckoutRecord] = {}
        #: persisted long-lock dump written by simulate_crash_and_restart
        self.persisted_locks: List[tuple] = []

    # -- check-out ---------------------------------------------------------------

    def check_out(
        self,
        workstation: Workstation,
        relation_name: str,
        key,
        mode: LockMode = X,
        component: Optional[str] = None,
        wait: bool = False,
    ) -> ComplexObject:
        """Check an object (or one component subtree) out to a workstation.

        ``mode=X`` is the usual "for update" check-out; ``mode=S`` fetches
        a read-only copy that still blocks concurrent writers for the
        duration.  The demand runs under the active protocol with *long*
        locks, so shared common data receives exactly the treatment of
        rules 3/4/4'.
        """
        if mode not in (S, X):
            raise CheckoutError("check-out mode must be S or X, not %s" % mode)
        record_key = (workstation.name, relation_name, key)
        if record_key in self._records:
            raise CheckoutError(
                "%s[%r] is already checked out by workstation %r"
                % (relation_name, key, workstation.name)
            )
        txn = self.txn_manager.begin(
            principal=workstation.principal,
            long=True,
            name="checkout-%s-%s" % (workstation.name, key),
        )
        resource = object_resource(self.catalog, relation_name, key)
        if component is not None:
            steps = parse_path(component)
            resource = component_resource(resource, steps)
        try:
            granted = self.protocol.request(txn, resource, mode, wait=wait, long=True)
        except Exception:
            self.txn_manager.abort(txn)
            raise
        obj = self.database.get(relation_name, key)
        snapshot = obj.snapshot()
        workstation.store(snapshot)
        resources = [request.resource for request in granted]
        self._records[record_key] = CheckoutRecord(
            workstation.name, relation_name, key, mode, txn, resources
        )
        # The enclosing (short) transaction part is finished; the long
        # locks remain with the record's transaction until check-in.
        return snapshot

    # -- check-in -----------------------------------------------------------------

    def check_in(self, workstation: Workstation, relation_name: str, key):
        """Write the workstation's (possibly modified) copy back and unlock."""
        record = self._record(workstation, relation_name, key)
        if record.mode is not X:
            raise CheckoutError(
                "%s[%r] was checked out read-only; use cancel_checkout"
                % (relation_name, key)
            )
        local = workstation.copy_of(relation_name, key)
        relation = self.database.relation(relation_name)
        stored = relation.get(key)
        relation.replace(
            ComplexObject(relation_name, stored.surrogate, stored.key, copy.deepcopy(local.root))
        )
        self._finish(record, workstation)

    def cancel_checkout(self, workstation: Workstation, relation_name: str, key):
        """Drop the private copy without writing back; release long locks."""
        record = self._record(workstation, relation_name, key)
        self._finish(record, workstation)

    def _record(self, workstation, relation_name, key) -> CheckoutRecord:
        record_key = (workstation.name, relation_name, key)
        record = self._records.get(record_key)
        if record is None:
            raise CheckoutError(
                "no check-out of %s[%r] by workstation %r on record"
                % (relation_name, key, workstation.name)
            )
        return record

    def _finish(self, record: CheckoutRecord, workstation: Workstation):
        self.protocol.manager.release_all(record.txn, keep_long=False)
        self.txn_manager._drop(record.txn)
        workstation.drop(record.relation, record.key)
        del self._records[(record.workstation, record.relation, record.key)]

    # -- crash survival --------------------------------------------------------------

    def simulate_crash_and_restart(self):
        """Crash the server: short locks vanish, long locks are restored.

        Dumps long locks from the lock table, swaps in a fresh table (the
        crash), restores the dump, and re-associates the check-out
        records' transactions.  Active short transactions are aborted
        with data rollback first (crash recovery).
        """
        for txn in list(self.txn_manager.active):
            if not txn.long:
                self.txn_manager.abort(txn)
        dump = self.protocol.manager.table.dump_long_locks()
        self.persisted_locks = list(dump)
        from repro.locking.lock_table import LockTable

        self.protocol.manager.table = LockTable()
        self.protocol.manager.detector._lock_table = self.protocol.manager.table
        self.protocol.manager.table.restore_long_locks(dump)
        return len(dump)

    def outstanding(self) -> List[Tuple[str, str, object]]:
        return sorted(self._records, key=repr)

    # -- file-backed persistence ---------------------------------------------------

    def persist_to_file(self, path):
        """Write the long-lock dump to ``path`` as JSON.

        Transactions are identified by name (check-out transactions get a
        deterministic ``checkout-<ws>-<key>`` name), so the dump survives
        process boundaries, not just lock-table swaps.
        """
        import json

        dump = self.protocol.manager.table.dump_long_locks()
        payload = [
            [getattr(txn, "name", str(txn)), list(resource), mode]
            for txn, resource, mode in dump
        ]
        with open(path, "w") as handle:
            json.dump(payload, handle)
        return len(payload)

    def restart_from_file(self, path):
        """Full crash recovery from a JSON dump written by
        :meth:`persist_to_file`.

        Aborts active short transactions (data rollback), replaces the
        lock table, and re-installs each long lock under the check-out
        record's transaction (matched by name; locks of unknown owners are
        restored under their name string so they still block).
        """
        import json

        from repro.locking.lock_table import LockTable
        from repro.locking.modes import LockMode

        for txn in list(self.txn_manager.active):
            if not txn.long:
                self.txn_manager.abort(txn)
        with open(path) as handle:
            payload = json.load(handle)
        manager = self.protocol.manager
        table = LockTable()
        table.sink = manager.table.sink  # an attached trace keeps recording
        manager.table = manager.detector._lock_table = table
        by_name = {record.txn.name: record.txn for record in self._records.values()}
        for name, resource, mode in payload:
            owner = by_name.get(name, name)
            table.request(
                owner, tuple(resource), LockMode(mode), long=True, wait=False
            )
        self.persisted_locks = [tuple(entry) for entry in payload]
        return len(payload)
