"""The transaction manager: locked data operations over a database.

Binds together the database, a lock protocol and the transaction objects.
Every data operation

1. plans and executes the protocol's lock requests (rules 1-5 / 4'),
2. performs the data access,
3. records an undo action for writes,

and all locks are held until ``commit``/``abort`` (strict 2PL ⇒ degree-3
consistency, the paper's assumption in section 1).

The synchronous API uses ``wait=False`` semantics: a conflicting request
raises :class:`~repro.errors.LockConflictError` immediately — suitable for
tests and single-process examples.  Callers that let requests wait (the
schedule oracle and the server) end a transaction that may still be
waiting — a deadlock victim, an orphan of a dropped connection — with
:meth:`TransactionManager.kill`, the one abort path for them.
:mod:`repro.sim` begins, commits and kills its runs through a manager of
its own and keeps only the restart decision.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional

from repro.errors import TransactionError
from repro.graphs.units import component_resource, object_resource, relation_resource
from repro.locking.lock_table import LockRequest
from repro.locking.modes import IX, S, X
from repro.nf2.paths import parse_path
from repro.nf2.values import ComplexObject, ListValue, SetValue, TupleValue
from repro.txn.transaction import Transaction, TxnState


class TransactionManager:
    """Begin/commit/abort plus locked primitive operations."""

    def __init__(self, protocol):
        self.protocol = protocol
        self.catalog = protocol.catalog
        self.database = protocol.catalog.database
        #: live transactions in begin order (a dict as an ordered set:
        #: begin and end are O(1) however many are live)
        self.active: Dict[Transaction, None] = {}
        self.committed = 0
        self.aborted = 0
        #: optional :class:`repro.faults.FaultInjector` (fires the
        #: ``txn.update`` / ``txn.partial-update`` / ``txn.undo`` points)
        self.fault_injector = None

    # -- lifecycle --------------------------------------------------------------

    def begin(
        self,
        principal=None,
        long: bool = False,
        name=None,
        start_ts: Optional[float] = None,
    ) -> Transaction:
        txn = Transaction(principal=principal, long=long, name=name, start_ts=start_ts)
        self.active[txn] = None
        return txn

    def commit(self, txn: Transaction) -> List[LockRequest]:
        """Release and commit; returns the requests the release granted."""
        txn.ensure_active()
        # Rule 5: at EOT locks may be released in any order.  Long locks of
        # a long transaction survive (they belong to the check-out).
        # Release *before* flipping state: if the release raises (an
        # injected fault, a broken lock backend) the transaction is still
        # ACTIVE with its undo log intact, so a clean abort remains
        # possible instead of a "committed" transaction holding locks.
        woken = self.protocol.release_all(txn, keep_long=txn.long)
        txn.forget_undo()
        txn.state = TxnState.COMMITTED
        self._drop(txn)
        self.committed += 1
        return woken

    def abort(self, txn: Transaction) -> List[LockRequest]:
        """Roll back and release; returns the requests the release granted.

        Re-entrant: a fully aborted transaction is a no-op, but a
        *partially* aborted one — an undo closure or the lock release
        raised mid-way — resumes cleanup where the previous attempt
        stopped.  "Fully aborted" asks the lock table too (nothing held,
        nothing waiting), so a transaction that never entered
        :attr:`active` is not mistaken for done after a failed release.
        """
        if (
            txn.state == TxnState.ABORTED
            and txn.undo_depth() == 0
            and txn not in self.active
            and self.protocol.manager.table.owns_nothing(txn)
        ):
            return []
        injector = self.fault_injector
        before_each = None
        if injector is not None:
            before_each = lambda depth: injector.fire(  # noqa: E731
                "txn.undo", txn=txn, depth=depth
            )
        rolled_back = False
        try:
            txn.rollback_data(before_each=before_each)
            rolled_back = True
        finally:
            # Locks are released even when an undo closure raises — a
            # raising undo must not leak the transaction's locks — but
            # the transaction leaves :attr:`active` (where crash recovery
            # finds it) and counts as aborted only once its rollback
            # completed.
            txn.state = TxnState.ABORTED
            woken = self.protocol.release_all(txn, keep_long=False)
            if rolled_back and txn in self.active:
                del self.active[txn]
                self.aborted += 1
        return woken

    def kill(self, txn: Transaction) -> List[LockRequest]:
        """End ``txn`` wherever it stands: cancel every request it still
        waits on, then abort it.

        End as one verb — "unlock all locked resources and clean waiting
        locks".  The cancellations go first, so a deadlock victim's wait
        edges leave the table before anything else can fail.  Then a
        bounded retry: an injected fault can raise during the abort (an
        undo closure, the lock release), and :meth:`abort` is re-entrant —
        each retry resumes cleanup where the previous attempt stopped — so
        three attempts absorb a bounded number of faults without leaking
        locks; the third failure re-raises.  A transaction whose rollback
        never completed then holds no lock but stays in :attr:`active`
        with its undo log, for a later ``kill`` or crash recovery.

        Returns the requests the cancellations granted, then those the
        completing attempt's release granted (grants made by a release
        that then raised are not returned).
        """
        manager = self.protocol.manager
        woken: List[LockRequest] = []
        for request in manager.table.waiting_requests_of(txn):
            woken.extend(manager.cancel(request))
        for attempt in range(3):
            try:
                woken.extend(self.abort(txn))
                break
            except Exception:
                if attempt == 2:
                    raise
        return woken

    def _drop(self, txn):
        self.active.pop(txn, None)

    # -- reads ---------------------------------------------------------------------

    def read_object(self, txn: Transaction, relation_name: str, key, wait=False):
        """S-lock and return a complex object (live reference, do not mutate)."""
        txn.ensure_active()
        resource = object_resource(self.catalog, relation_name, key)
        self.protocol.request(txn, resource, S, wait=wait, long=txn.long)
        obj = self.database.get(relation_name, key)
        txn.read_log.append((resource, repr(obj.root)))
        return obj

    def read_component(
        self, txn: Transaction, relation_name: str, key, path, wait=False
    ):
        """S-lock one component granule and return its value."""
        txn.ensure_active()
        steps = parse_path(path) if isinstance(path, str) else tuple(path)
        obj = self.database.get(relation_name, key)
        obj_res = object_resource(self.catalog, relation_name, key)
        resource = component_resource(obj_res, steps)
        self.protocol.request(txn, resource, S, wait=wait, long=txn.long)
        value = self.database.relation(relation_name).resolve(obj, steps)
        txn.read_log.append((resource, repr(value)))
        return value

    def read_via_reference(self, txn: Transaction, ref, via_resource, wait=False):
        """Follow a reference from an already-locked node (from-the-side read).

        ``via_resource`` names the node holding the reference; under the
        paper's protocol the entry point's lock state is checked/established
        with the referencing node as context.
        """
        txn.ensure_active()
        target = self.database.dereference(ref)
        resource = object_resource(self.catalog, ref.relation, target.key)
        self.protocol.request(txn, resource, S, via=via_resource, wait=wait, long=txn.long)
        txn.read_log.append((resource, repr(target.root)))
        return target

    # -- writes -----------------------------------------------------------------------

    def update_component(
        self, txn: Transaction, relation_name: str, key, path, new_value, wait=False
    ):
        """X-lock a component granule and overwrite its value."""
        txn.ensure_active()
        steps = parse_path(path) if isinstance(path, str) else tuple(path)
        if not steps:
            raise TransactionError("use update_object to replace a whole object")
        obj = self.database.get(relation_name, key)
        obj_res = object_resource(self.catalog, relation_name, key)
        resource = component_resource(obj_res, steps)
        self.protocol.request(txn, resource, X, wait=wait, long=txn.long)
        if self.fault_injector is not None:
            # locks held, nothing written yet: a fault here models the
            # update failing before taking effect
            self.fault_injector.fire("txn.update", txn=txn, resource=resource)
        relation = self.database.relation(relation_name)
        parent = relation.resolve(obj, steps[:-1])
        last = steps[-1]
        from repro.nf2.paths import AttrStep

        if isinstance(last, AttrStep) and isinstance(parent, TupleValue):
            if len(steps) == 1 and last.name == relation.schema.key:
                raise TransactionError(
                    "the key attribute changes object identity; use "
                    "update_object instead of update_component"
                )
            notify = self._notifier(relation_name, obj.surrogate)
            old_value = parent[last.name]
            if len(steps) == 1 and last.name in relation.indexes:
                # top-level indexed attribute: lock both entries and keep
                # the index in step (with a compensating undo action)
                from repro.graphs.units import index_entry_resource

                index = relation.indexes[last.name]
                for value in (old_value, new_value):
                    entry = index_entry_resource(
                        self.catalog, relation_name, last.name, value
                    )
                    self.protocol.request(txn, entry, X, wait=wait, long=txn.long)
                index.remove(old_value, obj.surrogate)
                index.add(new_value, obj.surrogate)

                def undo_index(ix=index, old=old_value, new=new_value, s=obj.surrogate):
                    ix.remove(new, s)
                    ix.add(old, s)

                txn.record_undo(undo_index)
                if self.fault_injector is not None:
                    # the index already moved, the attribute has not: a
                    # fault here leaves a half-applied update whose undo
                    # closure must restore the index exactly
                    self.fault_injector.fire(
                        "txn.partial-update", txn=txn, resource=resource
                    )
            parent[last.name] = new_value

            def undo_set(p=parent, n=last.name, v=old_value, note=notify):
                p[n] = v
                note()

            txn.record_undo(undo_set)
        else:
            # element replacement inside a collection
            notify = self._notifier(relation_name, obj.surrogate)
            old_element = relation.resolve(obj, steps)
            container = parent
            if not isinstance(container, (SetValue, ListValue)):
                raise TransactionError(
                    "cannot update element below non-collection at %r" % (path,)
                )
            container.remove(old_element)
            container.add(new_value)

            def undo(c=container, new=new_value, old=old_element, note=notify):
                c.remove(new)
                c.add(old)
                note()

            txn.record_undo(undo)
        # re-validate the object against its schema after mutation
        relation.schema.object_type.validate(obj.root, resolver=self.database._resolves)
        notify()
        return obj

    def update_object(self, txn: Transaction, relation_name: str, key, new_root, wait=False):
        """X-lock a whole object and replace its data tree."""
        txn.ensure_active()
        resource = object_resource(self.catalog, relation_name, key)
        self.protocol.request(txn, resource, X, wait=wait, long=txn.long)
        relation = self.database.relation(relation_name)
        obj = relation.get(key)
        for attribute in relation.indexes:
            old_value = obj.root[attribute]
            new_value = new_root[attribute]
            if old_value != new_value:
                from repro.graphs.units import index_entry_resource

                for value in (old_value, new_value):
                    entry = index_entry_resource(
                        self.catalog, relation_name, attribute, value
                    )
                    self.protocol.request(txn, entry, X, wait=wait, long=txn.long)
        old_root = copy.deepcopy(obj.root)
        relation.replace(ComplexObject(relation_name, obj.surrogate, key, new_root))

        def undo(rel=relation, o=obj, root=old_root):
            rel.replace(ComplexObject(rel.name, o.surrogate, o.key, root))

        txn.record_undo(undo)
        return relation.get_by_surrogate(obj.surrogate)

    def add_element(
        self, txn: Transaction, relation_name: str, key, path, element, wait=False
    ):
        """Insert an element into a collection-valued component.

        Locks the collection HoLU in X (the new element changes the
        collection's membership; finer insert locking would need the
        phantom treatment the paper defers, section 5), validates, and
        records the removal as undo.
        """
        txn.ensure_active()
        steps = parse_path(path) if isinstance(path, str) else tuple(path)
        obj = self.database.get(relation_name, key)
        obj_res = object_resource(self.catalog, relation_name, key)
        resource = component_resource(obj_res, steps)
        self.protocol.request(txn, resource, X, wait=wait, long=txn.long)
        relation = self.database.relation(relation_name)
        container = relation.resolve(obj, steps)
        if not isinstance(container, (SetValue, ListValue)):
            raise TransactionError(
                "add_element needs a set/list component at %r" % (path,)
            )
        notify = self._notifier(relation_name, obj.surrogate)
        container.add(element)

        def undo_add(c=container, e=element, note=notify):
            c.remove(e)
            note()

        txn.record_undo(undo_add)
        relation.schema.object_type.validate(obj.root, resolver=self.database._resolves)
        notify()
        return element

    def remove_element(
        self, txn: Transaction, relation_name: str, key, path, element, wait=False
    ):
        """Remove an element from a collection-valued component (X lock)."""
        txn.ensure_active()
        steps = parse_path(path) if isinstance(path, str) else tuple(path)
        obj = self.database.get(relation_name, key)
        obj_res = object_resource(self.catalog, relation_name, key)
        resource = component_resource(obj_res, steps)
        self.protocol.request(txn, resource, X, wait=wait, long=txn.long)
        relation = self.database.relation(relation_name)
        container = relation.resolve(obj, steps)
        if not isinstance(container, (SetValue, ListValue)):
            raise TransactionError(
                "remove_element needs a set/list component at %r" % (path,)
            )
        notify = self._notifier(relation_name, obj.surrogate)
        container.remove(element)

        def undo_remove(c=container, e=element, note=notify):
            c.add(e)
            note()

        txn.record_undo(undo_remove)
        relation.schema.object_type.validate(obj.root, resolver=self.database._resolves)
        notify()
        return element

    def insert_object(self, txn: Transaction, relation_name: str, root, wait=False):
        """IX-lock the relation, insert, X-lock the new object node.

        Index entries for the new values are X-locked *before* the insert:
        a reader holding an S entry lock for that value (an equality
        predicate that found nothing) blocks the insert — equality-phantom
        protection (section 5's future-work item).
        """
        txn.ensure_active()
        schema = self.catalog.schema(relation_name)
        rel_res = relation_resource(self.database.name, schema.segment, relation_name)
        self.protocol.request(txn, rel_res, IX, wait=wait, long=txn.long)
        relation = self.database.relation(relation_name)
        for attribute in relation.indexes:
            from repro.graphs.units import index_entry_resource

            entry = index_entry_resource(
                self.catalog, relation_name, attribute, root[attribute]
            )
            self.protocol.request(txn, entry, X, wait=wait, long=txn.long)
        obj = self.database.insert(relation_name, root)
        # record the undo before any further lock request: the X demand on
        # the new object node below can conflict (another transaction may
        # hold X on the same key path, e.g. around a delete it has not yet
        # rolled back) and the abort must remove the already-inserted
        # object, or rollback leaves an orphan under a reused key
        txn.record_undo(lambda rel=relation, k=obj.key: rel.delete(k, force=True))
        resource = object_resource(self.catalog, relation_name, obj.key)
        self.protocol.request(txn, resource, X, wait=wait, long=txn.long)
        return obj

    def delete_object(
        self,
        txn: Transaction,
        relation_name: str,
        key,
        wait=False,
        follow_references: bool = True,
    ):
        """X-lock and delete a complex object.

        ``follow_references=False`` applies the semantic refinement of
        section 4.5's last paragraph: deleting an object whose references
        merely *disappear* (the referenced data is untouched) needs no
        locks on common data at all.
        """
        txn.ensure_active()
        resource = object_resource(self.catalog, relation_name, key)
        if follow_references:
            self.protocol.request(txn, resource, X, wait=wait, long=txn.long)
        else:
            # Semantics-aware case: suppress downward propagation entirely.
            plan = self._plan_without_propagation(txn, resource)
            self.protocol.execute_plan(txn, plan, wait=wait, long=txn.long)
        relation = self.database.relation(relation_name)
        obj = relation.get(key)
        for attribute in relation.indexes:
            from repro.graphs.units import index_entry_resource

            entry = index_entry_resource(
                self.catalog, relation_name, attribute, obj.root[attribute]
            )
            self.protocol.request(txn, entry, X, wait=wait, long=txn.long)
        snapshot = obj.snapshot()
        # Integrity-checked delete: a still-referenced common-data object
        # may not disappear (the dangling reference would break the very
        # structure the lock protocol synchronizes).
        relation.delete(key)
        txn.record_undo(lambda rel=relation, snap=snapshot: rel.restore(snap))
        return snapshot

    def _notifier(self, relation_name: str, surrogate: str):
        """Callable informing the reference index of an in-place write.

        Shared by the forward mutation and its undo action so the index
        stays exact on both commit and rollback paths.
        """
        database = self.database
        return lambda: database.notify_object_changed(relation_name, surrogate)

    def _plan_without_propagation(self, txn, resource):
        """An X plan on ``resource`` without downward propagation.

        Implements "no locks on common data are necessary at all" for
        reference-transparent operations (section 4.5).  Protocols that
        support the ``propagate`` switch (the paper's) are asked directly;
        baselines fall back to a plain ancestor chain.
        """
        try:
            return self.protocol.plan_request(txn, resource, X, propagate=False)
        except TypeError:
            pass
        from repro.locking.modes import intention_of
        from repro.protocol.base import PlannedLock
        from repro.graphs.units import ancestors

        steps = [
            PlannedLock(ancestor, intention_of(X), "ancestor")
            for ancestor in ancestors(resource)
        ]
        steps.append(PlannedLock(resource, X, "target"))
        return self.protocol.finish_plan(txn, steps)
