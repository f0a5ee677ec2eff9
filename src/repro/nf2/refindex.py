"""Incremental reverse-reference / entry-point index.

The paper argues that downward propagation is nearly free because
"scanning these references ... does not imply any additional run-time
overhead" (section 4.4.2.1) — the query reads the data anyway.  A lock
*planner*, however, runs before the data access, so the seed reproduction
paid a full instance-subtree scan (plus one transitive dereference walk
per reachable entry point) on **every** S/X demand.

This module makes that scan incremental.  For every stored complex object
the index keeps the ordered list of references its tree contains, each
tagged with the resource-part path of its innermost *addressable*
enclosing node, so

* ``entry_points_below`` on an object or component resource becomes a
  dictionary lookup plus a prefix filter instead of a tree walk,
* the transitive closure ("common data may again contain common data",
  section 2) chases cached per-object reference lists instead of
  dereferencing and re-walking every target subtree, and
* closure results are memoized per resource, keyed on a structure
  version counter.

Invalidation is precise in the sense that matters for the hot path: the
version counter (which clears the memo) is bumped only by writes that can
change reference topology or entry-point naming — inserts, deletes, key
changes, and in-place writes whose re-scan yields a *different* reference
list.  An ``update_component`` on a non-reference path (the common case:
overwriting a trajectory) re-scans one object and leaves every memoized
closure valid.

The index additionally maintains the reverse mapping (who references me?)
so referential-integrity checks on delete stop scanning the database.
The naive scans remain available behind ``Database.use_reference_index``
(ablation flag) and are cross-checked against the index by
``repro.verify.check_reference_index``.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.nf2.types import ListType, SetType, TupleType
from repro.nf2.values import Reference, TupleValue, _Collection

#: (relation name, surrogate) — the identity of one stored complex object.
ObjectKey = Tuple[str, str]


def reference_resource_parts(root, object_type) -> List[Tuple[Tuple, Reference]]:
    """Every reference in ``root`` with the resource-part path holding it.

    Returns ``(parts, ref)`` pairs in tree order (the order
    :func:`repro.nf2.values.collect_references` visits them).  ``parts``
    are the resource parts — below a tuple the attribute name, below a
    collection the stringified element key — of the innermost addressable
    node containing the reference, exactly as
    :func:`repro.graphs.units.component_resource` would spell them.
    References inside unkeyed collection elements carry the collection's
    path (those elements are not addressable as resources).
    """
    out: List[Tuple[Tuple, Reference]] = []

    def walk(node, node_type, parts):
        if isinstance(node, Reference):
            out.append((parts, node))
        elif isinstance(node, TupleValue) and isinstance(node_type, TupleType):
            for name, child in node.items():
                walk(child, node_type.attribute_type(name), parts + (name,))
        elif isinstance(node, _Collection) and isinstance(
            node_type, (SetType, ListType)
        ):
            element_type = node_type.element_type
            keyed = (
                isinstance(element_type, TupleType)
                and element_type.key is not None
            )
            for element in node:
                if keyed and isinstance(element, TupleValue):
                    walk(
                        element,
                        element_type,
                        parts + (str(element[element_type.key]),),
                    )
                else:
                    walk(element, element_type, parts)

    walk(root, object_type, ())
    return out


def object_key_from_part(relation, key_part: str):
    """Map the textual key part of a resource back to the key domain."""
    if relation.contains_key(key_part):
        return key_part
    try:
        as_int = int(key_part)
    except (TypeError, ValueError):
        return key_part
    return as_int if relation.contains_key(as_int) else key_part


class ReferenceIndex:
    """Per-object reference lists, reverse edges, and closure memoization.

    Maintained by :class:`~repro.nf2.database.Relation` mutation hooks
    (insert/delete/replace) plus
    :meth:`~repro.nf2.database.Database.notify_object_changed` for
    in-place component writes.
    """

    def __init__(self, database):
        self._database = database
        #: object -> ordered tuple of (parts, ref)
        self._direct: Dict[ObjectKey, Tuple[Tuple[Tuple, Reference], ...]] = {}
        #: referenced object -> {referencing object -> occurrence count}
        self._referencing: Dict[ObjectKey, Dict[ObjectKey, int]] = {}
        #: bumped whenever reference topology / entry naming may change
        self.version = 0
        #: memoized entry-point closures: (resource, transitive) -> tuple
        self._memo: Dict[Tuple[Tuple, bool], Tuple[Tuple, ...]] = {}
        # counters (benchmarks)
        self.lookups = 0
        self.memo_hits = 0
        self.refreshes = 0
        self.invalidations = 0

    # -- maintenance hooks -------------------------------------------------

    def index_object(self, relation, obj):
        """New object stored: scan once, record, invalidate closures."""
        entries = tuple(
            reference_resource_parts(obj.root, relation.schema.object_type)
        )
        key = (relation.name, obj.surrogate)
        self._direct[key] = entries
        self._link(key, (), entries)
        self._bump()

    def forget_object(self, relation, obj):
        """Object deleted: drop its entries, invalidate closures."""
        key = (relation.name, obj.surrogate)
        old = self._direct.pop(key, ())
        self._link(key, old, ())
        self._bump()

    def refresh_object(self, relation, obj, key_changed: bool = False):
        """Object data changed in place (or replaced): re-scan it.

        The memo survives when the re-scan yields the same reference list
        and the object kept its key — the write did not touch a
        referencing path, so every cached closure is still exact.
        """
        self.refreshes += 1
        key = (relation.name, obj.surrogate)
        entries = tuple(
            reference_resource_parts(obj.root, relation.schema.object_type)
        )
        old = self._direct.get(key, ())
        if entries == old and not key_changed:
            return
        self._direct[key] = entries
        self._link(key, old, entries)
        self._bump()

    def _link(self, source: ObjectKey, old_entries, new_entries):
        """Update the reverse map for one object's entry diff."""
        counts: Dict[ObjectKey, int] = {}
        for _, ref in old_entries:
            target = (ref.relation, ref.surrogate)
            counts[target] = counts.get(target, 0) - 1
        for _, ref in new_entries:
            target = (ref.relation, ref.surrogate)
            counts[target] = counts.get(target, 0) + 1
        for target, delta in counts.items():
            if delta == 0:
                continue
            sources = self._referencing.setdefault(target, {})
            count = sources.get(source, 0) + delta
            if count > 0:
                sources[source] = count
            else:
                sources.pop(source, None)
                if not sources:
                    self._referencing.pop(target, None)

    def _bump(self):
        self.version += 1
        if self._memo:
            self.invalidations += 1
            self._memo.clear()

    # -- queries -----------------------------------------------------------

    def direct_entries(self, relation_name: str, surrogate: str):
        """The cached (parts, ref) list of one object (tree order)."""
        self.lookups += 1
        return self._direct.get((relation_name, surrogate), ())

    def referencing_objects(self, ref: Reference) -> List[ObjectKey]:
        """Objects whose tree references ``ref``'s target (reverse edge)."""
        return list(self._referencing.get((ref.relation, ref.surrogate), ()))

    def entry_points_below(
        self, resource: Tuple, transitive: bool = True
    ) -> List[Tuple]:
        """Entry points reachable via ``resource`` — the fast path.

        Semantics (including result order and duplicate elimination) match
        the naive scan of
        :meth:`repro.graphs.units.UnitMap.entry_points_below`; the only
        divergence is that component paths below an existing object are
        not re-validated against the instance tree (prefix filtering never
        walks it).
        """
        return list(self.closure(resource, transitive))

    def closure(self, resource: Tuple, transitive: bool = True) -> Tuple[Tuple, ...]:
        """:meth:`entry_points_below` as the memoized tuple itself."""
        memo_key = (resource, bool(transitive))
        hit = self._memo.get(memo_key)
        if hit is not None:
            self.memo_hits += 1
            return hit
        database = self._database
        relation = database.relation(resource[2])
        if len(resource) == 3:
            pending = deque()
            for obj in relation:
                pending.extend(
                    ref
                    for _, ref in self.direct_entries(
                        relation.name, obj.surrogate
                    )
                )
        else:
            obj = relation.get(object_key_from_part(relation, resource[3]))
            prefix = resource[4:]
            width = len(prefix)
            pending = deque(
                ref
                for parts, ref in self.direct_entries(
                    relation.name, obj.surrogate
                )
                if parts[:width] == prefix
            )
        found: List[Tuple] = []
        found_set = set()
        seen = set()
        db_name = database.name
        while pending:
            ref = pending.popleft()
            if ref in seen:
                continue
            seen.add(ref)
            target = database.dereference(ref)
            target_relation = database.relation(ref.relation)
            entry = (
                db_name,
                target_relation.segment,
                ref.relation,
                str(target.key),
            )
            if entry not in found_set:
                found_set.add(entry)
                found.append(entry)
            if transitive:
                pending.extend(
                    r for _, r in self.direct_entries(ref.relation, ref.surrogate)
                )
        found = self._memo[memo_key] = tuple(found)
        return found

    # -- diagnostics -------------------------------------------------------

    def reset_counters(self):
        self.lookups = 0
        self.memo_hits = 0
        self.refreshes = 0
        self.invalidations = 0

    def stats(self) -> Dict[str, int]:
        return {
            "version": self.version,
            "objects": len(self._direct),
            "memoized": len(self._memo),
            "lookups": self.lookups,
            "memo_hits": self.memo_hits,
            "refreshes": self.refreshes,
            "invalidations": self.invalidations,
        }
