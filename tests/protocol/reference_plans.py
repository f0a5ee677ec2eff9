"""The uncomposed Herrmann plan builder, kept as a reference.

:class:`~repro.protocol.herrmann.HerrmannProtocol` assembles a demand's
merged steps from a head, one shared downward suffix per lower entry
point and the target.  This module builds the same plan sharing
nothing: every step of every part spelled out per demand, then merged by
:meth:`~repro.protocol.base.ProtocolBase.merge_steps`.  The composed-plan
differential compares the two in order.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.graphs.units import ancestors
from repro.locking.modes import S, X, LockMode, intention_of
from repro.protocol.base import PlannedLock


def reference_steps(
    protocol, txn, resource, mode: LockMode, propagate: bool = True
) -> Tuple[PlannedLock, ...]:
    """The merged, unfiltered steps ``protocol`` plans for one demand."""
    unit_root = protocol.units.unit_root(resource)
    entry_point = protocol.units.is_entry_point(unit_root)
    return protocol.merge_steps(
        raw_steps(protocol, txn, resource, mode, unit_root, entry_point, propagate)
    )


def raw_steps(
    protocol, txn, resource, mode: LockMode, unit_root, entry_point, propagate
) -> List[PlannedLock]:
    steps: List[PlannedLock] = []
    intention = intention_of(mode)
    if entry_point:
        # Inner-unit node: implicit upward propagation — the immediate
        # parents of the requested node, up to the root of the
        # superunit (rules 1/2/3/4, entry-point case).
        for ancestor in protocol.units.superunit_path(unit_root):
            steps.append(PlannedLock(ancestor, intention, "upward"))
        for ancestor in ancestors(resource):
            if len(ancestor) >= len(unit_root):
                steps.append(PlannedLock(ancestor, intention, "ancestor"))
    else:
        # Outer-unit node: rule 1/2 — the whole chain from the database
        # node down.
        for ancestor in ancestors(resource):
            steps.append(PlannedLock(ancestor, intention, "ancestor"))
    if propagate and (mode in (S, X) or (mode.is_semantic and not mode.is_intention)):
        steps.extend(downward_steps(protocol, txn, resource, mode))
    steps.append(PlannedLock(resource, mode, "target"))
    return steps


def downward_steps(protocol, txn, resource, mode: LockMode) -> List[PlannedLock]:
    """Implicit downward propagation onto lower entry points."""
    units = protocol.units
    catalog = protocol.catalog
    transitive = protocol.transitive_propagation
    if len(resource) < 3:
        # Database/segment S/X locks fall back to locking every
        # relation's entry points.
        entry_points = []
        for relation in catalog.relation_names():
            schema = catalog.schema(relation)
            rel_resource = (catalog.database.name, schema.segment, relation)
            if rel_resource[: len(resource)] == resource:
                entry_points.extend(
                    units.entry_points_below(rel_resource, transitive=transitive)
                )
    else:
        entry_points = units.entry_points_below(resource, transitive=transitive)
    steps: List[PlannedLock] = []
    ancestor_set = set(ancestors(resource))
    for entry in entry_points:
        if entry == resource or entry in ancestor_set:
            continue
        entry_mode = protocol._propagated_mode(txn, entry, mode)
        entry_intention = intention_of(entry_mode)
        for ancestor in units.superunit_path(entry):
            steps.append(PlannedLock(ancestor, entry_intention, "downward-path"))
        steps.append(PlannedLock(entry, entry_mode, "downward"))
    return steps
