"""Baseline: traditional System R locking applied to complex objects.

Figure 2(a): the lockable units are database, segment, relation and
*tuple*.  A complex object has no granule of its own — it is a bag of flat
tuples — so a transaction touching (part of) a complex object must lock
**every flat tuple it accesses individually** (the root tuple plus each
element tuple), with intention locks on the relation chain.

This is the "immense overhead caused by the administration of locks and
conflict tests" baseline of section 3.2.1: correct (conflicts surface at
tuple granularity, even on shared data, because shared tuples live in
their own relation and are locked there) but linear in the number of
tuples touched.

A coarse variant, :class:`SystemRRelationProtocol`, locks whole relations —
the other extreme of the trade-off Ries/Stonebraker measured.
"""

from __future__ import annotations

from typing import List

from repro.graphs.units import ancestors, object_resource
from repro.locking.modes import S, X, LockMode, intention_of
from repro.nf2.paths import ElemStep
from repro.nf2.types import ListType, SetType, TupleType
from repro.nf2.values import ComplexObject, ListValue, Reference, SetValue, TupleValue
from repro.protocol.base import PlannedLock, ProtocolBase


def tuple_resources_below(units, resource, follow_references=True):
    """Resources of every flat tuple in the subtree at ``resource``.

    Element tuples are the "tuples" of the System R view; reference leaves
    lead (when followed) to the referenced object's tuples in *its* own
    relation — System R knows nothing of complex objects, so the access
    simply touches tuples of another relation.
    Returns (tuple_resources, referenced_entry_chains) where the second
    list holds (relation_chain_resources, tuple_resources) per followed
    reference.
    """
    catalog = units.catalog
    out: List[tuple] = []
    references: List[Reference] = []

    def walk(value, res, value_type):
        if isinstance(value, TupleValue):
            out.append(res)
            for name, child in value.items():
                child_type = (
                    value_type.attribute_type(name)
                    if isinstance(value_type, TupleType)
                    else None
                )
                walk(child, res + (name,), child_type)
        elif isinstance(value, (SetValue, ListValue)):
            element_type = (
                value_type.element_type
                if isinstance(value_type, (SetType, ListType))
                else None
            )
            for element in value:
                if isinstance(element, TupleValue) and isinstance(
                    element_type, TupleType
                ):
                    key = element.get(element_type.key)
                    walk(element, res + (str(key),), element_type)
                elif isinstance(element, Reference):
                    references.append(element)
                elif isinstance(element, (SetValue, ListValue)):
                    # anonymous nested collections: index positionally
                    walk(element, res + (str(len(out)),), element_type)
        elif isinstance(value, Reference):
            references.append(value)

    value = units.resolve(resource)
    if isinstance(value, ComplexObject):
        schema = catalog.schema(value.relation)
        walk(value.root, resource, schema.object_type)
    elif len(resource) >= 4:
        from repro.graphs.units import steps_for_resource

        relation = catalog.database.relation(resource[2])
        steps = steps_for_resource(catalog, resource)
        value_type = relation.resolve_type(
            tuple(
                step if not isinstance(step, ElemStep) else ElemStep("*")
                for step in steps
            )
        )
        walk(value, resource, value_type)
    else:
        relation = catalog.database.relation(resource[2])
        for obj in relation:
            obj_res = object_resource(catalog, relation.name, obj.key)
            walk(obj.root, obj_res, relation.schema.object_type)

    chains = []
    if follow_references:
        seen = set()
        pending = list(references)
        while pending:
            ref = pending.pop(0)
            if ref in seen:
                continue
            seen.add(ref)
            target = catalog.database.dereference(ref)
            entry = object_resource(catalog, ref.relation, target.key)
            sub_out: List[tuple] = []
            sub_refs: List[Reference] = []

            def collect(value, res, value_type):
                if isinstance(value, TupleValue):
                    sub_out.append(res)
                    for name, child in value.items():
                        child_type = (
                            value_type.attribute_type(name)
                            if isinstance(value_type, TupleType)
                            else None
                        )
                        collect(child, res + (name,), child_type)
                elif isinstance(value, (SetValue, ListValue)):
                    element_type = (
                        value_type.element_type
                        if isinstance(value_type, (SetType, ListType))
                        else None
                    )
                    for element in value:
                        if isinstance(element, TupleValue) and isinstance(
                            element_type, TupleType
                        ):
                            collect(
                                element,
                                res + (str(element.get(element_type.key)),),
                                element_type,
                            )
                        elif isinstance(element, Reference):
                            sub_refs.append(element)
                elif isinstance(value, Reference):
                    sub_refs.append(value)

            schema = catalog.schema(ref.relation)
            collect(target.root, entry, schema.object_type)
            chains.append((ancestors(entry), sub_out))
            pending.extend(sub_refs)
    return out, chains


class SystemRTupleProtocol(ProtocolBase):
    """Tuple-granularity System R locking (fine extreme)."""

    name = "system_r_tuple"

    def __init__(
        self,
        manager,
        catalog,
        authorization=None,
        follow_references=True,
        **kwargs,
    ):
        super().__init__(manager, catalog, authorization=authorization, **kwargs)
        self.follow_references = follow_references

    def _raw_steps(self, resource, mode: LockMode) -> List[PlannedLock]:
        from repro.graphs.units import is_index_resource

        intention = intention_of(mode)
        steps: List[PlannedLock] = []
        for ancestor in ancestors(resource):
            steps.append(PlannedLock(ancestor, intention, "ancestor"))
        if mode not in (S, X) or is_index_resource(resource):
            # intention demands and index units are plain leaf locks —
            # System R locks indexes like any other unit (Figure 2a)
            steps.append(PlannedLock(resource, mode, "target"))
            return steps
        tuples, chains = tuple_resources_below(
            self.units, resource, follow_references=self.follow_references
        )
        for tuple_resource in tuples:
            steps.append(PlannedLock(tuple_resource, mode, "tuple"))
        for chain, sub_tuples in chains:
            # Referenced tuples live in their own relation; under plain
            # System R reading them needs that relation's intention chain.
            for ancestor in chain:
                steps.append(PlannedLock(ancestor, intention, "ref-ancestor"))
            for tuple_resource in sub_tuples:
                steps.append(PlannedLock(tuple_resource, mode, "ref-tuple"))
        if not tuples:
            steps.append(PlannedLock(resource, mode, "target"))
        return steps


class SystemRRelationProtocol(ProtocolBase):
    """Relation-granularity System R locking (coarse extreme).

    Any access within a relation locks the whole relation; shared data is
    reached by locking the referenced relation entirely as well.
    """

    name = "system_r_relation"

    def _raw_steps(self, resource, mode: LockMode) -> List[PlannedLock]:
        intention = intention_of(mode)
        relation_res = resource[:3] if len(resource) >= 3 else resource
        steps: List[PlannedLock] = []
        for ancestor in ancestors(relation_res):
            steps.append(PlannedLock(ancestor, intention, "ancestor"))
        steps.append(PlannedLock(relation_res, mode, "relation"))
        if mode in (S, X) and len(resource) >= 3:
            base_relation = resource[2].split("#", 1)[0]
            seen = {base_relation}
            pending = list(self.catalog.schema(base_relation).referenced_relations())
            while pending:
                target = pending.pop(0)
                if target in seen:
                    continue
                seen.add(target)
                schema = self.catalog.schema(target)
                target_res = (
                    self.catalog.database.name,
                    schema.segment,
                    target,
                )
                for ancestor in ancestors(target_res):
                    steps.append(PlannedLock(ancestor, intention, "ref-ancestor"))
                steps.append(PlannedLock(target_res, mode, "ref-relation"))
                pending.extend(schema.referenced_relations())
        return steps
