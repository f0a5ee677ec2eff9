"""Instance-level lockable resources and unit decomposition (section 4.4.1).

Lockable *resources* are hierarchical path tuples::

    (db,)                                  database node
    (db, segment)                          segment node
    (db, segment, relation)                relation node
    (db, segment, relation, object_key)    complex-object node
    (db, segment, relation, object_key, part, ...)   components

where ``part`` alternates attribute names and element keys exactly as the
object structure dictates, so the parent of every resource is its prefix —
matching the paper's observation that "outer and inner units as well as
superunits have hierarchical structure" (each node has exactly one
immediate parent).

The unit vocabulary of section 4.4.1 maps onto resources as:

* **outer unit** — all resources of objects in non-shared relations, plus
  the database/segment/relation chain; its root is the database node;
* **inner unit** — the subtree of a complex object of a *common-data*
  relation (a relation referenced by some schema); its root is the
  object node, the **entry point**;
* **immediate parent** — the one-step prefix (never crossing a dashed
  reference edge);
* **superunit** — a unit plus the immediate parents of its root up to and
  including the database node.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.errors import PathError
from repro.nf2.paths import AttrStep, ElemStep
from repro.nf2.types import ListType, SetType, TupleType
from repro.nf2.values import (
    ComplexObject,
    ListValue,
    Reference,
    SetValue,
    TupleValue,
    collect_references,
)

Resource = Tuple


# -- resource constructors ----------------------------------------------------


def database_resource(db_name: str) -> Resource:
    return (db_name,)


def segment_resource(db_name: str, segment: str) -> Resource:
    return (db_name, segment)


def relation_resource(db_name: str, segment: str, relation: str) -> Resource:
    return (db_name, segment, relation)


def object_resource(catalog, relation_name: str, key) -> Resource:
    """Resource id of the complex-object node for (relation, key)."""
    schema = catalog.schema(relation_name)
    return (
        catalog.database.name,
        schema.segment,
        relation_name,
        str(key),
    )


def component_resource(object_res: Resource, steps: Sequence) -> Resource:
    """Resource id of a component node below a complex object.

    ``steps`` is an instance path (AttrStep/ElemStep sequence); each step
    contributes one resource part.
    """
    parts = list(object_res)
    for step in steps:
        if isinstance(step, AttrStep):
            parts.append(step.name)
        elif isinstance(step, ElemStep):
            parts.append(str(step.key))
        else:
            raise PathError("unknown path step %r" % (step,))
    return tuple(parts)


def reference_entry_resource(catalog, ref: Reference) -> Resource:
    """The entry-point resource a reference leads to (dashed edge target)."""
    target = catalog.database.dereference(ref)
    return object_resource(catalog, ref.relation, target.key)


def index_resource(catalog, relation_name: str, attribute: str) -> Resource:
    """Resource id of an index's lockable unit (Figure 2: indexes hang
    beside relations under the segment)."""
    schema = catalog.schema(relation_name)
    return (
        catalog.database.name,
        schema.segment,
        "%s#%s" % (relation_name, attribute),
    )


def index_entry_resource(
    catalog, relation_name: str, attribute: str, value
) -> Resource:
    """Resource id of one index entry (the BLU an equality predicate
    locks — present or not, which is what stops equality phantoms)."""
    return index_resource(catalog, relation_name, attribute) + (str(value),)


def is_index_resource(resource: Resource) -> bool:
    return len(resource) >= 3 and "#" in resource[2]


# -- resource structure --------------------------------------------------------


def immediate_parent(resource: Resource) -> Optional[Resource]:
    """The immediate parent (one solid step up); None for the database node.

    By construction this never follows a dashed edge: the parent of an
    entry point ``(db, seg, rel, key)`` is its relation node, exactly as
    section 4.4.1 requires.
    """
    if len(resource) <= 1:
        return None
    return resource[:-1]


def ancestors(resource: Resource) -> List[Resource]:
    """All proper prefixes, root (database) first."""
    return [resource[:i] for i in range(1, len(resource))]


def resource_level(resource: Resource) -> str:
    return {1: "database", 2: "segment", 3: "relation"}.get(
        len(resource), "object" if len(resource) == 4 else "component"
    )


def steps_for_resource(catalog, resource: Resource) -> Tuple:
    """Recover the instance path of a component resource (parts -> steps).

    The schema disambiguates: below a tuple the next part is an attribute
    name, below a collection it is an element key.
    """
    if len(resource) < 4:
        raise PathError("resource %r has no component path" % (resource,))
    relation_name = resource[2]
    schema = catalog.schema(relation_name)
    current_type = schema.object_type
    steps: List = []
    for part in resource[4:]:
        if isinstance(current_type, TupleType):
            step = AttrStep(part)
            current_type = current_type.attribute_type(part)
        elif isinstance(current_type, (SetType, ListType)):
            step = ElemStep(part)
            current_type = current_type.element_type
        else:
            raise PathError(
                "resource %r descends below an atomic component" % (resource,)
            )
        steps.append(step)
    return tuple(steps)


class UnitMap:
    """Answers the unit-structure questions the lock protocol asks.

    Backed only by catalog information plus — for downward propagation —
    the reference scan over data the query reads anyway ("scanning these
    references ... does not imply any additional run-time overhead",
    section 4.4.2.1).
    """

    def __init__(self, catalog):
        self.catalog = catalog
        self.database = catalog.database

    # -- classification -------------------------------------------------------

    def is_outer_root(self, resource: Resource) -> bool:
        """Is this the root of the outer unit (the database node)?"""
        return len(resource) == 1

    def is_entry_point(self, resource: Resource) -> bool:
        """Is this resource the root of an inner unit?

        True exactly for complex-object nodes of common-data relations
        (relations referenced by some schema in the catalog).
        """
        return len(resource) == 4 and self.catalog.is_common_data(resource[2])

    def unit_root(self, resource: Resource) -> Resource:
        """Root of the unit containing ``resource``.

        The database node for outer-unit members; the entry point for
        inner-unit members.
        """
        if len(resource) >= 4 and self.catalog.is_common_data(resource[2]):
            return resource[:4]
        return resource[:1]

    def in_inner_unit(self, resource: Resource) -> bool:
        return len(resource) >= 4 and self.catalog.is_common_data(resource[2])

    def superunit_path(self, unit_root: Resource) -> List[Resource]:
        """Immediate parents of a unit root, database node first.

        For an entry point ``(db, seg, rel, key)`` this is
        ``[(db,), (db, seg), (db, seg, rel)]``; for the outer root it is
        empty (the database node has no parents).
        """
        return ancestors(unit_root)

    def unit_members(self, unit_root: Resource) -> str:
        """Human-readable unit kind (diagnostics and Figure-6 rendering)."""
        return "inner" if self.is_entry_point(unit_root) else "outer"

    # -- instance access -----------------------------------------------------

    def resolve(self, resource: Resource):
        """The instance value / container a resource stands for."""
        if len(resource) == 1:
            return self.database
        if len(resource) == 2:
            return resource[1]  # segments have no object representation
        if is_index_resource(resource):
            relation_name, attribute = resource[2].split("#", 1)
            index = self.database.relation(relation_name).indexes.get(attribute)
            if index is None:
                raise PathError("no index %r" % (resource[2],))
            if len(resource) == 3:
                return index
            return index.lookup(resource[3])
        relation = self.database.relation(resource[2])
        if len(resource) == 3:
            return relation
        obj = relation.get(self._object_key(relation, resource[3]))
        if len(resource) == 4:
            return obj
        return relation.resolve(obj, steps_for_resource(self.catalog, resource))

    def _object_key(self, relation, key_part: str):
        """Map the textual key part back to the relation's key domain."""
        if relation.contains_key(key_part):
            return key_part
        # Non-string keys were stringified by object_resource; try int.
        try:
            as_int = int(key_part)
        except (TypeError, ValueError):
            return key_part
        return as_int if relation.contains_key(as_int) else key_part

    # -- downward propagation support -------------------------------------------

    def entry_points_below(
        self,
        resource: Resource,
        transitive: bool = True,
        naive: Optional[bool] = None,
    ) -> List[Resource]:
        """Entry points of inner units accessible via ``resource``, as a
        fresh list (see :meth:`entry_points`)."""
        return list(self.entry_points(resource, transitive, naive))

    def entry_points(
        self,
        resource: Resource,
        transitive: bool = True,
        naive: Optional[bool] = None,
    ) -> Sequence[Resource]:
        """Entry points of inner units accessible via ``resource``.

        With ``transitive=True`` (the default) references found *inside*
        referenced objects are followed as well — "common data may again
        contain common data" (section 2), and an S/X lock must make every
        transitively reachable inner unit's lock state visible.

        Two implementations answer the question identically:

        * the **incremental index** (default, see
          :mod:`repro.nf2.refindex`): per-object cached reference lists
          plus closure memoization — O(1) for repeated demands;
        * the **naive scan** over the instance subtree, transitively
          dereferencing every reference — the seed behaviour, kept as the
          ablation baseline (``naive=True`` forces it; setting
          ``Database.use_reference_index = False`` restores it globally).
        """
        if len(resource) < 3:
            raise PathError(
                "downward propagation applies to relation-or-below nodes, "
                "not %r" % (resource,)
            )
        if is_index_resource(resource):
            return []  # index entries hold values, never references
        if naive is None:
            naive = not getattr(self.database, "use_reference_index", False)
        if not naive:
            # the index's memoized tuple itself: read it, never mutate it
            return self.database.reference_index.closure(
                resource, transitive=transitive
            )
        if len(resource) == 3:
            roots = [obj.root for obj in self.database.relation(resource[2])]
        else:
            value = self.resolve(resource)
            roots = [value.root if isinstance(value, ComplexObject) else value]
        found: List[Resource] = []
        seen = set()
        pending: List[Reference] = []
        self.database.ref_scan_ops += len(roots)
        for root in roots:
            pending.extend(_references_in(root))
        while pending:
            ref = pending.pop(0)
            if ref in seen:
                continue
            seen.add(ref)
            entry = reference_entry_resource(self.catalog, ref)
            if entry not in found:
                found.append(entry)
            if transitive:
                target = self.database.dereference(ref)
                self.database.ref_scan_ops += 1
                pending.extend(_references_in(target.root))
        return found


def _references_in(value) -> List[Reference]:
    if isinstance(value, Reference):
        return [value]
    if isinstance(value, (TupleValue, SetValue, ListValue)):
        return collect_references(value)
    return []
