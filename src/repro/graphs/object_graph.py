"""Object-specific lock graphs (section 4.3, Figure 5).

"For each relation, an object-specific lock graph can be constructed by
using the general lock graph, catalog information, and simple derivation
rules."  The graph of a relation contains its lockable units:

* the superunit chain — database (HeLU), segment (HeLU), relation (HoLU);
* the complex-object node (HeLU) standing for one member object;
* below it, one node per schema component, with kinds assigned by the
  derivation rules (list/set → HoLU, tuple → HeLU, atomic/ref → BLU).

Reference BLUs carry a dashed edge to the entry point of the referenced
common-data relation; the target's own object-specific lock graph models
the shared part (same structure in every graph that shares it, as the
paper requires).

Footnote 3 offers a coarser BLU reading — sibling atomic attributes of one
tuple collapse into a single BLU.  ``build_object_graph`` supports both
via ``group_atomic_blus`` (default False, matching Figure 5's drawing).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from repro.errors import PathError, SchemaError
from repro.graphs.general import BLU, HELU, HOLU, kind_for_type, validate_transition
from repro.nf2.paths import STAR, AttrStep, format_path
from repro.nf2.types import ListType, RefType, SetType, TupleType


class ObjectGraphNode:
    """One lockable unit in an object-specific lock graph."""

    __slots__ = (
        "kind",
        "level",
        "name",
        "path",
        "children",
        "ref_target",
        "grouped_attrs",
    )

    def __init__(self, kind, level, name, path=None, ref_target=None, grouped_attrs=()):
        self.kind = kind
        #: "database" | "segment" | "relation" | "object" | "component"
        self.level = level
        self.name = name
        #: schema path below the object node; None above object level
        self.path = path
        self.children: List[ObjectGraphNode] = []
        #: for reference BLUs: the common-data relation entered via a
        #: dashed edge
        self.ref_target = ref_target
        #: footnote-3 grouping: atomic attribute names folded into this BLU
        self.grouped_attrs = tuple(grouped_attrs)

    @property
    def is_reference(self) -> bool:
        return self.ref_target is not None

    def label(self) -> str:
        """Figure-5 style label, e.g. ``HoLU ("robots")``."""
        if self.level == "database":
            return '%s (Database "%s")' % (self.kind, self.name)
        if self.level == "segment":
            return '%s (Segment "%s")' % (self.kind, self.name)
        if self.level == "relation":
            return '%s (Relation "%s")' % (self.kind, self.name)
        if self.level == "object":
            return '%s (C.O. "%s")' % (self.kind, self.name)
        if self.is_reference:
            return '%s ("..ref..")' % self.kind
        return '%s ("%s")' % (self.kind, self.name)

    def __repr__(self):
        return "ObjectGraphNode(%s, %r, path=%r)" % (
            self.kind,
            self.name,
            None if self.path is None else format_path(self.path),
        )


class ObjectSpecificLockGraph:
    """The object-specific lock graph of one relation."""

    def __init__(self, relation_name, database_node):
        self.relation_name = relation_name
        self.database_node = database_node
        self._by_path: Dict[Tuple, ObjectGraphNode] = {}

    @property
    def segment_node(self) -> ObjectGraphNode:
        return self.database_node.children[0]

    @property
    def relation_node(self) -> ObjectGraphNode:
        return self.segment_node.children[0]

    @property
    def object_node(self) -> ObjectGraphNode:
        return self.relation_node.children[0]

    def node_at(self, path) -> ObjectGraphNode:
        """Node for a schema path below the object node (``()`` = object)."""
        key = tuple(path)
        try:
            return self._by_path[key]
        except KeyError:
            raise PathError(
                "object graph of %r has no node at path %r"
                % (self.relation_name, format_path(key))
            )

    def iter_nodes(self) -> Iterator[ObjectGraphNode]:
        """All nodes, pre-order, starting at the database node."""
        stack = [self.database_node]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def reference_nodes(self) -> List[ObjectGraphNode]:
        """All reference BLUs (sources of dashed edges)."""
        return [node for node in self.iter_nodes() if node.is_reference]

    def referenced_relations(self) -> List[str]:
        seen: List[str] = []
        for node in self.reference_nodes():
            if node.ref_target not in seen:
                seen.append(node.ref_target)
        return seen

    def lockable_unit_count(self) -> int:
        return sum(1 for _ in self.iter_nodes())

    def depth(self) -> int:
        """Longest solid path from the database node to a leaf."""

        def walk(node):
            if not node.children:
                return 1
            return 1 + max(walk(child) for child in node.children)

        return walk(self.database_node)

    def render(self) -> str:
        """ASCII rendering in the spirit of Figure 5."""
        lines: List[str] = []

        def walk(node, indent):
            suffix = ""
            if node.is_reference:
                suffix = "  - - -> %s" % node.ref_target
            lines.append("%s%s%s" % ("  " * indent, node.label(), suffix))
            for child in node.children:
                walk(child, indent + 1)

        walk(self.database_node, 0)
        return "\n".join(lines)

    def to_dot(self, include_referenced: bool = True, _catalog=None) -> str:
        """Graphviz DOT rendering: solid containment edges, dashed
        reference edges (the visual language of Figures 4 and 5)."""
        lines = ["digraph lockgraph {", '  rankdir="TB";', '  node [shape=box];']
        counter = [0]
        ids = {}

        def node_id(node):
            if id(node) not in ids:
                ids[id(node)] = "n%d" % counter[0]
                counter[0] += 1
            return ids[id(node)]

        def emit(node):
            lines.append(
                '  %s [label="%s"];' % (node_id(node), node.label().replace('"', "'"))
            )
            for child in node.children:
                emit(child)
                lines.append("  %s -> %s;" % (node_id(node), node_id(child)))

        emit(self.database_node)
        for node in self.reference_nodes():
            target_label = "ref_%s" % node.ref_target
            lines.append(
                '  %s [label="HeLU (C.O. \'%s\')" style=dashed];'
                % (target_label, node.ref_target)
            )
            lines.append(
                "  %s -> %s [style=dashed];" % (node_id(node), target_label)
            )
        lines.append("}")
        return "\n".join(lines)

    def _register(self, node: ObjectGraphNode):
        if node.path is not None:
            if node.path in self._by_path:
                raise SchemaError(
                    "duplicate object-graph path %r" % (format_path(node.path),)
                )
            self._by_path[node.path] = node


def build_object_graph(
    catalog,
    relation_name: str,
    group_atomic_blus: bool = False,
) -> ObjectSpecificLockGraph:
    """Construct the object-specific lock graph of ``relation_name``.

    Applies the derivation rules of section 4.3 to the relation's schema
    and validates every edge against the general lock graph (Figure 4).
    """
    schema = catalog.schema(relation_name)
    database_node = ObjectGraphNode(HELU, "database", catalog.database.name)
    segment_node = ObjectGraphNode(HELU, "segment", schema.segment)
    relation_node = ObjectGraphNode(HOLU, "relation", relation_name)
    validate_transition(HELU, HELU)
    validate_transition(HELU, HOLU)
    database_node.children.append(segment_node)
    segment_node.children.append(relation_node)

    graph = ObjectSpecificLockGraph(relation_name, database_node)

    object_node = ObjectGraphNode(HELU, "object", relation_name, path=())
    validate_transition(HOLU, HELU)
    relation_node.children.append(object_node)
    graph._register(object_node)

    _expand_tuple(
        graph, object_node, schema.object_type, (), group_atomic_blus
    )
    return graph


def _expand_tuple(graph, parent_node, tuple_type, path, group_atomic_blus):
    """Attach component nodes for a tuple type's attributes."""
    grouped: List[str] = []
    for name, attr_type in tuple_type.attributes:
        child_path = path + (AttrStep(name),)
        if group_atomic_blus and attr_type.is_atomic() and not attr_type.is_reference():
            grouped.append(name)
            continue
        _expand_component(graph, parent_node, attr_type, name, child_path, group_atomic_blus)
    if grouped:
        # Footnote 3: one BLU comprising the tuple's atomic hierarchy level;
        # it is registered under each grouped attribute's path so path
        # lookups keep working.
        blu = ObjectGraphNode(
            BLU,
            "component",
            "+".join(grouped),
            path=path + (AttrStep(grouped[0]),),
            grouped_attrs=grouped,
        )
        validate_transition(parent_node.kind, BLU)
        parent_node.children.append(blu)
        graph._by_path[blu.path] = blu
        for name in grouped[1:]:
            graph._by_path[path + (AttrStep(name),)] = blu


def _expand_component(graph, parent_node, attr_type, name, path, group_atomic_blus):
    kind = kind_for_type(attr_type)
    ref_target = attr_type.target_relation if isinstance(attr_type, RefType) else None
    node = ObjectGraphNode(kind, "component", name, path=path, ref_target=ref_target)
    validate_transition(parent_node.kind, kind)
    parent_node.children.append(node)
    graph._register(node)

    if isinstance(attr_type, TupleType):
        _expand_tuple(graph, node, attr_type, path, group_atomic_blus)
    elif isinstance(attr_type, (SetType, ListType)):
        element_type = attr_type.element_type
        element_path = path + (STAR,)
        element_kind = kind_for_type(element_type)
        element_ref = (
            element_type.target_relation
            if isinstance(element_type, RefType)
            else None
        )
        element_name = "%s element" % name if not isinstance(element_type, TupleType) else name
        element_node = ObjectGraphNode(
            element_kind,
            "component" if not isinstance(element_type, TupleType) else "object",
            element_name,
            path=element_path,
            ref_target=element_ref,
        )
        validate_transition(kind, element_kind)
        node.children.append(element_node)
        graph._register(element_node)
        if isinstance(element_type, TupleType):
            _expand_tuple(graph, element_node, element_type, element_path, group_atomic_blus)
        elif isinstance(element_type, (SetType, ListType)):
            # set of lists etc.: recurse one level deeper ("a set of lists
            # of integers is treated ... as a HoLU composed of HoLUs which
            # in turn consist of BLUs", section 4.2)
            _expand_collection_levels(
                graph, element_node, element_type, element_path, group_atomic_blus
            )


def _expand_collection_levels(graph, parent_node, collection_type, path, group_atomic_blus):
    element_type = collection_type.element_type
    element_path = path + (STAR,)
    element_kind = kind_for_type(element_type)
    element_ref = (
        element_type.target_relation if isinstance(element_type, RefType) else None
    )
    node = ObjectGraphNode(
        element_kind,
        "object" if isinstance(element_type, TupleType) else "component",
        "%s element" % parent_node.name,
        path=element_path,
        ref_target=element_ref,
    )
    validate_transition(parent_node.kind, element_kind)
    parent_node.children.append(node)
    graph._register(node)
    if isinstance(element_type, TupleType):
        _expand_tuple(graph, node, element_type, element_path, group_atomic_blus)
    elif isinstance(element_type, (SetType, ListType)):
        _expand_collection_levels(graph, node, element_type, element_path, group_atomic_blus)
