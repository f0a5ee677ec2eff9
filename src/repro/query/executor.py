"""Query execution under a lock protocol.

Implements the full pipeline of section 4.1:

1. **query analysis** — :class:`~repro.query.analyzer.QueryAnalyzer`
   extracts access intents;
2. **optimization** — the lock-request optimizer chooses granules/modes
   and stores them in a query-specific lock graph;
3. **execution** — range variables are bound against the database, the
   stored granule/mode information is instantiated on the touched
   instances, locks are requested from the lock manager through the
   active protocol, and only then is data returned.

Steps 1 and 2 depend on the query's shape (:attr:`Query.shape`), not on
its literals, so they run once per shape: the result, a
:class:`PreparedQuery` holding the stored lock graph, is kept until the
schema, data structure or statistics move.  So does everything of step 3
that the shape fixes (the access path, which predicates test which range
variable, each element type's key, how each annotation is instantiated):
the prepared query holds it as a compiled walk, and each execution runs
that walk on the query's literals after the authorization check.

The executor is protocol-agnostic: the same queries run under the paper's
protocol or any baseline, which is how the benchmarks compare them.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

from repro.errors import QueryError
from repro.graphs.units import component_resource, index_resource, relation_resource
from repro.locking.modes import LockMode, S
from repro.nf2.paths import AttrStep, ElemStep, resolve_type
from repro.nf2.types import TupleType
from repro.nf2.values import ListValue, SetValue, TupleValue
from repro.query.analyzer import QueryAnalyzer
from repro.query.ast import AccessKind, Query
from repro.query.parser import parse_query


class ResultRow:
    """One query result: the selected value plus its instance address."""

    __slots__ = ("object", "steps", "value")

    def __init__(self, obj, steps, value):
        self.object = obj
        self.steps = tuple(steps)
        self.value = value

    def __repr__(self):
        return "ResultRow(%r, %r)" % (self.object, self.value)


#: distinct query shapes whose prepared plans are kept, oldest dropped first
PREPARED_SIZE = 256


class PreparedQuery:
    """What the executor derives from a query's shape (section 4.1).

    Analysis, optimization and the storing of granules/modes in the
    query-specific lock graph happen once per shape, and so does compiling
    the walk that evaluates the query and instantiates the graph; each
    execution only binds the literals and walks.  The plan also depends on
    the schema, the indexes, the statistics and the relation sizes, so it
    is stamped ``(database.structure_version, statistics.version)`` the
    way compiled lock plans are, and recompiled when the stamp moves.

    A predicate is named by its *slot*, its position in
    ``query.predicates``, which the shape fixes.
    """

    __slots__ = (
        "stamp", "intents", "graph", "anticipated", "relation", "root",
        "root_tests", "key_slot", "index", "levels", "select", "base",
        "recipes", "entries",
    )

    def __init__(self, catalog, query: Query, stamp, intents, graph, anticipated):
        self.stamp = stamp
        self.intents = intents
        #: the root relation's query-specific lock graph
        self.graph = graph
        #: anticipated escalations planning counted; the optimizer's
        #: counter is advanced by as many on every execution
        self.anticipated = anticipated
        root = query.root_binding()
        self.relation = root.relation
        relation = self.root = catalog.database.relation(root.relation)
        schema = relation.schema
        tests = {}
        for slot, predicate in enumerate(query.predicates):
            tests.setdefault(predicate.var, []).append((slot, predicate.path))
        #: (slot, path) of each predicate on the root variable
        self.root_tests = tests.get(root.var, [])
        single = [(slot, path[0]) for slot, path in self.root_tests if len(path) == 1]
        keyed = [slot for slot, name in single if name == schema.key]
        indexed = [(slot, name) for slot, name in single if name in relation.indexes]
        #: the root access path: the key predicate's slot, else (slot,
        #: attribute) of the first indexed equality, else neither (a scan)
        self.key_slot = keyed[0] if keyed else None
        self.index = indexed[0] if indexed and not keyed else None
        #: per range variable below the root: (var, the collection's
        #: attribute names and steps, (slot, path) of its predicates, the
        #: element type's schema key, or None to name elements by repr)
        self.levels = []
        value_type = schema.object_type
        for binding in query.chain_to(query.select_var)[1:]:
            for name in binding.path:
                value_type = value_type.attribute_type(name)
            value_type = value_type.element_type
            key = value_type.key if isinstance(value_type, TupleType) else None
            self.levels.append((
                binding.var, binding.path, tuple(map(AttrStep, binding.path)),
                tests.get(binding.var, []), key,
            ))
        self.select = (query.select_path, tuple(map(AttrStep, query.select_path)))
        self.base = relation_resource(catalog.database.name, schema.segment, root.relation)
        #: per annotation: (mode, the relation resource for a relation-level
        #: granule or None, the length of the granule's path below the object)
        self.recipes = [
            (annotation.mode, self.base if annotation.relation_level else None,
             len(annotation.path))
            for annotation in graph.annotations
        ]
        _assigned_types(relation, query)  # a refused SET fails once per shape
        #: (slot, index resource) of the root's indexed equalities
        self.entries = [
            (slot, index_resource(catalog, root.relation, name)) for slot, name in indexed
        ]

    def walk(self, values) -> List[ResultRow]:
        """The rows of this shape's query under predicate literals ``values``."""
        relation = self.root
        if self.key_slot is not None:
            key = values[self.key_slot]
            objects = [relation.get(key)] if relation.contains_key(key) else []
        elif self.index is not None:
            slot, attribute = self.index
            objects = [
                relation.get_by_surrogate(surrogate)
                for surrogate in relation.indexes[attribute].lookup(values[slot])
            ]
        else:
            objects = relation
        root_tests = [(path, values[slot]) for slot, path in self.root_tests]
        levels = [
            (var, names, steps, [(path, values[slot]) for slot, path in tests], key)
            for var, names, steps, tests, key in self.levels
        ]
        select_names, select_steps = self.select
        rows: List[ResultRow] = []
        for obj in objects:
            if root_tests and not _matches(obj.root, root_tests):
                continue
            partial = [((), obj.root)]
            for var, names, steps, tests, key in levels:
                grown = []
                for prefix, value in partial:
                    for name in names:
                        if not isinstance(value, TupleValue):
                            raise QueryError("path %r does not reach a collection" % (names,))
                        value = value[name]
                    if not isinstance(value, (SetValue, ListValue)):
                        raise QueryError("range variable %r ranges over non-collection" % var)
                    prefix += steps
                    for element in value:
                        if tests and not _matches(element, tests):
                            continue
                        grown.append((
                            prefix + (ElemStep(repr(element) if key is None else element[key]),),
                            element,
                        ))
                partial = grown
            for prefix, value in partial:
                for name in select_names:
                    if not isinstance(value, TupleValue):
                        raise QueryError("projection through non-tuple at %r" % name)
                    value = value[name]
                rows.append(ResultRow(obj, prefix + select_steps, value))
        return rows

    def demands(self, values, rows) -> List[Tuple[Tuple, LockMode]]:
        """The (resource, mode) demands of the walk's ``rows``: each
        annotation's granule on every row (no rows, no locks: the paper
        defers phantoms to section 5, and the protocol's ancestors cover
        the rest), then S on the index entry of each indexed equality on
        the root, present or not — an inserter of that value must X-lock
        the same entry first, so equality phantoms cannot occur."""
        demands: List[Tuple[Tuple, LockMode]] = []
        seen = set()
        for mode, relation, cut in self.recipes:
            if relation is not None:
                resources = (relation,)
            else:
                resources = [
                    component_resource(self.base + (str(row.object.key),), row.steps[:cut])
                    for row in rows
                ]
            for resource in resources:
                demand = (resource, mode)
                if demand not in seen:
                    seen.add(demand)
                    demands.append(demand)
        for slot, index in self.entries:
            demand = (index + (str(values[slot]),), S)
            if demand not in seen:
                seen.add(demand)
                demands.append(demand)
        return demands


def _assigned_types(relation, query: Query) -> list:
    """The type of the attribute each SET clause of ``query`` writes.

    A schema key or an indexed root attribute is refused: a key names the
    object or element the query's granules lock and an index entry is a
    granule of its own, so writing either moves what others lock.
    """
    chain = query.chain_to(query.select_var)
    selected = []
    for binding in chain[1:]:
        selected += [*map(AttrStep, binding.path), ElemStep("*")]
    refused = {getattr(resolve_type(relation.schema.object_type, selected), "key", None)}
    refused.update(relation.indexes if len(chain) == 1 else ())
    for assignment in query.assignments:
        if assignment.path[0] in refused:
            raise QueryError(
                "SET cannot write %s.%s, a schema key or an indexed attribute; use "
                "TransactionManager.update_component" % (assignment.var, assignment.path[0])
            )
    return [
        resolve_type(relation.schema.object_type, selected + list(map(AttrStep, a.path)))
        for a in query.assignments
    ]


def _matches(value, tests) -> bool:
    """Whether ``value`` passes every (path, literal) equality test."""
    for path, literal in tests:
        current = value
        for name in path:
            if not isinstance(current, TupleValue) or name not in current:
                return False
            current = current[name]
        if current != literal:
            return False
    return True


class QueryExecutor:
    """Executes parsed queries for a transaction under a protocol.

    The optimizer's thresholds are read when a shape is prepared; they are
    fixed at its construction.
    """

    def __init__(self, protocol, optimizer, analyzer: Optional[QueryAnalyzer] = None):
        self.protocol = protocol
        self.optimizer = optimizer
        self.catalog = protocol.catalog
        self.database = protocol.catalog.database
        #: must read ``optimizer.statistics``, whose version stamps plans
        self.analyzer = analyzer or QueryAnalyzer(
            self.catalog, optimizer.statistics
        )
        self._prepared: "OrderedDict[str, PreparedQuery]" = OrderedDict()

    # -- public API --------------------------------------------------------------

    def execute(self, txn, query, wait: bool = False) -> List[ResultRow]:
        """Run a query (text or AST) for ``txn``; returns result rows.

        Locks are requested before data is handed out; a conflict raises
        (``wait=False``) or parks the plan (simulator integration uses
        :meth:`lock_requirements` directly instead).
        """
        if isinstance(query, str):
            query = parse_query(query)
        rows, demands = self._bind_and_plan(txn, query)
        for resource, mode in demands:
            self.protocol.request(txn, resource, mode, wait=wait, long=getattr(txn, "long", False))
        if query.assignments:
            self._apply_assignments(txn, query, rows)
        return rows

    def _apply_assignments(self, txn, query: Query, rows):
        """Apply SET clauses to every selected row (locks already held).

        Every value is checked against its attribute's type first, so a
        rejected statement writes nothing.
        """
        relation = self.database.relation(query.root_binding().relation)
        types = _assigned_types(relation, query)
        for assignment, value_type in zip(query.assignments, types):
            value_type.validate(assignment.value, resolver=self.database._resolves)
        record_undo = getattr(txn, "record_undo", None)
        for row in rows:
            for assignment in query.assignments:
                container = row.value
                for part in assignment.path[:-1]:
                    container = container[part]
                last = assignment.path[-1]
                old_value = container[last]
                container[last] = assignment.value
                if record_undo is not None:
                    record_undo(
                        lambda c=container, n=last, v=old_value: c.__setitem__(n, v)
                    )

    def lock_requirements(self, txn, query) -> Tuple[List[ResultRow], List[Tuple[Tuple, LockMode]]]:
        """Rows plus the (resource, mode) demands, without acquiring locks.

        Used by the discrete-event simulator, which acquires the demands
        stepwise in simulated time.
        """
        if isinstance(query, str):
            query = parse_query(query)
        return self._bind_and_plan(txn, query)

    # -- internals ------------------------------------------------------------------

    def _check_authorization(self, txn, relation: str, access: str):
        authorization = self.protocol.authorization
        if authorization is None:
            return
        if access == AccessKind.READ:
            authorization.check_read(txn, relation)
        else:
            authorization.check_modify(txn, relation)

    def _prepare(self, txn, query: Query) -> PreparedQuery:
        """The prepared plan of the query's shape, after checking that
        ``txn`` may run it (on every execution, before any analysis)."""
        stamp = (self.database.structure_version, self.optimizer.statistics.version)
        prepared = self._prepared.get(query.shape)
        if prepared is not None and prepared.stamp == stamp:
            self._check_authorization(txn, prepared.relation, query.access)
            self.optimizer.anticipated += prepared.anticipated
            return prepared
        relation = query.root_binding().relation
        self._check_authorization(txn, relation, query.access)
        intents = self.analyzer.analyze(query)
        before = self.optimizer.anticipated
        graphs = self.optimizer.plan_query(intents)
        prepared = PreparedQuery(
            self.catalog, query, stamp, intents, graphs[relation],
            self.optimizer.anticipated - before,
        )
        self._prepared[query.shape] = prepared
        while len(self._prepared) > PREPARED_SIZE:
            self._prepared.popitem(last=False)
        return prepared

    def _bind_and_plan(self, txn, query: Query):
        prepared = self._prepare(txn, query)
        values = [predicate.value for predicate in query.predicates]
        rows = prepared.walk(values)
        return rows, prepared.demands(values, rows)
