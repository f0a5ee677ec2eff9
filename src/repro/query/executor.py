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
schema, data structure or statistics move.  Step 3, and the
authorization check before it, run on every execution.

The executor is protocol-agnostic: the same queries run under the paper's
protocol or any baseline, which is how the benchmarks compare them.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

from repro.errors import QueryError
from repro.graphs.units import component_resource, object_resource, relation_resource
from repro.locking.modes import LockMode, S
from repro.nf2.paths import AttrStep, ElemStep
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
    query-specific lock graph happen once per shape; each execution then
    only evaluates and instantiates.  The plan also depends on the schema,
    the statistics and the relation sizes, so it is stamped
    ``(database.structure_version, statistics.version)`` the way compiled
    lock plans are, and recompiled when the stamp moves.
    """

    __slots__ = ("stamp", "intents", "graph", "anticipated", "relation", "recipes")

    def __init__(self, database, relation: str, stamp, intents, graph, anticipated):
        self.stamp = stamp
        self.intents = intents
        #: the root relation's query-specific lock graph
        self.graph = graph
        #: anticipated escalations planning counted; the optimizer's
        #: counter is advanced by as many on every execution
        self.anticipated = anticipated
        self.relation = relation
        segment = database.relation(relation).schema.segment
        #: per annotation: (mode, the relation resource for a relation-level
        #: granule or None, the granule's schema path below the object)
        self.recipes = [
            (
                annotation.mode,
                relation_resource(database.name, segment, relation)
                if annotation.relation_level
                else None,
                annotation.path,
            )
            for annotation in graph.annotations
        ]


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
        """Apply SET clauses to every selected row (locks already held)."""
        relation = self.database.relation(query.root_binding().relation)
        for row in rows:
            for assignment in query.assignments:
                container = row.value
                for part in assignment.path[:-1]:
                    if not isinstance(container, TupleValue):
                        raise QueryError(
                            "SET path %r does not resolve" % (assignment.path,)
                        )
                    container = container[part]
                if not isinstance(container, TupleValue):
                    raise QueryError(
                        "SET path %r does not resolve" % (assignment.path,)
                    )
                last = assignment.path[-1]
                old_value = container[last]
                container[last] = assignment.value
                record_undo = getattr(txn, "record_undo", None)
                if record_undo is not None:
                    record_undo(
                        lambda c=container, n=last, v=old_value: c.__setitem__(n, v)
                    )
            relation.schema.object_type.validate(
                row.object.root, resolver=self.database._resolves
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
            self.database, relation, stamp, intents, graphs[relation],
            self.optimizer.anticipated - before,
        )
        self._prepared[query.shape] = prepared
        while len(self._prepared) > PREPARED_SIZE:
            self._prepared.popitem(last=False)
        return prepared

    def _bind_and_plan(self, txn, query: Query):
        prepared = self._prepare(txn, query)
        rows = self._evaluate(query)
        demands: List[Tuple[Tuple, LockMode]] = []
        seen = set()
        for mode, relation_res, path in prepared.recipes:
            if relation_res is not None:
                resources = (relation_res,)
            else:
                resources = self._instantiate(prepared.relation, path, rows)
            for resource in resources:
                key = (resource, mode)
                if key not in seen:
                    seen.add(key)
                    demands.append(key)
        demands.extend(self._index_demands(query, seen))
        return rows, demands

    def _index_demands(self, query: Query, seen):
        """S locks on index entries for the root's equality predicates.

        The entry is locked whether or not a matching object exists —
        an inserter of that value must X-lock the same entry first, so
        equality-predicate phantoms cannot occur (section 5 future work,
        implemented via the index units of Figure 2).
        """
        from repro.graphs.units import index_entry_resource

        root = query.root_binding()
        relation = self.database.relation(root.relation)
        out = []
        for predicate in query.predicates_on(root.var):
            if len(predicate.path) != 1:
                continue
            if predicate.path[0] not in relation.indexes:
                continue
            entry = index_entry_resource(
                self.catalog, root.relation, predicate.path[0], predicate.value
            )
            if (entry, S) not in seen:
                seen.add((entry, S))
                out.append((entry, S))
        return out

    # -- evaluation -----------------------------------------------------------------

    def _evaluate(self, query: Query) -> List[ResultRow]:
        root = query.root_binding()
        relation = self.database.relation(root.relation)
        schema = relation.schema

        objects = []
        key_predicates = [
            p
            for p in query.predicates_on(root.var)
            if len(p.path) == 1 and p.path[0] == schema.key
        ]
        index_predicates = [
            p
            for p in query.predicates_on(root.var)
            if len(p.path) == 1 and p.path[0] in relation.indexes
        ]
        if key_predicates:
            key = key_predicates[0].value
            if relation.contains_key(key):
                objects.append(relation.get(key))
        elif index_predicates:
            # index-assisted evaluation: fetch candidates by surrogate
            # instead of scanning the relation
            predicate = index_predicates[0]
            index = relation.indexes[predicate.path[0]]
            for surrogate in index.lookup(predicate.value):
                objects.append(relation.get_by_surrogate(surrogate))
        else:
            objects.extend(relation)
        objects = [
            obj
            for obj in objects
            if self._matches(obj.root, query.predicates_on(root.var))
        ]

        chain = query.chain_to(query.select_var)
        rows: List[ResultRow] = []
        for obj in objects:
            partial = [((), obj.root)]
            for binding in chain[1:]:
                grown = []
                for steps, value in partial:
                    collection_steps = list(steps)
                    container = value
                    for part in binding.path:
                        if not isinstance(container, TupleValue):
                            raise QueryError(
                                "path %r does not reach a collection" % (binding.path,)
                            )
                        collection_steps.append(AttrStep(part))
                        container = container[part]
                    if not isinstance(container, (SetValue, ListValue)):
                        raise QueryError(
                            "range variable %r ranges over non-collection" % binding.var
                        )
                    for element in container:
                        if not self._matches(element, query.predicates_on(binding.var)):
                            continue
                        element_key = self._element_key(element)
                        grown.append(
                            (
                                tuple(collection_steps) + (ElemStep(element_key),),
                                element,
                            )
                        )
                partial = grown
            for steps, value in partial:
                final_steps = list(steps)
                final_value = value
                for part in query.select_path:
                    if not isinstance(final_value, TupleValue):
                        raise QueryError("projection through non-tuple at %r" % part)
                    final_steps.append(AttrStep(part))
                    final_value = final_value[part]
                rows.append(ResultRow(obj, final_steps, final_value))
        return rows

    def _matches(self, value, predicates) -> bool:
        for predicate in predicates:
            current = value
            for part in predicate.path:
                if not isinstance(current, TupleValue) or part not in current:
                    return False
                current = current[part]
            if current != predicate.value:
                return False
        return True

    def _element_key(self, element):
        if isinstance(element, TupleValue):
            for name in element.keys():
                if name.endswith("_id"):
                    return element[name]
        return repr(element)

    # -- lock instantiation ------------------------------------------------------------

    def _instantiate(self, relation: str, annotation_path, rows: List[ResultRow]):
        """Each row's instance of the granule at ``annotation_path``: the
        prefix of the row's path as long as that schema path.  Rows sharing
        an (object, prefix) pair build the resource once.  (No rows, no
        locks: the paper defers phantoms to section 5, and the protocol's
        ancestors cover the rest.)
        """
        cut = len(annotation_path)
        built = set()
        for row in rows:
            prefix = row.steps[:cut]
            key = (row.object.key, prefix)
            if key in built:
                continue
            built.add(key)
            if len(prefix) < cut:
                raise QueryError(
                    "annotation path %r longer than instance path %r"
                    % (annotation_path, row.steps)
                )
            yield component_resource(
                object_resource(self.catalog, relation, row.object.key), prefix
            )
