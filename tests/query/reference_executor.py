"""The interpreted evaluator the compiled walk replaced, kept as a reference.

:class:`ReferenceExecutor` shares analysis, optimization and the prepared
lock graph with :class:`~repro.query.QueryExecutor` and re-derives the
execution half on every call: the access path, each variable's
predicates, element keys (from the schema) and the per-row instantiation
of every annotation.  The differential tests run both on the same queries
and demand the same rows and demands, in the same order.
"""

from typing import List, Tuple

from repro.errors import QueryError
from repro.graphs.units import (
    component_resource,
    index_entry_resource,
    object_resource,
    relation_resource,
)
from repro.locking.modes import LockMode, S
from repro.nf2.paths import AttrStep, ElemStep
from repro.nf2.types import TupleType
from repro.nf2.values import ListValue, SetValue, TupleValue
from repro.query import QueryExecutor
from repro.query.ast import Query
from repro.query.executor import ResultRow


class ReferenceExecutor(QueryExecutor):
    """Evaluates and instantiates from scratch on every execution."""

    def _bind_and_plan(self, txn, query: Query):
        prepared = self._prepare(txn, query)
        relation = prepared.relation
        rows = self._evaluate(query)
        demands: List[Tuple[Tuple, LockMode]] = []
        seen = set()
        for annotation in prepared.graph.annotations:
            if annotation.relation_level:
                segment = self.catalog.schema(relation).segment
                resources = (relation_resource(self.database.name, segment, relation),)
            else:
                resources = self._instantiate(relation, annotation.path, rows)
            for resource in resources:
                key = (resource, annotation.mode)
                if key not in seen:
                    seen.add(key)
                    demands.append(key)
        demands.extend(self._index_demands(query, seen))
        return rows, demands

    def _index_demands(self, query: Query, seen):
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
            value_type = schema.object_type
            for binding in chain[1:]:
                for part in binding.path:
                    value_type = value_type.attribute_type(part)
                value_type = value_type.element_type
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
                        element_key = self._element_key(value_type, element)
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

    def _element_key(self, element_type, element):
        if isinstance(element_type, TupleType) and element_type.key is not None:
            return element[element_type.key]
        return repr(element)

    def _instantiate(self, relation: str, annotation_path, rows: List[ResultRow]):
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
