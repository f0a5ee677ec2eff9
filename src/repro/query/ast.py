"""AST of the HDBL-like query subset (Figure 3).

The paper's example queries are written "in a query language which is an
extension of SQL" (essentially HDBL, footnote 2).  The reproduced subset
covers exactly the forms the lock technique consumes::

    SELECT o
    FROM   c IN cells, o IN c.c_objects
    WHERE  c.cell_id = 'c1'
    FOR    READ

    SELECT r
    FROM   c IN cells, r IN c.robots
    WHERE  c.cell_id = 'c1' AND r.robot_id = 'r2'
    FOR    UPDATE

i.e. range variables bound to relations or to collection-valued paths of
other variables, a conjunction of equality predicates, and an access
clause (FOR READ / FOR UPDATE / FOR DELETE).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import QueryError


class AccessKind:
    READ = "READ"
    UPDATE = "UPDATE"
    DELETE = "DELETE"

    ALL = (READ, UPDATE, DELETE)


class Binding:
    """``var IN source`` — source is a relation name or ``other_var.path``."""

    __slots__ = ("var", "relation", "base_var", "path")

    def __init__(self, var: str, relation: Optional[str] = None,
                 base_var: Optional[str] = None, path: Tuple[str, ...] = ()):
        if (relation is None) == (base_var is None):
            raise QueryError(
                "binding %r must come from a relation or from a variable path"
                % var
            )
        self.var = var
        self.relation = relation
        self.base_var = base_var
        self.path = tuple(path)

    @property
    def from_relation(self) -> bool:
        return self.relation is not None

    def __repr__(self):
        if self.from_relation:
            return "Binding(%s IN %s)" % (self.var, self.relation)
        return "Binding(%s IN %s.%s)" % (self.var, self.base_var, ".".join(self.path))


class Predicate:
    """``var.attr_path = literal`` (conjunctions only, like Q2/Q3)."""

    __slots__ = ("var", "path", "value")

    def __init__(self, var: str, path: Tuple[str, ...], value):
        if not path:
            raise QueryError("predicate needs an attribute path")
        self.var = var
        self.path = tuple(path)
        self.value = value

    def __repr__(self):
        return "Predicate(%s.%s = %r)" % (self.var, ".".join(self.path), self.value)


class Assignment:
    """``SET var.attr_path = literal`` — applied to every selected row."""

    __slots__ = ("var", "path", "value")

    def __init__(self, var: str, path: Tuple[str, ...], value):
        if not path:
            raise QueryError("assignment needs an attribute path")
        self.var = var
        self.path = tuple(path)
        self.value = value

    def __repr__(self):
        return "Assignment(%s.%s = %r)" % (self.var, ".".join(self.path), self.value)


class Query:
    """One parsed query."""

    def __init__(
        self,
        select_var: str,
        bindings: List[Binding],
        predicates: List[Predicate],
        access: str,
        select_path: Tuple[str, ...] = (),
        assignments: Optional[List["Assignment"]] = None,
    ):
        if access not in AccessKind.ALL:
            raise QueryError("unknown access kind %r" % access)
        by_var = {}
        for binding in bindings:
            if binding.var in by_var:
                raise QueryError("duplicate range variable %r" % binding.var)
            if not binding.from_relation and binding.base_var not in by_var:
                raise QueryError(
                    "binding %r uses unknown variable %r"
                    % (binding.var, binding.base_var)
                )
            by_var[binding.var] = binding
        if select_var not in by_var:
            raise QueryError("SELECT variable %r is not bound" % select_var)
        for predicate in predicates:
            if predicate.var not in by_var:
                raise QueryError(
                    "predicate uses unknown variable %r" % predicate.var
                )
        assignments = list(assignments or [])
        if assignments and access == AccessKind.READ:
            raise QueryError("SET clauses require FOR UPDATE")
        for assignment in assignments:
            if assignment.var != select_var:
                raise QueryError(
                    "SET may only assign through the selected variable %r"
                    % select_var
                )
        if assignments and select_path:
            raise QueryError("SET cannot be combined with a projection")
        self.select_var = select_var
        #: optional projection below the selected variable (``o.obj_name``)
        self.select_path = tuple(select_path)
        self.bindings = list(bindings)
        self.predicates = list(predicates)
        self.access = access
        self.assignments = assignments
        self.by_var = by_var
        self._shape: Optional[str] = None

    @property
    def shape(self) -> str:
        """This query with its literal values left out.

        Queries of one shape differ only in the values their predicates
        compare with and their assignments store; analysis and lock
        planning never read those values, so one plan serves them all.
        """
        shape = self._shape
        if shape is None:
            shape = self._shape = repr((
                self.access,
                self.select_var,
                self.select_path,
                [(b.var, b.relation, b.base_var, b.path) for b in self.bindings],
                [(p.var, p.path) for p in self.predicates],
                [(a.var, a.path) for a in self.assignments],
            ))
        return shape

    def binding_of(self, var: str) -> Binding:
        return self.by_var[var]

    def predicates_on(self, var: str) -> List[Predicate]:
        return [p for p in self.predicates if p.var == var]

    def root_binding(self) -> Binding:
        """The relation-bound variable the select variable descends from."""
        binding = self.binding_of(self.select_var)
        while not binding.from_relation:
            binding = self.binding_of(binding.base_var)
        return binding

    def chain_to(self, var: str) -> List[Binding]:
        """Bindings from the relation-bound root down to ``var``."""
        chain = [self.binding_of(var)]
        while not chain[0].from_relation:
            chain.insert(0, self.binding_of(chain[0].base_var))
        return chain

    def __repr__(self):
        return "Query(SELECT %s FROM %r WHERE %r FOR %s)" % (
            self.select_var,
            self.bindings,
            self.predicates,
            self.access,
        )
