"""Cardinality statistics feeding the lock-request optimizer.

Section 4.5 / section 5: "the lock granules and the corresponding lock
modes are determined automatically from a query and additional structural
and **statistical** information".  The statistics kept here are the ones
the escalation-anticipation heuristic needs:

* how many objects a relation holds,
* the average fan-out (cardinality) of each collection-valued schema path,

so the optimizer can estimate, for a query touching ``k`` children of a
node with expected fan-out ``n``, whether fine locks would later escalate.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.nf2.database import Database
from repro.nf2.paths import STAR, AttrStep, iter_schema_paths, schema_path
from repro.nf2.types import ListType, SetType
from repro.nf2.values import ListValue, SetValue, TupleValue


class Statistics:
    """Fan-out statistics per (relation, schema path).

    ``refresh`` scans the database; ``estimate_fanout`` answers optimizer
    queries with a default for never-seen paths (the optimizer must work
    before any data exists, matching the paper's query-analysis phase).
    ``version`` moves on every change to the recorded estimates, so plans
    derived from them can be stamped with it.
    """

    DEFAULT_FANOUT = 10.0

    def __init__(self, database: Database):
        self.database = database
        self._fanout: Dict[Tuple[str, Tuple], float] = {}
        self._object_counts: Dict[str, int] = {}
        self.version = 0

    def refresh(self):
        """Recompute all statistics by scanning the database."""
        self.version += 1
        self._fanout.clear()
        self._object_counts.clear()
        sums: Dict[Tuple[str, Tuple], list] = {}
        for relation in self.database.relations():
            self._object_counts[relation.name] = len(relation)
            collection_paths = [
                path
                for path, attr_type in iter_schema_paths(relation.schema.object_type)
                if isinstance(attr_type, (SetType, ListType))
            ]
            for obj in relation:
                for path in collection_paths:
                    for value in _instances_at(obj.root, path):
                        sums.setdefault((relation.name, path), []).append(len(value))
        for key, counts in sums.items():
            self._fanout[key] = sum(counts) / float(len(counts))
        return self

    def object_count(self, relation_name: str) -> int:
        return self._object_counts.get(
            relation_name, len(self.database.relation(relation_name))
        )

    def estimate_fanout(self, relation_name: str, path) -> float:
        """Average element count of the collection at ``path``.

        ``path`` may be an instance path; it is projected to its schema
        path.  Unknown paths fall back to :attr:`DEFAULT_FANOUT`.
        """
        key = (relation_name, schema_path(tuple(path)))
        return self._fanout.get(key, self.DEFAULT_FANOUT)

    def observe_fanout(self, relation_name: str, path, value: float):
        """Directly record a fan-out estimate (used by tests/benchmarks)."""
        self.version += 1
        self._fanout[(relation_name, schema_path(tuple(path)))] = float(value)


def _instances_at(root: TupleValue, path):
    """Yield every instance value at a schema path (``*`` fans out)."""
    current = [root]
    for step in path:
        nxt = []
        for value in current:
            if isinstance(step, AttrStep):
                if isinstance(value, TupleValue) and step.name in value:
                    nxt.append(value[step.name])
            elif step == STAR or step.__class__.__name__ == "ElemStep":
                if isinstance(value, (SetValue, ListValue)):
                    nxt.extend(value)
        current = nxt
    return current
