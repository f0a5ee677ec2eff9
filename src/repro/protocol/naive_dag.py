"""Baselines: the straightforward DAG protocol on non-disjoint objects.

Section 3.2.2 analyses what happens when the traditional DAG lock protocol
(GLPT76) is applied unchanged to non-disjoint complex objects, and this
module implements both horns of that dilemma:

* :class:`NaiveDAGProtocol` keeps the DAG rule "before requesting an X or
  IX lock on a node, **all parent nodes** must be locked in IX" — correct,
  but exclusively locking a node of shared data requires finding every
  referencing object by a **reverse-reference scan** over the database
  ("It is a very time-consuming task to find out which robots are
  affected") and locking each referencing object's whole chain.  The scan
  cost is accounted in ``Database.scan_cost`` and the extra locks in the
  plan, which is what benchmark E2 measures.

* :class:`NaiveDAGUnsafeProtocol` gives the rule up without a replacement
  — locks are placed along *one* access path only and implicit locks are
  trusted to cover referenced data.  This loses conflicts on
  "from-the-side" access: a second transaction reaching the shared node
  via another graph never sees the first one's implicit locks, "and the
  database could be transformed into an inconsistent state."  Test E3
  demonstrates the resulting lost update.
"""

from __future__ import annotations

from typing import List

from repro.graphs.units import ancestors, object_resource
from repro.locking.modes import IX, X, LockMode, intention_of
from repro.protocol.base import PlannedLock, ProtocolBase


class NaiveDAGProtocol(ProtocolBase):
    """Traditional DAG rules applied verbatim to the non-disjoint graph.

    Sub-object granules exist (like the paper's protocol), S requests need
    one parent path (rule: "at least one parent node ... in IS"), but X/IX
    requests on shared data must lock **all** parents, found by scanning.
    """

    name = "naive_dag"

    #: NOT plan-cacheable: the reverse-reference scan *is* this baseline's
    #: measured overhead (``Database.scan_cost``); memoizing its result
    #: would change the semantics the benchmarks exist to expose.
    plan_cacheable = False

    def plan_steps(self, txn, resource, mode: LockMode, via=None):
        self._check_mode(mode)
        intention = intention_of(mode)
        steps: List[PlannedLock] = []
        for ancestor in ancestors(resource):
            steps.append(PlannedLock(ancestor, intention, "ancestor"))

        shared = len(resource) >= 4 and self.catalog.is_common_data(resource[2])
        if shared and mode in (X, IX):
            # All parents of a node within common data include every node
            # holding a reference to it, across the database: determine
            # them by a reverse scan (the expensive part) and IX-lock each
            # full chain down to the referencing node ("each single robot
            # (inclusive all its parent nodes) must be locked").
            from repro.graphs.units import component_resource

            target_object = self.units.resolve(resource[:4])
            referencing = self.catalog.database.scan_referencing(
                target_object.reference()
            )
            for obj, ref_steps in referencing:
                obj_resource = object_resource(self.catalog, obj.relation, obj.key)
                holder = component_resource(obj_resource, ref_steps)
                for ancestor in ancestors(holder):
                    steps.append(PlannedLock(ancestor, IX, "parent-chain"))
                steps.append(PlannedLock(holder, IX, "referencing-parent"))

        steps.append(PlannedLock(resource, mode, "target"))
        return self._expanded(txn, self.merge_steps(steps))


class NaiveDAGUnsafeProtocol(ProtocolBase):
    """The DAG protocol with the all-parents rule dropped and nothing added.

    Locks run along the single access path of the requesting query;
    references are *not* followed (the transaction trusts its implicit
    locks to cover the referenced data).  Cheap — and wrong on shared
    data: from-the-side access is not synchronized.
    """

    name = "naive_dag_unsafe"

    def plan_steps(self, txn, resource, mode: LockMode, via=None):
        self._check_mode(mode)
        intention = intention_of(mode)
        steps: List[PlannedLock] = []
        for ancestor in ancestors(resource):
            steps.append(PlannedLock(ancestor, intention, "ancestor"))
        steps.append(PlannedLock(resource, mode, "target"))
        return self._expanded(txn, self.merge_steps(steps))
