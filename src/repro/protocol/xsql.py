"""Baseline: XSQL complex-object locking (Figure 2(b), section 3.1).

System R extended for complex objects (Haskin/Lorie) adds one granule —
the *complex object* — between relation and tuple: "In this way it is
possible to lock a complex object with a single lock."

Applied to non-disjoint objects the whole-object lock must cover the
common data too ("locking complex objects as a whole (**including existing
common data, if any**) prohibits a high degree of concurrency", section
1): every referenced object is locked wholly in the same mode.  The
result is cheap lock administration but needless serialization — query Q1
and Q2 of Figure 3 conflict even though they touch different parts of cell
c1 (the granule-oriented problem, section 3.2.1).
"""

from __future__ import annotations

from typing import List

from repro.graphs.units import ancestors
from repro.locking.modes import S, X, LockMode, intention_of
from repro.protocol.base import PlannedLock, ProtocolBase


class XSQLProtocol(ProtocolBase):
    """Whole-complex-object granularity locking."""

    name = "xsql"

    def _raw_steps(self, resource, mode: LockMode) -> List[PlannedLock]:
        intention = intention_of(mode)
        if len(resource) < 4:
            # database/segment/relation demands look like System R's
            target = resource
        else:
            # any demand within a complex object locks the whole object
            target = resource[:4]
        steps: List[PlannedLock] = []
        for ancestor in ancestors(target):
            steps.append(PlannedLock(ancestor, intention, "ancestor"))
        if mode in (S, X) and len(target) >= 4:
            # the whole-object lock covers common data by locking every
            # (transitively) referenced object in the same mode
            for entry in self.units.entry_points_below(target, transitive=True):
                for ancestor in ancestors(entry):
                    steps.append(PlannedLock(ancestor, intention, "ref-ancestor"))
                steps.append(PlannedLock(entry, mode, "ref-object"))
        steps.append(PlannedLock(target, mode, "object"))
        return steps
