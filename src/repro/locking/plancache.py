"""Compiled lock-plan cache: amortizing the protocols' plan computation.

Section 4.5 argues granule choice must keep lock *overhead* low; in this
library the overhead of the paper's protocol is dominated by plan
computation — walking ancestor chains, superunit paths and entry-point
closures for every logical demand.  Those walks depend only on the object
graph, the schema and (under rule 4') the requester's principal, not on
which transaction asks: the expansion of "X on robot r1 of cell c1" is
the same plan every time until the graph changes.

:class:`PlanCache` therefore memoizes the *merged but unfiltered* step
tuple of each demand (the transaction-independent part; the per-caller
"already held" filter stays outside).  Every compiled plan carries the
**version stamp** of the world it was computed against; a lookup whose
stamp no longer matches is treated as a miss and the stale plan evicted.
Protocols derive the stamp from the existing mutation hooks — the
database structure version (bumped by insert/delete/replace/
``notify_object_changed``, which undo actions and check-in also run
through) and the authorization version — so structural mutations,
checkout and undo all invalidate without any new bookkeeping calls.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple


class CompiledPlan:
    """One cached demand expansion: a reusable tuple of planned steps."""

    __slots__ = ("key", "stamp", "steps", "hits")

    def __init__(self, key, stamp, steps):
        self.key = key
        #: version stamp of the world the steps were compiled against
        self.stamp = stamp
        #: merged, unfiltered plan steps (tuple of PlannedLock), shared by
        #: every transaction that replays this demand — treat as immutable
        self.steps = steps
        self.hits = 0

    def __repr__(self):
        return "CompiledPlan(%r, stamp=%r, %d steps, %d hits)" % (
            self.key,
            self.stamp,
            len(self.steps),
            self.hits,
        )


class PlanCache:
    """Stamp-validated memo of compiled lock plans.

    Keys are protocol-chosen tuples — typically ``(resource, mode,
    options..., principal-context)``.  A stamp mismatch counts as an
    *invalidation* (and a miss) and drops the entry.  The one size bound,
    ``max_steps``, caps the plan steps retained over all live plans:
    memory is per step, and plan lengths differ tenfold between demands.
    Overflow evicts oldest-first in O(1); a plan longer than the whole
    budget is served but not retained, so ``PlanCache(0)`` retains none.
    """

    __slots__ = ("_plans", "max_steps", "steps", "hits", "misses", "invalidations")

    def __init__(self, max_steps: int = 16384):
        self._plans: "OrderedDict[tuple, CompiledPlan]" = OrderedDict()
        self.max_steps = max_steps
        #: steps retained over all live plans (never above ``max_steps``)
        self.steps = 0
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def __len__(self):
        return len(self._plans)

    def lookup(self, key: tuple, stamp: tuple) -> Optional[Tuple]:
        """Return the cached steps for ``key`` at ``stamp``, or None."""
        plan = self._plans.get(key)
        if plan is None:
            self.misses += 1
            return None
        if plan.stamp != stamp:
            self.invalidations += 1
            self.misses += 1
            del self._plans[key]
            self.steps -= len(plan.steps)
            return None
        self.hits += 1
        plan.hits += 1
        return plan.steps

    def store(self, key: tuple, stamp: tuple, steps: Tuple) -> CompiledPlan:
        plan = CompiledPlan(key, stamp, steps)
        plans = self._plans
        if key in plans:
            self.steps -= len(plans.pop(key).steps)
        size = len(steps)
        if size <= self.max_steps:
            while self.steps + size > self.max_steps:
                self.steps -= len(plans.popitem(last=False)[1].steps)
            plans[key] = plan
            self.steps += size
        return plan

    def clear(self):
        self._plans.clear()
        self.steps = 0

    def stats(self) -> Dict[str, int]:
        return {
            "plan_cache_size": len(self._plans),
            "plan_cache_steps": self.steps,
            "plan_cache_hits": self.hits,
            "plan_cache_misses": self.misses,
            "plan_cache_invalidations": self.invalidations,
        }

    def reset_stats(self):
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def __repr__(self):
        return "PlanCache(%r)" % (self.stats(),)
