"""Common machinery of all lock protocols.

A protocol turns one *logical* lock demand ("X on robot r1 of cell c1")
into an ordered **lock plan**: the explicit lock requests to submit to the
lock manager, root-to-leaf (rule 5).  Planning is separated from execution
so that

* the synchronous API (`request`) can run plans directly (tests, examples,
  threaded use), and
* the discrete-event simulator can execute plans stepwise, suspending a
  transaction while any step waits.

The base class also implements *implicit lock* visibility (section 3.1):
a node is implicitly locked in S when an ancestor within the same unit
holds S/SIX/X, and implicitly in X when the ancestor holds X.  Implicit
locks never cross dashed (reference) edges — that blindness is exactly the
protocol-oriented problem of section 3.2.2 which the paper's protocol
fixes with downward propagation.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import ProtocolError
from repro.graphs.units import UnitMap, ancestors
from repro.locking.manager import LockManager
from repro.locking.modes import (
    IS,
    IX,
    S,
    SIX,
    X,
    LockMode,
    covers,
    supremum,
)
from repro.locking.plancache import PlanCache


class PlannedLock:
    """One step of a lock plan."""

    __slots__ = ("resource", "mode", "reason")

    def __init__(self, resource: Tuple, mode: LockMode, reason: str = ""):
        self.resource = resource
        self.mode = mode
        #: provenance: "target", "ancestor", "upward", "downward", ...
        self.reason = reason

    def __repr__(self):
        return "PlannedLock(%r, %s, %s)" % (self.resource, self.mode, self.reason)

    def __eq__(self, other):
        return (
            isinstance(other, PlannedLock)
            and self.resource == other.resource
            and self.mode == other.mode
        )


class LockPlan:
    """An ordered sequence of lock requests for one logical demand."""

    def __init__(self, steps: List[PlannedLock]):
        self.steps = steps

    def __iter__(self):
        return iter(self.steps)

    def __len__(self):
        return len(self.steps)

    def __repr__(self):
        return "LockPlan(%r)" % (self.steps,)


class ProtocolBase:
    """Shared services: plan execution, implicit-lock checks, metrics."""

    #: subclass marker used in benchmark reports
    name = "base"

    #: whether this protocol's demand expansion is a pure function of the
    #: object graph / schema / principal (False where the *work* of
    #: planning is semantic, e.g. the naive DAG reverse scan whose cost is
    #: the benchmarked quantity)
    plan_cacheable = True

    def __init__(
        self,
        manager: LockManager,
        catalog,
        authorization=None,
        use_semantic_modes: bool = False,
    ):
        self.manager = manager
        self.catalog = catalog
        self.units = UnitMap(catalog)
        self.authorization = authorization
        #: ablation flag: accept the commutativity-aware semantic modes
        #: (SI/AP/INC and their intentions).  Off by default: the classic
        #: protocol must be bit-identical to the pre-extension behaviour.
        self.use_semantic_modes = use_semantic_modes
        #: compiled demand expansions, stamped by the database structure
        #: / authorization versions — the one planning path
        self.plan_cache = PlanCache()
        #: the last plan_stamp(), shared by every plan compiled against it
        self._stamp = (None, None)
        #: optional :class:`repro.faults.FaultInjector`; fires the
        #: ``plan.expand`` point on every demand's expansion and
        #: ``plan.execute`` before the plan's lock requests are submitted
        self.fault_injector = None
        #: explicit lock requests issued through this protocol instance
        self.locks_requested = 0
        #: logical demands served
        self.demands = 0

    # -- planning: subclasses provide _raw_steps or plan_steps ------------------

    def plan_request(self, txn, resource, mode, via=None) -> LockPlan:
        """Expand one demand into the plan ``txn`` still has to request:
        :meth:`plan_steps`, filtered for its held locks."""
        return self.filter_plan(txn, self.plan_steps(txn, resource, mode, via))

    def plan_steps(self, txn, resource, mode, via=None) -> Tuple[PlannedLock, ...]:
        """One demand's merged :meth:`_raw_steps`, compiled once per
        ``(resource, mode)`` and unfiltered, as ``manager.acquire_many``
        takes them.  Fits expansions that read neither ``txn`` nor ``via``."""
        self._check_mode(mode)
        return self.compiled_steps(
            txn, (resource, mode), lambda: self.merge_steps(self._raw_steps(resource, mode))
        )

    def _raw_steps(self, resource, mode) -> List[PlannedLock]:
        raise NotImplementedError

    # -- plan execution -----------------------------------------------------------

    def request(self, txn, resource, mode, via=None, wait=False, long=False):
        """Plan and execute a lock demand synchronously.

        Steps already covered by held locks are re-requested cheaply (the
        lock table grants a covered re-request immediately); a conflicting
        step with ``wait=False`` raises LockConflictError, leaving earlier
        steps granted (the transaction abort path releases them).
        Returns the list of granted requests.
        """
        plan = self.plan_request(txn, resource, mode, via=via)
        return self.execute_plan(txn, plan, wait=wait, long=long)

    def execute_plan(self, txn, plan: LockPlan, wait=False, long=False):
        self.demands += 1
        if self.fault_injector is not None:
            # before any step is submitted: a raise here aborts the demand
            # with no partially acquired prefix at all
            self.fault_injector.fire("plan.execute", txn=txn, steps=len(plan))
        granted = []
        for step in plan:
            self.locks_requested += 1
            request = self.manager.acquire(
                txn, step.resource, step.mode, long=long, wait=wait
            )
            granted.append(request)
            if not request.granted:
                # Simulator mode: caller must wait for this request before
                # continuing the plan.
                break
        return granted

    def release_all(self, txn, keep_long: bool = False):
        return self.manager.release_all(txn, keep_long=keep_long)

    def release_early(self, txn, resource):
        """Release one lock before end of transaction (rule 5).

        Rule 5 permits early release only "in leaf-to-root order": a node
        may be released only when the transaction holds no lock on any of
        its descendants (otherwise those would lose their intention
        cover).  Violations raise :class:`~repro.errors.ProtocolError`.
        Early release trades 2PL guarantees for concurrency — callers own
        that decision; the transaction manager never does this.
        """
        held = self.manager.held_mode(txn, resource)
        if held is None:
            raise ProtocolError("%r holds no lock on %r" % (txn, resource))
        depth = len(resource)
        for other in self.manager.table.resources_of(txn):
            if len(other) > depth and other[:depth] == resource:
                raise ProtocolError(
                    "leaf-to-root release violated: %r still holds %r "
                    "below %r" % (txn, other, resource)
                )
        woken = []
        while self.manager.held_mode(txn, resource) is not None:
            woken.extend(self.manager.release(txn, resource))
        return woken

    def explain(self, txn, resource, mode, via=None):
        """Human-readable rendering of a lock plan (the style of the
        paper's worked example in section 4.4.2.2)."""
        plan = self.plan_request(txn, resource, mode, via=via)
        lines = []
        for step in plan:
            lines.append(
                "%-4s on %-55s (%s)"
                % (step.mode, "/".join(str(p) for p in step.resource), step.reason)
            )
        return lines

    # -- implicit-lock visibility -------------------------------------------------

    def effectively_holds(self, txn, resource, required: LockMode) -> bool:
        """Does ``txn`` hold ``resource`` in ``required``, counting implicit locks?

        Explicit locks count via the restrictiveness order; implicit locks
        derive from ancestors *within the same unit* (never across dashed
        edges): an ancestor S/SIX/X lock implicitly S-locks the subtree, an
        ancestor X lock implicitly X-locks it.
        """
        held = self.manager.held_mode(txn, resource)
        if held is not None and covers(held, required):
            return True
        unit_root = self.units.unit_root(resource)
        for ancestor in ancestors(resource):
            # Only ancestors inside the same unit propagate implicit locks;
            # above the unit root there are only intention locks anyway.
            if len(ancestor) < len(unit_root):
                continue
            ancestor_mode = self.manager.held_mode(txn, ancestor)
            if ancestor_mode is None:
                continue
            if ancestor_mode is X and covers(X, required):
                return True
            if ancestor_mode in (S, SIX, X) and covers(S, required):
                return True
            # a semantic actual mode (SI/AP/INC) implicitly claims its
            # commuting operation class over the whole subtree, exactly
            # as S implicitly S-locks it
            if (
                ancestor_mode.is_semantic
                and not ancestor_mode.is_intention
                and covers(ancestor_mode, required)
            ):
                return True
        return False

    def visible_mode_for_others(self, resource) -> List[Tuple[object, LockMode]]:
        """All (txn, mode) pairs that lock ``resource`` explicitly or implicitly.

        This is the conflict-visibility question of section 3.2.2: a
        correct protocol must make every lock on shared data *visible* to
        transactions arriving via other graphs.  Used by tests to prove
        the unsafe baseline loses visibility and the paper's protocol does
        not.
        """
        found = list(self.manager.holders(resource).items())
        unit_root = self.units.unit_root(resource)
        for ancestor in ancestors(resource):
            if len(ancestor) < len(unit_root):
                continue
            for txn, mode in self.manager.holders(ancestor).items():
                if mode in (S, SIX, X):
                    implicit = X if mode is X else S
                    found.append((txn, implicit))
                elif mode.is_semantic and not mode.is_intention:
                    # SI/AP/INC implicitly hold themselves over the subtree
                    found.append((txn, mode))
        return found

    # -- shared planning helpers ------------------------------------------------------

    def finish_plan(self, txn, steps: List[PlannedLock]) -> LockPlan:
        """Deduplicate a raw step list into an executable plan.

        A resource planned twice keeps its earliest position with the
        supremum of all requested modes (a stronger mode earlier is always
        safe); steps the transaction already covers explicitly are dropped
        so repeated demands stay cheap and plans match the figures.
        """
        return self.filter_plan(txn, self._expanded(txn, self.merge_steps(steps)))

    def merge_steps(self, steps: List[PlannedLock]) -> Tuple[PlannedLock, ...]:
        """Merge duplicates: earliest position, supremum of modes.

        This is the transaction-*independent* half of plan finishing — its
        output is what the plan cache stores and shares across callers.
        """
        merged: List[PlannedLock] = []
        position = {}
        for step in steps:
            if step.resource in position:
                index = position[step.resource]
                merged[index] = PlannedLock(
                    step.resource,
                    supremum(merged[index].mode, step.mode),
                    merged[index].reason,
                )
                continue
            position[step.resource] = len(merged)
            merged.append(step)
        return tuple(merged)

    def _expanded(self, txn, merged):
        # once per demand, before any lock request: nothing to undo on raise
        if self.fault_injector is not None:
            self.fault_injector.fire("plan.expand", txn=txn, steps=len(merged))
        return merged

    def filter_plan(self, txn, merged) -> LockPlan:
        """Drop merged steps the transaction already covers explicitly.

        The transaction-*dependent* half of a :meth:`plan_request`,
        against the caller's current held locks.  The held-mode
        summary is read once per demand: a transaction holding nothing
        gets every step back unprobed, otherwise each step costs one dict
        probe and one ``covers`` test.  Never mutates ``merged`` (cached
        step tuples are shared).
        """
        held = self.manager.held_modes(txn)
        if not held:
            return LockPlan(list(merged))
        get = held.get
        return LockPlan(
            [
                step
                for step in merged
                if (mode := get(step.resource)) is None
                or not covers(mode, step.mode)
            ]
        )

    def compiled_steps(self, txn, key: tuple, build) -> Tuple[PlannedLock, ...]:
        """Merged steps for ``txn``'s demand, via the plan cache; the
        ``plan.expand`` fault point fires once they are at hand.

        ``build()`` computes the merged step tuple; ``key`` must capture
        every plan-shaping input apart from the world state the stamp
        covers — target resource, mode, propagation options and (under
        rule 4') the requesting principal.  Uncacheable protocols just
        build.
        """
        if not self.plan_cacheable:
            return self._expanded(txn, build())
        stamp = self.plan_stamp()
        steps = self.plan_cache.lookup(key, stamp)
        if steps is None:
            steps = self.plan_cache.store(key, stamp, build()).steps
        return self._expanded(txn, steps)

    def plan_stamp(self) -> tuple:
        """Version stamp of every world state compiled plans depend on.

        The database structure version moves on insert/delete/replace/
        restore, component writes (``notify_object_changed`` — which undo
        actions and check-in also run through) and relation/index creation;
        the authorization version moves on grant/revoke.  Any bump
        invalidates all cached plans by stamp mismatch.  One tuple per
        version pair is shared by every plan compiled against it.
        """
        structure = self.catalog.database.structure_version
        auth = self.authorization
        auth_version = -1 if auth is None else auth.version
        stamp = self._stamp
        if stamp[0] != structure or stamp[1] != auth_version:
            stamp = self._stamp = (structure, auth_version)
        return stamp

    def _check_mode(self, mode: LockMode):
        if mode in (IS, IX, S, X, SIX):
            return
        if mode.is_semantic and self.use_semantic_modes:
            return
        raise ProtocolError("unsupported lock mode %r" % (mode,))

    def metrics(self) -> dict:
        out = {
            "protocol": self.name,
            "demands": self.demands,
            "locks_requested": self.locks_requested,
            "locks_per_demand": (
                round(self.locks_requested / self.demands, 4)
                if self.demands
                else 0.0
            ),
            "use_semantic_modes": self.use_semantic_modes,
        }
        out.update(self.plan_cache.stats())
        return out

    def reset_metrics(self):
        self.demands = 0
        self.locks_requested = 0
        self.plan_cache.reset_stats()
