"""The paper's lock protocol (section 4.4.2.1, rules 1-5 and 4').

One logical demand — "lock this granule in this mode" — expands into the
explicit requests of the rules:

* **ancestors** (rules 1/2): every immediate parent up to the root of the
  requested node's unit — and, for inner units, of the *superunit* — is
  locked in the matching intention mode ("implicit upward propagation");
* **via-reference check**: when an entry point is reached through a
  reference (``via=`` the referencing node), that node must already be
  locked, at least in intention mode, by the transaction (explicitly or
  implicitly);
* **implicit downward propagation** (rules 3/4/4'): before S or X is
  granted on any node, every entry point of a lower inner unit accessible
  via that node is locked — S for an S demand; for an X demand, X on
  modifiable inner units and S on non-modifiable ones when rule 4' is
  active (the authorization-oriented solution), plain X otherwise;
* the **target** lock is granted last, exactly as in the paper's worked
  example ("As soon as all these locks are granted ... the X lock on
  'robot r1' was granted").

Order of requests is root-to-leaf (rule 5); release is leaf-to-root or at
end of transaction, handled by the transaction manager.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.catalog.authorization import DEFAULT_RIGHTS, principal_of
from repro.errors import AuthorizationError, ProtocolError
from repro.locking.modes import IX, S, X, LockMode, intention_of, supremum
from repro.protocol.base import PlannedLock, ProtocolBase


class HerrmannProtocol(ProtocolBase):
    """Lock protocol for disjoint and non-disjoint complex objects.

    Parameters
    ----------
    manager, catalog:
        lock manager and catalog (see :class:`ProtocolBase`).
    authorization:
        optional :class:`~repro.catalog.authorization.AuthorizationManager`;
        required for ``rule4prime``.
    rule4prime:
        apply the authorization-aware variant of rule 4 (default True when
        an authorization manager is supplied).
    transitive_propagation:
        follow references inside referenced objects too (common data may
        again contain common data, section 2).  Default True.
    """

    name = "herrmann"

    def __init__(
        self,
        manager,
        catalog,
        authorization=None,
        rule4prime: Optional[bool] = None,
        transitive_propagation: bool = True,
        **kwargs,
    ):
        super().__init__(manager, catalog, authorization=authorization, **kwargs)
        if rule4prime is None:
            rule4prime = authorization is not None
        if rule4prime and authorization is None:
            raise ProtocolError("rule 4' needs an authorization manager")
        self.rule4prime = rule4prime
        self.transitive_propagation = transitive_propagation
        #: shared downward suffixes, (entry, mode, principal class) ->
        #: steps, valid for the plan stamp they were built under
        self._suffixes = {}
        self._suffix_stamp = None

    # -- planning ---------------------------------------------------------------

    def plan_request(self, txn, resource, mode, via=None, propagate=True):
        return self.filter_plan(txn, self.plan_steps(txn, resource, mode, via, propagate))

    def plan_steps(
        self, txn, resource, mode: LockMode, via=None, propagate: bool = True
    ) -> Tuple[PlannedLock, ...]:
        """Expand one demand into the rule-mandated explicit requests.

        ``propagate=False`` applies the semantic refinement of the last
        paragraph of section 4.5: an operation that treats references as
        opaque values (e.g. deleting a robot without touching its
        effectors) "needs no locks on common data at all", so downward
        propagation is skipped.  The caller asserts reference
        transparency; the rules themselves are unchanged.
        """
        self._check_mode(mode)
        self._check_authorization(txn, resource, mode)

        # The via-check is transaction-dependent (it consults the caller's
        # held locks), so it runs on every demand — cache hit or not.
        if via is not None and self.units.in_inner_unit(resource):
            intention = intention_of(mode)
            if not self.effectively_holds(txn, via, intention):
                raise ProtocolError(
                    "referencing node %r must be (at least) %s locked before "
                    "entry point %r may be requested" % (via, intention, resource)
                )

        # Step expansion depends on the graph/schema (covered by the
        # stamp), the demand itself and — under rule 4', via the
        # can_modify answers baked into propagated modes — the principal.
        # Principals without explicit grants all get the default answers,
        # so they share one key (the raw principal would be the transaction
        # object for anonymous transactions: one dead entry per txn).
        principal = None
        if self.rule4prime:
            principal = principal_of(txn)
            if not self.authorization.is_restricted(principal):
                principal = DEFAULT_RIGHTS
        return self.compiled_steps(
            txn,
            (resource, mode, propagate, principal),
            lambda: self._compose(txn, resource, mode, propagate, principal),
        )

    def _compose(self, txn, resource, mode: LockMode, propagate, principal):
        """The merged steps of one demand: the *head* (the ancestors in the
        intention mode, "upward" above an inner unit's root), one shared
        *downward suffix* per lower entry point (:meth:`_suffix`; S, X and
        the semantic actual modes lock the whole subtree, so they
        propagate) and the *target*.  As :meth:`merge_steps` would merge
        them: head steps are distinct prefixes of the resource, so only the
        database, segment and relation nodes can recur, keeping their
        earliest position with the supremum mode."""
        intention = intention_of(mode)
        split = 4 if self.units.in_inner_unit(resource) else 1
        steps = [
            PlannedLock(resource[:i], intention, "upward" if i < split else "ancestor")
            for i in range(1, len(resource))
        ]
        position = {step.resource: index for index, step in enumerate(steps[:3])}
        stamp = self.plan_stamp()
        if self._suffix_stamp is not stamp:
            self._suffixes.clear()
            self._suffix_stamp = stamp
        parts = []
        if propagate and (mode in (S, X) or (mode.is_semantic and not mode.is_intention)):
            own = resource[:4]  # no lower entry point, even if it references itself
            for entry in self._entry_points(resource):
                if entry != own:
                    suffix = self._suffixes.get((entry, mode, principal))
                    parts.append(suffix or self._suffix(txn, entry, mode, principal))
        parts.append((PlannedLock(resource, mode, "target"),))
        for part in parts:
            for step in part:
                index = position.get(step.resource)
                if index is None:
                    position[step.resource] = len(steps)
                    steps.append(step)
                    continue
                held = steps[index]
                joined = supremum(held.mode, step.mode)
                if joined is not held.mode:
                    steps[index] = PlannedLock(held.resource, joined, held.reason)
        return tuple(steps)

    def _entry_points(self, resource):
        """Entry points of the lower inner units reachable from ``resource``."""
        if len(resource) >= 3:
            return self.units.entry_points(resource, self.transitive_propagation)
        # S/X on database or segment: never requested during normal
        # processing, but correctness demands every relation's entry points
        database = self.catalog.database
        entries = []
        for relation in self.catalog.relation_names():
            below = (database.name, database.relation(relation).segment, relation)
            if below[: len(resource)] == resource:
                entries.extend(self.units.entry_points(below, self.transitive_propagation))
        return entries

    def _suffix(self, txn, entry, mode: LockMode, principal):
        """The steps a lower entry point adds: its superunit path in the
        intention of the propagated mode, then the entry in that mode.  Not
        the object reaching the entry but the entry, the mode and (rule 4')
        the principal fix them, so plans of one stamp share them."""
        entry_mode = self._propagated_mode(txn, entry, mode)
        entry_intention = intention_of(entry_mode)
        suffix = self._suffixes[(entry, mode, principal)] = tuple(
            PlannedLock(ancestor, entry_intention, "downward-path")
            for ancestor in self.units.superunit_path(entry)
        ) + (PlannedLock(entry, entry_mode, "downward"),)
        return suffix

    def _propagated_mode(self, txn, entry_resource, mode: LockMode) -> LockMode:
        """Mode pushed onto a lower entry point (rule 3, 4 or 4')."""
        if mode is S:
            return S
        if mode.is_semantic:
            # a commuting-update claim extends unchanged into reachable
            # common data: other inserters/appenders/incrementers stay
            # admissible there, readers and general writers do not
            return mode
        if not self.rule4prime:
            return X  # rule 4: X propagates X everywhere
        relation_name = entry_resource[2]
        if self.authorization.can_modify(txn, relation_name):
            return X
        return S  # rule 4': least restrictive mode that is still safe

    def _check_authorization(self, txn, resource, mode: LockMode):
        """An (I)X demand on a relation's data needs the modify right."""
        if not self.rule4prime:
            return
        # semantic modes are update modes: commuting or not, an insert/
        # append/increment (or the intention to perform one) needs the
        # modify right exactly as X/IX do
        if mode not in (X, IX) and not mode.is_semantic:
            return
        if len(resource) < 3:
            return
        # index units ("relation#attr") carry their relation's rights
        relation_name = resource[2].split("#", 1)[0]
        if not self.authorization.can_modify(txn, relation_name):
            raise AuthorizationError(
                "transaction %r requested %s on %r without modify right on %r"
                % (txn, mode, resource, relation_name)
            )
