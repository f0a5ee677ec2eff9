"""Invariant auditing of a live lock state.

``audit(protocol)`` inspects the lock table and the database and reports
every violation of the invariants the paper's correctness rests on:

1. **compatibility** — concurrently granted modes on one resource are
   pairwise compatible (the lock table's core guarantee);
2. **intention chains** — a transaction holding any lock on a non-root
   resource holds at least the matching intention mode on every ancestor
   *within the same unit and superunit path* (rules 1-4);
3. **entry-point visibility** — a transaction holding S/X on a node whose
   subtree references common data also holds a lock on every reachable
   entry point (the downward-propagation obligation; its absence is
   exactly the from-the-side hazard of section 3.2.2);
4. **waiting consistency** — no waiting request could actually be granted
   (no lost wakeups);
5. **deadlock verdict** — while the wait graph has not moved since the
   detector last answered "acyclic" (possibly from a search rooted at one
   waiter), the reference full pass must find no cycle either;
6. **group mode** — every resource entry's packed per-mode holder counts
   (what the lock table decides grants from) equal a recount of its
   holders;
7. **held index** — the per-transaction indexes the grant and release
   fast paths maintain inline (held-mode summary, owned resources in
   first-grant order, waiting requests in enqueue order) agree with the
   entries, and no empty entry stays in the table.

The auditor is intentionally protocol-agnostic: run it against a baseline
(e.g. ``NaiveDAGUnsafeProtocol``) and it *finds* the paper's problem —
see ``tests/integration/test_verify.py``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.graphs.units import (
    UnitMap,
    ancestors,
    object_resource,
    relation_resource,
)
from repro.locking.deadlock import find_cycle
from repro.locking.modes import (
    HELD_UNIT,
    S,
    SIX,
    X,
    compatible,
    covers,
    intention_of,
)
from repro.nf2.refindex import reference_resource_parts
from repro.nf2.values import collect_references


class Violation:
    """One audit finding."""

    __slots__ = ("rule", "txn", "resource", "detail")

    def __init__(self, rule, txn, resource, detail):
        self.rule = rule
        self.txn = txn
        self.resource = resource
        self.detail = detail

    def __repr__(self):
        return "Violation(%s, txn=%r, resource=%r: %s)" % (
            self.rule,
            self.txn,
            self.resource,
            self.detail,
        )


def audit(protocol) -> List[Violation]:
    """Audit the protocol's lock manager against all invariants."""
    violations: List[Violation] = []
    violations.extend(check_compatibility(protocol.manager))
    violations.extend(check_intention_chains(protocol))
    violations.extend(check_entry_point_visibility(protocol))
    violations.extend(check_waiting_consistency(protocol.manager))
    violations.extend(check_deadlock_verdict(protocol.manager))
    violations.extend(check_group_mode(protocol.manager))
    violations.extend(check_held_index(protocol.manager))
    violations.extend(check_indexes(protocol.catalog.database))
    violations.extend(
        check_reference_index(protocol.catalog.database, protocol.catalog)
    )
    return violations


#: Rule name -> check callable, for selective per-step auditing.
STEP_CHECKS = {
    "compatibility": lambda protocol: check_compatibility(protocol.manager),
    "intention-chain": lambda protocol: check_intention_chains(protocol),
    "entry-point-visibility": lambda protocol: check_entry_point_visibility(
        protocol
    ),
    "waiting-consistency": lambda protocol: check_waiting_consistency(
        protocol.manager
    ),
    "deadlock-verdict": lambda protocol: check_deadlock_verdict(
        protocol.manager
    ),
    "group-mode": lambda protocol: check_group_mode(protocol.manager),
    "held-index": lambda protocol: check_held_index(protocol.manager),
    "index-consistency": lambda protocol: check_indexes(
        protocol.catalog.database
    ),
    "reference-index": lambda protocol: check_reference_index(
        protocol.catalog.database, protocol.catalog
    ),
}


def audit_step(protocol, rules=("compatibility", "waiting-consistency")):
    """Selective audit for after-every-step use (schedule exploration).

    The full :func:`audit` rescans indexes and the reference index, which
    is wasteful thousands of times per exploration; callers pick exactly
    the rules their protocol is obliged to satisfy.  Unknown rule names
    raise ``KeyError`` rather than silently checking nothing.
    """
    violations: List[Violation] = []
    for rule in rules:
        violations.extend(STEP_CHECKS[rule](protocol))
    return violations


def check_indexes(database) -> List[Violation]:
    """Every index must agree exactly with its relation's contents.

    5. **index consistency** — for each indexed attribute, the index maps
       value v to surrogate s iff the stored object s carries v; no
       dangling and no missing entries (maintenance must be atomic with
       the data change, including undo paths).
    """
    out: List[Violation] = []
    for relation in database.relations():
        for attribute, index in relation.indexes.items():
            expected = {}
            for obj in relation:
                expected.setdefault(obj.root[attribute], []).append(obj.surrogate)
            actual = {value: sorted(index.lookup(value)) for value in index.values()}
            expected = {value: sorted(s) for value, s in expected.items()}
            if actual != expected:
                missing = {
                    value: s for value, s in expected.items()
                    if actual.get(value) != s
                }
                stale = {
                    value: s for value, s in actual.items()
                    if expected.get(value) != s
                }
                out.append(
                    Violation(
                        "index-consistency",
                        None,
                        (relation.name, attribute),
                        "missing=%r stale=%r" % (missing, stale),
                    )
                )
    return out


def check_reference_index(database, catalog) -> List[Violation]:
    """The incremental reference index must agree with a fresh scan.

    6. **reference-index consistency** — for every relation and object
       resource, and for both transitive settings, the index-backed
       ``entry_points_below`` equals the naive instance-subtree scan
       exactly (order included); every object's cached direct reference
       list equals a fresh tree walk; and the reverse-edge occurrence
       counts match a full recount.
    """
    out: List[Violation] = []
    units = UnitMap(catalog)
    index = database.reference_index
    expected_counts: Dict[Tuple[str, str], int] = {}
    for relation in database.relations():
        resources = [
            relation_resource(database.name, relation.segment, relation.name)
        ]
        for obj in relation:
            resources.append(object_resource(catalog, relation.name, obj.key))
            fresh = tuple(
                reference_resource_parts(obj.root, relation.schema.object_type)
            )
            cached = index._direct.get((relation.name, obj.surrogate), ())
            if cached != fresh:
                out.append(
                    Violation(
                        "reference-index",
                        None,
                        (relation.name, str(obj.key)),
                        "stale direct entries: cached=%r fresh=%r"
                        % (cached, fresh),
                    )
                )
            for ref in collect_references(obj.root):
                target = (ref.relation, ref.surrogate)
                expected_counts[target] = expected_counts.get(target, 0) + 1
        for resource in resources:
            for transitive in (False, True):
                fast = units.entry_points_below(
                    resource, transitive=transitive, naive=False
                )
                naive = units.entry_points_below(
                    resource, transitive=transitive, naive=True
                )
                if fast != naive:
                    out.append(
                        Violation(
                            "reference-index",
                            None,
                            resource,
                            "entry points diverge (transitive=%s): "
                            "index=%r scan=%r" % (transitive, fast, naive),
                        )
                    )
    actual_counts = {
        target: sum(sources.values())
        for target, sources in index._referencing.items()
    }
    if actual_counts != expected_counts:
        out.append(
            Violation(
                "reference-index",
                None,
                None,
                "reverse-edge counts diverge: index=%r recount=%r"
                % (actual_counts, expected_counts),
            )
        )
    return out


def check_compatibility(manager) -> List[Violation]:
    out = []
    for resource in manager.table.locked_resources():
        holders = list(manager.holders(resource).items())
        for i, (txn_a, mode_a) in enumerate(holders):
            for txn_b, mode_b in holders[i + 1 :]:
                if not compatible(mode_a, mode_b):
                    out.append(
                        Violation(
                            "compatibility",
                            (txn_a, txn_b),
                            resource,
                            "%s and %s granted concurrently" % (mode_a, mode_b),
                        )
                    )
    return out


def check_intention_chains(protocol) -> List[Violation]:
    """Every held lock needs intention cover on its in-unit ancestors."""
    out = []
    manager = protocol.manager
    units = protocol.units
    for resource in manager.table.locked_resources():
        for txn, mode in manager.holders(resource).items():
            required = intention_of(mode)
            unit_root = units.unit_root(resource)
            for ancestor in ancestors(resource):
                # within the unit, plus the superunit path of inner units:
                # for outer-unit members that is every prefix anyway
                held = manager.held_mode(txn, ancestor)
                if held is not None and covers(held, required):
                    continue
                # an ancestor covered *implicitly* by a coarse lock higher
                # up is fine too (S/X imply the whole subtree)
                if protocol.effectively_holds(txn, ancestor, S) or (
                    protocol.effectively_holds(txn, ancestor, X)
                ):
                    continue
                out.append(
                    Violation(
                        "intention-chain",
                        txn,
                        resource,
                        "ancestor %r lacks (at least) %s" % (ancestor, required),
                    )
                )
    return out


def check_entry_point_visibility(protocol) -> List[Violation]:
    """S/X holders must have locked every reachable entry point.

    Semantic actual modes (SI/AP/INC) implicitly claim their operation
    class over the subtree exactly as S claims reads, so they carry the
    same downward-propagation obligation.
    """
    out = []
    manager = protocol.manager
    units = protocol.units
    for resource in manager.table.locked_resources():
        if len(resource) < 3:
            continue
        for txn, mode in manager.holders(resource).items():
            if mode not in (S, SIX, X) and not (
                mode.is_semantic and not mode.is_intention
            ):
                continue
            try:
                entries = units.entry_points_below(resource, transitive=True)
            except Exception:
                continue
            for entry in entries:
                held = manager.held_mode(txn, entry)
                if held is None:
                    out.append(
                        Violation(
                            "entry-point-visibility",
                            txn,
                            resource,
                            "holds %s but no lock on reachable entry point %r"
                            % (mode, entry),
                        )
                    )
    return out


def check_waiting_consistency(manager) -> List[Violation]:
    """No waiting request may be grantable (lost-wakeup detector)."""
    out = []
    table = manager.table
    for resource, entry in list(table._entries.items()):
        for request in list(entry.queue):
            if entry.conversions or entry.queue[0] is not request:
                continue  # FIFO: only the head could be grantable
            grantable = all(
                compatible(held.mode, request.target_mode)
                for txn, held in entry.granted.items()
                if txn != request.txn
            )
            if grantable:
                out.append(
                    Violation(
                        "waiting-consistency",
                        request.txn,
                        resource,
                        "head waiter for %s is grantable but still queued"
                        % request.target_mode,
                    )
                )
    return out


def check_deadlock_verdict(manager) -> List[Violation]:
    """A standing "acyclic" verdict must survive the reference full pass.

    On-wait detection answers most checks from a search rooted at the new
    waiter (:class:`repro.locking.deadlock.DeadlockDetector`); a wrong
    ``None`` there is an undetected deadlock.  Whenever the detector's last
    verdict is "acyclic" and the wait graph has not moved since, this
    re-derives the answer from the complete edge list.
    """
    if not manager.detector.acyclic_verdict_stands():
        return []
    cycle = find_cycle(manager.table.waits_for_edges())
    if cycle is None:
        return []
    return [
        Violation(
            "deadlock-verdict",
            None,
            None,
            "detector answered acyclic but the full pass finds %r" % (cycle,),
        )
    ]


def check_group_mode(manager) -> List[Violation]:
    """Every entry's group mode must equal a recount of its holders.

    The lock table answers "is this mode compatible with every holder?"
    from ``entry.held`` alone, so a count that drifted from
    ``entry.granted`` is a wrong grant waiting to happen.
    """
    out: List[Violation] = []
    for resource, entry in manager.table._entries.items():
        recount = sum(HELD_UNIT[held.code] for held in entry.granted.values())
        if entry.held != recount:
            out.append(
                Violation(
                    "group-mode",
                    None,
                    resource,
                    "packed holder counts %#x, holders recount to %#x"
                    % (entry.held, recount),
                )
            )
    return out


def check_held_index(manager) -> List[Violation]:
    """The per-transaction indexes must agree with the entries.

    ``_txn_modes[txn]`` maps exactly the resources ``txn`` holds to
    ``entry.granted[txn].mode``; ``_txn_waiting[txn]`` holds exactly
    ``txn``'s queued requests, in enqueue order; no empty entry stays in
    ``_entries``.
    """
    out: List[Violation] = []

    def flag(txn, resource, detail):
        out.append(Violation("held-index", txn, resource, detail))

    table = manager.table
    holders: Dict[object, Dict[object, object]] = {}
    queued: Dict[object, set] = {}
    for resource, entry in table._entries.items():
        if entry.empty():
            flag(None, resource, "empty entry kept")
        for txn, held in entry.granted.items():
            holders.setdefault(txn, {})[resource] = held.mode
        for request in list(entry.conversions) + list(entry.queue):
            queued.setdefault(request.txn, set()).add(request)
    for txn in set(holders) | set(table._txn_modes):
        summary = table._txn_modes.get(txn)
        if not summary or summary != holders.get(txn, {}):
            flag(txn, None, "held-mode summary %r, entries hold %r"
                 % (summary, holders.get(txn, {})))
    for txn in set(queued) | set(table._txn_waiting):
        waiting = list(table._txn_waiting.get(txn, ()))
        stamps = [request.enqueued_at for request in waiting]
        if not waiting or set(waiting) != queued.get(txn, set()):
            flag(txn, None, "waiting index %r, queued %r"
                 % (waiting, list(queued.get(txn, ()))))
        elif stamps != sorted(stamps):
            flag(txn, None, "waiting index out of enqueue order")
    return out
