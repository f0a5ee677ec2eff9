"""Waits-for-graph deadlock detection.

The paper does not prescribe deadlock handling (it only notes that lock
escalations "increase highly the probability for deadlocks"); detection is
infrastructure needed by the simulator and the transaction manager.  We
implement the textbook approach: build the waits-for graph from the lock
table, find cycles, abort the youngest transaction on each cycle.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple


def find_cycle(edges: Sequence[Tuple[object, object]]) -> Optional[List[object]]:
    """Return one cycle in the directed graph given by ``edges``, or None.

    The returned list contains the transactions on the cycle in order,
    without repeating the starting node.  Iterative DFS with three-colour
    marking; deterministic given edge order.
    """
    adjacency: Dict[object, List[object]] = {}
    for src, dst in edges:
        adjacency.setdefault(src, []).append(dst)
        adjacency.setdefault(dst, [])

    WHITE, GREY, BLACK = 0, 1, 2
    colour = {node: WHITE for node in adjacency}

    for start in adjacency:
        if colour[start] != WHITE:
            continue
        stack: List[Tuple[object, int]] = [(start, 0)]
        trail: List[object] = []
        while stack:
            node, edge_index = stack[-1]
            if edge_index == 0:
                colour[node] = GREY
                trail.append(node)
            neighbours = adjacency[node]
            if edge_index < len(neighbours):
                stack[-1] = (node, edge_index + 1)
                target = neighbours[edge_index]
                if colour[target] == GREY:
                    cycle_start = trail.index(target)
                    return trail[cycle_start:]
                if colour[target] == WHITE:
                    stack.append((target, 0))
            else:
                colour[node] = BLACK
                stack.pop()
                trail.pop()
    return None


def all_cycle_members(edges: Sequence[Tuple[object, object]]) -> Set[object]:
    """Every transaction involved in some waits-for cycle.

    Computed as the union of non-trivial strongly connected components
    (Tarjan, iterative).  Used by tests and by bulk victim selection.
    """
    adjacency: Dict[object, List[object]] = {}
    edge_set: Set[Tuple[object, object]] = set()
    for src, dst in edges:
        adjacency.setdefault(src, []).append(dst)
        adjacency.setdefault(dst, [])
        edge_set.add((src, dst))

    index_counter = [0]
    indices: Dict[object, int] = {}
    lowlinks: Dict[object, int] = {}
    on_stack: Set[object] = set()
    stack: List[object] = []
    members: Set[object] = set()

    def strongconnect(root):
        work = [(root, iter(adjacency[root]))]
        indices[root] = lowlinks[root] = index_counter[0]
        index_counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, neighbours = work[-1]
            advanced = False
            for target in neighbours:
                if target not in indices:
                    indices[target] = lowlinks[target] = index_counter[0]
                    index_counter[0] += 1
                    stack.append(target)
                    on_stack.add(target)
                    work.append((target, iter(adjacency[target])))
                    advanced = True
                    break
                if target in on_stack:
                    lowlinks[node] = min(lowlinks[node], indices[target])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlinks[parent] = min(lowlinks[parent], lowlinks[node])
            if lowlinks[node] == indices[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    members.update(component)
                elif (node, node) in edge_set:  # self-loop
                    members.add(node)

    for node in adjacency:
        if node not in indices:
            strongconnect(node)
    return members


class DeadlockDetector:
    """Detects deadlocks over a lock table and picks victims.

    ``age_of`` maps a transaction to its start timestamp; the *youngest*
    transaction (largest timestamp) on a cycle is chosen as victim — long
    transactions, having invested the most work, are spared, which matches
    the paper's concern that rolling back a weeks-long transaction "is not
    acceptable".

    **Rooted detection.**  A caller that checks on every wait passes the
    transaction that just started waiting to :meth:`check`.  A waits-for
    cycle can only be closed by a new wait edge, so if the graph was
    acyclic before that wait, every cycle now runs through the waiter:
    "can the waiter reach itself?" decides acyclicity at a cost
    proportional to what the waiter can reach instead of to the table —
    and at the cost of reading the waiter's own entries when nobody waits
    for it (``table.is_waited_for``): a transaction with no incoming edge
    is on no cycle, so the search is not started.
    That argument needs every transaction to have at most one outstanding
    request and blocked transactions to stay passive (then grants,
    releases and cancellations cannot close a cycle), and it needs the
    "acyclic before" premise.  The detector owns the premise: it searches
    from the waiter only when exactly one request was enqueued since its
    own last *acyclic* verdict (``table.waits`` moved by one), and runs the
    full pass otherwise — no waiter given, waits it was never asked about,
    a resolve loop that was interrupted with a cycle still standing.  A
    waiter that does reach itself also goes to the full pass:
    :func:`find_cycle` alone chooses the cycle, so victims do not depend
    on which search ran.  Callers whose transactions may have several
    requests outstanding (the served, pipelined detector) pass no waiter.
    """

    def __init__(self, lock_table, age_of: Optional[Callable[[object], float]] = None):
        self._lock_table = lock_table
        self._age_of = age_of or (lambda txn: 0)
        #: optional :class:`repro.faults.FaultInjector`; lets a fault plan
        #: override victim selection (the ``deadlock.victim`` point)
        self.fault_injector = None
        self.detections = 0
        self.deadlocks_found = 0
        self.cached_checks = 0
        #: checks answered "acyclic" by the search from the waiter alone
        self.rooted_checks = 0
        # (wait_graph_version, cycle) of the last detection; while the
        # table is quiescent the answer cannot change, so check() is O(1).
        self._last: Optional[Tuple[int, Optional[List[object]]]] = None
        # ``table.waits`` at the last acyclic verdict (None: no such verdict)
        self._acyclic_at_waits: Optional[int] = None

    def set_age_of(self, age_of: Optional[Callable[[object], float]]):
        """Replace the age function (victim selection policy) in place.

        Keeps detection counters and the quiescence memo — only the
        *choice* of victim changes, not what counts as a deadlock.
        """
        self._age_of = age_of or (lambda txn: 0)

    def reset_metrics(self):
        """Zero ``deadlocks_found`` with the table's counters.  The table's
        ``waits`` restarts too, so the acyclic stamp taken against it is
        dropped: the next check is a full pass."""
        self.deadlocks_found = 0
        self._acyclic_at_waits = None

    def acyclic_verdict_stands(self) -> bool:
        """Is the last verdict "acyclic", with no table change since?

        What the ``deadlock-verdict`` audit rule (:mod:`repro.verify`)
        confirms against the reference full pass."""
        return (
            self._last is not None
            and self._last[1] is None
            and self._last[0]
            == getattr(self._lock_table, "wait_graph_version", None)
        )

    def check(self, waiter=None) -> Optional[List[object]]:
        """Return one waits-for cycle or None.

        ``waiter`` is the transaction whose request was just enqueued (see
        the class docstring); without it every check is the full pass.
        """
        self.detections += 1
        table = self._lock_table
        version = getattr(table, "wait_graph_version", None)
        if version is not None and self._last is not None and self._last[0] == version:
            self.cached_checks += 1
            cycle = self._last[1]
        else:
            waits = table.waits
            if (
                waiter is not None
                and waits - 1 == self._acyclic_at_waits
                and not self._reaches_itself(waiter)
            ):
                self.rooted_checks += 1
                cycle = None
            else:
                cycle = find_cycle(table.waits_for_edges())
            if cycle is None:
                self._acyclic_at_waits = waits
            if version is not None:
                self._last = (version, cycle)
        if cycle is not None:
            self.deadlocks_found += 1
        return cycle

    def _reaches_itself(self, waiter) -> bool:
        """Is ``waiter`` on a waits-for cycle?  DFS over what it can reach,
        unless nobody waits for it: no edge in, no cycle through it."""
        if not self._lock_table.is_waited_for(waiter):
            return False
        blockers_of = self._lock_table.blockers_of
        seen = set()
        stack = [waiter]
        while stack:
            for blocker in blockers_of(stack.pop()):
                if blocker == waiter:
                    return True
                if blocker not in seen:
                    seen.add(blocker)
                    stack.append(blocker)
        return False

    def pick_victim(self, cycle: Sequence[object]):
        """Youngest transaction on the cycle (ties broken by repr order)."""
        victim = max(cycle, key=lambda txn: (self._age_of(txn), repr(txn)))
        if self.fault_injector is not None:
            # A fault plan may force a different (e.g. the oldest) victim:
            # correctness must not depend on the victim-selection policy.
            victim = self.fault_injector.choose(
                "deadlock.victim",
                victim,
                sorted(cycle, key=lambda txn: (self._age_of(txn), repr(txn))),
            )
        return victim
