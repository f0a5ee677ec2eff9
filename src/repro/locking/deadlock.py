"""Waits-for-graph deadlock detection.

The paper does not prescribe deadlock handling (it only notes that lock
escalations "increase highly the probability for deadlocks"); detection is
infrastructure needed by the simulator and the transaction manager.  We
implement the textbook approach: build the waits-for graph from the lock
table, find cycles, abort the youngest transaction on each cycle.  The
table hands the graph over as ``(nodes, adjacency)`` read off its
per-entry memo (:meth:`~repro.locking.lock_table.LockTable.
waits_for_graph`); :func:`find_cycle` runs the same search over an
explicit edge list, for the oracle and the auditor.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple


def edge_graph(
    edges: Sequence[Tuple[object, object]]
) -> Tuple[List[object], Dict[object, List[object]]]:
    """``(nodes, adjacency)`` of the directed graph given by ``edges``.

    ``nodes`` lists every node in order of first appearance in the edge
    stream (source before target); ``adjacency`` maps each node with an
    out-edge to its targets in edge order.  The form
    :meth:`repro.locking.lock_table.LockTable.waits_for_graph` returns
    straight from its memo.
    """
    adjacency: Dict[object, List[object]] = {}
    for src, dst in edges:
        adjacency.setdefault(src, []).append(dst)
    return list(dict.fromkeys(chain.from_iterable(edges))), adjacency


def first_cycle(
    nodes: Sequence[object], adjacency: Dict[object, Sequence[object]]
) -> Optional[List[object]]:
    """Return one cycle of the graph ``(nodes, adjacency)``, or None.

    The returned list contains the nodes on the cycle in order, without
    repeating the starting node.  Depth-first search started from each
    unvisited node in ``nodes`` order, following out-edges in adjacency
    order; deterministic given both.  A node without out-edges is on no
    cycle and is never pushed.  The adjacency lists are only read — the
    lock table hands out its memo lists here.
    """
    # absent: no out-edges; 0: unvisited; 1: on the trail; 2: finished
    state = dict.fromkeys(adjacency, 0)
    get = state.get
    for start in nodes:
        if get(start) != 0:
            continue
        state[start] = 1
        trail = [start]
        stack = [iter(adjacency[start])]
        while stack:
            for target in stack[-1]:
                seen = get(target)
                if seen == 0:
                    state[target] = 1
                    trail.append(target)
                    stack.append(iter(adjacency[target]))
                    break
                if seen == 1:
                    return trail[trail.index(target):]
            else:
                stack.pop()
                state[trail.pop()] = 2
    return None


def find_cycle(edges: Sequence[Tuple[object, object]]) -> Optional[List[object]]:
    """:func:`first_cycle` over the graph given by an edge list — the
    cycle the detector's full pass returns for the same graph."""
    return first_cycle(*edge_graph(edges))


def all_cycle_members(edges: Sequence[Tuple[object, object]]) -> Set[object]:
    """Every transaction involved in some waits-for cycle.

    Computed as the union of non-trivial strongly connected components
    (Tarjan, iterative).  The reference the tests hold the rooted search
    to.
    """
    nodes, adjacency = edge_graph(edges)

    index_counter = [0]
    indices: Dict[object, int] = {}
    lowlinks: Dict[object, int] = {}
    on_stack: Set[object] = set()
    stack: List[object] = []
    members: Set[object] = set()

    def strongconnect(root):
        work = [(root, iter(adjacency.get(root, ())))]
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
                    work.append((target, iter(adjacency.get(target, ()))))
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
                elif node in adjacency.get(node, ()):  # self-loop
                    members.add(node)

    for node in nodes:
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
    a :meth:`resolve` loop interrupted with a cycle still standing.  A
    waiter that does reach itself also goes to the full pass:
    :func:`first_cycle` over ``table.waits_for_graph()`` alone chooses the
    cycle — the one :func:`find_cycle` finds in ``table.waits_for_edges()``
    — so victims do not depend on which search ran.  Callers whose
    transactions may have several requests outstanding (the served,
    pipelined detector) pass no waiter.
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
                cycle = first_cycle(*table.waits_for_graph())
            if cycle is None:
                self._acyclic_at_waits = waits
            if version is not None:
                self._last = (version, cycle)
        if cycle is not None:
            self.deadlocks_found += 1
        return cycle

    def _reaches_itself(self, waiter) -> bool:
        """Is ``waiter`` on a waits-for cycle?  Breadth-first over what it
        can reach, one set frontier per step read off the table's memo
        lists (``table.blocked_by``) — unless nobody waits for it: no
        edge in, no cycle through it."""
        table = self._lock_table
        if not table.is_waited_for(waiter):
            return False
        seen = {waiter}
        frontier = seen
        while frontier:
            reached = table.blocked_by(frontier)
            if waiter in reached:
                return True
            frontier = reached - seen
            seen |= frontier
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

    def resolve(self, on_victim, waiter=None) -> List[object]:
        """Break every waits-for cycle; return the victims in order.

        Loops :meth:`check` → :meth:`pick_victim` → ``on_victim(victim,
        cycle)`` until no cycle remains — breaking one cycle can expose
        another.  ``on_victim`` must take the victim's wait edges out of
        the table, usually through
        :meth:`repro.txn.manager.TransactionManager.kill`.  If it raises,
        the loop stops with the cycle standing and the next :meth:`check`
        runs the full pass.  ``waiter``: as for :meth:`check`.
        """
        victims = []
        while True:
            cycle = self.check(waiter)
            if cycle is None:
                return victims
            victim = self.pick_victim(cycle)
            victims.append(victim)
            on_victim(victim, cycle)
