"""The detector's waits-for graph against the definition.

``waits_for_graph()`` reads ``(nodes, adjacency)`` straight off the
per-entry blockers memo, and ``first_cycle`` searches it; the reference is
``reference_edges`` (the edges from the definition, no memo) turned into
nodes and adjacency here, and a textbook recursive search over it.  The
differential drives the lock manager through requests, conversions,
releases, cancels and aborts, with and without ``reader_bypass``, under
two disciplines: on-wait (one outstanding request per transaction) and
served (a waiting transaction goes on requesting, so it waits at several
entries).  After every action
the graph, its cycle and the detector's full pass must equal the
reference, and no list the graph handed out may have been written.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.locking.deadlock import edge_graph, find_cycle, first_cycle
from repro.locking.manager import LockManager
from repro.locking.modes import CLASSIC_MODES, IS, MODES_BY_CODE, S, SIX, X
from tests.locking.test_rooted_detection import MANAGERS, reference_edges

RESOURCES = [("db", "rel", "c%d" % i) for i in range(5)]
TXNS = ["t%d" % i for i in range(5)]

ACTIONS = st.lists(
    st.tuples(
        st.sampled_from(["request"] * 8 + ["release", "cancel", "abort", "full"]),
        st.integers(0, len(TXNS) - 1),
        st.integers(0, len(RESOURCES) - 1),
        # half the draws are S/X (codes 2 and 4): conflicts, hence waits
        st.one_of(st.sampled_from([2, 4]), st.integers(0, len(MODES_BY_CODE) - 1)),
    ),
    min_size=1,
    max_size=60,
)


def reference_graph(edges):
    """Nodes in first-appearance order of ``edges``, and every source's
    targets in edge order."""
    nodes = []
    adjacency = {}
    for src, dst in edges:
        for node in (src, dst):
            if node not in nodes:
                nodes.append(node)
        adjacency.setdefault(src, []).append(dst)
    return nodes, adjacency


def reference_cycle(edges):
    """The textbook recursive search: start from each unvisited node in
    first-appearance order, follow edges in order, stop at the first edge
    back into the current path."""
    nodes, adjacency = reference_graph(edges)
    finished = set()
    path = []

    def visit(node):
        path.append(node)
        for target in adjacency.get(node, ()):
            if target in path:
                return path[path.index(target):]
            if target not in finished:
                cycle = visit(target)
                if cycle is not None:
                    return cycle
        path.pop()
        finished.add(node)
        return None

    for node in nodes:
        if node not in finished:
            cycle = visit(node)
            if cycle is not None:
                return cycle
    return None


def memo_is_fresh(table):
    """Every entry's memoized ``request -> blockers`` and node order equal
    a rebuild from scratch (the memo is put back afterwards)."""
    for entry in table._entries.values():
        _, blockers, nodes = table._entry_waits(entry)
        kept = entry.waits_cache
        entry.waits_cache = None
        _, fresh_blockers, fresh_nodes = table._entry_waits(entry)
        entry.waits_cache = kept
        assert blockers == fresh_blockers
        assert list(nodes) == list(fresh_nodes)


def assert_graph_agrees(manager, handed_out):
    """The graph is the definition's, its cycle is the reference search's,
    and the lists handed out earlier still hold what they held then."""
    for lists, copies in handed_out:
        assert lists == copies
    edges = reference_edges(manager)
    nodes, adjacency = manager.table.waits_for_graph()
    assert (nodes, adjacency) == reference_graph(edges)
    assert edge_graph(edges) == reference_graph(edges)
    assert manager.table.waits_for_edges() == edges
    cycle = reference_cycle(edges)
    assert first_cycle(nodes, adjacency) == cycle
    assert find_cycle(edges) == cycle
    memo_is_fresh(manager.table)
    lists = list(adjacency.values())
    handed_out.append((lists, [list(blockers) for blockers in lists]))
    return cycle


@pytest.mark.parametrize("kind", sorted(MANAGERS))
@pytest.mark.parametrize("discipline", ["on-wait", "served"])
@given(actions=ACTIONS, bypass=st.booleans(), semantic=st.booleans())
@settings(max_examples=120, deadline=None)
def test_graph_agrees_with_definition(kind, discipline, actions, bypass, semantic):
    manager = MANAGERS[kind](bypass)
    modes = MODES_BY_CODE if semantic else CLASSIC_MODES
    handed_out = []
    for action, t, r, m in actions:
        txn, resource, mode = TXNS[t], RESOURCES[r], modes[m % len(modes)]
        waiting = manager.table.waiting_requests_of(txn)
        if action == "full":
            cycle = assert_graph_agrees(manager, handed_out)
            assert manager.detect_deadlock() == cycle
            if cycle is not None:
                manager.release_all(manager.detector.pick_victim(cycle))
        elif action == "abort":
            manager.release_all(txn)
        elif action == "cancel":
            if waiting:
                manager.cancel(waiting[-1])
        elif action == "release":
            if manager.held_mode(txn, resource) is not None:
                manager.release(txn, resource)
        elif not waiting or (
            discipline == "served"
            and all(request.resource != resource for request in waiting)
        ):
            # a request on a held resource with a stronger mode converts
            manager.acquire(txn, resource, mode)
        assert_graph_agrees(manager, handed_out)
    assert manager.detect_deadlock() == assert_graph_agrees(manager, handed_out)


@given(
    edges=st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=24
    )
)
@settings(max_examples=300, deadline=None)
def test_search_agrees_on_any_graph(edges):
    """Lock tables rarely hold several overlapping cycles; arbitrary
    graphs (self-loops, parallel edges, nested cycles) pin the search
    order itself."""
    cycle = reference_cycle(edges)
    assert first_cycle(*reference_graph(edges)) == cycle
    assert find_cycle(edges) == cycle


def test_search_follows_edge_order_below_the_start():
    """a -> b, then b's first edge closes a -> b -> c -> a; its second
    edge closes the shorter b -> d -> b, which a search taking b's edges
    in another order would return."""
    edges = [("a", "b"), ("b", "c"), ("b", "d"), ("c", "a"), ("d", "b")]
    assert find_cycle(edges) == ["a", "b", "c"] == reference_cycle(edges)


@pytest.mark.parametrize("kind", sorted(MANAGERS))
def test_several_waits_concatenate_in_edge_order(kind):
    """One transaction waiting at three entries: its adjacency is the
    concatenation, in edge order."""
    manager = MANAGERS[kind](False)
    for i, resource in enumerate(RESOURCES[:3]):
        manager.acquire("h%d" % i, resource, X)
        manager.acquire("w", resource, S)
    nodes, adjacency = manager.table.waits_for_graph()
    assert (nodes, adjacency) == reference_graph(reference_edges(manager))
    assert sorted(adjacency["w"]) == ["h0", "h1", "h2"]


@pytest.mark.parametrize("kind", sorted(MANAGERS))
def test_waiter_for_nobody_is_listed_where_it_first_blocks(kind):
    """FIFO queues t1's IS behind t3's SIX though nothing blocks it; t1
    first appears in the edge stream as a blocker of t4's X."""
    manager = MANAGERS[kind](False)
    resource = RESOURCES[0]
    manager.acquire("t0", resource, SIX)
    for txn, mode in (("t3", SIX), ("t1", IS), ("t4", X)):
        assert not manager.acquire(txn, resource, mode).granted
    nodes, adjacency = manager.table.waits_for_graph()
    assert nodes == ["t3", "t0", "t4", "t1"]
    assert adjacency == {"t3": ["t0"], "t4": ["t0", "t3", "t1"]}
    assert (nodes, adjacency) == reference_graph(reference_edges(manager))


def test_memo_survives_a_pass_then_grant_cancel_release():
    """Adjacency lists alias the memo's lists.  After a full pass, a grant,
    a cancel and a release on the same entries rebuild the memo — each
    time equal to a fresh rebuild — and leave the lists the pass read as
    they were."""
    manager = LockManager()
    table = manager.table
    a, b = ("a",), ("b",)
    table.request("t1", a, X)
    table.request("t2", b, S)
    for txn, mode in (("t3", X), ("t4", S), ("t5", S)):
        table.request(txn, a, mode)
    table.request("t3", b, X)  # t3 waits at both entries

    handed_out = []
    assert assert_graph_agrees(manager, handed_out) is None
    assert manager.detect_deadlock() is None  # the full pass
    assert table.waits_for_graph()[1]["t3"] == ["t1", "t2"]

    # each step checks the memo against a rebuild, and the lists every
    # earlier graph handed out against what they held then
    table.release("t1", a)  # grant: t3 gets a, still waits at b
    assert table.held_mode("t3", a) == X
    assert_graph_agrees(manager, handed_out)
    table.cancel(table.waiting_requests_of("t5")[0])
    assert_graph_agrees(manager, handed_out)
    table.release("t2", b)  # t3 gets b
    assert table.waits_for_graph() == (["t4", "t3"], {"t4": ["t3"]})
    assert_graph_agrees(manager, handed_out)
