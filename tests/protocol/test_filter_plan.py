"""Plan filtering reads the held-mode summary once per demand.

``ProtocolBase.filter_plan`` must keep exactly the merged steps a per-step
``holds_at_least`` probe keeps, in order and as the same step objects —
for transactions holding nothing, holding a random set, holding
conversions (a resource granted twice holds the supremum), and after a
counted release shrank a conversion back.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.locking.modes import MODES_BY_CODE
from repro.protocol.base import PlannedLock
from repro.workloads import build_cells_database

STACK = repro.make_stack(*build_cells_database(figure7=True))
RESOURCES = [("db",), ("db", "a"), ("db", "a", "o1"), ("db", "b"), ("db", "b", "o2")]

_RESOURCE = st.sampled_from(RESOURCES)
_MODE = st.sampled_from(MODES_BY_CODE)

# ("grant" | "release", resource, mode): one transaction alone, so every
# grant is immediate; a second grant on a resource is a conversion
HELD = st.lists(
    st.tuples(st.sampled_from(["grant"] * 3 + ["release"]), _RESOURCE, _MODE),
    max_size=12,
)
MERGED = st.lists(st.tuples(_RESOURCE, _MODE), max_size=8)


@given(held=HELD, merged=MERGED)
@settings(max_examples=300, deadline=None)
def test_summary_filter_equals_per_step_probe(held, merged):
    manager = STACK.manager
    txn = object()
    for action, resource, mode in held:
        if action == "grant":
            assert manager.acquire(txn, resource, mode).granted
        elif manager.held_mode(txn, resource) is not None:
            manager.release(txn, resource)
    steps = tuple(PlannedLock(resource, mode) for resource, mode in merged)
    reference = [
        step
        for step in steps
        if not manager.holds_at_least(txn, step.resource, step.mode)
    ]
    try:
        plan = STACK.protocol.filter_plan(txn, steps)
        assert len(plan.steps) == len(reference)
        assert all(ours is theirs for ours, theirs in zip(plan.steps, reference))
        if manager.held_modes(txn) is None:
            assert plan.steps == list(steps)
    finally:
        manager.release_all(txn)
    assert manager.held_modes(txn) is None
