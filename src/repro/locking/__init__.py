"""Lock modes, lock table, lock manager, deadlock detection and escalation."""

from repro.locking.deadlock import DeadlockDetector, all_cycle_members, find_cycle
from repro.locking.escalation import (
    Escalator,
    children_held,
    descendants_held,
    parent_resource,
)
from repro.locking.lock_table import LockRequest, LockTable, RequestStatus
from repro.locking.manager import LockManager
from repro.locking.trace import LockTrace, TraceEvent
from repro.locking.modes import (
    ALL_MODES,
    AP,
    IAP,
    IINC,
    INC,
    IS,
    ISI,
    IX,
    PAPER_MODES,
    S,
    SEMANTIC_MODES,
    SI,
    SIX,
    X,
    LockMode,
    compatible,
    covers,
    intention_of,
    supremum,
)

__all__ = [
    "ALL_MODES",
    "AP",
    "DeadlockDetector",
    "Escalator",
    "IAP",
    "IINC",
    "INC",
    "IS",
    "ISI",
    "IX",
    "LockManager",
    "LockMode",
    "LockRequest",
    "LockTable",
    "LockTrace",
    "PAPER_MODES",
    "RequestStatus",
    "S",
    "SEMANTIC_MODES",
    "SI",
    "SIX",
    "TraceEvent",
    "X",
    "all_cycle_members",
    "children_held",
    "compatible",
    "covers",
    "descendants_held",
    "find_cycle",
    "intention_of",
    "parent_resource",
    "supremum",
]
