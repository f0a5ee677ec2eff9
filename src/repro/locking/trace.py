"""Lock tracing: a recorded narrative of lock-manager activity.

The paper explains its protocol through worked narratives ("Hence,
'Database db1' ..., 'Segment seg1', 'Relation cells', 'cell c1' and list
'robots' are IX locked in sequence").  :class:`LockTrace` records every
request, grant, wait, wake, release and cancellation so tests, examples
and the CLI can render exactly such narratives — and so concurrency bugs
leave evidence.

The trace runs no lock code of its own: it is a passive sink on the
manager's lock table, which reports each public call as it executes it
(see :mod:`repro.locking.lock_table`).  A batched ``acquire_many`` is
recorded step by step as the table's one pass grants it, covered steps
pruned; a request that comes straight to the table (not through the
manager) is recorded too.

Attach with ``trace = LockTrace.attach(manager)``; ``detach`` puts back
the sink the trace replaced, so nested traces unwind in order.  The trace
object is also a context manager::

    with LockTrace.attach(manager) as trace:
        ...  # traced calls may raise; the trace still detaches

Calls the table refuses by raising (``wait=False`` conflicts, injected
faults) are recorded with a ``DENIED:<ExceptionName>`` outcome before the
exception propagates, so a failed request leaves evidence too.
"""

from __future__ import annotations

import itertools
from typing import List


class TraceEvent:
    __slots__ = ("seq", "action", "txn", "resource", "mode", "outcome")

    def __init__(self, seq, action, txn, resource, mode=None, outcome=None):
        self.seq = seq
        self.action = action
        self.txn = txn
        self.resource = resource
        self.mode = mode
        self.outcome = outcome

    def render(self) -> str:
        parts = ["#%03d" % self.seq, self.action, "txn=%s" % (self.txn,)]
        if self.resource is not None:
            parts.append("/".join(str(p) for p in self.resource))
        if self.mode is not None:
            parts.append(str(self.mode))
        if self.outcome is not None:
            parts.append("-> %s" % self.outcome)
        return " ".join(parts)

    def __repr__(self):
        return "TraceEvent(%s)" % self.render()


class LockTrace:
    """Event recorder: the sink of a manager's
    :class:`~repro.locking.lock_table.LockTable`."""

    def __init__(self):
        self.events: List[TraceEvent] = []
        self._seq = itertools.count(1)
        self._manager = None
        #: the sink this trace replaced, restored by ``detach``
        self._outer = None

    # -- attachment -------------------------------------------------------------

    @classmethod
    def attach(cls, manager) -> "LockTrace":
        trace = cls()
        trace._manager = manager
        trace._outer = manager.table.sink
        manager.table.sink = trace
        return trace

    def detach(self):
        if self._manager is None:
            return
        self._manager.table.sink = self._outer
        self._manager = None

    def __enter__(self) -> "LockTrace":
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.detach()
        return False

    def record(self, action, txn, resource, mode=None, outcome=None):
        """One event, as the lock table reports it."""
        self.events.append(
            TraceEvent(next(self._seq), action, txn, resource, mode, outcome)
        )

    # -- queries ---------------------------------------------------------------------

    def for_txn(self, txn) -> List[TraceEvent]:
        return [event for event in self.events if event.txn == txn]

    def waits(self) -> List[TraceEvent]:
        return [event for event in self.events if event.outcome == "WAIT"]

    def grants(self) -> List[TraceEvent]:
        return [
            event
            for event in self.events
            if event.outcome in ("granted", "woken")
        ]

    def render(self) -> str:
        return "\n".join(event.render() for event in self.events)

    def clear(self):
        self.events.clear()

    def __len__(self):
        return len(self.events)
