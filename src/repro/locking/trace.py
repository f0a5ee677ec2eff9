"""Lock tracing: a recorded narrative of lock-manager activity.

The paper explains its protocol through worked narratives ("Hence,
'Database db1' ..., 'Segment seg1', 'Relation cells', 'cell c1' and list
'robots' are IX locked in sequence").  :class:`LockTrace` records every
request, grant, wait, wake, release and cancellation so tests, examples
and the CLI can render exactly such narratives — and so concurrency bugs
leave evidence.

Attach with ``trace = LockTrace.attach(manager)``; detach restores the
undecorated methods.  The trace object is also a context manager::

    with LockTrace.attach(manager) as trace:
        ...  # traced calls may raise; the wrappers still come off

Calls that raise inside the manager (``wait=False`` conflicts, cancelled
victims) are recorded with a ``DENIED:<ExceptionName>`` outcome before the
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
    """Event recorder wrapping a :class:`~repro.locking.manager.LockManager`."""

    def __init__(self):
        self.events: List[TraceEvent] = []
        self._seq = itertools.count(1)
        self._manager = None
        self._originals = {}
        self._prior = {}

    # -- attachment -------------------------------------------------------------

    _MISSING = object()

    @classmethod
    def attach(cls, manager) -> "LockTrace":
        trace = cls()
        trace._manager = manager
        trace._originals = {
            "acquire": manager.acquire,
            "acquire_many": manager.acquire_many,
            "release": manager.release,
            "release_all": manager.release_all,
            "cancel": manager.cancel,
        }
        # What ``manager.__dict__`` carried *before* we shadowed it: detach
        # restores exactly this state, so nested attaches unwind correctly
        # (a plain delattr would strip an outer trace's wrapper as well).
        trace._prior = {
            name: manager.__dict__.get(name, cls._MISSING)
            for name in trace._originals
        }

        def acquire(txn, resource, mode, long=False, wait=True):
            try:
                request = trace._originals["acquire"](
                    txn, resource, mode, long=long, wait=wait
                )
            except Exception as exc:
                trace._record(
                    "acquire", txn, resource, mode,
                    "DENIED:%s" % type(exc).__name__,
                )
                raise
            trace._record(
                "acquire", txn, resource, mode,
                "granted" if request.granted else "WAIT",
            )
            return request

        def acquire_many(txn, steps, long=False, wait=True):
            # Replay the plan through the traced per-step path with the
            # same covered-pair pruning the batched table pass applies:
            # the narrative is event-for-event identical to sequential
            # acquisition, which is exactly what the differential harness
            # asserts.  Traced runs are correctness runs; they don't need
            # the batched fast path.
            table = manager.table
            out = []
            for step in steps:
                if table.holds_at_least(txn, step.resource, step.mode):
                    continue
                request = acquire(txn, step.resource, step.mode, long=long, wait=wait)
                out.append(request)
                if not request.granted:
                    break
            return out

        def release(txn, resource):
            try:
                woken = trace._originals["release"](txn, resource)
            except Exception as exc:
                trace._record(
                    "release", txn, resource, None,
                    "DENIED:%s" % type(exc).__name__,
                )
                raise
            trace._record("release", txn, resource)
            trace._record_woken(woken)
            return woken

        def release_all(txn, keep_long=False):
            woken = trace._originals["release_all"](txn, keep_long=keep_long)
            trace._record("release_all", txn, None)
            trace._record_woken(woken)
            return woken

        def cancel(request):
            woken = trace._originals["cancel"](request)
            trace._record("cancel", request.txn, request.resource, request.mode)
            trace._record_woken(woken)
            return woken

        manager.acquire = acquire
        manager.acquire_many = acquire_many
        manager.release = release
        manager.release_all = release_all
        manager.cancel = cancel
        return trace

    def detach(self):
        if self._manager is None:
            return
        for name, prior in self._prior.items():
            if prior is self._MISSING:
                # the name was found via class lookup before attach
                try:
                    delattr(self._manager, name)
                except AttributeError:
                    pass
            else:
                setattr(self._manager, name, prior)
        self._manager = None

    def __enter__(self) -> "LockTrace":
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.detach()
        return False

    # -- recording -----------------------------------------------------------------

    def _record(self, action, txn, resource, mode=None, outcome=None):
        self.events.append(
            TraceEvent(next(self._seq), action, txn, resource, mode, outcome)
        )

    def _record_woken(self, woken):
        for request in woken:
            self._record(
                "grant", request.txn, request.resource, request.target_mode,
                "woken",
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
