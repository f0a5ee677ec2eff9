"""The fault injector: per-point occurrence counting and firing.

One injector is installed across a whole lock stack (table, detector,
protocol, transaction manager); every instrumented layer calls
``fire(point, **context)`` at its injection point.  The injector counts
the occurrence, asks the :class:`~repro.faults.plan.FaultPlan` whether
this (point, occurrence) is scheduled, and if so raises the scheduled
exception — or, for non-raising actions like ``oldest-victim``, changes
the decision via :meth:`choose`.

With an empty plan the injector is a pure *counter*: the harness uses
this probe mode to measure each point's firing horizon on a fault-free
run before seeding a plan that actually lands.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import FaultInjected, InjectedAbort, LockTimeoutError
from repro.faults.plan import FaultPlan, FaultSpec


class FiredFault:
    """Log record of one injection that actually triggered."""

    __slots__ = ("point", "occurrence", "action", "context")

    def __init__(self, point: str, occurrence: int, action: str, context: dict):
        self.point = point
        self.occurrence = occurrence
        self.action = action
        self.context = context

    def __repr__(self):
        return "FiredFault(%s #%d -> %s)" % (self.point, self.occurrence, self.action)


class FaultInjector:
    """Counts injection-point firings and raises scheduled faults."""

    def __init__(self, plan: Optional[FaultPlan] = None):
        self.plan = plan if plan is not None else FaultPlan()
        #: per-point firing counters (occurrence horizon when probing)
        self.counts: Dict[str, int] = {}
        #: every injection that triggered, in order
        self.log: List[FiredFault] = []
        #: master switch; a disabled injector neither counts nor fires
        self.enabled = True

    # -- wiring ---------------------------------------------------------------

    def install(self, stack) -> "FaultInjector":
        """Attach this injector to every instrumented layer of a stack."""
        stack.manager.table.fault_injector = self
        stack.manager.detector.fault_injector = self
        stack.protocol.fault_injector = self
        stack.txns.fault_injector = self
        return self

    def install_protocol(self, protocol) -> "FaultInjector":
        """Attach to a protocol and its lock manager only — the wiring
        the simulator and benchmarks use.  A :class:`~repro.sim.Simulator`
        builds its own transaction manager without an injector, so the
        ``txn.*`` points stay silent and the ``lock.*`` faults reach its
        commit and kill through the table."""
        protocol.manager.table.fault_injector = self
        protocol.manager.detector.fault_injector = self
        protocol.fault_injector = self
        return self

    @staticmethod
    def uninstall(stack):
        stack.manager.table.fault_injector = None
        stack.manager.detector.fault_injector = None
        stack.protocol.fault_injector = None
        stack.txns.fault_injector = None

    # -- firing ---------------------------------------------------------------

    def fire(self, point: str, **context):
        """Count one firing of ``point``; raise if the plan schedules it."""
        if not self.enabled:
            return
        occurrence = self.counts.get(point, 0) + 1
        self.counts[point] = occurrence
        spec = self.plan.match(point, occurrence)
        if spec is None:
            return
        self.log.append(FiredFault(point, occurrence, spec.action, context))
        self._raise_for(spec, point, occurrence, context)

    def choose(self, point: str, default, candidates: Sequence):
        """A decision point: return ``default`` or a plan-forced override.

        Used where a fault is a *different decision* rather than a raise —
        ``deadlock.victim`` with action ``oldest-victim`` picks the oldest
        cycle member (candidates come ordered oldest-first) instead of the
        youngest-dies default.
        """
        if not self.enabled:
            return default
        occurrence = self.counts.get(point, 0) + 1
        self.counts[point] = occurrence
        spec = self.plan.match(point, occurrence)
        if spec is None:
            return default
        chosen = default
        if spec.action == "oldest-victim" and candidates:
            chosen = candidates[0]
        self.log.append(
            FiredFault(point, occurrence, spec.action, {"chosen": chosen})
        )
        return chosen

    def _raise_for(self, spec: FaultSpec, point: str, occurrence: int, context: dict):
        detail = "injected %s at %s #%d" % (spec.action, point, occurrence)
        if spec.action == "timeout":
            raise LockTimeoutError(
                detail,
                resource=context.get("resource"),
                requested=context.get("mode"),
            )
        if spec.action == "abort":
            raise InjectedAbort(detail, point=point, occurrence=occurrence)
        if spec.action == "error":
            raise FaultInjected(detail, point=point, occurrence=occurrence)
        # non-raising actions (decision overrides) are handled by choose()

    # -- introspection --------------------------------------------------------

    @property
    def fired(self) -> int:
        return len(self.log)

    def horizon(self) -> Dict[str, int]:
        """Snapshot of the per-point occurrence counters."""
        return dict(self.counts)

    def fired_points(self) -> List[Tuple[str, int, str]]:
        return [(f.point, f.occurrence, f.action) for f in self.log]

    def reset(self):
        self.counts.clear()
        del self.log[:]
