"""Deterministic interleaving control and bounded schedule exploration.

:class:`ScheduleRun` executes a set of :class:`~repro.check.program.TxnProgram`
under an explicit interleaving controller: ``step(i)`` advances program
``i`` by exactly one operation — lock demands planned through the real
protocol, requests submitted to the real lock manager with ``wait=True``
— and suspends it if a request must wait.  Deadlocks closed by a blocking
step are resolved immediately, youngest-victim (``start_ts``), through
the same :class:`~repro.locking.deadlock.DeadlockDetector` the rest of
the library uses.  Every run records

* the full :class:`~repro.locking.trace.LockTrace` narrative,
* the data-operation log (:class:`~repro.check.oracle.DataOp`),
* per-step invariant violations (:func:`repro.verify.audit_step`),
* deadlock victims and final transaction outcomes,

which together are exactly what the serializability oracle consumes.

:class:`Explorer` performs stateless model checking over the choice tree:
depth-first enumeration with full replay per prefix (the library is
deterministic, so replaying a prefix always reproduces the same state),
pruned DPOR-style with sleep sets — a sibling choice whose footprint is
*independent* of the step just taken need not be explored again in the
subtree, because the two orders commute.  Footprints are the full planned
lock sets (downward propagation included — two demands on different
assemblies still conflict at a shared part's entry point) plus the data
read/write sets.  For workloads too large to exhaust, seeded random walks
sample the same tree reproducibly.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import CheckError
from repro.locking.modes import compatible, op_classes_commute
from repro.locking.trace import LockTrace
from repro.check.oracle import DataOp
from repro.check.program import Abort, Commit, _normalize_demand
from repro.verify import audit_step

#: Invariant rules checked after every scheduler step by default.  The
#: entry-point visibility obligation is deliberately *not* in here: it is
#: an obligation only of protocols that claim implicit reference cover,
#: so the explorer adds it per protocol (see repro.check.differential).
DEFAULT_STEP_RULES = (
    "compatibility",
    "waiting-consistency",
    "deadlock-verdict",
    "group-mode",
)


class _Slot:
    """Execution state of one program inside a run."""

    __slots__ = (
        "program",
        "txn",
        "op_index",
        "current_op",
        "pending_demands",
        "pending_steps",
        "waiting_request",
        "outcome",
    )

    def __init__(self, program, txn):
        self.program = program
        self.txn = txn
        self.op_index = 0
        self.current_op = None
        self.pending_demands: List[tuple] = []
        self.pending_steps: List = []
        self.waiting_request = None
        self.outcome: Optional[str] = None

    @property
    def mid_operation(self) -> bool:
        return (
            self.current_op is not None
            or bool(self.pending_steps)
            or bool(self.pending_demands)
        )


class ScheduleRun:
    """One controlled execution of a multi-transaction workload."""

    def __init__(
        self,
        stack,
        programs,
        check_rules: Sequence[str] = DEFAULT_STEP_RULES,
        checks: Sequence[Callable] = (),
        max_steps: int = 500,
    ):
        self.stack = stack
        self.protocol = stack.protocol
        self.manager = stack.manager
        self.check_rules = tuple(check_rules)
        self.extra_checks = tuple(checks)
        self.max_steps = max_steps
        # Deterministic youngest-victim selection: programs are begun in
        # list order, so start_ts order equals program order in every
        # replay of this workload.
        self.manager.set_age_of(lambda txn: getattr(txn, "start_ts", 0))
        self.trace = LockTrace.attach(self.manager)
        self.data_ops: List[DataOp] = []
        self._data_seq = itertools.count(1)
        self.choices: List[int] = []
        self.violations: List[tuple] = []
        self._violation_keys = set()
        self.deadlocks: List[tuple] = []
        self.step_count = 0
        self.slots: List[_Slot] = []
        for program in programs:
            txn = stack.txns.begin(
                principal=program.principal, long=program.long, name=program.name
            )
            self.slots.append(_Slot(program, txn))
        self._by_txn = {slot.txn: slot for slot in self.slots}

    # -- bookkeeping -----------------------------------------------------------

    def record_data(self, txn, kind: str, resource):
        self.data_ops.append(
            DataOp(next(self._data_seq), txn.name, kind, tuple(resource))
        )

    def close(self):
        """Detach the trace wrapper (runs own throwaway stacks otherwise)."""
        self.trace.detach()

    # -- scheduling queries ----------------------------------------------------

    @property
    def finished(self) -> bool:
        return all(slot.outcome is not None for slot in self.slots)

    def enabled(self) -> List[int]:
        """Indices of programs that can take a step right now."""
        out = []
        for index, slot in enumerate(self.slots):
            if slot.outcome is not None:
                continue
            request = slot.waiting_request
            if request is not None and not request.granted:
                continue
            out.append(index)
        return out

    def outcomes(self) -> Dict[str, str]:
        return {slot.program.name: slot.outcome for slot in self.slots}

    # -- stepping --------------------------------------------------------------

    def step(self, index: int) -> int:
        """Advance program ``index`` by one operation (or until it blocks).

        Returns the step's position in the schedule.  Stepping a finished
        or blocked program raises :class:`~repro.errors.CheckError` — the
        explorer only offers enabled choices.
        """
        slot = self.slots[index]
        if slot.outcome is not None:
            raise CheckError("%s already finished" % slot.program.name)
        request = slot.waiting_request
        if request is not None:
            if not request.granted:
                raise CheckError("%s is blocked" % slot.program.name)
            # The waiting head of the plan was granted while suspended.
            slot.waiting_request = None
            if slot.pending_steps:
                slot.pending_steps.pop(0)
        if self.step_count >= self.max_steps:
            raise CheckError("schedule exceeded max_steps=%d" % self.max_steps)
        position = self.step_count
        self.step_count += 1
        self.choices.append(index)
        try:
            self._advance(slot)
        except (CheckError, AttributeError, TypeError, NameError):
            # an explorer error, or a programming error in the code under
            # test — never a data, protocol or authorization failure
            raise
        except Exception as exc:
            # A data/protocol/authorization failure aborts the transaction;
            # the schedule keeps going — aborts are an outcome, not an
            # explorer error.
            self._abort(slot, "failed:%s" % type(exc).__name__)
        self._run_checks(position)
        return position

    def run(self, choices: Optional[Sequence[int]] = None) -> "ScheduleRun":
        """Drive the schedule to completion.

        With ``choices`` the given prefix is replayed first; afterwards
        (and without ``choices``) the lowest enabled index is stepped —
        a deterministic round-robin-free completion useful for tests.
        """
        for index in choices or ():
            self.step(index)
        while not self.finished:
            enabled = self.enabled()
            if not enabled:
                raise CheckError(
                    "schedule stuck: no enabled transaction "
                    "(outcomes=%r)" % self.outcomes()
                )
            self.step(enabled[0])
        return self

    # -- internals -------------------------------------------------------------

    def _advance(self, slot: _Slot):
        txn = slot.txn
        while True:
            if slot.pending_steps:
                planned = slot.pending_steps[0]
                request = self.manager.acquire(
                    txn, planned.resource, planned.mode, long=txn.long, wait=True
                )
                self.protocol.locks_requested += 1
                if request.granted:
                    slot.pending_steps.pop(0)
                    continue
                slot.waiting_request = request
                self.manager.detector.resolve(self._on_victim, txn)
                if slot.outcome is not None:
                    return  # this transaction was the victim
                request = slot.waiting_request
                if request is None:
                    continue
                if request.granted:
                    slot.waiting_request = None
                    slot.pending_steps.pop(0)
                    continue
                return  # genuinely blocked; step ends mid-operation
            if slot.pending_demands:
                resource, mode, via = slot.pending_demands.pop(0)
                plan = self.protocol.plan_request(txn, resource, mode, via=via)
                self.protocol.demands += 1
                slot.pending_steps = list(plan)
                continue
            if slot.current_op is not None:
                op = slot.current_op
                slot.current_op = None
                op.apply(self, txn)
                return  # one operation completed: end of quantum
            if slot.op_index >= len(slot.program.ops):
                self.stack.txns.commit(txn)
                slot.outcome = "committed"
                return
            op = slot.program.ops[slot.op_index]
            slot.op_index += 1
            if isinstance(op, Commit):
                self.stack.txns.commit(txn)
                slot.outcome = "committed"
                return
            if isinstance(op, Abort):
                self._abort(slot, "aborted")
                return
            slot.current_op = op
            slot.pending_demands = [
                _normalize_demand(demand) for demand in op.demands(self, txn)
            ]

    def _on_victim(self, victim, cycle):
        """Record the deadlock the blocking step closed, kill the victim."""
        names = tuple(getattr(txn, "name", repr(txn)) for txn in cycle)
        self.deadlocks.append(
            (self.step_count - 1, getattr(victim, "name", repr(victim)), names)
        )
        victim_slot = self._by_txn.get(victim)
        if victim_slot is None:
            raise CheckError("deadlock victim %r is not scheduled" % (victim,))
        self._abort(victim_slot, "deadlock-victim")

    def _abort(self, slot: _Slot, outcome: str):
        self.stack.txns.kill(slot.txn)
        slot.outcome = outcome
        slot.waiting_request = None
        slot.pending_steps = []
        slot.pending_demands = []
        slot.current_op = None

    def _run_checks(self, position: int):
        if not self.check_rules and not self.extra_checks:
            return
        # Obligations hold at operation boundaries: a transaction
        # suspended mid-plan (root-to-leaf acquisition under way) has not
        # yet established the locks the rules oblige it to hold.
        busy = {
            slot.txn for slot in self.slots if slot.mid_operation
        }
        found = []
        if self.check_rules:
            found.extend(audit_step(self.protocol, rules=self.check_rules))
        for check in self.extra_checks:
            found.extend(check(self.protocol))
        for violation in found:
            if violation.txn in busy:
                continue
            key = (
                violation.rule,
                str(violation.txn),
                violation.resource,
                violation.detail,
            )
            if key in self._violation_keys:
                continue
            self._violation_keys.add(key)
            self.violations.append(
                (
                    position,
                    violation.rule,
                    getattr(violation.txn, "name", str(violation.txn)),
                    violation.resource,
                    violation.detail,
                )
            )

    # -- footprints (independence pruning) -------------------------------------

    def footprint(self, index: int) -> List[tuple]:
        """Predicted effect set of the *next* step of program ``index``.

        Entries are ``("lock", resource, mode)``, ``("unlock", resource,
        mode)`` or ``("data", resource, "r"|"w")``.  Lock entries come
        from full protocol plans, so downward-propagation locks onto
        shared entry points are part of the footprint — essential for
        soundness of the pruning (two demands on disjoint containers may
        still collide on common data).
        """
        slot = self.slots[index]
        txn = slot.txn
        if slot.outcome is not None:
            return []
        footprint: List[tuple] = []
        if slot.mid_operation:
            for planned in slot.pending_steps:
                footprint.append(("lock", planned.resource, planned.mode))
            for resource, mode, via in slot.pending_demands:
                footprint.extend(self._demand_footprint(txn, resource, mode, via))
            if slot.current_op is not None:
                footprint.extend(self._op_data(slot.current_op, txn))
            return footprint
        if slot.op_index >= len(slot.program.ops):
            return self._release_footprint(txn)
        op = slot.program.ops[slot.op_index]
        if isinstance(op, Commit):
            return self._release_footprint(txn)
        if isinstance(op, Abort):
            footprint = self._release_footprint(txn)
            for data_op in self.data_ops:
                if data_op.txn == slot.program.name and data_op.kind == "w":
                    footprint.append(("data", data_op.resource, "w"))
            return footprint
        try:
            demands = [_normalize_demand(d) for d in op.demands(self, txn)]
        except Exception:
            demands = []
        for resource, mode, via in demands:
            footprint.extend(self._demand_footprint(txn, resource, mode, via))
        footprint.extend(self._op_data(op, txn))
        return footprint

    def _demand_footprint(self, txn, resource, mode, via):
        try:
            plan = self.protocol.plan_request(txn, resource, mode, via=via)
        except Exception:
            return [("lock", tuple(resource), mode)]
        return [("lock", step.resource, step.mode) for step in plan]

    def _op_data(self, op, txn):
        try:
            return [
                ("data", tuple(resource), kind)
                for resource, kind in op.data_footprint(self, txn)
            ]
        except Exception:
            return []

    def _release_footprint(self, txn):
        return [
            ("unlock", resource, mode)
            for resource, mode in self.manager.locks_of(txn).items()
        ]


def _lockish_conflict(kind_a, mode_a, kind_b, mode_b) -> bool:
    if kind_a == "unlock" and kind_b == "unlock":
        return False
    return not compatible(mode_a, mode_b)


def independent(footprint_a, footprint_b) -> bool:
    """Do two step footprints commute?

    Data accesses conflict when their resources overlap hierarchically
    (one a prefix of the other) and at least one writes.  Lock actions
    conflict only on the *same* resource with incompatible modes (the
    lock table treats resources as opaque; hierarchy is the protocols'
    business and already expanded into the plans).  A data access and a
    lock action always commute — neither reads the other's state.
    """
    for kind_a, resource_a, extra_a in footprint_a:
        for kind_b, resource_b, extra_b in footprint_b:
            if kind_a == "data" and kind_b == "data":
                # same relation as the oracle's precedence edges: r/r and
                # same-class commuting updates (si/si, ap/ap, inc/inc)
                # never order each other
                if op_classes_commute(extra_a, extra_b):
                    continue
                shorter = min(len(resource_a), len(resource_b))
                if resource_a[:shorter] == resource_b[:shorter]:
                    return False
            elif kind_a != "data" and kind_b != "data":
                if resource_a != resource_b:
                    continue
                if _lockish_conflict(kind_a, extra_a, kind_b, extra_b):
                    return False
    return True


class ScheduleResult:
    """Immutable record of one completed schedule."""

    __slots__ = (
        "choices",
        "names",
        "outcomes",
        "data_ops",
        "violations",
        "deadlocks",
        "trace_events",
        "final_state",
        "step_count",
        "protocol",
    )

    def __init__(self, run: ScheduleRun):
        if not run.finished:
            raise CheckError("cannot snapshot an unfinished schedule")
        self.choices = tuple(run.choices)
        self.names = tuple(slot.program.name for slot in run.slots)
        self.outcomes = run.outcomes()
        self.data_ops = tuple(run.data_ops)
        self.violations = tuple(run.violations)
        self.deadlocks = tuple(run.deadlocks)
        self.trace_events = tuple(
            (
                event.action,
                getattr(event.txn, "name", str(event.txn)),
                event.resource,
                None if event.mode is None else str(event.mode),
                event.outcome,
            )
            for event in run.trace.events
        )
        self.final_state = state_digest(run.stack.database)
        self.step_count = run.step_count
        self.protocol = run.protocol.name

    def schedule_string(self) -> str:
        """The interleaving as a readable string, e.g. ``T1 T2 T2 T1``."""
        return " ".join(self.names[index] for index in self.choices)

    def fingerprint(self, include_trace: bool = False) -> tuple:
        """Stable identity for ablation comparison: same interleaving,
        same outcomes, same data-op log, same final database state.

        ``include_trace=True`` additionally folds in the full lock-trace
        narrative (every request/grant/wait/release event, in order) —
        the bit-identical standard the plan-compilation ablation is held
        to: a cached plan must produce the *same lock operations*, not
        just the same end state.
        """
        identity = (
            self.choices,
            tuple(sorted(self.outcomes.items())),
            tuple(
                (op.txn, op.kind, op.resource) for op in self.data_ops
            ),
            self.final_state,
        )
        if include_trace:
            identity = identity + (self.trace_events,)
        return identity

    def __repr__(self):
        return "ScheduleResult(%s: %s)" % (
            self.schedule_string(),
            ",".join("%s=%s" % item for item in sorted(self.outcomes.items())),
        )


def state_digest(database) -> str:
    """Canonical rendering of every relation's contents."""
    parts = []
    for relation in sorted(database.relations(), key=lambda rel: rel.name):
        for obj in sorted(relation, key=lambda o: str(o.key)):
            parts.append("%s/%s=%r" % (relation.name, obj.key, obj.root))
    return "; ".join(parts)


class Workload:
    """A named, repeatable workload: fresh (stack, programs) per build.

    ``builder(**variant)`` must construct a *fresh* database each call —
    replay-based exploration rebuilds the world for every prefix.
    """

    def __init__(self, name: str, builder: Callable, description: str = "",
                 expect_anomaly: bool = True, has_commuting_ops: bool = False):
        self.name = name
        self._builder = builder
        self.description = description
        #: Whether the section 3.2.2 anomaly is reachable on this workload
        #: under the unsafe DAG baseline (False for workloads whose demands
        #: never rely on implicit reference cover).
        self.expect_anomaly = expect_anomaly
        #: Whether any program issues commuting updates (set-insert,
        #: append, increment).  On such workloads the semantic-modes flag
        #: is *meant* to change the lock traces, so the flag-invisibility
        #: differential skips them.
        self.has_commuting_ops = has_commuting_ops

    def build(self, **variant):
        return self._builder(**variant)

    def __repr__(self):
        return "Workload(%s)" % self.name


class ExplorationReport:
    """The outcome of exploring one workload under one protocol."""

    def __init__(
        self,
        workload: str,
        protocol: str,
        results: List[ScheduleResult],
        replays: int = 0,
        pruned: int = 0,
        truncated: bool = False,
        exhaustive: bool = True,
    ):
        self.workload = workload
        self.protocol = protocol
        self.results = results
        self.replays = replays
        self.pruned = pruned
        self.truncated = truncated
        #: True when every maximal schedule (modulo commuting reorderings)
        #: was enumerated — the certification claim rests on this.
        self.exhaustive = exhaustive and not truncated

    def __len__(self):
        return len(self.results)

    def verdicts(self, visibility_obliged: bool = True):
        from repro.check.oracle import certify

        return [
            (result, certify(result, visibility_obliged=visibility_obliged))
            for result in self.results
        ]

    def counterexamples(self, visibility_obliged: bool = True):
        return [
            (result, verdict)
            for result, verdict in self.verdicts(visibility_obliged)
            if not verdict.ok
        ]

    def fingerprint(self, include_trace: bool = False) -> tuple:
        return tuple(
            sorted(result.fingerprint(include_trace) for result in self.results)
        )

    def summary(self) -> dict:
        bad = self.counterexamples()
        return {
            "workload": self.workload,
            "protocol": self.protocol,
            "schedules": len(self.results),
            "replays": self.replays,
            "pruned": self.pruned,
            "exhaustive": self.exhaustive,
            "counterexamples": len(bad),
        }


class Explorer:
    """Bounded exhaustive interleaving search with sleep-set pruning."""

    def __init__(
        self,
        workload: Workload,
        variant: Optional[dict] = None,
        check_rules: Sequence[str] = DEFAULT_STEP_RULES,
        max_schedules: int = 5000,
        max_steps: int = 300,
        prune: bool = True,
    ):
        self.workload = workload
        self.variant = dict(variant or {})
        self.check_rules = tuple(check_rules)
        self.max_schedules = max_schedules
        self.max_steps = max_steps
        self.prune = prune

    def fresh_run(self) -> ScheduleRun:
        stack, programs = self.workload.build(**self.variant)
        return ScheduleRun(
            stack,
            programs,
            check_rules=self.check_rules,
            max_steps=self.max_steps,
        )

    def _replay(self, prefix) -> ScheduleRun:
        run = self.fresh_run()
        for choice in prefix:
            run.step(choice)
        return run

    def explore(self) -> ExplorationReport:
        """Enumerate every inequivalent maximal schedule (DFS + sleep sets)."""
        results: List[ScheduleResult] = []
        stats = {"replays": 0, "pruned": 0, "truncated": False}
        protocol_name = [None]

        def dfs(prefix: tuple, sleep: frozenset):
            if len(results) >= self.max_schedules:
                stats["truncated"] = True
                return
            run = self._replay(prefix)
            stats["replays"] += 1
            if protocol_name[0] is None:
                protocol_name[0] = run.protocol.name
            try:
                if run.finished:
                    results.append(ScheduleResult(run))
                    return
                enabled = run.enabled()
                if not enabled:
                    raise CheckError(
                        "schedule stuck at %r (outcomes=%r)"
                        % (prefix, run.outcomes())
                    )
                footprints = (
                    {index: run.footprint(index) for index in enabled}
                    if self.prune
                    else {}
                )
                explored: List[int] = []
                for index in enabled:
                    if index in sleep:
                        stats["pruned"] += 1
                        continue
                    if self.prune:
                        child_sleep = frozenset(
                            other
                            for other in set(sleep) | set(explored)
                            if other != index
                            and other in footprints
                            and independent(
                                footprints[other], footprints[index]
                            )
                        )
                    else:
                        child_sleep = frozenset()
                    dfs(prefix + (index,), child_sleep)
                    explored.append(index)
            finally:
                run.close()

        dfs((), frozenset())
        return ExplorationReport(
            self.workload.name,
            protocol_name[0] or "?",
            results,
            replays=stats["replays"],
            pruned=stats["pruned"],
            truncated=stats["truncated"],
            exhaustive=True,
        )

    def random_walks(self, walks: int = 50, seed: int = 0) -> ExplorationReport:
        """Sample complete schedules with a seeded random scheduler."""
        results: List[ScheduleResult] = []
        protocol_name = [None]
        replays = 0
        for walk in range(walks):
            rng = random.Random("%d:%d" % (seed, walk))
            run = self.fresh_run()
            replays += 1
            if protocol_name[0] is None:
                protocol_name[0] = run.protocol.name
            try:
                while not run.finished:
                    enabled = run.enabled()
                    if not enabled:
                        raise CheckError(
                            "schedule stuck during walk %d (outcomes=%r)"
                            % (walk, run.outcomes())
                        )
                    run.step(rng.choice(enabled))
                results.append(ScheduleResult(run))
            finally:
                run.close()
        return ExplorationReport(
            self.workload.name,
            protocol_name[0] or "?",
            results,
            replays=replays,
            exhaustive=False,
        )
