"""The discrete-event concurrency simulator.

Runs transaction *programs* against a lock protocol in simulated time —
the efficiency simulation the paper lists as future work (section 5), and
the reason this reproduction can benchmark concurrency despite Python's
GIL (see DESIGN.md).

A program is a sequence of operations:

* :class:`LockOp` — one logical lock demand; the active protocol expands
  it into explicit requests, each costing ``lock_cost`` simulated time
  (lock administration + conflict test), plus ``scan_item_cost`` per
  object visited by reverse-reference scans (naive baseline);
* :class:`QueryOp` — a full query; analyzed/optimized once, its lock
  demands acquired stepwise, then ``work_per_row`` charged per result;
* :class:`WorkOp` — pure processing time while holding locks;
* :class:`ThinkOp` — user think time (long, conversational transactions).

Blocked transactions suspend; a lock release wakes the head waiters.
Deadlocks are detected on every block, the youngest victim is killed
(:meth:`TransactionManager.kill`: waits cancelled, rolled back, locks
released) and — by default — restarted after a backoff.  At commit all
locks are released (strict 2PL, degree-3 consistency).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import (
    FaultInjected,
    LockError,
    LockTimeoutError,
    SimulationError,
)
from repro.locking.lock_table import LockRequest
from repro.locking.modes import LockMode
from repro.sim.events import EventQueue
from repro.sim.metrics import SimulationMetrics
from repro.sim.retry import RetryPolicy
from repro.txn.manager import TransactionManager
from repro.txn.transaction import Transaction


class LockOp:
    """Demand ``mode`` on ``resource`` under the protocol's rules."""

    __slots__ = ("resource", "mode", "via")

    def __init__(self, resource: Tuple, mode: LockMode, via: Optional[Tuple] = None):
        self.resource = resource
        self.mode = mode
        self.via = via

    def __repr__(self):
        return "LockOp(%r, %s)" % (self.resource, self.mode)


class QueryOp:
    """Execute a query: lock per its query-specific lock graph, then work."""

    __slots__ = ("text", "work_per_row")

    def __init__(self, text: str, work_per_row: float = 0.5):
        self.text = text
        self.work_per_row = work_per_row

    def __repr__(self):
        return "QueryOp(%r)" % self.text


class CallOp:
    """Run ``fn(txn)`` instantly at this point of the program.

    Used for data mutations that must happen after the locks of earlier
    ops are held (e.g. applying a query's SET clause); any changes should
    be registered in the transaction's undo log so restarts roll back.
    """

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __repr__(self):
        return "CallOp(%r)" % (self.fn,)


class WorkOp:
    """Processing for ``duration`` simulated time units (locks held)."""

    __slots__ = ("duration",)

    def __init__(self, duration: float):
        self.duration = duration

    def __repr__(self):
        return "WorkOp(%r)" % self.duration


class ThinkOp(WorkOp):
    """User think time — identical mechanics, separate name for clarity."""

    def __repr__(self):
        return "ThinkOp(%r)" % self.duration


Program = Sequence[Union[LockOp, QueryOp, WorkOp]]


class _TxnRun:
    """Run-time state of one submitted transaction."""

    __slots__ = (
        "name",
        "principal",
        "program",
        "txn",
        "op_index",
        "pending_steps",
        "waiting_request",
        "submitted_at",
        "started_at",
        "wait_started_at",
        "waited",
        "restarts",
        "done",
        "on_done",
        "birth_ts",
    )

    def __init__(self, name, principal, program, submitted_at):
        self.name = name
        self.principal = principal
        self.program = list(program)
        self.txn: Optional[Transaction] = None
        self.op_index = 0
        #: explicit lock steps of the op in progress, not yet acquired
        self.pending_steps: List = []
        self.waiting_request: Optional[LockRequest] = None
        self.submitted_at = submitted_at
        self.started_at = submitted_at
        self.wait_started_at: Optional[float] = None
        self.waited = 0.0
        self.restarts = 0
        self.done = False
        #: optional callback fired once when the run finally completes
        self.on_done = None
        #: first start timestamp, preserved across restarts (wait-die /
        #: wound-wait need stable transaction ages to avoid starvation)
        self.birth_ts = None


class Simulator:
    """Drives transaction programs through a protocol in simulated time."""

    #: supported deadlock-handling policies: detection with youngest-victim
    #: abort (the default used throughout the experiments), and the two
    #: classic timestamp-based prevention schemes.
    POLICIES = ("detect", "wait_die", "wound_wait")

    def __init__(
        self,
        protocol,
        executor=None,
        lock_cost: float = 0.05,
        scan_item_cost: float = 0.01,
        restart_aborted: bool = True,
        restart_backoff: float = 2.0,
        max_restarts: int = 25,
        deadlock_policy: str = "detect",
        retry_policy: Optional[RetryPolicy] = None,
    ):
        if deadlock_policy not in self.POLICIES:
            raise SimulationError(
                "unknown deadlock policy %r (have: %s)"
                % (deadlock_policy, ", ".join(self.POLICIES))
            )
        self.protocol = protocol
        self.executor = executor
        self.manager = protocol.manager
        #: begins, commits and kills every run's transaction
        self.txns = TransactionManager(protocol)
        self.events = EventQueue()
        self.metrics = SimulationMetrics()
        self.lock_cost = lock_cost
        self.scan_item_cost = scan_item_cost
        self.restart_aborted = restart_aborted
        self.restart_backoff = restart_backoff
        self.max_restarts = max_restarts
        if retry_policy is None:
            # the legacy knobs *are* a linear policy (see sim/retry.py)
            retry_policy = RetryPolicy(
                max_retries=max_restarts if restart_aborted else 0,
                backoff=restart_backoff,
                kind="linear",
            )
        self.retry_policy = retry_policy
        self.deadlock_policy = deadlock_policy
        #: the prevention policies' victim rule: blocked run -> runs to end
        self._victims_of = {
            "wait_die": self._wait_die,
            "wound_wait": self._wound_wait,
        }.get(deadlock_policy)
        #: when set, run the repro.verify auditor after every N commits
        #: and raise on the first violation (continuous self-checking for
        #: long experiment runs; costs time, off by default)
        self.audit_every: Optional[int] = None
        self._runs: List[_TxnRun] = []
        self._by_txn: Dict[Transaction, _TxnRun] = {}

    # -- submission ---------------------------------------------------------------

    def submit(
        self,
        program: Program,
        at: float = 0.0,
        name: Optional[str] = None,
        principal=None,
    ) -> _TxnRun:
        run = _TxnRun(name or "txn%d" % (len(self._runs) + 1), principal, program, at)
        self._runs.append(run)
        self.events.schedule_at(at, lambda: self._start(run))
        return run

    def run(self, until: Optional[float] = None) -> SimulationMetrics:
        """Process events to completion and return the metrics."""
        self.events.run(until=until)
        unfinished = [run for run in self._runs if not run.done]
        if unfinished and until is None:
            raise SimulationError(
                "simulation drained but %d transaction(s) unfinished "
                "(undetected deadlock?): %r"
                % (len(unfinished), [run.name for run in unfinished])
            )
        self.metrics.makespan = self.events.now
        table = self.manager.table
        self.metrics.conflict_tests = table.conflict_tests
        self.metrics.max_lock_entries = table.max_entries
        self.metrics.locks_requested = self.protocol.locks_requested
        self.metrics.demands = self.protocol.demands
        cache = self.protocol.plan_cache
        self.metrics.plan_cache_hits = cache.hits
        self.metrics.plan_cache_misses = cache.misses
        self.metrics.plan_cache_invalidations = cache.invalidations
        database = self.protocol.catalog.database
        self.metrics.scan_items = database.scan_cost
        return self.metrics

    # -- lifecycle ------------------------------------------------------------------

    def _start(self, run: _TxnRun):
        run.txn = self.txns.begin(
            principal=run.principal, name=run.name, start_ts=run.birth_ts
        )
        if run.birth_ts is None:
            run.birth_ts = run.txn.start_ts
        run.started_at = self.events.now
        run.op_index = 0
        run.pending_steps = []
        run.waiting_request = None
        self._by_txn[run.txn] = run
        self._advance(run)

    def _advance(self, run: _TxnRun):
        """Drive the run forward until it blocks, sleeps or commits.

        Lock failures and injected faults surfacing anywhere on the
        forward path (planning, acquisition, commit) abort the run;
        the retry policy then decides whether it restarts.
        """
        if run.done or run.txn is None or not run.txn.active:
            return
        try:
            self._advance_inner(run)
        except (LockError, FaultInjected) as exc:
            if isinstance(exc, LockTimeoutError):
                self.metrics.timeouts += 1
            if isinstance(exc, FaultInjected):
                self.metrics.injected_faults += 1
            self._end(run)

    def _advance_inner(self, run: _TxnRun):
        while True:
            if run.pending_steps:
                if not self._acquire_next(run):
                    return  # blocked or paying lock cost asynchronously
                continue
            if run.op_index >= len(run.program):
                self._commit(run)
                return
            op = run.program[run.op_index]
            run.op_index += 1
            if isinstance(op, WorkOp):
                self.metrics.work_time += op.duration
                self.events.schedule(op.duration, lambda r=run: self._advance(r))
                return
            if isinstance(op, LockOp):
                if not self._plan_lock(run, op):
                    return  # paying scan cost; continuation scheduled
                continue
            if isinstance(op, QueryOp):
                self._plan_query(run, op)
                continue
            if isinstance(op, CallOp):
                op.fn(run.txn)
                continue
            raise SimulationError("unknown program op %r" % (op,))

    def _plan_lock(self, run: _TxnRun, op: LockOp) -> bool:
        """Plan one demand; False when the run suspended to pay scan cost."""
        database = self.protocol.catalog.database
        scan_before = database.scan_cost
        plan = self.protocol.plan_request(run.txn, op.resource, op.mode, via=op.via)
        scan_delta = database.scan_cost - scan_before
        run.pending_steps = list(plan)
        if scan_delta:
            # charge the reverse-scan work before any acquisition
            self.events.schedule(
                scan_delta * self.scan_item_cost, lambda r=run: self._advance(r)
            )
            return False
        return True

    def _plan_query(self, run: _TxnRun, op: QueryOp):
        if self.executor is None:
            raise SimulationError("QueryOp needs a Simulator(executor=...)")
        from repro.query.parser import parse_query

        query = parse_query(op.text) if isinstance(op.text, str) else op.text
        rows, demands = self.executor.lock_requirements(run.txn, query)
        steps: List = []
        for resource, mode in demands:
            plan = self.protocol.plan_request(run.txn, resource, mode)
            steps.extend(plan)
        run.pending_steps = steps
        insert_at = run.op_index
        if query.assignments and rows:
            # apply SET clauses once every lock of this query is held
            run.program.insert(
                insert_at,
                CallOp(
                    lambda txn, q=query, r=rows: self.executor._apply_assignments(
                        txn, q, r
                    )
                ),
            )
            insert_at += 1
        if rows and op.work_per_row:
            run.program.insert(insert_at, WorkOp(op.work_per_row * len(rows)))

    def _acquire_next(self, run: _TxnRun) -> bool:
        """Acquire one pending explicit lock; False if the run suspended."""
        step = run.pending_steps[0]
        if self.manager.holds_at_least(run.txn, step.resource, step.mode):
            run.pending_steps.pop(0)
            return True
        self.protocol.locks_requested += 1
        request = self.manager.acquire(run.txn, step.resource, step.mode, wait=True)
        if request.granted:
            run.pending_steps.pop(0)
            if self.lock_cost:
                self.events.schedule(self.lock_cost, lambda r=run: self._advance(r))
                return False
            return True
        run.waiting_request = request
        run.wait_started_at = self.events.now
        if self._victims_of is None:
            self.manager.detector.resolve(self._on_victim, run.txn)
        else:
            for victim in self._victims_of(run):
                self._end(victim)
        return False

    def _commit(self, run: _TxnRun):
        # a failed release leaves the transaction ACTIVE and raises into
        # _advance, which ends the run like any other forward-path fault
        woken = self.txns.commit(run.txn)
        run.done = True
        self.metrics.txn_committed(
            response_time=self.events.now - run.submitted_at,
            wait_time=run.waited,
        )
        self._wake(woken)
        if self.audit_every and self.metrics.committed % self.audit_every == 0:
            from repro.verify import audit

            violations = audit(self.protocol)
            if violations:
                raise SimulationError(
                    "invariant violation after commit of %r: %r"
                    % (run.name, violations[:3])
                )
        if run.on_done is not None:
            callback, run.on_done = run.on_done, None
            callback(run)

    def _wake(self, woken: List[LockRequest]):
        for request in woken:
            run = self._by_txn.get(request.txn)
            if run is None or run.waiting_request is not request:
                continue
            run.waiting_request = None
            if run.wait_started_at is not None:
                run.waited += self.events.now - run.wait_started_at
                run.wait_started_at = None
            run.pending_steps.pop(0)
            delay = self.lock_cost if self.lock_cost else 0.0
            self.events.schedule(delay, lambda r=run: self._advance(r))

    # -- deadlock handling ----------------------------------------------------------

    def _blockers_of(self, run: _TxnRun):
        """Every transaction the waiter directly depends on right now,
        oldest first.

        Uses the lock table's waits-for edges of this one waiter
        (incompatible holders AND incompatible requests queued ahead —
        FIFO makes those real blockers), so the prevention policies see
        exactly the graph the detector would."""
        if run.waiting_request is None:
            return []
        return sorted(
            set(self.manager.table.blockers_of(run.txn)),
            key=lambda txn: getattr(txn, "start_ts", 0),
        )

    def _wait_die(self, run: _TxnRun) -> List[_TxnRun]:
        """Wait-die prevention: a requester younger than a blocker dies
        (and restarts with its original timestamp).  Prevention aborts
        count as aborts and restarts only: no cycle ever forms, so
        ``deadlocks`` stays 0."""
        for blocker in self._blockers_of(run):
            if run.txn.start_ts > blocker.start_ts:
                return [run]
        return []

    def _wound_wait(self, run: _TxnRun) -> List[_TxnRun]:
        """Wound-wait prevention: an older requester wounds (aborts) every
        younger blocker; a younger requester simply waits."""
        return [
            self._by_txn[blocker]
            for blocker in self._blockers_of(run)
            if run.txn.start_ts < blocker.start_ts and blocker in self._by_txn
        ]

    def _on_victim(self, victim_txn, cycle):
        """Count the deadlock; end (and maybe restart) the victim's run."""
        self.metrics.deadlocks += 1
        victim = self._by_txn.get(victim_txn)
        if victim is None:
            raise SimulationError("deadlock victim %r unknown" % (victim_txn,))
        self._end(victim)

    def _end(self, run: _TxnRun):
        """Kill the run's transaction, then restart or abandon the run."""
        woken = self.txns.kill(run.txn)
        if run.wait_started_at is not None:
            run.waited += self.events.now - run.wait_started_at
            run.wait_started_at = None
        self._by_txn.pop(run.txn, None)
        self.metrics.txn_aborted()
        attempt = run.restarts + 1
        if self.retry_policy.should_retry(attempt):
            run.restarts = attempt
            self.metrics.restarts += 1
            run.waited = 0.0
            backoff = self.retry_policy.delay(attempt)
            self.events.schedule(backoff, lambda r=run: self._start(r))
        else:
            run.done = True
            self.metrics.abandoned += 1
            if run.on_done is not None:
                callback, run.on_done = run.on_done, None
                callback(run)
        self._wake(woken)
