"""Span tracing from outside the program.

The benchmark owns the instrumentation: :class:`Tracer` replaces public
callables on the *wired instances* (``stack.protocol.plan_request``, each
shard table's ``request_many``, ...) and on module objects
(``wire.decode_request_fields``) with timing wrappers, in whichever
process hosts them, and removes them again.  Nothing under ``src/`` knows
it is being traced, and an untraced phase runs with no wrapper present at
all — which is why end-to-end metrics never come from a traced phase.

Only *synchronous* callables are wrapped.  A synchronous call on the
event-loop thread runs to completion, so one plain parent stack per
tracer is exact (no task can interleave inside a span) and a span's
duration is CPU the thread really spent there.  The ``async`` dispatchers
are deliberately left alone: a span around a coroutine would count the
time it sat parked while other requests ran.  What the spans do not
cover — dispatch, asyncio, socket flush — is reported as the residual
against process CPU (``service.server.residual_us_per_req``).

Self time of a span = its duration minus the durations of the spans it
directly caused.  Each wrapper's own bookkeeping outside its two clock
reads lands in the *parent's* self time; ``trace.overhead_ratio`` says how
much the whole apparatus slows the workload.
"""

from __future__ import annotations

import json
from time import perf_counter_ns
from typing import Dict, List, Optional, Tuple

#: raw spans kept for ``--trace-out`` (the aggregates are always complete)
MAX_RAW_SPANS = 400_000


class Target:
    """One callable to wrap: ``span`` is the reported name, ``path`` the
    attribute chain from a root object, ``sized`` sums ``len(result)``
    (plan steps, granted requests), ``txn_arg`` is the positional index of
    the transaction argument (the identifier spans of one request share).
    """

    __slots__ = ("span", "root", "path", "sized", "txn_arg")

    def __init__(self, span, root, path, sized=False, txn_arg=None):
        self.span = span
        self.root = root
        self.path = path
        self.sized = sized
        self.txn_arg = txn_arg


class Tracer:
    def __init__(self, keep_raw: bool = False):
        #: span name -> [calls, total_ns, self_ns, summed len(result)]
        self.totals: Dict[str, List[int]] = {}
        #: (id, name, start_ns, end_ns, parent id or -1, txn name or None)
        self.spans: Optional[List[tuple]] = [] if keep_raw else None
        #: targets whose attribute chain no longer resolves
        self.skipped: List[str] = []
        self._stack: List[List[int]] = []  # [span id, child ns] per open span
        self._next_id = 0
        self._installed: List[Tuple[object, str, bool, object]] = []

    # -- installing -----------------------------------------------------------

    def install(self, roots: Dict[str, object], targets: List[Target]):
        """Wrap every target that still exists; list the ones that do not."""
        for target in targets:
            owner = roots.get(target.root)
            *parents, attr = target.path.split(".")
            try:
                for name in parents:
                    owner = getattr(owner, name)
                original = getattr(owner, attr)
            except AttributeError:
                self.skipped.append("%s.%s" % (target.root, target.path))
                continue
            if owner is None or not callable(original):
                self.skipped.append("%s.%s" % (target.root, target.path))
                continue
            shadowed = attr in getattr(owner, "__dict__", {})
            setattr(owner, attr, self._wrap(original, target))
            self._installed.append((owner, attr, shadowed, original))

    def install_each(self, owners, root: str, targets: List[Target]):
        """The same targets on several instances (the shard tables)."""
        for owner in owners:
            self.install({root: owner}, targets)

    def uninstall(self):
        for owner, attr, shadowed, original in reversed(self._installed):
            if shadowed:
                setattr(owner, attr, original)  # a module or instance attr
            else:
                delattr(owner, attr)  # uncover the class attribute again
        self._installed = []

    def _wrap(self, fn, target: Target):
        totals = self.totals.setdefault(target.span, [0, 0, 0, 0])
        stack = self._stack
        spans = self.spans
        name = target.span
        sized = target.sized
        txn_arg = target.txn_arg
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            frame = [span_id, 0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if sized:
                    totals[3] += len(result)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if spans is not None and len(spans) < MAX_RAW_SPANS:
                    txn = None
                    if txn_arg is not None and len(args) > txn_arg:
                        txn = getattr(args[txn_arg], "name", None)
                    spans.append(
                        (
                            span_id,
                            name,
                            start,
                            end,
                            -1 if parent is None else parent[0],
                            txn,
                        )
                    )

        traced.__wrapped__ = fn
        return traced

    # -- reading --------------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, int]]:
        return {
            name: {
                "calls": calls,
                "total_ns": total,
                "self_ns": self_ns,
                "items": items,
            }
            for name, (calls, total, self_ns, items) in self.totals.items()
        }

    def write(self, path: str):
        """One JSON object per span, in completion order."""
        with open(path, "w") as handle:
            for span in self.spans or ():
                handle.write(
                    json.dumps(
                        dict(
                            zip(
                                ("id", "name", "start_ns", "end_ns", "parent", "txn"),
                                span,
                            )
                        )
                    )
                )
                handle.write("\n")


# -- the layer boundaries -----------------------------------------------------
#
# Root names: ``stack`` is the wired LockStack, ``wire`` / ``parser`` are the
# modules the server and the benchmark call through, ``table`` is one lock
# table (the single table in process, each shard table when served),
# ``sim`` one Simulator.

STACK_TARGETS = [
    Target("txn.begin", "stack", "txns.begin"),
    Target("txn.commit", "stack", "txns.commit", txn_arg=0),
    Target("txn.abort", "stack", "txns.abort", txn_arg=0),
    Target("query.executor.execute", "stack", "executor.execute", txn_arg=0),
    Target("query.analyze", "stack", "executor.analyzer.analyze"),
    Target("protocol.optimizer.plan_query", "stack", "optimizer.plan_query"),
    Target("protocol.plan_request", "stack", "protocol.plan_request", sized=True, txn_arg=0),
    Target("protocol.execute_plan", "stack", "protocol.execute_plan", sized=True, txn_arg=0),
    Target("locking.manager.acquire", "stack", "manager.acquire", txn_arg=0),
    Target("locking.manager.acquire_many", "stack", "manager.acquire_many", sized=True, txn_arg=0),
    Target("locking.manager.release_all", "stack", "manager.release_all", txn_arg=0),
    Target("locking.manager.cancel", "stack", "manager.cancel"),
    Target("locking.deadlock.detect", "stack", "manager.detector.check"),
]

TABLE_TARGETS = [
    Target("locking.table.request", "table", "request", txn_arg=0),
    Target("locking.table.request_many", "table", "request_many", sized=True, txn_arg=0),
    Target("locking.table.release_all", "table", "release_all", txn_arg=0),
]

WIRE_TARGETS = [
    Target("service.wire.decode", "wire", "decode_request_fields"),
    Target("service.wire.encode", "wire", "frame_for_response"),
    Target("service.wire.encode", "wire", "encode_response"),
]

PARSER_TARGETS = [Target("query.parse", "parser", "parse_query")]

SIM_TARGETS = [Target("sim.simulator.run", "sim", "run")]


def lock_tables(manager) -> list:
    """The real lock tables behind a manager: its shards, or its one table."""
    return list(getattr(manager, "shards", None) or [manager.table])


def install_stack(tracer: Tracer, stack):
    tracer.install({"stack": stack}, STACK_TARGETS)
    tracer.install_each(lock_tables(stack.manager), "table", TABLE_TARGETS)
