"""Wire-protocol differential certification.

The binary wire protocol, client-side pipelining and server write
coalescing all claim to be pure transport: none of them may change
*which* lock events happen, their order, or what the client is told.
This module replays deterministic client scripts against a freshly
served lock stack once per wire mode —

* ``text``       — the PR-7 line protocol, one request in flight;
* ``binary``     — the length-prefixed binary protocol after the
                   ``HELLO BINARY`` upgrade, one request in flight;
* ``pipelined``  — the binary protocol with whole batches submitted in
                   a single write and N responses in flight —

and fingerprints each run as the full normalised lock-trace narrative
(every request, grant, wait, wake, release and cancel, in order) plus
the exact response text of every scripted request.  The three modes must
coincide bit-for-bit; :func:`assert_wire_modes_agree` raises
:class:`~repro.errors.CheckError` on the first divergence.

Four scripts cover the smoke workloads: ``partlib`` (grants, group
acquisition, unknown resources, NOWAIT conflicts), ``from-the-side``
(the cells database's common data reached from two entry points),
``deadlock`` (two sessions crossing demands until the detector kills
the youngest) and ``commuting-inserts`` (the semantic SI/INC verbs on a
``use_semantic_modes`` stack: concurrent inserters admitted, readers
refused).  The deadlock script synchronises on the server's parked
waiter futures, so the interleaving — who waits first, who is chosen
victim — is pinned, not raced.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.errors import CheckError
from repro.locking.trace import LockTrace

#: Lock-wait timeout the scripts are served with.  Every script but
#: ``deadlock`` is sequential — one op awaited at a time — so a demand that
#: parks (``partlib`` and ``from-the-side`` each have one on purpose) can
#: only time out: nobody acts while it is awaited.  The fingerprint carries
#: the ``ERR TIMEOUT`` text, not how long it took, so the wait is kept
#: short.  The ``deadlock`` script's parked demands are ended by the
#: detector (at the next nudge, milliseconds) and must not time out first.
SCRIPT_LOCK_TIMEOUT = 0.05
DEADLOCK_SCRIPT_LOCK_TIMEOUT = 0.5

#: Every wire mode the differential compares, in report order.
WIRE_MODES = ("text", "binary", "pipelined")

#: Scripted smoke workloads: script name -> served database workload.
SCRIPT_WORKLOADS = OrderedDict(
    (
        ("partlib", "partlib"),
        ("from-the-side", "cells"),
        ("deadlock", "partlib"),
        ("commuting-inserts", "partlib"),
    )
)

#: Extra stack flags per script.  The classic scripts run on an
#: unflagged stack — their traces are the PR-8 baseline, which is what
#: makes them double as the semantic-modes flag-off differential — and
#: the commuting-inserts script opts into the semantic modes.
SCRIPT_FLAGS = {"commuting-inserts": {"use_semantic_modes": True}}


class _ScriptRun:
    """One script execution: clients, responses, mode-aware batching."""

    def __init__(self, server, mode: str):
        self.server = server
        self.mode = mode
        self.responses: List[str] = []
        self._clients: Dict[int, object] = {}

    async def client(self, index: int):
        from repro.service.client import ServiceClient

        existing = self._clients.get(index)
        if existing is None:
            existing = await ServiceClient(
                self.server.host,
                self.server.port,
                binary=self.mode != "text",
                pipeline_depth=8 if self.mode == "pipelined" else 1,
            ).connect()
            self._clients[index] = existing
        return existing

    async def _apply(self, client, op) -> str:
        verb = op[0]
        if verb == "start":
            return await client.start(op[1])
        if verb == "end":
            return await client.end(op[1])
        if verb == "lock":
            return await client.lock(op[1], op[2], op[3], nowait=op[4])
        if verb == "unlock":
            return await client.unlock(op[1], op[2])
        if verb == "acquire_many":
            return await client.acquire_many(op[1], op[2], nowait=op[3])
        raise ValueError("unknown script op %r" % (verb,))

    async def op(self, index: int, *op) -> str:
        response = await self._apply(await self.client(index), op)
        self.responses.append(response)
        return response

    async def batch(self, index: int, ops) -> List[str]:
        """Run simple ops in one pipelined write when the mode allows.

        In pipelined mode the frames go out in a single ``flush`` and
        the responses are awaited afterwards; every other mode runs the
        ops one round-trip at a time.  The server processes one
        connection's frames strictly in order either way, so the trace
        and the responses cannot depend on which path ran.
        """
        client = await self.client(index)
        if self.mode != "pipelined":
            out = []
            for op in ops:
                out.append(await self.op(index, *op))
            return out
        futures = []
        for op in ops:
            verb = op[0]
            if verb == "start":
                futures.append(await client.submit_start(op[1]))
            elif verb == "end":
                futures.append(await client.submit_end(op[1]))
            elif verb == "lock":
                futures.append(
                    await client.submit_lock(op[1], op[2], op[3], nowait=op[4])
                )
            elif verb == "unlock":
                futures.append(await client.submit_unlock(op[1], op[2]))
            else:
                raise ValueError("op %r cannot be batched" % (verb,))
        await client.flush()
        out = []
        for future in futures:
            response = await future
            self.responses.append(response)
            out.append(response)
        return out

    async def spawn(self, index: int, *op) -> "asyncio.Task":
        """Start an op expected to park (its response comes later)."""
        client = await self.client(index)
        return asyncio.get_running_loop().create_task(
            self._apply(client, op)
        )

    async def collect(self, task: "asyncio.Task") -> str:
        response = await task
        self.responses.append(response)
        return response

    async def wait_waiters(self, count: int, tasks=()):
        """Park until ``count`` lock waits are registered server-side.

        Escapes early when every spawned task already finished — the
        deadlock detector may fire between the waiters arriving and this
        poll observing them.
        """
        while len(self.server._futures) < count:
            if tasks and all(task.done() for task in tasks):
                return
            await asyncio.sleep(0.005)

    async def close(self):
        for client in self._clients.values():
            await client.close()
        self._clients.clear()


# -- the scripts ----------------------------------------------------------------


async def _script_partlib(run: _ScriptRun):
    """Grants, group acquisition, unknown resources, NOWAIT conflicts."""
    p1 = "db1/seg_parts/parts/p1"
    p2 = "db1/seg_parts/parts/p2"
    m1 = "db1/seg_materials/materials/m1"
    a1 = "db1/seg_asm/assemblies/a1"
    await run.batch(
        0,
        [
            ("start", "t1"),
            ("lock", "XLOCK", "t1", p1, False),
            ("lock", "SLOCK", "t1", m1, False),
        ],
    )
    await run.op(0, "acquire_many", "t1", ((p2, "S"), (a1, "X")), False)
    await run.op(0, "lock", "SLOCK", "t1", "db1/seg_parts/parts/nope", False)
    await run.op(0, "unlock", "t1", p2)
    # a second transaction on the same session must hit t1's X lock
    await run.batch(0, [("start", "t2")])
    await run.op(0, "lock", "SLOCK", "t2", p1, True)
    await run.op(0, "lock", "SLOCK", "t2", m1, False)
    await run.batch(0, [("end", "t1"), ("end", "t2")])


async def _script_from_the_side(run: _ScriptRun):
    """Common data reached from two entry points (cells, figure 7)."""
    cell = "db1/seg1/cells/c1"
    effector = "db1/seg2/effectors/e1"
    await run.batch(0, [("start", "t1"), ("lock", "XLOCK", "t1", cell, False)])
    await run.batch(
        1,
        [("start", "t2"), ("lock", "SLOCK", "t2", effector, False)],
    )
    # from the side: the cell is already X-locked via the other entry
    await run.op(1, "lock", "SLOCK", "t2", cell, True)
    await run.batch(0, [("end", "t1")])
    await run.op(1, "lock", "SLOCK", "t2", cell, False)
    await run.batch(1, [("end", "t2")])


async def _script_deadlock(run: _ScriptRun):
    """Two sessions cross their demands; the detector kills the youngest."""
    p1 = "db1/seg_parts/parts/p1"
    p2 = "db1/seg_parts/parts/p2"
    await run.batch(0, [("start", "t1"), ("lock", "XLOCK", "t1", p1, False)])
    await run.batch(1, [("start", "t2"), ("lock", "XLOCK", "t2", p2, False)])
    parked_t2 = await run.spawn(1, "lock", "XLOCK", "t2", p1, False)
    await run.wait_waiters(1, (parked_t2,))
    parked_t1 = await run.spawn(0, "lock", "XLOCK", "t1", p2, False)
    await run.wait_waiters(2, (parked_t1, parked_t2))
    # the cycle is closed; the detector aborts t2 (youngest) and t1's
    # parked demand is granted from the released queue
    await run.collect(parked_t1)
    await run.collect(parked_t2)
    await run.batch(0, [("end", "t1")])
    await run.op(1, "end", "t2")


async def _script_commuting_inserts(run: _ScriptRun):
    """Semantic SI locks: concurrent inserters admitted, readers refused."""
    p1 = "db1/seg_parts/parts/p1"
    p2 = "db1/seg_parts/parts/p2"
    await run.batch(0, [("start", "t1"), ("lock", "SILOCK", "t1", p1, False)])
    # a second inserter on the same part is granted concurrently — the
    # commutativity win the semantic modes exist for
    await run.batch(1, [("start", "t2"), ("lock", "SILOCK", "t2", p1, False)])
    # a reader is refused: a commuting update is still a write to it
    await run.batch(2, [("start", "t3")])
    await run.op(2, "lock", "SLOCK", "t3", p1, True)
    # semantic intention modes batch exactly like classic ones
    await run.op(
        0, "acquire_many", "t1", (("db1/seg_parts", "ISI"),), False
    )
    # a commuting increment on a *different* part is independent
    await run.op(2, "lock", "INCLOCK", "t3", p2, False)
    await run.batch(0, [("end", "t1")])
    await run.batch(1, [("end", "t2")])
    # both inserters gone: the reader's demand is admissible now
    await run.op(2, "lock", "SLOCK", "t3", p1, False)
    await run.batch(2, [("end", "t3")])


SCRIPTS = OrderedDict(
    (
        ("partlib", _script_partlib),
        ("from-the-side", _script_from_the_side),
        ("deadlock", _script_deadlock),
        ("commuting-inserts", _script_commuting_inserts),
    )
)


# -- fingerprinting -------------------------------------------------------------


def _txn_name(txn) -> Optional[str]:
    if txn is None:
        return None
    return getattr(txn, "name", None) or str(txn)


def _normalise(trace: LockTrace, responses) -> tuple:
    events = tuple(
        (
            event.action,
            _txn_name(event.txn),
            tuple(event.resource) if event.resource is not None else None,
            str(event.mode) if event.mode is not None else None,
            event.outcome,
        )
        for event in trace.events
    )
    return (events, tuple(responses))


async def _run_script(script: str, mode: str) -> tuple:
    from repro.service.server import LockServer, make_service_stack

    stack = make_service_stack(
        SCRIPT_WORKLOADS[script], **SCRIPT_FLAGS.get(script, {})
    )
    server = LockServer(
        stack,
        "127.0.0.1",
        0,
        detector_interval=0.05,
        lock_timeout=(
            DEADLOCK_SCRIPT_LOCK_TIMEOUT
            if script == "deadlock"
            else SCRIPT_LOCK_TIMEOUT
        ),
    )
    await server.start()
    trace = LockTrace.attach(stack.manager)
    run = _ScriptRun(server, mode)
    try:
        await SCRIPTS[script](run)
    finally:
        await run.close()
        trace.detach()
        await server.stop()
    return _normalise(trace, run.responses)


def wire_fingerprints(
    script: str, modes: Tuple[str, ...] = WIRE_MODES
) -> "OrderedDict[str, tuple]":
    """Replay one script under every wire mode; returns the fingerprints."""
    fingerprints: "OrderedDict[str, tuple]" = OrderedDict()
    for mode in modes:
        fingerprints[mode] = asyncio.run(_run_script(script, mode))
    return fingerprints


def _first_divergence(base: tuple, other: tuple) -> str:
    base_events, base_responses = base
    other_events, other_responses = other
    for position, (ours, theirs) in enumerate(zip(base_events, other_events)):
        if ours != theirs:
            return "trace event %d: %r != %r" % (position, ours, theirs)
    if len(base_events) != len(other_events):
        return "trace length %d != %d" % (len(base_events), len(other_events))
    for position, (ours, theirs) in enumerate(
        zip(base_responses, other_responses)
    ):
        if ours != theirs:
            return "response %d: %r != %r" % (position, ours, theirs)
    return "response count %d != %d" % (len(base_responses), len(other_responses))


def assert_wire_modes_agree(
    fingerprints: Dict[str, tuple], script: str = "?"
) -> int:
    """All wire modes must replay identically; returns the event count."""
    items = list(fingerprints.items())
    base_mode, base = items[0]
    for mode, fingerprint in items[1:]:
        if fingerprint != base:
            raise CheckError(
                "wire modes diverge on script %s: %s vs %s — %s"
                % (script, base_mode, mode, _first_divergence(base, fingerprint))
            )
    return len(base[0])


def wire_differential(
    scripts: Tuple[str, ...] = tuple(SCRIPTS),
    modes: Tuple[str, ...] = WIRE_MODES,
) -> "OrderedDict[str, dict]":
    """The full wire story: every script under every mode.

    Returns ``{script: {"events": N, "responses": M, "modes": [...]}}``;
    raises :class:`CheckError` on the first divergence.
    """
    summary: "OrderedDict[str, dict]" = OrderedDict()
    for script in scripts:
        fingerprints = wire_fingerprints(script, modes=modes)
        events = assert_wire_modes_agree(fingerprints, script=script)
        summary[script] = {
            "events": events,
            "responses": len(next(iter(fingerprints.values()))[1]),
            "modes": list(fingerprints),
        }
    return summary
