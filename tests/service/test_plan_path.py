"""The served plan path: a lock frame hands its compiled, merged steps to
the lock table unfiltered, so the table's held-mode summary probe is the
only prune — on first submission and when a parked frame resumes."""

import asyncio

import pytest

from repro.locking.modes import X
from repro.locking.trace import LockTrace
from repro.service.client import ServiceClient
from repro.service.server import LockServer, make_service_stack
from tests.service.test_service_faults import assert_no_leaks, parked_frame

A1 = "db1/seg_asm/assemblies/a1"
M1 = "db1/seg_materials/materials/m1"
MATERIALS = "db1/seg_materials/materials"
PARTS = "db1/seg_parts/parts"
P1 = PARTS + "/p1"


def serve(monkeypatch):
    """A partlib server whose protocol refuses ``filter_plan``."""
    server = LockServer(make_service_stack("partlib"), port=0)

    def refuse(txn, merged):
        raise AssertionError("a served lock frame was filtered")

    monkeypatch.setattr(server.stack.protocol, "filter_plan", refuse)
    return server


@pytest.mark.parametrize("binary", [False, True], ids=["text", "binary"])
def test_served_plans_are_never_filtered(monkeypatch, binary):
    """SLOCK, a covered SLOCK, and an XLOCK that parks mid-plan and
    resumes: every steps= count comes from the table's prune alone."""

    async def go():
        server = serve(monkeypatch)
        host, port = await server.start()
        a = await ServiceClient(host, port, binary=binary).connect()
        b = await ServiceClient(host, port, binary=binary).connect()
        c = await ServiceClient(host, port, binary=binary).connect()
        assert (await a.start("t1")).startswith("OK")
        assert (await b.start("t2")).startswith("OK")
        assert (await c.start("t3")).startswith("OK")
        assert await a.slock("t1", MATERIALS) == (
            "OK GRANTED t1 %s steps=3" % MATERIALS
        )
        assert await a.slock("t1", MATERIALS) == (
            "OK GRANTED t1 %s steps=0" % MATERIALS
        )
        waiting = asyncio.ensure_future(b.xlock("t2", M1))
        await asyncio.wait_for(parked_frame(server), 2.0)
        assert await a.end("t1") == "OK ENDED t1"
        assert await waiting == "OK GRANTED t2 %s steps=4" % M1
        assert (await c.xlock("t3", M1, nowait=True)).startswith(
            "ERR CONFLICT t3"
        )
        for client, name in ((b, "t2"), (c, "t3")):
            assert (await client.end(name)).startswith("OK")
            await client.close()
        await a.close()
        assert_no_leaks(server)
        await server.stop()

    asyncio.run(go())


async def park_then_cover(server, host, port):
    """t's XLOCK on a1 parked at X p1 behind h's S, then a pipelined XLOCK
    of t on m1, which takes the later steps of the parked plan.  Returns
    (holder, client, the parked XLOCK's answer)."""
    holder = await ServiceClient(host, port).connect()
    assert (await holder.start("h")).startswith("OK")
    assert (
        await holder.acquire_many(
            "h",
            [("db1", "IS"), ("db1/seg_parts", "IS"), (PARTS, "IS"), (P1, "S")],
        )
    ).startswith("OK GRANTED")
    client = await ServiceClient(host, port, binary=True, pipeline_depth=8).connect()
    assert (await client.start("t")).startswith("OK")
    waiting = await client.submit_lock("XLOCK", "t", A1)
    await client.flush()
    await asyncio.wait_for(parked_frame(server), 2.0)
    # db1 is held already: seg_materials, materials and m1 are new
    assert await client.xlock("t", M1) == "OK GRANTED t %s steps=3" % M1
    return holder, client, waiting


def test_resumed_plan_prunes_steps_covered_while_parked(monkeypatch):
    """t's XLOCK on a1 parks at X p1 behind h.  A pipelined XLOCK of the
    same transaction then takes m1 and its intention path, the later
    steps of the parked plan.  On resume those are pruned: the answer
    counts one more step, and one UNLOCK releases m1 — no covered
    re-request was pushed onto it."""

    async def go():
        server = serve(monkeypatch)
        address = await server.start()
        holder, client, waiting = await park_then_cover(server, *address)
        table = server.manager.table
        before = table.requests
        assert await holder.end("h") == "OK ENDED h"
        assert await waiting == "OK GRANTED t %s steps=7" % A1
        assert table.requests == before + 1  # only the X on a1
        txn = next(t for t in server.stack.txns.active if t.name == "t")
        m1 = tuple(M1.split("/"))
        assert await client.unlock("t", M1) == "OK RELEASED t %s" % M1
        assert server.manager.held_mode(txn, m1) is None
        assert (await client.end("t")).startswith("OK")
        await client.close()
        await holder.close()
        assert_no_leaks(server)
        await server.stop()

    asyncio.run(go())


def test_traced_resume_records_the_table_pass(monkeypatch):
    """The same scenario under a ``LockTrace``: the trace hears the
    table's own pass, so the resume records the woken X on p1 and exactly
    one request, the X on a1 — nothing on the m1 path."""

    async def go():
        server = serve(monkeypatch)
        address = await server.start()
        with LockTrace.attach(server.manager) as trace:
            holder, client, waiting = await park_then_cover(server, *address)
            mark = len(trace)
            assert await holder.end("h") == "OK ENDED h"
            assert await waiting == "OK GRANTED t %s steps=7" % A1
        assert [
            (e.action, e.txn.name, e.resource, e.mode, e.outcome)
            for e in trace.events[mark:]
        ] == [
            ("release_all", "h", None, None, None),
            ("grant", "t", tuple(P1.split("/")), X, "woken"),
            ("acquire", "t", tuple(A1.split("/")), X, "granted"),
        ]
        assert (await client.end("t")).startswith("OK")
        await client.close()
        await holder.close()
        assert_no_leaks(server)
        await server.stop()

    asyncio.run(go())
