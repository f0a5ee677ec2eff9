"""Protocol conformance: golden request/response transcripts.

Every wire verb — happy path and every error frame — pinned as literal
request/response pairs against a freshly served stack, plus the full
mode-compatibility matrix exercised over the wire and checked against
the dense tables in :mod:`repro.locking.modes`.  These transcripts are
the protocol contract: a server change that alters any byte of a reply
must change this file.
"""

import asyncio

import pytest

from repro.locking.modes import COMPAT_FLAT, N_MODES, IS, IX, S, SIX, X
from repro.service.client import ServiceClient, workload_paths
from repro.service.server import LockServer, make_service_stack


def run_transcript(script, workload="partlib", **server_kwargs):
    """Feed request frames over one connection; pin each response."""

    async def go():
        server = LockServer(
            make_service_stack(workload), port=0, **server_kwargs
        )
        host, port = await server.start()
        client = await ServiceClient(host, port).connect()
        try:
            for frame, expected in script:
                response = await client.request(frame)
                assert response == expected, (
                    "request %r answered %r, transcript pins %r"
                    % (frame, response, expected)
                )
        finally:
            await client.close()
            await server.stop()

    asyncio.run(go())


class TestHappyPaths:
    def test_start_lock_unlock_end(self):
        run_transcript([
            ("START t1", "OK STARTED t1"),
            # IS on the relation and its two ancestors
            ("ISLOCK t1 db1/seg_materials/materials",
             "OK GRANTED t1 db1/seg_materials/materials steps=3"),
            # ancestors already covered: only the object lock is new
            ("SLOCK t1 db1/seg_materials/materials/m1",
             "OK GRANTED t1 db1/seg_materials/materials/m1 steps=1"),
            ("UNLOCK t1 db1/seg_materials/materials/m1",
             "OK RELEASED t1 db1/seg_materials/materials/m1"),
            ("END t1", "OK ENDED t1"),
        ])

    def test_ix_and_acquire_many(self):
        run_transcript([
            ("START t1", "OK STARTED t1"),
            ("IXLOCK t1 db1/seg_parts/parts",
             "OK GRANTED t1 db1/seg_parts/parts steps=3"),
            # X on p1 propagates through the reference to material m1
            ("XLOCK t1 db1/seg_parts/parts/p1",
             "OK GRANTED t1 db1/seg_parts/parts/p1 steps=4"),
            # every step already covered: nothing submitted
            ("ACQUIRE_MANY t1 db1:IX,db1/seg_parts:IX",
             "OK GRANTED t1 db1:IX,db1/seg_parts:IX steps=0"),
            ("ACQUIRE_MANY t1 db1/seg_asm:IX,db1/seg_asm/assemblies:SIX",
             "OK GRANTED t1 db1/seg_asm:IX,db1/seg_asm/assemblies:SIX steps=2"),
            ("END t1", "OK ENDED t1"),
        ])

    def test_stats_is_served(self):
        async def go():
            server = LockServer(make_service_stack("partlib"), port=0)
            host, port = await server.start()
            client = await ServiceClient(host, port).connect()
            try:
                await client.start("t")
                await client.slock("t", "db1/seg_materials/materials/m2")
                stats = await client.stats()
                assert stats["frames"] >= 2
                assert stats["lock_count"] > 0
                await client.end("t")
                stats = await client.stats()
                assert stats["lock_count"] == 0
            finally:
                await client.close()
                await server.stop()

        asyncio.run(go())


class TestErrorFrames:
    def test_unknown_verb(self):
        run_transcript([
            ("FROB t1", "ERR UNKNOWN-VERB FROB"),
            ("", "ERR BAD-FRAME empty"),
        ])

    def test_bad_frames(self):
        run_transcript([
            ("START", "ERR BAD-FRAME START takes one argument"),
            ("END", "ERR BAD-FRAME END takes one argument"),
            ("UNLOCK t1", "ERR BAD-FRAME UNLOCK takes two arguments"),
            ("SLOCK t1", "ERR BAD-FRAME SLOCK takes <txn> <path> [NOWAIT]"),
            ("XLOCK t1 db1 EXTRA",
             "ERR BAD-FRAME XLOCK takes <txn> <path> [NOWAIT]"),
            ("ACQUIRE_MANY t1",
             "ERR BAD-FRAME ACQUIRE_MANY takes <txn> <path>:<mode>[,...] [NOWAIT]"),
        ])

    def test_lock_on_unknown_resource(self):
        run_transcript([
            ("START t1", "OK STARTED t1"),
            ("SLOCK t1 db2/seg1", "ERR UNKNOWN-RESOURCE db2/seg1"),
            ("SLOCK t1 db1/nope", "ERR UNKNOWN-RESOURCE db1/nope"),
            ("SLOCK t1 db1/seg_parts/nothere",
             "ERR UNKNOWN-RESOURCE db1/seg_parts/nothere"),
            ("SLOCK t1 db1/seg_parts/parts/p9",
             "ERR UNKNOWN-RESOURCE db1/seg_parts/parts/p9"),
            ("UNLOCK t1 db1/nope", "ERR UNKNOWN-RESOURCE db1/nope"),
        ])

    def test_object_inserted_after_start_resolves(self):
        """The text dispatcher resolves paths through an index stamped by
        ``database.structure_version``: an insert (or delete) made while
        serving must be visible to the very next frame."""
        from repro.nf2.database import make_tuple

        async def go():
            stack = make_service_stack("partlib")
            server = LockServer(stack, port=0)
            host, port = await server.start()
            client = await ServiceClient(host, port).connect()
            path = "db1/seg_materials/materials/m9"
            try:
                assert await client.request("START t1") == "OK STARTED t1"
                # warms the index for the relation the insert will grow
                assert await client.request("SLOCK t1 %s" % path) == (
                    "ERR UNKNOWN-RESOURCE %s" % path
                )
                stack.database.insert(
                    "materials",
                    make_tuple(mat_id="m9", name="unobtainium", density=9.0),
                )
                assert await client.request("SLOCK t1 %s" % path) == (
                    "OK GRANTED t1 %s steps=4" % path
                )
                assert await client.request("UNLOCK t1 %s" % path) == (
                    "OK RELEASED t1 %s" % path
                )
                stack.database.relation("materials").delete("m9")
                assert await client.request("SLOCK t1 %s" % path) == (
                    "ERR UNKNOWN-RESOURCE %s" % path
                )
            finally:
                await client.close()
                await server.stop()

        asyncio.run(go())

    def test_bad_mode_in_acquire_many(self):
        run_transcript([
            ("START t1", "OK STARTED t1"),
            ("ACQUIRE_MANY t1 db1:FOO", "ERR BAD-MODE FOO"),
            ("ACQUIRE_MANY t1 db1", "ERR BAD-FRAME missing :mode in db1"),
        ])

    def test_unlock_not_held(self):
        run_transcript([
            ("START t1", "OK STARTED t1"),
            ("UNLOCK t1 db1/seg_materials/materials/m2",
             "ERR NOT-HELD t1 db1/seg_materials/materials/m2"),
            ("END t1", "OK ENDED t1"),
        ])

    def test_double_start_and_double_end(self):
        run_transcript([
            ("START t1", "OK STARTED t1"),
            ("START t1", "ERR TXN-ACTIVE t1"),
            ("END t1", "OK ENDED t1"),
            ("END t1", "ERR NOTXN t1"),
            # a finished name is free for reuse
            ("START t1", "OK STARTED t1"),
            ("END t1", "OK ENDED t1"),
        ])

    def test_lock_without_transaction(self):
        run_transcript([
            ("SLOCK ghost db1", "ERR NOTXN ghost"),
            ("UNLOCK ghost db1", "ERR NOTXN ghost"),
            ("ACQUIRE_MANY ghost db1:IS", "ERR NOTXN ghost"),
        ])

    def test_conflict_with_nowait(self):
        run_transcript([
            ("START a", "OK STARTED a"),
            ("START b", "OK STARTED b"),
            ("ACQUIRE_MANY a db1:X", "OK GRANTED a db1:X steps=1"),
            ("SLOCK b db1/seg_materials/materials/m1 NOWAIT",
             "ERR CONFLICT b db1"),
            ("END a", "OK ENDED a"),
            # with the root free the same demand goes through
            ("SLOCK b db1/seg_materials/materials/m1 NOWAIT",
             "OK GRANTED b db1/seg_materials/materials/m1 steps=4"),
            ("END b", "OK ENDED b"),
        ])


MATERIALS = "db1/seg_materials/materials"
M1 = MATERIALS + "/m1"


def _holders(server, path):
    holders = server.manager.holders(tuple(path.split("/")))
    return {txn.name: mode for txn, mode in holders.items()}


@pytest.mark.parametrize("binary", [False, True], ids=["text", "binary"])
class TestResumeAfterWait:
    """A plan that waits mid-way resumes with the steps after the
    blocked one: ``OK GRANTED`` means every step is covered or granted."""

    @staticmethod
    def _serve(binary, scenario):
        async def go():
            server = LockServer(make_service_stack("partlib"), port=0)
            host, port = await server.start()
            clients = [
                await ServiceClient(host, port, binary=binary).connect()
                for _ in range(3)
            ]
            try:
                await scenario(server, *clients)
            finally:
                for client in clients:
                    await client.close()
                await server.stop()

        asyncio.run(go())

    @staticmethod
    async def _parked(server, task, waits):
        """Wait until the server has queued its ``waits``-th request."""
        for _ in range(200):
            if server.manager.metrics()["waits"] >= waits:
                break
            await asyncio.sleep(0.01)
        assert server.manager.metrics()["waits"] == waits
        assert not task.done()

    def test_blocked_intention_step_still_reaches_the_object(self, binary):
        async def scenario(server, a, b, c):
            assert await a.start("t1") == "OK STARTED t1"
            assert await a.slock("t1", MATERIALS) == (
                "OK GRANTED t1 %s steps=3" % MATERIALS
            )
            assert await b.start("t2") == "OK STARTED t2"
            # IX on the relation parks behind t1's S; X on m1 follows it
            waiting = asyncio.ensure_future(b.xlock("t2", M1))
            await self._parked(server, waiting, 1)
            assert await a.end("t1") == "OK ENDED t1"
            assert await asyncio.wait_for(waiting, 2.0) == (
                "OK GRANTED t2 %s steps=4" % M1
            )
            assert _holders(server, M1) == {"t2": X}
            assert await c.start("t3") == "OK STARTED t3"
            assert await c.xlock("t3", M1, nowait=True) == (
                "ERR CONFLICT t3 %s" % M1
            )

        self._serve(binary, scenario)

    @pytest.mark.parametrize("waits", [1, 2])
    def test_steps_after_a_blocked_one_resume(self, binary, waits):
        """``first:X,second:X`` with ``first`` held by t1 — and, for two
        waits, ``second`` by t3, the holders ending one after the
        other."""

        async def scenario(server, a, b, c):
            first, second = workload_paths("partlib")[:2]
            await a.start("t1")
            await a.acquire_many("t1", [(first, "X")])
            if waits == 2:
                await c.start("t3")
                await c.acquire_many("t3", [(second, "X")])
            await b.start("t2")
            waiting = asyncio.ensure_future(
                b.acquire_many("t2", [(first, "X"), (second, "X")])
            )
            await self._parked(server, waiting, 1)
            assert await a.end("t1") == "OK ENDED t1"
            if waits == 2:
                await self._parked(server, waiting, 2)
                assert _holders(server, first) == {"t2": X}
                assert await c.end("t3") == "OK ENDED t3"
            assert await asyncio.wait_for(waiting, 2.0) == (
                "OK GRANTED t2 %s:X,%s:X steps=2" % (first, second)
            )
            assert _holders(server, first) == {"t2": X}
            assert _holders(server, second) == {"t2": X}
            # no counter moved for a step that was already granted
            assert server.manager.metrics()["requests"] == 2 + waits

        self._serve(binary, scenario)


class TestCompatibilityMatrixOverTheWire:
    def test_matrix_matches_dense_tables(self):
        """Serve every (held, requested) mode pair on the root resource;
        the wire outcome must equal the COMPAT_FLAT dense table."""
        modes = [IS, IX, S, SIX, X]

        async def go():
            server = LockServer(make_service_stack("partlib"), port=0)
            host, port = await server.start()
            a = await ServiceClient(host, port).connect()
            b = await ServiceClient(host, port).connect()
            try:
                for held in modes:
                    for wanted in modes:
                        pair = "%s-%s" % (held, wanted)
                        assert (await a.start("a" + pair)).startswith("OK")
                        assert (await b.start("b" + pair)).startswith("OK")
                        response = await a.acquire_many(
                            "a" + pair, [("db1", str(held))]
                        )
                        assert response.startswith("OK GRANTED"), response
                        response = await b.acquire_many(
                            "b" + pair, [("db1", str(wanted))], nowait=True
                        )
                        compatible = bool(
                            COMPAT_FLAT[held.code * N_MODES + wanted.code]
                        )
                        if compatible:
                            assert response.startswith("OK GRANTED"), (
                                "%s then %s should be compatible: %r"
                                % (held, wanted, response)
                            )
                        else:
                            assert response == "ERR CONFLICT b%s db1" % pair, (
                                "%s then %s should conflict: %r"
                                % (held, wanted, response)
                            )
                        assert (await a.end("a" + pair)).startswith("OK")
                        assert (await b.end("b" + pair)).startswith("OK")
            finally:
                await a.close()
                await b.close()
                await server.stop()

        asyncio.run(go())
