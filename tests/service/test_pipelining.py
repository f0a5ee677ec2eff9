"""Pipelined dispatch semantics: in-flight frames, ordering, coalescing.

The binary path dispatches each frame as an ordered task: frames begin
in arrival order, but a frame that waits (a parked lock) releases the
order lock so the frames behind it proceed, and responses are matched
by correlation id.  These tests pin the three
load-bearing consequences: a parked frame does not head-of-line-block
the pipeline, END waits for its own transaction's in-flight lock
frames before committing, and coalesced writes batch multiple
responses into single flushes.  A last class pins the served deadlock
outcome over binary clients: which transaction dies and what each side
is told.
"""

import asyncio

from repro.service.client import ServiceClient
from repro.service.server import LockServer, make_service_stack

P1 = "db1/seg_parts/parts/p1"
P2 = "db1/seg_parts/parts/p2"
M2 = "db1/seg_materials/materials/m2"


def serve(**kwargs):
    kwargs.setdefault("port", 0)
    kwargs.setdefault("detector_interval", 0.05)
    return LockServer(make_service_stack("partlib", shards=4), **kwargs)


class TestPipelinedDispatch:
    def test_depth_n_in_flight_matches_by_correlation_id(self):
        async def go():
            server = serve()
            host, port = await server.start()
            client = await ServiceClient(
                host, port, binary=True, pipeline_depth=16
            ).connect()
            try:
                futures = [await client.submit_start("t%d" % i) for i in range(10)]
                futures += [
                    await client.submit_lock("SLOCK", "t%d" % i, P1)
                    for i in range(10)
                ]
                futures += [await client.submit_end("t%d" % i) for i in range(10)]
                await client.flush()
                responses = await asyncio.gather(*futures)
                assert responses[:10] == [
                    "OK STARTED t%d" % i for i in range(10)
                ]
                for i, response in enumerate(responses[10:20]):
                    assert response.startswith("OK GRANTED t%d " % i), response
                assert responses[20:] == ["OK ENDED t%d" % i for i in range(10)]
                # the 30 frames went out well ahead of their responses:
                # the server must have seen multi-frame ready batches
                assert server.stats["max_batch"] > 1
            finally:
                await client.close()
                await server.stop()

        asyncio.run(go())

    def test_parked_frame_does_not_block_later_frames(self):
        async def go():
            server = serve(lock_timeout=5.0)
            host, port = await server.start()
            holder = await ServiceClient(host, port).connect()
            piped = await ServiceClient(
                host, port, binary=True, pipeline_depth=8
            ).connect()
            try:
                assert await holder.start("h") == "OK STARTED h"
                assert (await holder.lock("XLOCK", "h", P1)).startswith(
                    "OK GRANTED"
                )
                await piped.start("t")
                parked = await piped.submit_lock("SLOCK", "t", P1)
                behind = await piped.submit_lock("SLOCK", "t", M2)
                await piped.flush()
                # the frame behind the parked one answers on its own
                response = await asyncio.wait_for(behind, timeout=2.0)
                assert response.startswith("OK GRANTED t "), response
                assert not parked.done()
                # release the holder: the parked frame completes late,
                # out of order, still matched to its correlation id
                assert await holder.end("h") == "OK ENDED h"
                response = await asyncio.wait_for(parked, timeout=2.0)
                assert response.startswith("OK GRANTED t "), response
                assert await piped.end("t") == "OK ENDED t"
            finally:
                await piped.close()
                await holder.close()
                await server.stop()

        asyncio.run(go())

    def test_end_waits_for_its_transactions_inflight_locks(self):
        async def go():
            server = serve(lock_timeout=5.0)
            host, port = await server.start()
            holder = await ServiceClient(host, port).connect()
            piped = await ServiceClient(
                host, port, binary=True, pipeline_depth=8
            ).connect()
            try:
                await holder.start("h")
                await holder.lock("XLOCK", "h", P1)
                # START, a lock that parks behind h, and END all leave
                # in one write: END must not commit t underneath its own
                # in-flight lock frame
                started = await piped.submit_start("t")
                parked = await piped.submit_lock("SLOCK", "t", P1)
                ended = await piped.submit_end("t")
                await piped.flush()
                assert await asyncio.wait_for(started, 2.0) == "OK STARTED t"
                await asyncio.sleep(0.1)
                assert not parked.done()
                assert not ended.done()
                await holder.end("h")
                assert (await asyncio.wait_for(parked, 2.0)).startswith(
                    "OK GRANTED t "
                )
                assert await asyncio.wait_for(ended, 2.0) == "OK ENDED t"
                stats = await piped.stats()
                assert stats["lock_count"] == 0, "END leaked locks"
            finally:
                await piped.close()
                await holder.close()
                await server.stop()

        asyncio.run(go())

    def test_clean_close_settles_inflight_frames(self):
        """Dropping the connection right after a flush must not wedge
        the server: in-flight dispatches settle, live txns abort."""

        async def go():
            server = serve()
            host, port = await server.start()
            client = await ServiceClient(
                host, port, binary=True, pipeline_depth=8
            ).connect()
            await client.submit_start("t")
            await client.submit_lock("XLOCK", "t", P1)
            await client.flush()
            await client.close()  # responses never reaped
            # the abandoned transaction's locks must be released
            probe = await ServiceClient(host, port).connect()
            try:
                for _ in range(50):
                    stats = await probe.stats()
                    if stats["lock_count"] == 0:
                        break
                    await asyncio.sleep(0.02)
                assert stats["lock_count"] == 0, stats
            finally:
                await probe.close()
                await server.stop()

        asyncio.run(go())


class TestServedDeadlock:
    def test_cross_shard_cycle_kills_the_highest_name(self):
        """t1 and t2 cross their demands on p1/p2 over two binary
        connections; the detector finds the cycle across the shard
        tables.  The server installs no age function, so every
        transaction is equally old and ``pick_victim`` falls through to
        its tie-break: the highest name dies (t2), not "the youngest".
        The survivor inherits the grant, and the victim's END finds its
        transaction already gone."""

        async def go():
            server = serve()
            host, port = await server.start()
            c1 = await ServiceClient(host, port, binary=True).connect()
            c2 = await ServiceClient(host, port, binary=True).connect()
            try:
                assert await c1.start("t1") == "OK STARTED t1"
                assert await c2.start("t2") == "OK STARTED t2"
                assert (await c1.lock("XLOCK", "t1", P1)).startswith(
                    "OK GRANTED"
                )
                assert (await c2.lock("XLOCK", "t2", P2)).startswith(
                    "OK GRANTED"
                )
                parked_t2 = asyncio.create_task(c2.lock("XLOCK", "t2", P1))
                while not server._futures:
                    if parked_t2.done():
                        break
                    await asyncio.sleep(0.005)
                parked_t1 = asyncio.create_task(c1.lock("XLOCK", "t1", P2))
                responses = await asyncio.gather(parked_t1, parked_t2)
                assert responses[0].startswith("OK GRANTED t1 "), responses
                assert responses[1] == "ERR DEADLOCK t2", responses
                assert server.stats["deadlock_victims"] == 1
                assert await c1.end("t1") == "OK ENDED t1"
                assert await c2.end("t2") == "ERR NOTXN t2"
            finally:
                await c1.close()
                await c2.close()
                await server.stop()

        asyncio.run(go())
