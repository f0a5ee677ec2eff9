"""Pipelined dispatch semantics: in-flight frames, ordering, coalescing.

The server dispatches every binary frame synchronously, in arrival
order; only a frame that parks (a lock wait, or an END waiting on its
own transaction's parked frames) continues as a task, and responses are
matched by correlation id.  These tests pin the load-bearing
consequences: a parked frame does not head-of-line-block the pipeline,
END waits for its own transaction's in-flight lock frames before
committing, a release in the same read as the park still wakes it, an
unexpected dispatch error drops the connection, coalesced writes
batch multiple responses into single flushes, and answers a client does
not read pause the server's reading without losing any.  Further classes pin the
served deadlock outcome over binary clients (which transaction dies and
what each side is told) and the pipelined load generator's window.
"""

import asyncio
import socket

from repro.service import server as server_module
from repro.service import wire
from repro.service.client import ServiceClient, run_load
from repro.service.server import LockServer, make_service_stack

P1 = "db1/seg_parts/parts/p1"
P2 = "db1/seg_parts/parts/p2"
M2 = "db1/seg_materials/materials/m2"


def serve(**kwargs):
    kwargs.setdefault("port", 0)
    kwargs.setdefault("detector_interval", 0.05)
    return LockServer(make_service_stack("partlib"), **kwargs)


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


class TestBackpressure:
    def test_unread_answers_pause_reading_and_none_is_lost(self, connections):
        """A binary client pipelines far more STATS frames than the
        server's transport can buffer as answers, and reads nothing.
        The transport's pushback pauses the server's reading: it stops
        consuming frames, and its unsent output stays within one write
        chunk (plus one answer) of the high-water mark.  Once the client
        reads, every answer arrives exactly once, by correlation id."""

        async def go():
            server = serve()
            host, port = await server.start()
            sock = socket.socket()
            # a small receive window: the kernel absorbs little output
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.setblocking(False)
            await asyncio.get_running_loop().sock_connect(sock, (host, port))
            reader, writer = await asyncio.open_connection(sock=sock)
            try:
                writer.write(b"HELLO BINARY\n")
                assert await reader.readline() == b"OK HELLO BINARY\n"
                total = 30000
                writer.write(
                    b"".join(
                        wire.encode_request(wire.OP_STATS, corr, ())
                        for corr in range(total)
                    )
                )
                (conn,) = connections
                consumed = -1
                while server.stats["frames"] != consumed:
                    consumed = server.stats["frames"]
                    await asyncio.sleep(0.1)
                assert conn.write_paused
                assert consumed < total  # HELLO is one of them
                _, high = conn.transport.get_write_buffer_limits()
                unsent = conn.transport.get_write_buffer_size()
                assert unsent <= high + server_module._WRITE_CHUNK + 1024
                decoder = wire.FrameDecoder()
                corrs = []
                while len(corrs) < total:
                    chunk = await asyncio.wait_for(reader.read(1 << 16), 5.0)
                    assert chunk, "the server closed the connection"
                    decoder.feed(chunk)
                    for opcode, corr, _ in decoder.frames():
                        assert opcode == wire.RESP_STATS
                        corrs.append(corr)
                assert sorted(corrs) == list(range(total))
                assert server.stats["frames"] == total + 1
            finally:
                writer.close()
                await server.stop()

        asyncio.run(go())


class TestParkAndWake:
    def test_release_in_the_same_write_wakes_the_parked_frame(self):
        """b holds X on p1; a's XLOCK on p1 parks; b's END follows in the
        same client write and wakes a before a's continuation has run
        once.  The grant future must be registered when a parks, not
        when its continuation first runs, or the wake-up is lost: a then
        sits out the whole lock timeout (whose handler finds the request
        granted after all), so the answers must come well before it."""

        async def go():
            server = serve(lock_timeout=5.0)
            host, port = await server.start()
            client = await ServiceClient(
                host, port, binary=True, pipeline_depth=8
            ).connect()
            try:
                futures = [
                    await client.submit_start("b"),
                    await client.submit_lock("XLOCK", "b", P1),
                    await client.submit_start("a"),
                    await client.submit_lock("XLOCK", "a", P1),
                    await client.submit_end("b"),
                    await client.submit_end("a"),
                ]
                await client.flush()
                responses = await asyncio.wait_for(
                    asyncio.gather(*futures), 1.0
                )
                assert responses[1].startswith("OK GRANTED b "), responses
                assert responses[3].startswith("OK GRANTED a "), responses
                assert responses[4:] == ["OK ENDED b", "OK ENDED a"]
                assert server.stats["timeouts"] == 0
                assert server.manager.lock_count() == 0
                assert not server._futures
            finally:
                await client.close()
                await server.stop()

        asyncio.run(go())

    def test_unexpected_dispatch_error_drops_the_connection(self):
        async def go():
            server = serve()
            host, port = await server.start()
            client = await ServiceClient(host, port, binary=True).connect()

            def broken(session, name):
                raise RuntimeError("dispatch bug")

            server._start = broken
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(lambda loop, context: None)
            try:
                try:
                    await asyncio.wait_for(client.start("t"), 2.0)
                    raise AssertionError("expected the connection to drop")
                except ConnectionResetError:
                    pass
            finally:
                await client.close()
                await server.stop()

        asyncio.run(go())


class TestServedDeadlock:
    def test_crossed_demands_kill_the_highest_name(self):
        """t1 and t2 cross their demands on p1/p2 over two binary
        connections; the detector finds the cycle.  The server installs
        no age function, so every
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


class TestPipelinedLoad:
    def test_pipelined_window_never_self_deadlocks(self):
        """Each in-flight frame holds a client pipeline slot.  A window
        that queued a transaction's frames one slot at a time could
        leave its END waiting on a slot held by a lock parked behind
        that END; the lock then timed out on the server.  The generator
        reaps until the whole next transaction fits, so a write-heavy
        pipelined run ends with no server timeout."""

        async def go():
            server = LockServer(
                make_service_stack("partlib"),
                port=0,
                lock_timeout=1.0,
            )
            host, port = await server.start()
            try:
                report = await run_load(
                    host,
                    port,
                    clients=8,
                    duration=2.0,
                    workload="partlib",
                    write_ratio=0.2,
                    binary=True,
                    pipeline_depth=32,
                )
            finally:
                await server.stop()
            assert report["server"]["timeouts"] == 0, report
            assert report["disconnects"] == 0, report
            assert report["ok"] > 0, report

        asyncio.run(go())
