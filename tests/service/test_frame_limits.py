"""Frame-size limits: oversized frames answer ERR FRAME_TOO_LONG and the
session survives.

PR 7's ``reader.readline()`` had no limit: a client that never sent a
newline grew the server's buffer without bound, and one that sent an
oversized line killed the connection with ``LimitOverrunError``.  Both
protocols now enforce ``max_frame`` explicitly: the oversized frame is
answered with a clean error, the remainder of the frame is discarded as
it arrives, and the *next* frame on the same connection still works.
"""

import asyncio

from repro.service import wire
from repro.service.server import LockServer, make_service_stack

MAX_FRAME = 256


def serve_and_run(coro_fn):
    async def go():
        server = LockServer(
            make_service_stack("partlib"),
            port=0,
            max_frame=MAX_FRAME,
        )
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        try:
            await coro_fn(server, reader, writer)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            await server.stop()

    asyncio.run(go())


class TestTextFrameLimit:
    def test_oversized_line_answered_and_session_survives(self):
        async def script(server, reader, writer):
            writer.write(b"X" * 400 + b"\nSTART t1\n")
            await writer.drain()
            assert await reader.readline() == (
                b"ERR FRAME_TOO_LONG line exceeds 256 bytes\n"
            )
            assert await reader.readline() == b"OK STARTED t1\n"
            assert server.stats["frames_too_long"] == 1

        serve_and_run(script)

    def test_unterminated_flood_is_bounded(self):
        """A line that never ends is answered as soon as it exceeds the
        limit — the buffer does not grow without bound first."""

        async def script(server, reader, writer):
            writer.write(b"Y" * 400)  # no newline yet
            await writer.drain()
            assert await reader.readline() == (
                b"ERR FRAME_TOO_LONG line exceeds 256 bytes\n"
            )
            # the tail of the flood plus the terminator is swallowed;
            # framing resumes on the next line
            writer.write(b"Z" * 100 + b"\nSTART t2\n")
            await writer.drain()
            assert await reader.readline() == b"OK STARTED t2\n"

        serve_and_run(script)


class TestBinaryFrameLimit:
    def test_oversized_frame_answered_and_session_survives(self):
        async def script(server, reader, writer):
            writer.write(b"HELLO BINARY\n")
            await writer.drain()
            assert await reader.readline() == b"OK HELLO BINARY\n"
            # a header announcing 400 bytes: answered immediately, body
            # bytes discarded as they arrive
            oversized = wire.pack_frame(wire.OP_INTERN, 77, b"p" * 395)
            assert len(oversized) == 4 + 400
            writer.write(oversized)
            writer.write(wire.encode_request(wire.OP_START, 78, ("t1",)))
            await writer.drain()
            decoder = wire.FrameDecoder()
            frames = []
            while len(frames) < 2:
                decoder.feed(await reader.read(4096))
                frames.extend(decoder.frames())
            opcode, corr, body = frames[0]
            assert (opcode, corr) == (wire.RESP_ERR, 77)
            code, detail = wire.decode_response_fields(
                opcode, body, 0, len(body)
            )
            assert code == wire.ERR_CODES["FRAME_TOO_LONG"]
            assert detail == "FRAME_TOO_LONG frame exceeds 256 bytes"
            opcode, corr, body = frames[1]
            assert (opcode, corr) == (wire.RESP_OK, 78)
            assert body == b"STARTED t1"
            assert server.stats["frames_too_long"] == 1

        serve_and_run(script)

    def test_oversized_body_split_across_chunks(self):
        async def script(server, reader, writer):
            writer.write(b"HELLO BINARY\n")
            await writer.drain()
            assert await reader.readline() == b"OK HELLO BINARY\n"
            oversized = wire.pack_frame(wire.OP_INTERN, 5, b"q" * 395)
            # drip the oversized frame: header first, body in pieces,
            # then a valid frame — the resync must span chunk boundaries
            writer.write(oversized[:9])
            await writer.drain()
            await asyncio.sleep(0.02)
            writer.write(oversized[9:200])
            await writer.drain()
            await asyncio.sleep(0.02)
            writer.write(oversized[200:])
            writer.write(wire.encode_request(wire.OP_END, 6, ("nope",)))
            await writer.drain()
            decoder = wire.FrameDecoder()
            frames = []
            while len(frames) < 2:
                decoder.feed(await reader.read(4096))
                frames.extend(decoder.frames())
            assert frames[0][:2] == (wire.RESP_ERR, 5)
            opcode, corr, body = frames[1]
            assert (opcode, corr) == (wire.RESP_ERR, 6)
            code, detail = wire.decode_response_fields(
                opcode, body, 0, len(body)
            )
            assert (code, detail) == (
                wire.ERR_CODES["NOTXN"],
                "NOTXN nope",
            )

        serve_and_run(script)
