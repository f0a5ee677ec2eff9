"""The asyncio lock server: text and binary wire protocols over one lock
stack.

One :class:`LockServer` owns a :class:`~repro.LockStack` and drives its
one :class:`~repro.locking.manager.LockManager` — the paper's single lock
manager (section 4.1), one lock table.  Clients start in
the line protocol (one request line, one response line, UTF-8):

    START <txn>
    SLOCK <txn> <path> [NOWAIT]        S on the node, full protocol plan
    XLOCK <txn> <path> [NOWAIT]        X on the node, full protocol plan
    ISLOCK <txn> <path> [NOWAIT]       IS on the node + IS ancestors
    IXLOCK <txn> <path> [NOWAIT]       IX on the node + IX ancestors
    SILOCK/APLOCK/INCLOCK <txn> <path> [NOWAIT]
                                       semantic commuting-update plan
    ISILOCK/IAPLOCK/IINCLOCK <txn> <path> [NOWAIT]
                                       semantic intention chain
    ACQUIRE_MANY <txn> <path>:<MODE>[,<path>:<MODE>...] [NOWAIT]
    UNLOCK <txn> <path>
    END <txn>
    STATS
    MODES
    HELLO TEXT|BINARY

The semantic verbs (``SILOCK``/``APLOCK``/``INCLOCK`` and their
intention forms) exist only when the served stack was built with
``use_semantic_modes=True``; against a classic stack they answer ``ERR
UNKNOWN-VERB`` and the matching binary mode codes answer ``ERR
BAD-MODE`` — exactly the frames a PR 8 server produced, which is what
keeps the flag-off wire differential bit-identical.  ``MODES`` (binary:
``OP_MODES``) reports the mode vocabulary the server accepts, so a
client can discover the flag without tripping over it; a table built
once with the server maps each binary mode byte to its accepted mode.

``HELLO BINARY`` upgrades the connection to the length-prefixed binary
framing of :mod:`repro.service.wire` (dense interned resource ids on the
wire, correlation ids, pipelining); the text protocol stays as the
debug/fallback path.  ``<path>`` is a slash-joined resource tuple
(``db1/seg1/cells/c1``).  Responses are ``OK ...`` or ``ERR <CODE> ...``
— see docs/SERVICE.md for the frame grammar,
tests/service/test_protocol_conformance.py for golden text transcripts
and tests/service/test_wire_protocol.py plus
tests/service/test_pipelining.py for the golden binary ones.

Each connection is one :class:`asyncio.Protocol` over a growable
buffer: ``data_received`` decodes the complete frames in place,
dispatches them in FIFO order, and their responses coalesce into one
``transport.write()`` per received batch.  Backpressure is the
transport's: ``pause_writing`` pauses reading until ``resume_writing``.
Binary responses are produced by rendering the *text* response first
and re-framing it (:func:`~repro.service.wire.frame_for_response`), so
the two protocols cannot drift.  An oversized frame (text line or binary
header) earns a clean ``ERR FRAME_TOO_LONG`` reply and the connection
stays up.

Concurrency model: one process, one single-threaded event loop, and
every lock-table mutation synchronous — so nothing needs a mutex.  Each
frame is dispatched synchronously in ``data_received``, in arrival
order, until it finishes or parks.  A lock frame hands the compiled,
merged steps the plan cache holds (``protocol.plan_steps``) unchanged to
one ``manager.acquire_many`` call: the lock table's held-mode summary
probe is the one prune of covered steps.  At most the last returned
request is WAITING, in which case the frame parks: its grant future is
registered and the detector nudged, and its continuation runs as a task
that resumes the same step iterator behind the blocked step.  A parked
binary frame does not stop the frames behind it; behind a parked text
frame received lines only buffer until its answer is queued, so the line
protocol stays strictly serial and a reset is still seen.  A reset
abandons the session's parked frames at once; a clean EOF lets them
settle first.  An ``END`` whose own transaction still has parked frames
parks the same way.  Release, commit, abort, the timeout cancel and the
deadlock detector's pass are plain synchronous calls between two
``await`` points.

The manager's ``on_wake`` callback resolves a parked request's future
when a release or cancellation grants it.  Responses already queued when
a frame parks are written before it waits, so a pipelined batch never
sits on completed answers while one frame waits; parked answers that
complete in one event-loop pass share one write.  A deadlock detector
task checks the waits-for graph on an interval, nudged early whenever a
request starts waiting; victims end through
:meth:`~repro.txn.manager.TransactionManager.kill`.  A victim whose kill
raises keeps its locks, so it goes on a retry list: every later detector
pass kills it again before looking for cycles, and :meth:`LockServer.
stop` drains the list.

Fault injection: the server fires ``service.frame`` before parsing every
request frame (an injected error drops the connection — the mid-frame
client disconnect) and ``service.detector`` at the top of every detector
pass (an injected error skips the pass — a detector delay); both are
registered in :data:`repro.faults.plan.INJECTION_POINTS`.
"""

from __future__ import annotations

import asyncio
import functools
import json
from typing import Dict, List, Optional, Tuple

from repro.errors import (
    AuthorizationError,
    DeadlockError,
    FaultInjected,
    LockConflictError,
    LockError,
    LockTimeoutError,
    ProtocolError,
    TransactionError,
)
from repro.graphs.units import ancestors
from repro.locking.lock_table import LockRequest, RequestStatus
from repro.nf2.surrogate import ResourceInterner
from repro.protocol.base import PlannedLock
from repro.locking.modes import (
    AP,
    CLASSIC_MODES,
    IAP,
    IINC,
    INC,
    IS,
    ISI,
    IX,
    MODES_BY_CODE,
    N_MODES,
    S,
    SI,
    X,
)
from repro.service import wire
from repro.txn.transaction import TxnState

#: Verbs that take <txn> <path> and run a lock plan.  The semantic verbs
#: only exist when the served stack runs with ``use_semantic_modes``;
#: otherwise they answer exactly as any unknown verb does, so a server
#: over a classic stack stays frame-for-frame identical to PR 8.
_PLAN_VERBS = {
    "SLOCK": S,
    "XLOCK": X,
    "ISLOCK": IS,
    "IXLOCK": IX,
    "SILOCK": SI,
    "APLOCK": AP,
    "INCLOCK": INC,
    "ISILOCK": ISI,
    "IAPLOCK": IAP,
    "IINCLOCK": IINC,
}

#: queued answers past this many bytes are written mid-batch
_WRITE_CHUNK = 64 * 1024


def register_database_resources(interner, database) -> List[tuple]:
    """Intern every schema-level resource of ``database`` in one
    deterministic order (database, segments, relations, objects).

    The server runs this at start, so the dense ids a binary client
    learns over ``OP_RESOURCES`` follow one registration order on every
    boot.
    """
    resources: List[tuple] = [(database.name,)]
    relations = database.relations()
    seen_segments = set()
    for relation in relations:
        if relation.segment not in seen_segments:
            seen_segments.add(relation.segment)
            resources.append((database.name, relation.segment))
    for relation in relations:
        resources.append((database.name, relation.segment, relation.name))
    for relation in relations:
        for obj in relation:
            resources.append(
                (database.name, relation.segment, relation.name, str(obj.key))
            )
    for resource in resources:
        interner.intern(resource)
    return resources


def make_service_stack(workload: str = "cells", **flags):
    """A fresh served stack over one of the standard databases.

    ``workload`` picks the database: ``cells`` (the paper's figure-7
    robotics schema) or ``partlib`` (the part library of the check
    workloads).  ``flags`` are protocol ablation flags.
    """
    import repro

    if workload == "partlib":
        from repro.check.workloads import build_check_partlib

        database, catalog = build_check_partlib()
    elif workload == "cells":
        from repro.workloads import build_cells_database

        database, catalog = build_cells_database(figure7=True)
    else:
        raise ValueError("unknown service workload %r" % (workload,))
    return repro.make_stack(database, catalog, **flags)


class _Session:
    """Per-connection state: named transactions plus wire-mode flags.

    Frames dispatch synchronously in arrival order; only a frame that
    parks outlives its dispatch, as a task.  The session carries those
    tasks and a per-transaction count of parked frames that lets ``END``
    wait for its own transaction's frames without stalling anyone
    else's.
    """

    __slots__ = (
        "txns", "binary", "discarding", "skip", "tasks", "inflight", "idle"
    )

    def __init__(self):
        self.txns: Dict[str, object] = {}
        self.binary = False  # upgraded via HELLO BINARY
        self.discarding = False  # swallowing the tail of an oversized line
        self.skip = 0  # oversized binary body bytes still to discard
        self.tasks: set = set()
        self.inflight: Dict[str, int] = {}  # txn name -> parked frames
        self.idle: Dict[str, asyncio.Event] = {}  # set when count hits 0

    def begin_frame(self, name: str):
        self.inflight[name] = self.inflight.get(name, 0) + 1

    def end_frame(self, name: str):
        count = self.inflight.get(name, 0) - 1
        if count > 0:
            self.inflight[name] = count
        else:
            self.inflight.pop(name, None)
            event = self.idle.pop(name, None)
            if event is not None:
                event.set()


class _Connection(asyncio.Protocol):
    """One client connection: received bytes feed the server's frame
    pump (:meth:`LockServer._pump`); responses coalesce in ``out`` until
    one ``transport.write()`` per flush.  Reading pauses while the write
    buffer is over its high-water mark or more than ``max_frame`` bytes
    wait behind a parked text frame, and for good once the session
    closes or the peer sent EOF."""

    __slots__ = (
        "server", "session", "transport", "buffer", "out", "pending",
        "flush_handle", "text_parked", "write_paused", "eof", "closing",
    )

    def __init__(self, server: "LockServer"):
        self.server = server
        self.session = _Session()
        self.transport: Optional[asyncio.Transport] = None
        self.buffer, self.out = bytearray(), bytearray()
        self.pending = 0  # responses queued since the last flush
        self.flush_handle: Optional[asyncio.Handle] = None
        self.text_parked = self.write_paused = False
        self.eof = self.closing = False

    def connection_made(self, transport):
        self.transport = transport
        self.server.stats["sessions"] += 1

    def data_received(self, data):
        self.buffer += data
        self.server._pump(self)
        if self._backlogged():
            self.transport.pause_reading()

    def eof_received(self):
        self.eof = True
        self.server._pump(self)
        return True  # half-open: parked answers may still be written

    def connection_lost(self, exc):
        # a reset (not a clean EOF) abandons the parked frames at once
        self.server._close(self, abandoned=exc is not None)

    def pause_writing(self):
        self.write_paused = True
        self.transport.pause_reading()

    def resume_writing(self):
        self.write_paused = False
        self.server._pump(self)  # the frames left when writing paused
        self.resume_reading()

    def resume_reading(self):
        if not (self.write_paused or self._backlogged() or self.eof or self.closing):
            self.transport.resume_reading()

    def _backlogged(self) -> bool:
        # a parked text frame keeps the read side watched (a reset is
        # seen) while the lines behind it only buffer, up to max_frame
        return self.text_parked and len(self.buffer) > self.server.max_frame


class LockServer:
    """Serve a lock stack over the text and binary protocols."""

    def __init__(
        self,
        stack,
        host: str = "127.0.0.1",
        port: int = 0,
        detector_interval: float = 0.05,
        lock_timeout: float = 5.0,
        max_frame: int = wire.DEFAULT_MAX_FRAME,
    ):
        manager = stack.manager
        self.stack = stack
        self.manager = manager
        self.host = host
        self.port = port
        self.detector_interval = detector_interval
        self.lock_timeout = lock_timeout
        #: frame-size ceiling for both protocols (text line length /
        #: binary header length field); an oversized frame is answered
        #: with ERR FRAME_TOO_LONG and the connection survives
        self.max_frame = max_frame
        #: optional :class:`repro.faults.FaultInjector` for the
        #: ``service.frame`` / ``service.detector`` points
        self.fault_injector = None
        self.stats: Dict[str, int] = {
            "frames": 0,
            "errors": 0,
            "sessions": 0,
            "binary_sessions": 0,
            "batches": 0,
            "max_batch": 0,
            "frames_too_long": 0,
            "deadlock_victims": 0,
            "timeouts": 0,
            "injected_disconnects": 0,
            "detector_delays": 0,
        }
        self._futures: Dict[LockRequest, asyncio.Future] = {}
        #: deadlock victims whose kill raised, still holding their locks
        self._failed_kills: List[object] = []
        self._server: Optional[asyncio.AbstractServer] = None
        self._detector_task: Optional[asyncio.Task] = None
        #: resolved by a nudge (or the interval) to run a detector pass
        self._detector_wake: Optional[asyncio.Future] = None
        #: cleanups of closed sessions still settling their parked frames
        self._cleanups: set = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: rid -> (resource tuple, rendered path): everything reachable
        #: over the binary wire (the schema tree at start, plus OP_INTERN
        #: additions), each path rendered once at registration
        self._rid_resources: Dict[int, Tuple[tuple, str]] = {}
        self._wire_ids = ResourceInterner()
        #: see :meth:`_resource_index`
        self._resource_index_memo: Optional[tuple] = None
        manager.on_wake = self._on_wake
        semantic = getattr(stack.protocol, "use_semantic_modes", False)
        accepted = MODES_BY_CODE if semantic else CLASSIC_MODES
        #: the accepted modes by name, and by binary mode byte (None: out
        #: of range, or a semantic code against a classic stack)
        self._modes = {mode.value: mode for mode in accepted}
        self._wire_modes = tuple(
            mode if mode in accepted else None for mode in MODES_BY_CODE
        ) + (None,) * (256 - N_MODES)
        self._modes_answer = "OK MODES %s" % ",".join(self._modes)

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind, start serving and start the detector task."""
        self._loop = asyncio.get_running_loop()
        self._detector_wake = self._loop.create_future()
        self._register_resources()
        self._server = await self._loop.create_server(
            functools.partial(_Connection, self), self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._detector_task = asyncio.create_task(self._detector_loop())
        return self.host, self.port

    async def stop(self):
        if self._detector_task is not None:
            self._detector_task.cancel()
            await asyncio.gather(self._detector_task, return_exceptions=True)
            self._detector_task = None
        self._retry_failed_kills()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self):
        await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    def _register_resources(self):
        """Build the wire-id table: the schema tree interned in one
        deterministic order, ready for export to binary clients over
        ``OP_RESOURCES``.

        The table lives in a *server-private* interner, so the wire ids
        are the same whether or not a binary client ever connects.
        """
        for resource in register_database_resources(
            self._wire_ids, self.stack.database
        ):
            self._register_rid(resource)

    def _register_rid(self, resource: tuple) -> int:
        rid = self._wire_ids.intern(resource)
        if rid not in self._rid_resources:
            path = "/".join(str(p) for p in resource)
            self._rid_resources[rid] = (resource, path)
        return rid

    # -- wake plumbing --------------------------------------------------------

    def _on_wake(self, woken: List[LockRequest]):
        for request in woken:
            future = self._futures.get(request)
            if future is not None and not future.done():
                future.set_result(True)

    # -- connection handling --------------------------------------------------

    def _pump(self, conn: _Connection):
        """Dispatch every complete frame in ``conn``'s buffer, in arrival
        order, then write their answers with one ``transport.write()``.
        A parked binary frame does not block the frames behind it; a
        parked text frame stops the pump until its answer is queued, and
        backpressure until the transport resumes writing."""
        session = conn.session
        progress = alive = True
        try:
            while conn.buffer and progress and alive and not (
                conn.text_parked or conn.write_paused or conn.closing
            ):
                step = self._next_binary if session.binary else self._next_text
                progress, alive = step(conn, session, conn.buffer)
                if len(conn.out) >= _WRITE_CHUNK:
                    # answer a long read in chunks, so the transport can
                    # push back before the whole read is dispatched
                    self._flush(conn)
        except Exception as exc:
            self._drop(conn, "frame dispatch failed", exc)
            return
        if not alive:
            # an injected disconnect or unrecoverable framing: drop without
            # a reply; the cleanup aborts the session's live transactions
            del conn.out[:]
            self._close(conn, abandoned=True)
            return
        self._flush(conn)
        if conn.eof and not (conn.text_parked or conn.write_paused):
            self._close(conn, abandoned=False)

    def _drop(self, conn: _Connection, message: str, exc: Exception):
        """An unexpected dispatch error: close the connection rather than
        leave the client waiting on an answer forever, and report it."""
        del conn.out[:]
        conn.transport.close()
        self._close(conn, abandoned=False)
        self._loop.call_exception_handler({"message": message, "exception": exc})

    def _close(self, conn: _Connection, abandoned: bool):
        """Stop reading and start the session's cleanup, once."""
        if not conn.closing:
            conn.closing = True
            conn.transport.pause_reading()
            task = self._loop.create_task(self._end_session(conn, abandoned))
            self._cleanups.add(task)
            task.add_done_callback(self._cleanups.discard)

    async def _end_session(self, conn: _Connection, abandoned: bool):
        session = conn.session
        try:
            if abandoned and session.tasks:
                # the connection is being dropped mid-stream: unwind the
                # parked frames instead of letting them finish against a
                # peer that will never read the answers.  Yield once first,
                # so each continuation is past its first step and unwinds
                # the registration it made when it parked.
                await asyncio.sleep(0)
                for task in list(session.tasks):
                    task.cancel()
            if session.tasks:
                # settle (or unwind) the parked frames before aborting:
                # aborting a transaction under its own running frame
                # would race the lock manager
                await asyncio.gather(
                    *list(session.tasks), return_exceptions=True
                )
            for txn in list(session.txns.values()):
                if txn.state == TxnState.ACTIVE:
                    self.stack.txns.kill(txn)
            session.txns.clear()
        finally:
            conn.transport.close()

    def _flush(self, conn: _Connection):
        """Write queued responses as one write, recording batch stats."""
        conn.flush_handle = None
        made = conn.pending
        if made:
            conn.pending = 0
            self.stats["batches"] += 1
            if made > self.stats["max_batch"]:
                self.stats["max_batch"] = made
            data, conn.out = conn.out, bytearray()
            if not conn.transport.is_closing():
                conn.transport.write(data)

    def _frame_fault(self) -> bool:
        """True when an injected ``service.frame`` fault fires — the
        mid-frame client disconnect."""
        if self.fault_injector is not None:
            try:
                self.fault_injector.fire("service.frame")
            except FaultInjected:
                self.stats["injected_disconnects"] += 1
                return True
        return False

    def _too_long_text(self, conn):
        self.stats["frames"] += 1
        self.stats["frames_too_long"] += 1
        too_long = "ERR FRAME_TOO_LONG line exceeds %d bytes" % self.max_frame
        self._queue_text(conn, too_long)

    def _next_text(self, conn, session, buffer):
        """Consume at most one text line; (progress, alive)."""
        newline = buffer.find(b"\n")
        if session.discarding:
            # inside an oversized line that was already answered: drop
            # bytes until the newline restores framing
            if newline < 0:
                del buffer[:]
                return False, True
            del buffer[: newline + 1]
            session.discarding = False
            return True, True
        if newline < 0:
            if len(buffer) > self.max_frame:
                self._too_long_text(conn)
                session.discarding = True
                del buffer[:]
                return True, True
            if conn.eof and buffer:
                # readline() surfaced an unterminated tail at EOF as a
                # final frame; keep that behavior
                line = bytes(buffer)
                del buffer[:]
                return self._text_frame(conn, session, line)
            return False, True
        line = bytes(buffer[:newline])
        del buffer[: newline + 1]
        if len(line) > self.max_frame:
            self._too_long_text(conn)
            return True, True
        return self._text_frame(conn, session, line)

    def _text_frame(self, conn, session, line: bytes):
        self.stats["frames"] += 1
        if self._frame_fault():
            return False, False
        response = self._dispatch(
            session, line.decode("utf-8", "replace").strip()
        )
        if isinstance(response, str):
            self._queue_text(conn, response)
        else:
            # parked: dispatch nothing more until its answer is queued
            conn.text_parked = True
            self._park(conn, session, None, response)
        return True, True

    def _queue_text(self, conn, response: str):
        if response.startswith("ERR"):
            self.stats["errors"] += 1
        conn.out += (response + "\n").encode("utf-8")
        conn.pending += 1

    def _next_binary(self, conn, session, buffer):
        """Consume at most one binary frame; (progress, alive).

        Every frame runs to completion right here, in arrival order —
        decode-time outcomes (oversized frame, corrupt header, bad body)
        and well-formed requests alike.  Only a frame that parks leaves
        a task behind (answered by :meth:`_answer_parked`), so the read
        loop keeps decoding while it waits."""
        if session.skip:
            drop = min(session.skip, len(buffer))
            del buffer[:drop]
            session.skip -= drop
            if session.skip:
                return False, True
        if len(buffer) < wire.HEADER_SIZE:
            return False, True
        length, opcode, corr = wire.HEADER.unpack_from(buffer, 0)
        if length < wire.HEADER_SIZE - 4:
            # a corrupt header: no way to resync, drop the connection
            return False, False
        if length > self.max_frame:
            self.stats["frames"] += 1
            self.stats["frames_too_long"] += 1
            too_long = "ERR FRAME_TOO_LONG frame exceeds %d bytes" % self.max_frame
            self._queue_binary(conn, wire.frame_for_response(corr, too_long))
            del buffer[: wire.HEADER_SIZE]
            session.skip = length - (wire.HEADER_SIZE - 4)
            return True, True
        end = 4 + length
        if len(buffer) < end:
            return False, True
        self.stats["frames"] += 1
        if self._frame_fault():
            return False, False
        try:
            fields = wire.decode_request_fields(
                opcode, buffer, wire.HEADER_SIZE, end
            )
        except (wire.WireError, UnicodeDecodeError):
            del buffer[:end]
            self._queue_binary(
                conn,
                wire.frame_for_response(
                    corr, "ERR UNKNOWN-OPCODE 0x%02x" % opcode
                )
                if opcode not in wire.REQUEST_OPCODES
                else wire.frame_for_response(
                    corr, "ERR BAD-FRAME opcode 0x%02x body" % opcode
                ),
            )
            return True, True
        del buffer[:end]
        response = self._dispatch_binary(session, opcode, corr, fields)
        if isinstance(response, str):
            self._queue_binary(conn, wire.frame_for_response(corr, response))
        elif isinstance(response, bytes):
            self._queue_binary(conn, response)
        else:
            self._park(conn, session, corr, response)
        return True, True

    def _park(self, conn, session, corr: Optional[int], continuation):
        task = self._loop.create_task(continuation)
        session.tasks.add(task)
        task.add_done_callback(
            functools.partial(self._answer_parked, conn, corr)
        )

    def _answer_parked(self, conn, corr: Optional[int], task) -> None:
        """Done-callback of a parked frame's continuation: queue its
        answer — a binary one matched by correlation id rather than
        position, a text one (``corr`` None) ahead of the lines behind
        it."""
        conn.session.tasks.discard(task)
        if task.cancelled():
            return
        exc = task.exception()
        if exc is not None:
            self._drop(conn, "parked frame failed", exc)
            return
        if corr is not None:
            self._queue_binary(
                conn, wire.frame_for_response(corr, task.result())
            )
            # call_soon runs after every callback already ready, so the
            # parked answers completing in this event-loop pass share a write
            if conn.flush_handle is None:
                conn.flush_handle = self._loop.call_soon(self._flush, conn)
            return
        self._queue_text(conn, task.result())
        conn.text_parked = False
        self._pump(conn)
        conn.resume_reading()

    def _queue_binary(self, conn, frame: bytes):
        if frame[4] == wire.RESP_ERR:
            self.stats["errors"] += 1
        conn.out += frame
        conn.pending += 1

    # -- dispatch -------------------------------------------------------------
    #
    # Every handler runs synchronously and returns its response — or, when
    # the frame parks, its continuation coroutine with the wake-up already
    # registered, which the connection runs as a task.

    def _dispatch(self, session: _Session, frame: str):
        if not frame:
            return "ERR BAD-FRAME empty"
        tokens = frame.split()
        verb = tokens[0].upper()
        if verb == "STATS":
            return self._stats_frame()
        if verb == "MODES":
            return self._modes_answer
        if verb == "HELLO":
            if len(tokens) != 2 or tokens[1].upper() not in ("TEXT", "BINARY"):
                return "ERR BAD-FRAME HELLO takes TEXT or BINARY"
            if tokens[1].upper() == "BINARY":
                if not session.binary:
                    self.stats["binary_sessions"] += 1
                session.binary = True
                return "OK HELLO BINARY"
            session.binary = False
            return "OK HELLO TEXT"
        if verb == "START":
            if len(tokens) != 2:
                return "ERR BAD-FRAME START takes one argument"
            return self._start(session, tokens[1])
        if verb == "END":
            if len(tokens) != 2:
                return "ERR BAD-FRAME END takes one argument"
            return self._end(session, tokens[1])
        if verb == "UNLOCK":
            if len(tokens) != 3:
                return "ERR BAD-FRAME UNLOCK takes two arguments"
            return self._unlock(session, tokens[1], tokens[2])
        if verb in _PLAN_VERBS and _PLAN_VERBS[verb].value in self._modes:
            if len(tokens) not in (3, 4) or (
                len(tokens) == 4 and tokens[3].upper() != "NOWAIT"
            ):
                return "ERR BAD-FRAME %s takes <txn> <path> [NOWAIT]" % verb
            return self._lock(
                session, verb, tokens[1], tokens[2], nowait=len(tokens) == 4
            )
        if verb == "ACQUIRE_MANY":
            if len(tokens) not in (3, 4) or (
                len(tokens) == 4 and tokens[3].upper() != "NOWAIT"
            ):
                return (
                    "ERR BAD-FRAME ACQUIRE_MANY takes <txn> "
                    "<path>:<mode>[,...] [NOWAIT]"
                )
            return self._acquire_many(
                session, tokens[1], tokens[2], nowait=len(tokens) == 4
            )
        return "ERR UNKNOWN-VERB %s" % tokens[0]

    def _dispatch_binary(
        self, session: _Session, opcode: int, corr: int, fields: tuple
    ):
        """One binary request: the text response the caller re-frames
        (so the two protocols stay byte-equivalent by construction), an
        already encoded non-text response frame, or the continuation of
        a frame that parked."""
        if opcode == wire.OP_START:
            return self._start(session, fields[0])
        if opcode == wire.OP_END:
            return self._end(session, fields[0])
        if opcode == wire.OP_STATS:
            return self._stats_frame()
        if opcode == wire.OP_MODES:
            return self._modes_answer
        if opcode == wire.OP_RESOURCES:
            entries = tuple(
                sorted(
                    (rid, path)
                    for rid, (_, path) in self._rid_resources.items()
                )
            )
            return wire.encode_response(wire.RESP_RESOURCES, corr, (entries,))
        if opcode == wire.OP_INTERN:
            resource, err = self._parse_resource(fields[0])
            if err is not None:
                return err
            return wire.encode_response(
                wire.RESP_INTERNED, corr, (self._register_rid(resource),)
            )
        if opcode == wire.OP_UNLOCK:
            rid, name = fields
            txn = self._live_txn(session, name)
            if txn is None:
                return "ERR NOTXN %s" % name
            entry = self._rid_resources.get(rid)
            if entry is None:
                return "ERR UNKNOWN-RESOURCE rid=%d" % rid
            return self._unlock_resource(txn, name, *entry)
        if opcode == wire.OP_LOCK:
            mode_code, flags, rid, name = fields
            txn = self._live_txn(session, name)
            if txn is None:
                return "ERR NOTXN %s" % name
            mode = self._wire_modes[mode_code]
            if mode is None:
                return "ERR BAD-MODE code=%d" % mode_code
            entry = self._rid_resources.get(rid)
            if entry is None:
                return "ERR UNKNOWN-RESOURCE rid=%d" % rid
            nowait = bool(flags & wire.FLAG_NOWAIT)
            return self._lock_resource(session, txn, name, *entry, mode, nowait)
        if opcode == wire.OP_ACQUIRE_MANY:
            flags, step_codes, name = fields
            txn = self._live_txn(session, name)
            if txn is None:
                return "ERR NOTXN %s" % name
            steps: List[PlannedLock] = []
            spec_parts: List[str] = []
            for rid, mode_code in step_codes:
                mode = self._wire_modes[mode_code]
                if mode is None:
                    return "ERR BAD-MODE code=%d" % mode_code
                entry = self._rid_resources.get(rid)
                if entry is None:
                    return "ERR UNKNOWN-RESOURCE rid=%d" % rid
                steps.append(PlannedLock(entry[0], mode))
                spec_parts.append("%s:%s" % (entry[1], mode.value))
            nowait = bool(flags & wire.FLAG_NOWAIT)
            spec = ",".join(spec_parts)
            return self._run_steps(session, txn, name, spec, steps, nowait)
        return "ERR UNKNOWN-OPCODE 0x%02x" % opcode

    def _start(self, session: _Session, name: str) -> str:
        txn = session.txns.get(name)
        if txn is not None and txn.state == TxnState.ACTIVE:
            return "ERR TXN-ACTIVE %s" % name
        session.txns[name] = self.stack.txns.begin(name=name)
        return "OK STARTED %s" % name

    def _live_txn(self, session: _Session, name: str):
        txn = session.txns.get(name)
        if txn is None or txn.state != TxnState.ACTIVE:
            session.txns.pop(name, None)
            return None
        return txn

    def _end(self, session: _Session, name: str):
        txn = self._live_txn(session, name)
        if txn is None:
            return "ERR NOTXN %s" % name
        if session.inflight.get(name):
            # a pipelined END can arrive while this transaction's own
            # lock frames are parked on a lock wait; committing
            # underneath them would yank the transaction out of the lock
            # manager mid-plan.  Park until they finish — the frames
            # behind this END (the next transaction's whole pipeline)
            # keep dispatching meanwhile.
            return self._end_when_idle(session, name, txn)
        return self._commit(session, name, txn)

    async def _end_when_idle(self, session: _Session, name: str, txn) -> str:
        """A parked END: commit once no frame of ``name`` is parked."""
        while session.inflight.get(name):  # a later frame may park too
            await session.idle.setdefault(name, asyncio.Event()).wait()
        return self._commit(session, name, txn)

    def _commit(self, session: _Session, name: str, txn) -> str:
        # commit mutates synchronously (no awaits): nothing can observe
        # a half-released transaction
        try:
            self.stack.txns.commit(txn)
        except TransactionError:
            # e.g. the detector picked this transaction as victim while
            # its END was parked
            if session.txns.get(name) is txn:
                session.txns.pop(name, None)
            return "ERR NOTXN %s" % name
        # drop only our own entry: while a parked END waited, the name
        # may have been rebound
        if session.txns.get(name) is txn:
            session.txns.pop(name, None)
        return "OK ENDED %s" % name

    def _unlock(self, session: _Session, name: str, path: str) -> str:
        txn = self._live_txn(session, name)
        if txn is None:
            return "ERR NOTXN %s" % name
        resource, err = self._parse_resource(path)
        if err is not None:
            return err
        return self._unlock_resource(txn, name, resource, path)

    def _unlock_resource(
        self, txn, name: str, resource: tuple, path: str
    ) -> str:
        try:
            self.manager.release(txn, resource)
        except LockError:
            return "ERR NOT-HELD %s %s" % (name, path)
        return "OK RELEASED %s %s" % (name, path)

    def _lock(
        self, session: _Session, verb: str, name: str, path: str, nowait
    ):
        txn = self._live_txn(session, name)
        if txn is None:
            return "ERR NOTXN %s" % name
        resource, err = self._parse_resource(path)
        if err is not None:
            return err
        return self._lock_resource(
            session, txn, name, resource, path, _PLAN_VERBS[verb], nowait
        )

    def _lock_resource(self, session, txn, name, resource, path, mode, nowait):
        if mode.is_intention:
            # the paper's intention chain: IS/IX on every ancestor,
            # root first, then the node itself
            steps = [PlannedLock(anc, mode) for anc in ancestors(resource)]
            steps.append(PlannedLock(resource, mode))
        else:
            # as the plan cache holds them: the lock table prunes them
            try:
                steps = self.stack.protocol.plan_steps(txn, resource, mode)
            except (AuthorizationError, ProtocolError) as exc:
                return "ERR DENIED %s %s" % (name, exc)
        return self._run_steps(session, txn, name, path, steps, nowait)

    def _acquire_many(
        self, session: _Session, name: str, spec: str, nowait: bool
    ):
        txn = self._live_txn(session, name)
        if txn is None:
            return "ERR NOTXN %s" % name
        steps: List[PlannedLock] = []
        for item in spec.split(","):
            path, sep, mode_name = item.rpartition(":")
            if not sep:
                return "ERR BAD-FRAME missing :mode in %s" % item
            # a semantic mode name against a classic stack answers
            # exactly as an unknown name does
            mode = self._modes.get(mode_name.upper())
            if mode is None:
                return "ERR BAD-MODE %s" % mode_name
            resource, err = self._parse_resource(path)
            if err is not None:
                return err
            steps.append(PlannedLock(resource, mode))
        return self._run_steps(session, txn, name, spec, steps, nowait)

    # -- plan execution -------------------------------------------------------

    def _run_steps(
        self, session: _Session, txn, name, what, steps, nowait, submitted=0
    ):
        """Acquire an ordered plan with one synchronous manager pass.

        ``acquire_many`` stops at the first step that blocks and returns
        it WAITING as its last element.  The frame then parks: the grant
        future is registered (resolved by ``on_wake`` on grant, or by
        the detector for a deadlock victim) and the detector nudged
        right here, before control returns to the event loop — so a
        release dispatched later in the same batch cannot be missed — and
        the continuation is returned for the connection to run as a task.
        It waits out the blocked request, then submits the steps after
        it (the rest of the same iterator), which may park again; a
        deadlock or timeout answers ERR and the granted prefix stays held
        (the client chooses between retry and END).  ``OK GRANTED`` means
        every step is covered or granted.
        """
        steps = iter(steps)
        try:
            requests = self.manager.acquire_many(
                txn, steps, long=txn.long, wait=not nowait
            )
        except LockConflictError as exc:
            return "ERR CONFLICT %s %s" % (
                name,
                "/".join(str(p) for p in exc.resource),
            )
        except LockTimeoutError:
            # an injected mid-batch timeout: the prefix stays
            # granted, the client decides between retry / END
            self.stats["timeouts"] += 1
            return "ERR TIMEOUT %s %s" % (name, what)
        except FaultInjected:
            # an injected fault (error or abort action) during the
            # batch: abort the transaction — the universal cleaner —
            # and report; the session entry goes too
            self.stack.txns.kill(txn)
            session.txns.pop(name, None)
            return "ERR FAULT %s %s" % (name, what)
        submitted += len(requests)
        if not requests or requests[-1].granted:
            return "OK GRANTED %s %s steps=%d" % (name, what, submitted)
        blocked = requests[-1]
        future = self._futures[blocked] = self._loop.create_future()
        self._nudge_detector()  # a new wait edge: run the detector early
        session.begin_frame(name)

        async def resume() -> str:
            try:
                outcome = await self._await_grant(
                    session, name, blocked, future
                )
                if outcome is not None:
                    return outcome
                response = self._run_steps(
                    session, txn, name, what, steps, nowait, submitted
                )
                if not isinstance(response, str):
                    response = await response
                return response
            finally:
                session.end_frame(name)

        return resume()

    async def _await_grant(
        self, session: _Session, name: str, request, future
    ) -> Optional[str]:
        """Wait on ``request``'s registered future; None when granted, an
        ERR frame otherwise."""
        try:
            await asyncio.wait_for(future, self.lock_timeout)
            return None
        except DeadlockError:
            # the detector chose this transaction as victim and already
            # aborted it: every lock is gone, the session entry follows
            session.txns.pop(name, None)
            return "ERR DEADLOCK %s" % name
        except asyncio.TimeoutError:
            if request.status == RequestStatus.WAITING:
                self.manager.cancel(request)
            if request.granted:
                return None  # granted in the race window: keep it
            self.stats["timeouts"] += 1
            return "ERR TIMEOUT %s %s" % (
                name,
                "/".join(str(p) for p in request.resource),
            )
        finally:
            self._futures.pop(request, None)

    # -- deadlock detection ----------------------------------------------------

    def _nudge_detector(self):
        """Run the detector's next pass now rather than at its interval."""
        if not self._detector_wake.done():
            self._detector_wake.set_result(None)

    async def _detector_loop(self):
        loop = self._loop
        while True:
            # sleep until a nudge or the interval, whichever comes first:
            # one future and one timer handle per pass, no task
            timer = loop.call_later(self.detector_interval, self._nudge_detector)
            try:
                await self._detector_wake
            finally:
                timer.cancel()
            self._detector_wake = loop.create_future()
            try:
                self._detector_pass()
            except Exception as exc:
                # a victim's kill raised (a cancel failed, or its abort
                # failed three times) after its futures failed.  A cycle
                # that still stands is found again by the next pass.
                # Report it, but live on: nothing restarts this task.
                self._loop.call_exception_handler(
                    {"message": "deadlock victim kill failed", "exception": exc}
                )

    def _detector_pass(self):
        if self.fault_injector is not None:
            try:
                self.fault_injector.fire("service.detector")
            except FaultInjected:
                # an injected detector delay: skip this snapshot; the
                # next tick (or nudge) re-runs detection — deadlocks
                # are found late, never lost
                self.stats["detector_delays"] += 1
                return
        self._retry_failed_kills()
        self.manager.detector.resolve(self._on_victim)

    def _on_victim(self, victim, cycle):
        self.stats["deadlock_victims"] += 1
        self._fail_victim_futures(victim, cycle)
        try:
            self.stack.txns.kill(victim)
        except Exception:
            # its session entry is gone with ERR DEADLOCK, so neither END
            # nor the disconnect cleanup reaches it: retry from here
            self._failed_kills.append(victim)
            raise

    def _retry_failed_kills(self):
        """Kill again every victim whose kill raised; one that raises
        again stays on the list and is reported like the first failure."""
        failed, self._failed_kills = self._failed_kills, []
        for victim in failed:
            try:
                self.stack.txns.kill(victim)
            except Exception as exc:
                self._failed_kills.append(victim)
                self._loop.call_exception_handler(
                    {"message": "deadlock victim kill failed", "exception": exc}
                )

    def _fail_victim_futures(self, victim, cycle):
        names = tuple(getattr(txn, "name", repr(txn)) for txn in cycle)
        for request, future in list(self._futures.items()):
            if request.txn is victim and not future.done():
                future.set_exception(
                    DeadlockError(
                        "transaction %r chosen as deadlock victim"
                        % (getattr(victim, "name", victim),),
                        cycle=names,
                    )
                )

    # -- resources and stats --------------------------------------------------

    def _parse_resource(self, path: str):
        parts = tuple(path.split("/"))
        if not parts or any(not p for p in parts):
            return None, "ERR UNKNOWN-RESOURCE %s" % path
        database = self.stack.database
        if parts[0] != database.name:
            return None, "ERR UNKNOWN-RESOURCE %s" % path
        if len(parts) == 1:
            return parts, None
        _, segments, relations, keys = self._resource_index()
        if parts[1] not in segments:
            return None, "ERR UNKNOWN-RESOURCE %s" % path
        if len(parts) == 2:
            return parts, None
        relation = relations.get(parts[1:3])
        if relation is None:
            return None, "ERR UNKNOWN-RESOURCE %s" % path
        if len(parts) == 3:
            return parts, None
        # object level: the key as it appears in resource tuples (str);
        # deeper component parts ride on a valid object prefix
        known = keys.get(parts[1:3])
        if known is None:
            known = keys[parts[1:3]] = {str(obj.key) for obj in relation}
        if parts[3] not in known:
            return None, "ERR UNKNOWN-RESOURCE %s" % path
        return parts, None

    def _resource_index(self):
        """``(stamp, segment names, (segment, relation name) -> relation,
        (segment, relation name) -> object keys as path components)``.

        Rebuilt when ``database.structure_version`` moves (any insert,
        delete or relation creation), so a text frame resolves against
        dict probes instead of rescanning the addressed relation; key
        sets fill per relation on first use.
        """
        database = self.stack.database
        index = self._resource_index_memo
        if index is None or index[0] != database.structure_version:
            relations = database.relations()
            index = self._resource_index_memo = (
                database.structure_version,
                {rel.segment for rel in relations},
                {(rel.segment, rel.name): rel for rel in relations},
                {},
            )
        return index

    def _stats_frame(self) -> str:
        payload = dict(self.manager.metrics())
        payload.update(self.stats)
        payload["lock_count"] = self.manager.lock_count()
        return "OK STATS %s" % json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        )
