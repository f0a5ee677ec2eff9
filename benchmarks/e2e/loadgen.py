"""Closed-loop load generation for the served workloads.

Every logical client is a little state machine that runs one transaction
at a time — START, ``TXN_LOCKS`` lock demands on distinct random objects,
END — and cannot start the next before the previous one has answered.
Two shapes share the machine:

* **burst** (``served_read_pipelined``): the five frames of a transaction
  leave in one write and the client waits for all five answers.  Several
  such clients share a connection, so the window on the wire is counted
  in *whole transactions*.
* **interactive** (``served_contended_mux``, ``served_text_rtt``): every
  frame awaits its reply before the next is sent, so locks are held
  across round trips.  Several interactive clients multiplexed on one
  binary connection interleave by correlation id.

The window is counted in whole transactions on purpose.  The program's
own ``run_load`` counts *frames*: at depth 32 with 20% writers it can
withhold one transaction's END behind another transaction's parked lock
reply — a wait the deadlock detector cannot see, because the blocked
party is the client — and throughput collapses to ~20 req/s of 5 s
``ERR TIMEOUT`` answers.  A client that never delays a frame it is
entitled to send cannot cause that.

A deadlock victim (``ERR DEADLOCK`` on a parked lock frame; the server
has already rolled the transaction back) is retried at once with the
same demands, up to ``MAX_ATTEMPTS`` attempts, and is timed from its
first attempt; abandoned after that, it is a failed operation.  Any other
error answer is a failed operation too: the client ENDs the transaction
to drop its locks and the transaction counts as failed.

Connections are plain asyncio streams; frames are built with the
program's public codec (:mod:`repro.service.wire`) and answers are
classified from the opcode / first token without rendering text.
"""

from __future__ import annotations

import asyncio
import itertools
import random
from collections import deque
from time import perf_counter_ns
from typing import List, Sequence

from repro.locking.modes import S, X
from repro.service import wire

TXN_LOCKS = 3
MAX_ATTEMPTS = 10
_READ_CHUNK = 256 * 1024

#: first attempts begun in this process, in order: a transaction's age
_AGES = itertools.count()

_ERR_DEADLOCK = wire.ERR_CODES["DEADLOCK"]


class Client:
    """One closed-loop logical client on a connection."""

    def __init__(self, conn, seed: int, n_targets: int,
                 write_ratio: float, burst: bool):
        self.conn = conn
        self.rng = random.Random(seed)
        self.n_targets = n_targets
        self.write_ratio = write_ratio
        self.burst = burst
        self.age = 0
        self.demands: List[tuple] = []
        self.frames: List[tuple] = []
        self.position = 0  # next frame of the attempt to send
        self.outstanding = 0
        self.attempt = 0
        self.first_ns = 0
        self.victim = False
        self.failing = False

    def start(self):
        self.conn.busy += 1
        self._begin_txn(perf_counter_ns())

    # one transaction = one draw of demands, possibly several attempts
    def _begin_txn(self, now: int):
        rng = self.rng
        self.demands = [
            (target, rng.random() < self.write_ratio)
            for target in rng.sample(range(self.n_targets), TXN_LOCKS)
        ]
        self.age = next(_AGES)
        self.attempt = 0
        self.first_ns = now
        self.conn.tally.attempted += 1
        self._begin_attempt(now)

    def _begin_attempt(self, now: int):
        self.attempt += 1
        self.conn.tally.attempts += 1
        # The served stack installs no age function, so the detector
        # breaks every victim tie by transaction *name* (largest loses).
        # Named the way repro-load names them ("c7-12" > "c5-40") the
        # highest-numbered client loses every deadlock and its immediate
        # retry loses again: 6 transactions in 10^4 need 10 or more
        # attempts.  A client that wants the detector's stated policy
        # (youngest loses, retries keep their age) has to say its age in
        # its name: first-attempt order, zero-padded, kept across retries.
        # ``service.client.attempts_max`` shows what is left of the
        # starvation (README, "Known hazards").
        name = "%07x.%d" % (self.age, self.attempt)
        self.frames = [("START", name, 0, False)]
        for target, exclusive in self.demands:
            self.frames.append(("LOCK", name, target, exclusive))
        self.frames.append(("END", name, 0, False))
        self.position = 0
        self.victim = False
        self.failing = False
        self._send(now)

    def _send(self, now: int):
        stop = len(self.frames) if self.burst else self.position + 1
        for frame in self.frames[self.position:stop]:
            self.conn.submit(self, frame, now)
        self.outstanding = stop - self.position
        self.position = stop

    def on_answer(self, ok: bool, deadlock: bool, text: str, now: int, sent: int):
        tally = self.conn.tally
        if ok:
            tally.req_ns.append(now - sent)
        elif deadlock and not self.burst:
            self.victim = True
        elif not self.failing:
            # the END that cleans up after a failure may itself answer
            # NOTXN; only the first unexpected answer is the failure
            self.failing = True
            tally.note_error(text)
        self.outstanding -= 1
        if self.outstanding:
            return
        if self.attempt > tally.attempts_max:
            tally.attempts_max = self.attempt
        if self.victim:
            tally.victims += 1
            if self.attempt < MAX_ATTEMPTS:
                self._begin_attempt(now)
                return
            tally.failed += 1  # abandoned
        elif self.failing:
            if self.position < len(self.frames):
                self.position = len(self.frames) - 1  # skip to END
                self._send(now)
                return
            tally.failed += 1
        elif self.position < len(self.frames):
            self._send(now)
            return
        else:
            tally.committed += 1
            tally.txn_ns.append(now - self.first_ns)
            tally.txn_end_ns.append(now)
        if now < self.conn.deadline_ns:
            self._begin_txn(now)
        else:
            self.conn.busy -= 1


class _Conn:
    """Shared half of both connection kinds: the phase state and pump."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.out = bytearray()
        self.tally = None  # the phase being filled in, see run_phase()
        self.deadline_ns = 0
        self.busy = 0  # clients with a transaction in progress

    def flush(self):
        if self.out:
            self.writer.write(bytes(self.out))
            del self.out[:]

    async def pump(self):
        """Feed answers to the clients until every one of them is idle."""
        self.flush()
        while self.busy:
            data = await self.reader.read(_READ_CHUNK)
            if not data:
                raise ConnectionResetError("server closed the connection")
            self.feed(data, perf_counter_ns())
            self.flush()

    def close(self):
        self.writer.close()


class BinaryConn(_Conn):
    """Wire v2: dense resource ids, answers matched by correlation id."""

    def __init__(self, reader, writer):
        super().__init__(reader, writer)
        self.decoder = wire.FrameDecoder(max_frame=1 << 30)
        self.pending = {}
        self.corr = 0
        # target index -> object-level resource path / dense id
        self.paths: List[str] = []
        self.rids: List[int] = []

    @classmethod
    async def open(cls, host: str, port: int) -> "BinaryConn":
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(b"HELLO BINARY\n")
        line = await reader.readline()
        if line.strip() != b"OK HELLO BINARY":
            raise ConnectionResetError("HELLO BINARY refused: %r" % line)
        conn = cls(reader, writer)
        # the resource-table fetch: object-level entries are the targets
        writer.write(wire.encode_request(wire.OP_RESOURCES, 0, ()))
        frames: list = []
        while not frames:
            conn.decoder.feed(await reader.read(_READ_CHUNK))
            frames = list(conn.decoder.frames())
        opcode, _, body = frames[0]
        if opcode != wire.RESP_RESOURCES:
            raise ConnectionResetError("OP_RESOURCES answered 0x%02x" % opcode)
        (entries,) = wire.decode_response_fields(opcode, body, 0, len(body))
        objects = sorted(
            (path, rid) for rid, path in entries if path.count("/") == 3
        )
        conn.paths = [path for path, _ in objects]
        conn.rids = [rid for _, rid in objects]
        return conn

    def submit(self, client: Client, frame: tuple, now: int):
        kind, name, target, exclusive = frame
        self.corr = corr = (self.corr + 1) & 0xFFFFFFFF
        self.pending[corr] = (client, now)
        if kind == "LOCK":
            mode = X if exclusive else S
            self.out += wire.encode_request(
                wire.OP_LOCK, corr, (mode.code, 0, self.rids[target], name)
            )
        else:
            opcode = wire.OP_START if kind == "START" else wire.OP_END
            self.out += wire.encode_request(opcode, corr, (name,))
        self.tally.frames_sent += 1

    def feed(self, data: bytes, now: int):
        self.decoder.feed(data)
        pending = self.pending
        tally = self.tally
        for opcode, corr, body in self.decoder.frames():
            client, sent = pending.pop(corr)
            tally.frames += 1
            if opcode == wire.RESP_OK or opcode == wire.RESP_GRANTED:
                client.on_answer(True, False, "", now, sent)
            else:
                client.on_answer(
                    False,
                    opcode == wire.RESP_ERR and body[0] == _ERR_DEADLOCK,
                    "opcode 0x%02x %r" % (opcode, body[:80]),
                    now,
                    sent,
                )


class TextConn(_Conn):
    """The line protocol: one frame in flight, answers in order."""

    def __init__(self, reader, writer, paths: Sequence[str]):
        super().__init__(reader, writer)
        self.paths = list(paths)
        self.pending = deque()
        self.buffer = bytearray()

    @classmethod
    async def open(cls, host: str, port: int, paths: Sequence[str]):
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer, paths)

    def submit(self, client: Client, frame: tuple, now: int):
        kind, name, target, exclusive = frame
        self.pending.append((client, now))
        if kind == "LOCK":
            line = "%s %s %s\n" % (
                "XLOCK" if exclusive else "SLOCK", name, self.paths[target]
            )
        else:
            line = "%s %s\n" % (kind, name)
        self.out += line.encode("utf-8")
        self.tally.frames_sent += 1

    def feed(self, data: bytes, now: int):
        buffer = self.buffer
        buffer += data
        while True:
            newline = buffer.find(b"\n")
            if newline < 0:
                return
            line = bytes(buffer[:newline])
            del buffer[: newline + 1]
            client, sent = self.pending.popleft()
            self.tally.frames += 1
            if line.startswith(b"OK"):
                client.on_answer(True, False, "", now, sent)
            else:
                client.on_answer(
                    False,
                    line.startswith(b"ERR DEADLOCK"),
                    line.decode("utf-8", "replace"),
                    now,
                    sent,
                )


async def run_phase(conns: Sequence[_Conn], clients: Sequence[Client],
                    seconds: float, tally):
    """Run every client closed-loop for ``seconds``, then let each finish
    the transaction it is in.  What the clients observe is written into
    ``tally`` (a :class:`benchmarks.e2e.workloads.Phase`)."""
    tally.started_ns = started = perf_counter_ns()
    for conn in conns:
        conn.tally = tally
        conn.deadline_ns = started + int(seconds * 1e9)
    for client in clients:
        client.start()
    await asyncio.gather(*(conn.pump() for conn in conns))
    tally.wall_s = (perf_counter_ns() - started) / 1e9
