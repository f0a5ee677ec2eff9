"""Async client and load generator for the served lock system.

:class:`ServiceClient` speaks both wire protocols.  In text mode it is
the minimal line-protocol client of PR 7 (one in-flight request per
connection).  With ``binary=True`` it performs the ``HELLO BINARY``
upgrade, learns the server's dense resource-id table over
``OP_RESOURCES`` (extending it on demand with ``OP_INTERN``) and runs a
correlation-id dispatch table that allows up to ``pipeline_depth``
requests in flight: ``submit_*`` queue frames into an auto-batch,
``flush`` sends the batch in one write, and a background reader task
resolves each response future as frames arrive.  Every verb returns the
*text-equivalent* response string regardless of wire mode — the property
the wire differential harness pins.

:func:`run_load` drives many concurrent clients over short transactions
against a running server and reports achieved requests/second plus
p50/p95/p99 request latency — the workhorse behind ``repro-load`` and
the wire-protocol benchmark ladder.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from repro.locking.modes import (
    AP,
    IAP,
    IINC,
    INC,
    IS,
    ISI,
    IX,
    S,
    SI,
    X,
    LockMode,
)
from repro.service import wire

#: Lock verbs -> the mode they demand (client-side mirror of the
#: server's _PLAN_VERBS, used to pick the binary mode code).
_VERB_MODES = {
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


class ServiceClient:
    """One connection speaking the line or binary protocol."""

    def __init__(
        self,
        host: str,
        port: int,
        binary: bool = False,
        pipeline_depth: int = 1,
        latencies: Optional[List[float]] = None,
    ):
        self.host = host
        self.port = port
        self.binary = binary
        self.pipeline_depth = max(1, pipeline_depth)
        #: optional sink for per-request latency samples (seconds)
        self.latencies = latencies
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        # binary-mode state: correlation dispatch + batching
        self._corr = 0
        self._pending: Dict[int, Tuple[asyncio.Future, float]] = {}
        self._decoder = wire.FrameDecoder(max_frame=1 << 30)
        self._reader_task: Optional[asyncio.Task] = None
        self._sem: Optional[asyncio.Semaphore] = None
        self._out = bytearray()
        self._path_rids: Dict[str, int] = {}
        self._rid_paths: Dict[int, str] = {}

    async def connect(self) -> "ServiceClient":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        if self.binary:
            # the upgrade itself happens in the text protocol
            self._writer.write(b"HELLO BINARY\n")
            await self._writer.drain()
            line = await self._reader.readline()
            if line.strip() != b"OK HELLO BINARY":
                raise ConnectionResetError(
                    "HELLO BINARY upgrade refused: %r" % line
                )
            self._sem = asyncio.Semaphore(self.pipeline_depth)
            self._reader_task = asyncio.get_running_loop().create_task(
                self._read_loop()
            )
            await self._fetch_resources()
        return self

    async def close(self):
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, ConnectionResetError):
                pass
            self._reader_task = None
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._writer = None
            self._reader = None

    # -- text transport -------------------------------------------------------

    async def request(self, frame: str) -> str:
        """Send one text frame, await its response line (text mode only)."""
        assert self._writer is not None and self._reader is not None
        sent_at = time.monotonic()
        self._writer.write((frame + "\n").encode("utf-8"))
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise ConnectionResetError("server closed the connection")
        if self.latencies is not None:
            self.latencies.append(time.monotonic() - sent_at)
        return line.decode("utf-8").strip()

    # -- binary transport -----------------------------------------------------

    async def _read_loop(self):
        """Resolve response futures by correlation id as frames arrive."""
        assert self._reader is not None
        try:
            while True:
                chunk = await self._reader.read(64 * 1024)
                if not chunk:
                    raise ConnectionResetError("server closed the connection")
                self._decoder.feed(chunk)
                for opcode, corr, body in self._decoder.frames():
                    entry = self._pending.pop(corr, None)
                    if entry is None:
                        continue
                    future, sent_at = entry
                    if self.latencies is not None:
                        self.latencies.append(time.monotonic() - sent_at)
                    if self._sem is not None:
                        self._sem.release()
                    if not future.done():
                        future.set_result(
                            (
                                opcode,
                                wire.decode_response_fields(
                                    opcode, body, 0, len(body)
                                ),
                            )
                        )
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            failure = (
                exc
                if isinstance(exc, ConnectionResetError)
                else ConnectionResetError(str(exc))
            )
            for future, _ in self._pending.values():
                if not future.done():
                    future.set_exception(failure)
            self._pending.clear()

    async def _submit(self, opcode: int, fields: tuple) -> asyncio.Future:
        """Queue one binary request; the future resolves to
        ``(opcode, fields)`` of its response."""
        assert self.binary and self._sem is not None
        if self._sem.locked():
            # the pipeline is full: anything still batched must go out
            # before we park, or nothing would ever free a slot
            await self.flush()
        await self._sem.acquire()
        self._corr = (self._corr + 1) & 0xFFFFFFFF
        corr = self._corr
        future = asyncio.get_running_loop().create_future()
        self._pending[corr] = (future, time.monotonic())
        self._out += wire.encode_request(opcode, corr, fields)
        return future

    async def flush(self):
        """Send every batched frame in one write."""
        if self._out:
            assert self._writer is not None
            data = bytes(self._out)
            del self._out[:]
            self._writer.write(data)
            await self._writer.drain()

    def _text_future(self, future: asyncio.Future) -> "asyncio.Task[str]":
        """A task resolving to the text-equivalent response string."""

        async def convert() -> str:
            opcode, fields = await future
            return wire.response_to_text(opcode, fields)

        return asyncio.get_running_loop().create_task(convert())

    async def _roundtrip(self, opcode: int, fields: tuple) -> str:
        future = await self._submit(opcode, fields)
        await self.flush()
        resp_opcode, resp_fields = await future
        return wire.response_to_text(resp_opcode, resp_fields)

    async def _fetch_resources(self):
        """Learn the server's rid table (OP_RESOURCES)."""
        future = await self._submit(wire.OP_RESOURCES, ())
        await self.flush()
        opcode, fields = await future
        if opcode != wire.RESP_RESOURCES:
            raise ConnectionResetError(
                "unexpected OP_RESOURCES reply opcode 0x%02x" % opcode
            )
        for rid, path in fields[0]:
            self._path_rids[path] = rid
            self._rid_paths[rid] = path

    async def _rid_of(self, path: str):
        """``(rid, None)`` for a known path, interning on demand;
        ``(None, errtext)`` when the server rejects the path."""
        rid = self._path_rids.get(path)
        if rid is not None:
            return rid, None
        future = await self._submit(wire.OP_INTERN, (path,))
        await self.flush()
        opcode, fields = await future
        if opcode != wire.RESP_INTERNED:
            return None, wire.response_to_text(opcode, fields)
        rid = fields[0]
        self._path_rids[path] = rid
        self._rid_paths[rid] = path
        return rid, None

    # -- pipelined submit verbs (binary mode) ---------------------------------

    async def submit_start(self, txn: str) -> "asyncio.Future":
        return self._text_future(await self._submit(wire.OP_START, (txn,)))

    async def submit_end(self, txn: str) -> "asyncio.Future":
        return self._text_future(await self._submit(wire.OP_END, (txn,)))

    async def submit_lock(
        self, verb: str, txn: str, path: str, nowait: bool = False
    ) -> "asyncio.Future":
        rid, err = await self._rid_of(path)
        if err is not None:
            future = asyncio.get_running_loop().create_future()
            future.set_result(err)
            return future
        mode = _VERB_MODES[verb.upper()]
        return self._text_future(
            await self._submit(
                wire.OP_LOCK,
                (mode.code, wire.FLAG_NOWAIT if nowait else 0, rid, txn),
            )
        )

    async def submit_unlock(self, txn: str, path: str) -> "asyncio.Future":
        rid, err = await self._rid_of(path)
        if err is not None:
            future = asyncio.get_running_loop().create_future()
            future.set_result(err)
            return future
        return self._text_future(
            await self._submit(wire.OP_UNLOCK, (rid, txn))
        )

    # -- convenience verbs (each returns the text response frame) -------------

    async def start(self, txn: str) -> str:
        if self.binary:
            return await self._roundtrip(wire.OP_START, (txn,))
        return await self.request("START %s" % txn)

    async def slock(self, txn: str, path: str, nowait: bool = False) -> str:
        return await self.lock("SLOCK", txn, path, nowait=nowait)

    async def xlock(self, txn: str, path: str, nowait: bool = False) -> str:
        return await self.lock("XLOCK", txn, path, nowait=nowait)

    async def silock(self, txn: str, path: str, nowait: bool = False) -> str:
        return await self.lock("SILOCK", txn, path, nowait=nowait)

    async def modes(self) -> List[str]:
        """The mode vocabulary the server accepts (OP_MODES / MODES)."""
        if self.binary:
            frame = await self._roundtrip(wire.OP_MODES, ())
        else:
            frame = await self.request("MODES")
        if not frame.startswith("OK MODES "):
            raise ValueError("unexpected MODES response: %r" % frame)
        return frame[len("OK MODES "):].split(",")

    async def lock(
        self, verb: str, txn: str, path: str, nowait: bool = False
    ) -> str:
        if self.binary:
            task = await self.submit_lock(verb, txn, path, nowait=nowait)
            await self.flush()
            return await task
        return await self.request(
            "%s %s %s%s" % (verb, txn, path, " NOWAIT" if nowait else "")
        )

    async def acquire_many(
        self, txn: str, steps: Sequence[Tuple[str, str]], nowait: bool = False
    ) -> str:
        if self.binary:
            wire_steps = []
            for path, mode_name in steps:
                try:
                    mode = LockMode(mode_name.upper())
                except ValueError:
                    return "ERR BAD-MODE %s" % mode_name
                rid, err = await self._rid_of(path)
                if err is not None:
                    return err
                wire_steps.append((rid, mode.code))
            return await self._roundtrip(
                wire.OP_ACQUIRE_MANY,
                (wire.FLAG_NOWAIT if nowait else 0, tuple(wire_steps), txn),
            )
        spec = ",".join("%s:%s" % (path, mode) for path, mode in steps)
        return await self.request(
            "ACQUIRE_MANY %s %s%s" % (txn, spec, " NOWAIT" if nowait else "")
        )

    async def unlock(self, txn: str, path: str) -> str:
        if self.binary:
            task = await self.submit_unlock(txn, path)
            await self.flush()
            return await task
        return await self.request("UNLOCK %s %s" % (txn, path))

    async def end(self, txn: str) -> str:
        if self.binary:
            return await self._roundtrip(wire.OP_END, (txn,))
        return await self.request("END %s" % txn)

    async def stats(self) -> Dict[str, object]:
        if self.binary:
            frame = await self._roundtrip(wire.OP_STATS, ())
        else:
            frame = await self.request("STATS")
        if not frame.startswith("OK STATS "):
            raise ValueError("unexpected STATS response: %r" % frame)
        return json.loads(frame[len("OK STATS "):])


def workload_paths(workload: str) -> List[str]:
    """Object-level wire paths of a standard workload database.

    Built from the same deterministic builders the server uses, so the
    load generator needs no schema round-trip to produce valid paths.
    """
    from repro.graphs.units import object_resource
    from repro.service.server import make_service_stack

    stack = make_service_stack(workload)
    paths = []
    for relation in stack.database.relations():
        for obj in relation:
            resource = object_resource(stack.catalog, relation.name, obj.key)
            paths.append("/".join(str(part) for part in resource))
    return paths


async def _client_loop(
    host: str,
    port: int,
    name: str,
    paths: Sequence[str],
    deadline: float,
    seed: int,
    counts: Dict[str, int],
    txn_locks: int = 3,
    write_ratio: float = 0.2,
    binary: bool = False,
    latencies: Optional[List[float]] = None,
):
    """One load client: short transactions until the deadline.

    Each transaction is START, ``txn_locks`` lock demands on distinct
    objects (mostly SLOCK, a ``write_ratio`` fraction XLOCK), END.
    Distinct objects per transaction keep re-demand pruning honest — a
    transaction never re-locks a node it already covered, so every
    demand does real lock-table work.
    """
    rng = random.Random(seed)
    client = await ServiceClient(
        host, port, binary=binary, latencies=latencies
    ).connect()
    serial = 0
    try:
        while time.monotonic() < deadline:
            serial += 1
            txn = "%s-%d" % (name, serial)
            response = await client.start(txn)
            counts["ok" if response.startswith("OK") else "err"] += 1
            chosen = rng.sample(paths, min(txn_locks, len(paths)))
            aborted = False
            for path in chosen:
                verb = "XLOCK" if rng.random() < write_ratio else "SLOCK"
                response = await client.lock(verb, txn, path)
                if response.startswith("OK"):
                    counts["ok"] += 1
                else:
                    counts["err"] += 1
                    if "DEADLOCK" in response or "NOTXN" in response:
                        aborted = True
                        break
            if not aborted:
                response = await client.end(txn)
                counts["ok" if response.startswith("OK") else "err"] += 1
    except (ConnectionResetError, BrokenPipeError):
        counts["disconnects"] += 1
    finally:
        await client.close()


async def _pipelined_client_loop(
    host: str,
    port: int,
    name: str,
    paths: Sequence[str],
    deadline: float,
    seed: int,
    counts: Dict[str, int],
    txn_locks: int = 3,
    write_ratio: float = 0.2,
    pipeline_depth: int = 32,
    latencies: Optional[List[float]] = None,
):
    """One pipelined load client (binary wire, N requests in flight).

    Whole transactions are batched — START, the lock demands and END go
    out in a single write — and responses are reaped from a sliding
    window of outstanding futures, so the connection never waits a full
    round-trip per frame.  The window is reaped until the whole next
    transaction fits before any of its frames is queued: each frame
    holds a pipeline slot, and a transaction whose END waited for a
    slot held by a lock parked behind that very END would never finish.
    The random demand sequence is identical to :func:`_client_loop`'s
    for the same seed.
    """
    rng = random.Random(seed)
    client = await ServiceClient(
        host,
        port,
        binary=True,
        pipeline_depth=pipeline_depth,
        latencies=latencies,
    ).connect()
    outstanding: "deque[asyncio.Future]" = deque()

    async def reap(limit: int):
        while len(outstanding) > limit:
            response = await outstanding.popleft()
            counts["ok" if response.startswith("OK") else "err"] += 1

    room = max(0, pipeline_depth - (txn_locks + 2))  # START + locks + END
    serial = 0
    try:
        while time.monotonic() < deadline:
            await reap(room)
            serial += 1
            txn = "%s-%d" % (name, serial)
            outstanding.append(await client.submit_start(txn))
            for path in rng.sample(paths, min(txn_locks, len(paths))):
                verb = "XLOCK" if rng.random() < write_ratio else "SLOCK"
                outstanding.append(await client.submit_lock(verb, txn, path))
            outstanding.append(await client.submit_end(txn))
            await client.flush()
        await reap(0)
    except (ConnectionResetError, BrokenPipeError):
        counts["disconnects"] += 1
        for future in outstanding:
            future.cancel()
    finally:
        await client.close()


def _percentile(sorted_samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sample list (0 if empty)."""
    if not sorted_samples:
        return 0.0
    index = min(
        len(sorted_samples) - 1, int(round(q * (len(sorted_samples) - 1)))
    )
    return sorted_samples[index]


async def run_load(
    host: str,
    port: int,
    clients: int = 8,
    duration: float = 5.0,
    seed: int = 0,
    workload: str = "cells",
    txn_locks: int = 3,
    write_ratio: float = 0.2,
    paths: Optional[Sequence[str]] = None,
    binary: bool = False,
    pipeline_depth: int = 1,
) -> Dict[str, object]:
    """Drive ``clients`` concurrent load clients for ``duration`` seconds.

    Returns a report dict: ``ok`` / ``err`` response counts, elapsed
    wall-clock, the achieved ``req_per_sec`` (OK responses only),
    p50/p95/p99 request latency in milliseconds, the wire mode and
    pipeline depth, plus the server's final STATS payload.
    ``pipeline_depth`` > 1 requires ``binary=True`` (the text protocol
    stays strictly one-in-flight).
    """
    if pipeline_depth > 1 and not binary:
        raise ValueError("pipelining requires the binary wire protocol")
    if paths is None:
        paths = workload_paths(workload)
    counts: Dict[str, int] = {"ok": 0, "err": 0, "disconnects": 0}
    latencies: List[float] = []
    started = time.monotonic()
    deadline = started + duration
    if pipeline_depth > 1:
        loops = [
            _pipelined_client_loop(
                host,
                port,
                "c%d" % index,
                paths,
                deadline,
                seed * 1000 + index,
                counts,
                txn_locks=txn_locks,
                write_ratio=write_ratio,
                pipeline_depth=pipeline_depth,
                latencies=latencies,
            )
            for index in range(clients)
        ]
    else:
        loops = [
            _client_loop(
                host,
                port,
                "c%d" % index,
                paths,
                deadline,
                seed * 1000 + index,
                counts,
                txn_locks=txn_locks,
                write_ratio=write_ratio,
                binary=binary,
                latencies=latencies,
            )
            for index in range(clients)
        ]
    await asyncio.gather(*loops)
    elapsed = time.monotonic() - started
    stats_client = await ServiceClient(host, port).connect()
    try:
        server_stats = await stats_client.stats()
    finally:
        await stats_client.close()
    latencies.sort()
    return {
        "clients": clients,
        "duration": duration,
        "elapsed": elapsed,
        "ok": counts["ok"],
        "err": counts["err"],
        "disconnects": counts["disconnects"],
        "req_per_sec": counts["ok"] / elapsed if elapsed > 0 else 0.0,
        "binary": binary,
        "pipeline_depth": pipeline_depth,
        "latency_ms": {
            "p50": round(_percentile(latencies, 0.50) * 1000.0, 3),
            "p95": round(_percentile(latencies, 0.95) * 1000.0, 3),
            "p99": round(_percentile(latencies, 0.99) * 1000.0, 3),
        },
        "server": server_stats,
    }
