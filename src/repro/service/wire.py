"""Wire protocol v2: length-prefixed binary framing for the lock service.

The PR 7 line protocol spends most of its budget on transport, not on
locks: one UTF-8 line per request, one ``readline()`` and one ``drain()``
per response, resources spelled as slash paths re-parsed on every frame.
This module defines the binary framing negotiated by the ``HELLO BINARY``
upgrade (the text protocol stays as the debug/fallback path):

    +--------+--------+----------+------------------+
    | u32 length      | u8 opcode| u32 correlation  |  ... body ...
    +-----------------+----------+------------------+

* ``length`` counts every byte after the length field itself (opcode +
  correlation id + body, so ``length == 5 + len(body)``) — big-endian,
  like everything else in the header;
* ``opcode`` selects the request/response kind (tables below);
* ``correlation id`` is echoed verbatim on the response, which is what
  makes pipelining safe: a client may keep N requests in flight and
  match responses by id.  The server *begins* a connection's frames in
  arrival order, but a frame that waits (a parked lock) no longer
  blocks the frames behind it, so responses may
  complete out of order — the id, not the position, names the request.

Resources travel as **dense interned ids** — append-only
:class:`~repro.nf2.surrogate.ResourceInterner` codes — so the hot path
never re-parses a path string.  Clients learn
the id table with ``OP_RESOURCES`` after the upgrade and extend it on
demand with ``OP_INTERN``.

Request opcodes (client -> server)::

    0x01 OP_START         txn:utf8
    0x02 OP_LOCK          mode:u8 flags:u8 rid:u32 txn:utf8
    0x03 OP_ACQUIRE_MANY  flags:u8 count:u16 (rid:u32 mode:u8)*count txn:utf8
    0x04 OP_UNLOCK        rid:u32 txn:utf8
    0x05 OP_END           txn:utf8
    0x06 OP_STATS         (empty)
    0x07 OP_RESOURCES     (empty)
    0x08 OP_INTERN        path:utf8
    0x09 OP_MODES         (empty)

Response opcodes (server -> client)::

    0x80 RESP_OK          detail:utf8          (the text frame minus "OK ")
    0x81 RESP_GRANTED     steps:u32 detail:utf8
    0x82 RESP_STATS       json:utf8
    0x83 RESP_RESOURCES   count:u32 (rid:u32 len:u16 path:utf8)*count
    0x84 RESP_INTERNED    rid:u32
    0xFF RESP_ERR         code:u8 detail:utf8  (the text frame minus "ERR ")

``mode`` bytes are :attr:`~repro.locking.modes.LockMode.code` values
(``MODES_BY_CODE`` inverts them); ``flags`` bit 0 is NOWAIT.  The
semantic mode codes (SI/AP/INC and their intention forms) are accepted
only by a server whose stack runs ``use_semantic_modes``; elsewhere
they answer ``ERR BAD-MODE`` exactly as an out-of-range code does.
``OP_MODES`` reports the accepted vocabulary as a plain ``RESP_OK``
frame (``MODES <name>,<name>,...``), so no response opcode was added.  Error
``detail`` strings start with the same machine-readable token the text
protocol uses (``CONFLICT``, ``DEADLOCK``, ...), so a binary client can
reconstruct the exact text-equivalent response — the property the wire
differential harness leans on.

Every encoder here has a decoder inverse; the golden byte pins live in
``tests/service/test_wire_protocol.py`` together with a Hypothesis
round-trip property over random frames and arbitrary TCP chunkings.
"""

from __future__ import annotations

import struct
from typing import Iterator, List, Optional, Tuple

#: Default frame-size ceiling (bytes counted by the header length field).
#: Applies to both directions and, on the server, to text lines too — an
#: oversized frame earns ``ERR FRAME_TOO_LONG`` instead of a teardown.
DEFAULT_MAX_FRAME = 64 * 1024

HEADER = struct.Struct("!IBI")  # length, opcode, correlation id
HEADER_SIZE = HEADER.size  # 9 bytes; `length` covers the last 5 of them

# -- opcodes ------------------------------------------------------------------

OP_START = 0x01
OP_LOCK = 0x02
OP_ACQUIRE_MANY = 0x03
OP_UNLOCK = 0x04
OP_END = 0x05
OP_STATS = 0x06
OP_RESOURCES = 0x07
OP_INTERN = 0x08
OP_MODES = 0x09

RESP_OK = 0x80
RESP_GRANTED = 0x81
RESP_STATS = 0x82
RESP_RESOURCES = 0x83
RESP_INTERNED = 0x84
RESP_ERR = 0xFF

REQUEST_OPCODES = (
    OP_START,
    OP_LOCK,
    OP_ACQUIRE_MANY,
    OP_UNLOCK,
    OP_END,
    OP_STATS,
    OP_RESOURCES,
    OP_INTERN,
    OP_MODES,
)
RESPONSE_OPCODES = (
    RESP_OK,
    RESP_GRANTED,
    RESP_STATS,
    RESP_RESOURCES,
    RESP_INTERNED,
    RESP_ERR,
)

FLAG_NOWAIT = 0x01

#: Machine-readable error tokens -> u8 wire codes.  0 is reserved for
#: "unclassified" (a token this table does not know).
ERR_CODES = {
    "BAD-FRAME": 1,
    "UNKNOWN-VERB": 2,
    "UNKNOWN-OPCODE": 3,
    "BAD-MODE": 4,
    "UNKNOWN-RESOURCE": 5,
    "NOTXN": 6,
    "TXN-ACTIVE": 7,
    "NOT-HELD": 8,
    "CONFLICT": 9,
    "TIMEOUT": 10,
    "DEADLOCK": 11,
    "DENIED": 12,
    "FAULT": 13,
    "FRAME_TOO_LONG": 14,
}
ERR_NAMES = {code: name for name, code in ERR_CODES.items()}


class WireError(Exception):
    """A malformed frame (bad opcode, truncated body, bogus length)."""


class FrameTooLong(WireError):
    """A header announced a frame larger than the negotiated maximum."""

    def __init__(self, opcode: int, corr: int, length: int):
        super().__init__("frame of %d bytes exceeds the maximum" % length)
        self.opcode = opcode
        self.corr = corr
        self.length = length


def pack_frame(opcode: int, corr: int, body: bytes = b"") -> bytes:
    """One complete frame: header + body."""
    return HEADER.pack(5 + len(body), opcode, corr) + body


# -- request bodies -----------------------------------------------------------

_LOCK_BODY = struct.Struct("!BBI")
_AM_HEAD = struct.Struct("!BH")
_AM_STEP = struct.Struct("!IB")
_U32 = struct.Struct("!I")
_U16 = struct.Struct("!H")


def _txn_only(fields) -> bytes:
    (txn,) = fields
    return txn.encode("utf-8")


def _unpack_txn_only(buf, start, end):
    return (bytes(buf[start:end]).decode("utf-8"),)


def _pack_lock(fields) -> bytes:
    mode_code, flags, rid, txn = fields
    return _LOCK_BODY.pack(mode_code, flags, rid) + txn.encode("utf-8")


def _unpack_lock(buf, start, end):
    if end - start < _LOCK_BODY.size:
        raise WireError("truncated LOCK body")
    mode_code, flags, rid = _LOCK_BODY.unpack_from(buf, start)
    txn = bytes(buf[start + _LOCK_BODY.size : end]).decode("utf-8")
    return (mode_code, flags, rid, txn)


def _pack_acquire_many(fields) -> bytes:
    flags, steps, txn = fields
    parts = [_AM_HEAD.pack(flags, len(steps))]
    for rid, mode_code in steps:
        parts.append(_AM_STEP.pack(rid, mode_code))
    parts.append(txn.encode("utf-8"))
    return b"".join(parts)


def _unpack_acquire_many(buf, start, end):
    if end - start < _AM_HEAD.size:
        raise WireError("truncated ACQUIRE_MANY body")
    flags, count = _AM_HEAD.unpack_from(buf, start)
    offset = start + _AM_HEAD.size
    need = count * _AM_STEP.size
    if end - offset < need:
        raise WireError("truncated ACQUIRE_MANY steps")
    steps = tuple(
        _AM_STEP.unpack_from(buf, offset + i * _AM_STEP.size)
        for i in range(count)
    )
    txn = bytes(buf[offset + need : end]).decode("utf-8")
    return (flags, steps, txn)


def _pack_unlock(fields) -> bytes:
    rid, txn = fields
    return _U32.pack(rid) + txn.encode("utf-8")


def _unpack_unlock(buf, start, end):
    if end - start < 4:
        raise WireError("truncated UNLOCK body")
    (rid,) = _U32.unpack_from(buf, start)
    txn = bytes(buf[start + 4 : end]).decode("utf-8")
    return (rid, txn)


def _pack_empty(fields) -> bytes:
    return b""


def _unpack_empty(buf, start, end):
    return ()


def _pack_path(fields) -> bytes:
    (path,) = fields
    return path.encode("utf-8")


def _unpack_path(buf, start, end):
    return (bytes(buf[start:end]).decode("utf-8"),)


_REQ_PACK = {
    OP_START: _txn_only,
    OP_LOCK: _pack_lock,
    OP_ACQUIRE_MANY: _pack_acquire_many,
    OP_UNLOCK: _pack_unlock,
    OP_END: _txn_only,
    OP_STATS: _pack_empty,
    OP_RESOURCES: _pack_empty,
    OP_INTERN: _pack_path,
    OP_MODES: _pack_empty,
}
_REQ_UNPACK = {
    OP_START: _unpack_txn_only,
    OP_LOCK: _unpack_lock,
    OP_ACQUIRE_MANY: _unpack_acquire_many,
    OP_UNLOCK: _unpack_unlock,
    OP_END: _unpack_txn_only,
    OP_STATS: _unpack_empty,
    OP_RESOURCES: _unpack_empty,
    OP_INTERN: _unpack_path,
    OP_MODES: _unpack_empty,
}


# -- response bodies ----------------------------------------------------------

def _pack_detail(fields) -> bytes:
    (detail,) = fields
    return detail.encode("utf-8")


def _unpack_detail(buf, start, end):
    return (bytes(buf[start:end]).decode("utf-8"),)


def _pack_granted(fields) -> bytes:
    steps, detail = fields
    return _U32.pack(steps) + detail.encode("utf-8")


def _unpack_granted(buf, start, end):
    if end - start < 4:
        raise WireError("truncated GRANTED body")
    (steps,) = _U32.unpack_from(buf, start)
    detail = bytes(buf[start + 4 : end]).decode("utf-8")
    return (steps, detail)


def _pack_resources(fields) -> bytes:
    (entries,) = fields
    parts = [_U32.pack(len(entries))]
    for rid, path in entries:
        raw = path.encode("utf-8")
        parts.append(_U32.pack(rid))
        parts.append(_U16.pack(len(raw)))
        parts.append(raw)
    return b"".join(parts)


def _unpack_resources(buf, start, end):
    if end - start < 4:
        raise WireError("truncated RESOURCES body")
    (count,) = _U32.unpack_from(buf, start)
    offset = start + 4
    entries: List[Tuple[int, str]] = []
    for _ in range(count):
        if end - offset < 6:
            raise WireError("truncated RESOURCES entry")
        (rid,) = _U32.unpack_from(buf, offset)
        (path_len,) = _U16.unpack_from(buf, offset + 4)
        offset += 6
        if end - offset < path_len:
            raise WireError("truncated RESOURCES path")
        entries.append(
            (rid, bytes(buf[offset : offset + path_len]).decode("utf-8"))
        )
        offset += path_len
    return (tuple(entries),)


def _pack_interned(fields) -> bytes:
    (rid,) = fields
    return _U32.pack(rid)


def _unpack_interned(buf, start, end):
    if end - start < 4:
        raise WireError("truncated INTERNED body")
    return (_U32.unpack_from(buf, start)[0],)


def _pack_err(fields) -> bytes:
    code, detail = fields
    return bytes([code]) + detail.encode("utf-8")


def _unpack_err(buf, start, end):
    if end - start < 1:
        raise WireError("truncated ERR body")
    return (buf[start], bytes(buf[start + 1 : end]).decode("utf-8"))


_RESP_PACK = {
    RESP_OK: _pack_detail,
    RESP_GRANTED: _pack_granted,
    RESP_STATS: _pack_detail,
    RESP_RESOURCES: _pack_resources,
    RESP_INTERNED: _pack_interned,
    RESP_ERR: _pack_err,
}
_RESP_UNPACK = {
    RESP_OK: _unpack_detail,
    RESP_GRANTED: _unpack_granted,
    RESP_STATS: _unpack_detail,
    RESP_RESOURCES: _unpack_resources,
    RESP_INTERNED: _unpack_interned,
    RESP_ERR: _unpack_err,
}


# -- whole-frame helpers ------------------------------------------------------

def encode_request(opcode: int, corr: int, fields: tuple) -> bytes:
    try:
        pack = _REQ_PACK[opcode]
    except KeyError:
        raise WireError("unknown request opcode 0x%02x" % opcode)
    return pack_frame(opcode, corr, pack(fields))


def decode_request_fields(opcode: int, buf, start: int, end: int) -> tuple:
    """Decode a request body in place (no body slice is materialized
    beyond the strings the fields themselves need)."""
    try:
        unpack = _REQ_UNPACK[opcode]
    except KeyError:
        raise WireError("unknown request opcode 0x%02x" % opcode)
    return unpack(buf, start, end)


def encode_response(opcode: int, corr: int, fields: tuple) -> bytes:
    try:
        pack = _RESP_PACK[opcode]
    except KeyError:
        raise WireError("unknown response opcode 0x%02x" % opcode)
    return pack_frame(opcode, corr, pack(fields))


def decode_response_fields(opcode: int, buf, start: int, end: int) -> tuple:
    try:
        unpack = _RESP_UNPACK[opcode]
    except KeyError:
        raise WireError("unknown response opcode 0x%02x" % opcode)
    return unpack(buf, start, end)


def frame_for_response(corr: int, text: str) -> bytes:
    """The binary frame carrying the same payload as text response ``text``.

    The binary path renders through the *same* text renderer the line
    protocol uses and re-frames here, so the two protocols cannot drift:
    a binary client reconstructs the text frame verbatim with
    :func:`response_to_text` (the wire differential pins this).
    """
    if text.startswith("OK STATS "):
        return encode_response(RESP_STATS, corr, (text[len("OK STATS ") :],))
    if text.startswith("OK GRANTED "):
        head, _, steps = text.rpartition(" steps=")
        return encode_response(
            RESP_GRANTED, corr, (int(steps), head[len("OK GRANTED ") :])
        )
    if text.startswith("OK "):
        return encode_response(RESP_OK, corr, (text[len("OK ") :],))
    detail = text[len("ERR ") :] if text.startswith("ERR ") else text
    code = ERR_CODES.get(detail.split(" ", 1)[0], 0)
    return encode_response(RESP_ERR, corr, (code, detail))


def response_to_text(opcode: int, fields: tuple) -> str:
    """Reconstruct the text-equivalent response frame (inverse of
    :func:`frame_for_response`)."""
    if opcode == RESP_OK:
        return "OK %s" % fields[0]
    if opcode == RESP_GRANTED:
        return "OK GRANTED %s steps=%d" % (fields[1], fields[0])
    if opcode == RESP_STATS:
        return "OK STATS %s" % fields[0]
    if opcode == RESP_ERR:
        return "ERR %s" % fields[1]
    raise WireError("opcode 0x%02x has no text equivalent" % opcode)


class FrameDecoder:
    """Incremental framer over a growable buffer.

    Feed arbitrary chunk boundaries; :meth:`frames` yields every complete
    ``(opcode, corr, body)`` in order.  A header announcing more than
    ``max_frame`` bytes raises :class:`FrameTooLong` (carrying the opcode
    and correlation id, so the caller can still answer the frame) and the
    decoder silently discards the oversized body as it arrives —
    the stream stays in sync, no teardown required.
    """

    def __init__(self, max_frame: int = DEFAULT_MAX_FRAME):
        self.max_frame = max_frame
        self._buffer = bytearray()
        self._skip = 0  # oversized-body bytes still to discard

    def feed(self, data: bytes):
        self._buffer.extend(data)

    def __len__(self):
        return len(self._buffer)

    def frames(self) -> Iterator[Tuple[int, int, bytes]]:
        buffer = self._buffer
        while True:
            if self._skip:
                drop = min(self._skip, len(buffer))
                del buffer[:drop]
                self._skip -= drop
                if self._skip:
                    return
            if len(buffer) < HEADER_SIZE:
                return
            length, opcode, corr = HEADER.unpack_from(buffer, 0)
            if length < 5:
                raise WireError("frame length %d below header size" % length)
            if length > self.max_frame:
                del buffer[:HEADER_SIZE]
                self._skip = length - 5
                raise FrameTooLong(opcode, corr, length)
            if len(buffer) - 4 < length:
                return
            end = 4 + length
            body = bytes(buffer[HEADER_SIZE:end])
            del buffer[:end]
            yield opcode, corr, body
