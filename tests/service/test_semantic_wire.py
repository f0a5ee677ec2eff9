"""Semantic lock modes over the wire: golden pins and the gated flag.

Three contracts:

* **golden bytes** — the new ``OP_MODES`` request opcode, an ``OP_LOCK``
  frame carrying a semantic mode code and the ``MODES`` response
  renderings are pinned as literals, exactly like the PR-8 frames in
  ``test_wire_protocol.py``;
* **flag on** — against a ``use_semantic_modes`` stack the semantic
  verbs plan and grant, two inserters share the same part, readers and
  writers are refused at the propagated common data, and the full
  11x11 compatibility matrix served over the wire equals the dense
  ``COMPAT_FLAT`` table (mirroring the classic 25-pair test);
* **flag off** — a classic stack answers the semantic verbs, mode names
  and mode codes byte-for-byte as a PR-8 server answered unknown verbs
  and out-of-range codes, which is the wire half of the flag-off
  differential.
"""

import asyncio

from repro.locking.modes import (
    COMPAT_FLAT,
    EXTENDED_MODES,
    N_MODES,
    SEMANTIC_MODES,
)
from repro.service import wire
from repro.service.client import ServiceClient
from repro.service.server import LockServer, make_service_stack


def run_transcript(script, semantic=True, workload="partlib"):
    """Feed request frames over one connection; pin each response."""

    async def go():
        server = LockServer(
            make_service_stack(workload, use_semantic_modes=semantic),
            port=0,
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


class TestGoldenBytes:
    def test_modes_request(self):
        assert wire.encode_request(wire.OP_MODES, 8, ()) == (
            b"\x00\x00\x00\x05\t\x00\x00\x00\x08"
        )

    def test_lock_with_semantic_mode_code(self):
        # mode code 8 is SI; the frame layout is untouched
        assert wire.encode_request(wire.OP_LOCK, 10, (8, 0, 7, "t1")) == (
            b"\x00\x00\x00\r\x02\x00\x00\x00\n\x08\x00\x00\x00\x00\x07t1"
        )

    def test_modes_response_semantic_stack(self):
        assert wire.frame_for_response(
            13, "OK MODES IS,IX,S,SIX,X,ISI,IAP,IINC,SI,AP,INC"
        ) == (
            b"\x00\x00\x00/\x80\x00\x00\x00\r"
            b"MODES IS,IX,S,SIX,X,ISI,IAP,IINC,SI,AP,INC"
        )

    def test_modes_response_classic_stack(self):
        assert wire.frame_for_response(14, "OK MODES IS,IX,S,SIX,X") == (
            b"\x00\x00\x00\x18\x80\x00\x00\x00\x0eMODES IS,IX,S,SIX,X"
        )

    def test_rejected_semantic_code_renders_as_bad_mode(self):
        # same bytes an out-of-range code has always produced
        assert wire.ERR_CODES["BAD-MODE"] == 4
        assert wire.frame_for_response(15, "ERR BAD-MODE code=8") == (
            b"\x00\x00\x00\x15\xff\x00\x00\x00\x0f\x04BAD-MODE code=8"
        )

    def test_semantic_codes_are_in_range(self):
        assert N_MODES == 11
        assert [mode.code for mode in SEMANTIC_MODES] == [5, 6, 7, 8, 9, 10]


class TestSemanticVerbsFlagOn:
    def test_commuting_inserts_transcript(self):
        run_transcript([
            ("MODES", "OK MODES IS,IX,S,SIX,X,ISI,IAP,IINC,SI,AP,INC"),
            ("START t1", "OK STARTED t1"),
            ("START t2", "OK STARTED t2"),
            ("START t3", "OK STARTED t3"),
            # ISI ancestors + downward SI onto the referenced material
            # + the target: the plan shape of an S/X demand, in SI dress
            ("SILOCK t1 db1/seg_parts/parts/p1",
             "OK GRANTED t1 db1/seg_parts/parts/p1 steps=7"),
            # the second inserter is admitted concurrently — SI || SI
            ("SILOCK t2 db1/seg_parts/parts/p1",
             "OK GRANTED t2 db1/seg_parts/parts/p1 steps=7"),
            # a reader dies at the propagated claim on the common data
            ("SLOCK t3 db1/seg_parts/parts/p1 NOWAIT",
             "ERR CONFLICT t3 db1/seg_materials/materials/m1"),
            # so does a writer (and a non-commuting appender)
            ("XLOCK t3 db1/seg_parts/parts/p1 NOWAIT",
             "ERR CONFLICT t3 db1/seg_materials/materials/m1"),
            ("APLOCK t1 db1/seg_parts/parts/p1 NOWAIT",
             "ERR CONFLICT t1 db1/seg_materials/materials/m1"),
            # semantic intention modes ride ACQUIRE_MANY and the verb
            # forms; t3's failed attempts left IX on the spine, which
            # covers ISI — nothing new to request
            ("ACQUIRE_MANY t3 db1:ISI NOWAIT", "OK GRANTED t3 db1:ISI steps=0"),
            ("ISILOCK t1 db1/seg_parts/parts",
             "OK GRANTED t1 db1/seg_parts/parts steps=0"),
            # a commuting increment on a different part is independent
            ("INCLOCK t3 db1/seg_parts/parts/p2",
             "OK GRANTED t3 db1/seg_parts/parts/p2 steps=2"),
            ("END t1", "OK ENDED t1"),
            ("END t2", "OK ENDED t2"),
            # with the inserters gone the reader's demand goes through
            ("SLOCK t3 db1/seg_parts/parts/p1",
             "OK GRANTED t3 db1/seg_parts/parts/p1 steps=2"),
            ("END t3", "OK ENDED t3"),
        ])

    def test_binary_lock_and_modes_opcodes(self):
        async def go():
            server = LockServer(
                make_service_stack("partlib", use_semantic_modes=True),
                port=0,
            )
            host, port = await server.start()
            client = await ServiceClient(host, port, binary=True).connect()
            try:
                assert await client.modes() == [
                    "IS", "IX", "S", "SIX", "X",
                    "ISI", "IAP", "IINC", "SI", "AP", "INC",
                ]
                assert (await client.start("t1")).startswith("OK")
                # OP_LOCK with mode code 8 (SI) plans like the text verb
                response = await client.silock(
                    "t1", "db1/seg_parts/parts/p1"
                )
                assert response == (
                    "OK GRANTED t1 db1/seg_parts/parts/p1 steps=7"
                )
                # OP_ACQUIRE_MANY with a semantic intention code
                response = await client.acquire_many(
                    "t1", [("db1/seg_parts/parts/p2", "IINC")]
                )
                assert response == (
                    "OK GRANTED t1 db1/seg_parts/parts/p2:IINC steps=1"
                )
                assert (await client.end("t1")).startswith("OK")
            finally:
                await client.close()
                await server.stop()

        asyncio.run(go())


class TestSemanticModesFlagOff:
    """A classic stack answers exactly as a PR-8 server did."""

    def test_text_verbs_and_mode_names_rejected(self):
        run_transcript(
            [
                ("MODES", "OK MODES IS,IX,S,SIX,X"),
                ("START t1", "OK STARTED t1"),
                # unknown verb, not a protocol error: these verbs do not
                # exist on a classic stack
                ("SILOCK t1 db1/seg_parts/parts/p1",
                 "ERR UNKNOWN-VERB SILOCK"),
                ("IINCLOCK t1 db1/seg_parts/parts/p1",
                 "ERR UNKNOWN-VERB IINCLOCK"),
                # same rejection the unknown-mode-name path always gave
                ("ACQUIRE_MANY t1 db1:SI", "ERR BAD-MODE SI"),
                ("ACQUIRE_MANY t1 db1:ap", "ERR BAD-MODE ap"),
                ("ACQUIRE_MANY t1 db1:BOGUS", "ERR BAD-MODE BOGUS"),
                # classic verbs are untouched
                ("SLOCK t1 db1/seg_parts/parts/p1",
                 "OK GRANTED t1 db1/seg_parts/parts/p1 steps=7"),
                ("END t1", "OK ENDED t1"),
            ],
            semantic=False,
        )

    def test_binary_semantic_codes_rejected(self):
        async def go():
            server = LockServer(make_service_stack("partlib"), port=0)
            host, port = await server.start()
            client = await ServiceClient(host, port, binary=True).connect()
            try:
                assert await client.modes() == ["IS", "IX", "S", "SIX", "X"]
                assert (await client.start("t1")).startswith("OK")
                # every semantic code answers as out-of-range always has
                for mode in SEMANTIC_MODES:
                    response = await client.lock(
                        "%sLOCK" % mode.value, "t1", "db1"
                    )
                    assert response == "ERR BAD-MODE code=%d" % mode.code
                response = await client.acquire_many("t1", [("db1", "SI")])
                assert response == "ERR BAD-MODE code=8"
                # a genuinely out-of-range code still answers the same
                raw = await client._roundtrip(
                    wire.OP_LOCK, (11, 0, 1, "t1")
                )
                assert raw == "ERR BAD-MODE code=11"
                assert (await client.end("t1")).startswith("OK")
            finally:
                await client.close()
                await server.stop()

        asyncio.run(go())


class TestExtendedCompatibilityMatrixOverTheWire:
    def test_matrix_matches_dense_tables(self):
        """Serve every (held, requested) pair of all 11 modes on the
        root resource of a semantic stack; the wire outcome must equal
        the COMPAT_FLAT dense table — the 121-pair extension of the
        classic 25-pair matrix test."""

        async def go():
            server = LockServer(
                make_service_stack("partlib", use_semantic_modes=True),
                port=0,
            )
            host, port = await server.start()
            a = await ServiceClient(host, port).connect()
            b = await ServiceClient(host, port).connect()
            try:
                for held in EXTENDED_MODES:
                    for wanted in EXTENDED_MODES:
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
