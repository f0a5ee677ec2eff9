"""Fault injection through the served stack.

Wires the deterministic fault-injection subsystem through the asyncio
server and asserts the invariant the whole PR rests on: after any fired
fault — a client vanishing mid-frame, the deadlock detector skipping a
pass, a timeout or abort landing inside a batched ACQUIRE_MANY, a
deadlock victim whose kill fails — :func:`repro.verify.audit` stays
clean and the lock table leaks no held lock, waiter or summary entry.
"""

import asyncio
import socket
import struct
import time

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultSpec
from repro.locking.modes import X
from repro.service.client import ServiceClient
from repro.service.server import LockServer, make_service_stack
from repro.verify import audit

M1 = "db1/seg_materials/materials/m1"
M2 = "db1/seg_materials/materials/m2"


def assert_no_leaks(server):
    """Audit + leak sweep once every transaction ended."""
    assert audit(server.stack.protocol) == []
    table = server.manager.table
    assert table.lock_count() == 0
    assert not table._txn_modes, "leaked a held-mode summary"
    assert not table._txn_waiting, "leaked a waiter index"
    assert not table.waiting_requests(), "leaked queued requests"
    assert not server._futures, "server leaked parked futures"


async def parked_frame(server):
    while not server._futures:
        await asyncio.sleep(0.005)


def arm(server, *specs):
    injector = FaultInjector(FaultPlan(list(specs)))
    injector.install(server.stack)
    server.fault_injector = injector
    return injector


class TestMidFrameDisconnect:
    def test_disconnect_aborts_session_and_leaks_nothing(self):
        async def go():
            server = LockServer(make_service_stack("partlib"), port=0)
            host, port = await server.start()
            # the 3rd frame of this connection never gets an answer:
            # the server drops the socket mid-frame instead
            injector = arm(server, FaultSpec("service.frame", occurrence=3))
            client = await ServiceClient(host, port).connect()
            assert (await client.start("t")).startswith("OK")
            assert (await client.xlock("t", M1)).startswith("OK GRANTED")
            try:
                await client.xlock("t", M2)
                raise AssertionError("expected the injected disconnect")
            except ConnectionResetError:
                pass
            await client.close()
            # the handler's cleanup aborts the orphaned transaction
            await asyncio.sleep(0.05)
            assert injector.fired == 1
            assert server.stats["injected_disconnects"] == 1
            assert_no_leaks(server)
            # the server keeps serving new connections afterwards
            other = await ServiceClient(host, port).connect()
            assert (await other.start("u")).startswith("OK")
            assert (await other.xlock("u", M1)).startswith("OK GRANTED")
            assert (await other.end("u")).startswith("OK")
            await other.close()
            assert_no_leaks(server)
            await server.stop()

        asyncio.run(go())

    def test_pipelined_frames_before_the_disconnect_are_undone(self):
        """Frames decoded ahead of the injected disconnect in the same
        read have already run (dispatch is synchronous), one of them
        parked.  The cleanup still aborts the session's transaction and
        drops the parked frame's grant future, although its continuation
        was cancelled before it ever ran."""

        async def go():
            server = LockServer(make_service_stack("partlib"), port=0)
            host, port = await server.start()
            holder = await ServiceClient(host, port).connect()
            assert (await holder.start("h")).startswith("OK")
            assert (await holder.xlock("h", M2)).startswith("OK GRANTED")
            client = await ServiceClient(
                host, port, binary=True, pipeline_depth=8
            ).connect()
            # START t, XLOCK t m1 (granted), XLOCK t m2 (parks behind h),
            # then the 4th frame drops the connection — all in one write
            injector = arm(server, FaultSpec("service.frame", occurrence=4))
            futures = [
                await client.submit_start("t"),
                await client.submit_lock("XLOCK", "t", M1),
                await client.submit_lock("XLOCK", "t", M2),
                await client.submit_start("u"),
            ]
            await client.flush()
            for future in futures:
                try:
                    await asyncio.wait_for(future, 2.0)
                    raise AssertionError("expected the injected disconnect")
                except ConnectionResetError:
                    pass
            await client.close()
            table = server.manager.table
            for _ in range(50):
                if not table.waiting_requests():
                    break
                await asyncio.sleep(0.01)
            assert injector.fired == 1
            assert server.stats["injected_disconnects"] == 1
            # t's granted m1 plan and its queued m2 request are gone
            assert table.waiting_requests() == []
            assert {txn.name for txn in table._txn_modes} == {"h"}
            assert not server._futures, "leaked the parked frame's future"
            assert (await holder.end("h")).startswith("OK")
            await holder.close()
            await asyncio.sleep(0.05)
            assert_no_leaks(server)
            await server.stop()

        asyncio.run(go())


class TestParkedTextDisconnect:
    def test_parked_frame_settles_before_the_kill(self, monkeypatch, connections):
        """A text client's SLOCK parks behind h's XLOCK, and the client
        closes cleanly.  The server keeps reading while the frame is
        parked, but a clean EOF leaves the connection half-open: the
        frame settles first, once h's END has granted it, then the
        session's transaction is killed holding what it was granted, and
        nothing is left behind."""

        async def go():
            server = LockServer(make_service_stack("partlib"), port=0)
            host, port = await server.start()
            kill, kills = server.stack.txns.kill, []

            def recording_kill(txn):
                locks = server.manager.locks_of(txn)
                kills.append((txn.name, dict(locks), dict(server._futures)))
                return kill(txn)

            monkeypatch.setattr(server.stack.txns, "kill", recording_kill)
            holder = await ServiceClient(host, port).connect()
            assert (await holder.start("h")).startswith("OK")
            assert (await holder.xlock("h", M1)).startswith("OK GRANTED")
            client = await ServiceClient(host, port).connect()
            assert (await client.start("t")).startswith("OK")
            parked = asyncio.create_task(client.lock("SLOCK", "t", M1))
            while not server._futures:
                await asyncio.sleep(0.005)
            # the read side stays watched, so a reset would be seen
            assert connections[1].transport.is_reading()
            parked.cancel()
            await client.close()
            await asyncio.sleep(0.05)
            assert kills == []  # still parked: the EOF waits for it
            assert await holder.end("h") == "OK ENDED h"
            for _ in range(100):
                if kills and not server.stack.txns.active:
                    break
                await asyncio.sleep(0.01)
            ((name, locks, futures),) = kills
            assert name == "t" and locks, "killed before its grant"
            assert futures == {}, "killed while its frame was parked"
            await holder.close()
            await asyncio.sleep(0.05)
            assert_no_leaks(server)
            assert not server.stack.txns.active
            assert asyncio.all_tasks() == {
                asyncio.current_task(),
                server._detector_task,
            }
            await server.stop()

        asyncio.run(go())


class TestParkedReset:
    @pytest.mark.parametrize("binary", [False, True], ids=["text", "binary"])
    def test_reset_kills_the_parked_transaction_at_once(self, binary):
        """A client whose connection resets (SO_LINGER 0) while its SLOCK
        is parked behind h's XLOCK: its transaction is killed well inside
        ``lock_timeout`` instead of holding its locks until the frame
        times out, and h keeps its lock."""

        async def go():
            server = LockServer(
                make_service_stack("partlib"), port=0, lock_timeout=5
            )
            host, port = await server.start()
            holder = await ServiceClient(host, port).connect()
            assert (await holder.start("h")).startswith("OK")
            assert (await holder.xlock("h", M1)).startswith("OK GRANTED")
            client = await ServiceClient(host, port, binary=binary).connect()
            assert (await client.start("t")).startswith("OK")
            (txn,) = [t for t in server.stack.txns.active if t.name == "t"]
            parked = asyncio.ensure_future(client.slock("t", M1))
            await asyncio.wait_for(parked_frame(server), 2.0)
            sock = client._writer.get_extra_info("socket")
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            reset_at = time.monotonic()
            client._writer.transport.abort()
            while txn in server.stack.txns.active:
                assert time.monotonic() - reset_at < 1.0, "still alive"
                await asyncio.sleep(0.01)
            parked.cancel()
            await asyncio.gather(parked, return_exceptions=True)
            await client.close()
            h = next(t for t in server.stack.txns.active if t.name == "h")
            assert server.manager.locks_of(h)[tuple(M1.split("/"))] is X
            assert await holder.end("h") == "OK ENDED h"
            await holder.close()
            await asyncio.sleep(0.05)
            assert_no_leaks(server)
            await server.stop()

        asyncio.run(go())


class TestDetectorDelay:
    def test_skipped_pass_only_delays_detection(self):
        async def go():
            # a huge interval: detector passes happen only on nudges
            # (plus one final interval tick), so the injected skip
            # verifiably delays the deadlock resolution
            server = LockServer(
                make_service_stack("partlib"),
                port=0,
                detector_interval=0.2,
                lock_timeout=5.0,
            )
            host, port = await server.start()
            a = await ServiceClient(host, port).connect()
            b = await ServiceClient(host, port).connect()
            assert (await a.start("a")).startswith("OK")
            assert (await b.start("b")).startswith("OK")
            assert (await a.xlock("a", M1)).startswith("OK GRANTED")
            assert (await b.xlock("b", M2)).startswith("OK GRANTED")
            ta = asyncio.create_task(a.xlock("a", M2))
            await asyncio.sleep(0.05)  # a is parked; its nudge has run
            injector = arm(server, FaultSpec("service.detector", occurrence=1))
            tb = asyncio.create_task(b.xlock("b", M1))
            ra, rb = await asyncio.wait_for(asyncio.gather(ta, tb), 5)
            assert [r.startswith("ERR DEADLOCK") for r in (ra, rb)].count(True) == 1, (ra, rb)
            assert [r.startswith("OK GRANTED") for r in (ra, rb)].count(True) == 1, (ra, rb)
            # the pass nudged by b's wait was skipped; a later one found it
            assert server.stats["detector_delays"] >= 1
            assert server.stats["deadlock_victims"] == 1
            assert injector.fired >= 1
            survivor, name = (a, "a") if rb.startswith("ERR") else (b, "b")
            assert (await survivor.end(name)).startswith("OK")
            await a.close()
            await b.close()
            await asyncio.sleep(0.05)
            assert_no_leaks(server)
            await server.stop()

        asyncio.run(go())


class TestFailedKill:
    P1, P2 = "db1/seg_parts/parts/p1/name", "db1/seg_parts/parts/p2/name"

    @staticmethod
    def fail_three_aborts(monkeypatch, txns):
        """Make the first three aborts raise — one whole ``kill`` — and
        return the list of transactions they failed for."""
        abort = txns.abort
        failed = []

        def failing_abort(txn):
            if len(failed) < 3:
                failed.append(txn)
                raise RuntimeError("abort of %r failed" % (txn,))
            return abort(txn)

        monkeypatch.setattr(txns, "abort", failing_abort)
        return failed

    @staticmethod
    async def cycle(host, port, names, paths):
        """Two connections, each holding one path and then asking for the
        other's; returns ``{frame task: (client, name)}``."""
        ends = []
        for name, path in zip(names, paths):
            client = await ServiceClient(host, port).connect()
            assert (await client.start(name)).startswith("OK")
            assert (await client.xlock(name, path)).startswith("OK GRANTED")
            ends.append((client, name))
        frames = {}
        for (client, name), path in zip(ends, reversed(paths)):
            frames[asyncio.create_task(client.xlock(name, path))] = (client, name)
            await asyncio.sleep(0.05)
        return frames

    def test_detector_outlives_a_victim_it_cannot_kill(self, monkeypatch):
        """The first victim's abort fails on all three attempts, so its
        kill re-raises inside the detector task.  The task lives on, and
        its next pass kills the victim again: the survivor the leaked
        locks blocked is granted, a later cycle is still broken, and the
        server ends with no lock, wait or active transaction."""

        async def go():
            server = LockServer(make_service_stack("partlib"), port=0)
            host, port = await server.start()
            reported = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: reported.append(context["exception"])
            )
            failed = self.fail_three_aborts(monkeypatch, server.stack.txns)

            first = await self.cycle(host, port, "ab", (M1, M2))
            done, parked = await asyncio.wait(
                first, timeout=5, return_when=asyncio.FIRST_COMPLETED
            )
            (victim_frame,) = done
            assert victim_frame.result().startswith("ERR DEADLOCK")
            assert len(failed) == 3 and len(set(failed)) == 1
            assert [type(exc) for exc in reported] == [RuntimeError]
            assert not server._detector_task.done()

            # no END and no disconnect reaches the victim: the retry does
            (survivor_frame,) = parked
            response = await asyncio.wait_for(survivor_frame, 5)
            assert response.startswith("OK GRANTED")
            assert server._failed_kills == []
            assert server.manager.locks_of(failed[0]) == {}

            second = await self.cycle(host, port, "cd", (self.P1, self.P2))
            responses = await asyncio.wait_for(asyncio.gather(*second), 5)
            assert sorted(r.split()[0] for r in responses) == ["ERR", "OK"]
            assert server.stats["deadlock_victims"] == 2
            assert len(reported) == 1

            survivors = [first[survivor_frame]] + [
                end
                for frame, end in second.items()
                if frame.result().startswith("OK GRANTED")
            ]
            for client, name in survivors:
                assert (await client.end(name)).startswith("OK")
            for client, _ in list(first.values()) + list(second.values()):
                await client.close()
            await asyncio.sleep(0.05)
            assert_no_leaks(server)
            assert not server.stack.txns.active
            await server.stop()

        asyncio.run(go())

    def test_stop_drains_the_retry_list(self, monkeypatch):
        """With no detector pass after the failed kill, ``stop()`` kills
        the victim: its locks go to the survivor."""

        async def go():
            # passes run only on nudges: none follows the failed kill
            server = LockServer(
                make_service_stack("partlib"), port=0, detector_interval=60.0
            )
            host, port = await server.start()
            reported = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: reported.append(context["exception"])
            )
            failed = self.fail_three_aborts(monkeypatch, server.stack.txns)

            frames = await self.cycle(host, port, "ab", (M1, M2))
            done, parked = await asyncio.wait(
                frames, timeout=5, return_when=asyncio.FIRST_COMPLETED
            )
            assert [frame.result().split()[0] for frame in done] == ["ERR"]
            assert server._failed_kills == [failed[0]]
            (survivor_frame,) = parked
            await asyncio.sleep(0.1)
            assert not survivor_frame.done()

            # stop() may wait for open connections: run it beside them
            stopping = asyncio.create_task(server.stop())
            response = await asyncio.wait_for(survivor_frame, 5)
            assert response.startswith("OK GRANTED")
            assert server._failed_kills == []
            assert [type(exc) for exc in reported] == [RuntimeError]
            client, name = frames[survivor_frame]
            assert (await client.end(name)).startswith("OK")
            for client, _ in frames.values():
                await client.close()
            await asyncio.wait_for(stopping, 5)
            assert_no_leaks(server)
            assert not server.stack.txns.active

        asyncio.run(go())


class TestFaultsInsideAcquireMany:
    def test_injected_timeout_mid_batch(self):
        async def go():
            server = LockServer(make_service_stack("partlib"), port=0)
            host, port = await server.start()
            arm(server, FaultSpec("lock.enqueue", occurrence=2, action="timeout"))
            client = await ServiceClient(host, port).connect()
            assert (await client.start("t")).startswith("OK")
            response = await client.acquire_many(
                "t", [("db1", "IX"), ("db1/seg_parts", "IX")]
            )
            assert response == "ERR TIMEOUT t db1:IX,db1/seg_parts:IX"
            # the prefix before the injected step stays held until END
            assert server.manager.lock_count() == 1
            assert (await client.end("t")).startswith("OK")
            await client.close()
            assert server.stats["timeouts"] == 1
            assert_no_leaks(server)
            await server.stop()

        asyncio.run(go())

    def test_injected_abort_mid_batch(self):
        async def go():
            server = LockServer(make_service_stack("partlib"), port=0)
            host, port = await server.start()
            arm(server, FaultSpec("lock.enqueue", occurrence=3, action="abort"))
            client = await ServiceClient(host, port).connect()
            assert (await client.start("t")).startswith("OK")
            response = await client.acquire_many(
                "t", [("db1", "IX"), ("db1/seg_parts", "IX"), ("db1/seg_asm", "IX")]
            )
            # the server aborted the transaction — the universal cleaner
            assert response.startswith("ERR FAULT t")
            assert (await client.request("END t")) == "ERR NOTXN t"
            await client.close()
            assert_no_leaks(server)
            await server.stop()

        asyncio.run(go())

    def test_every_verb_after_fault_storm_leaves_clean_state(self):
        """Sustained faults (every 5th enqueue aborts) under a burst of
        lock traffic: whatever answered ERR, nothing may leak."""

        async def go():
            server = LockServer(make_service_stack("partlib"), port=0)
            host, port = await server.start()
            arm(server, FaultSpec("lock.enqueue", every=5, action="abort"))
            client = await ServiceClient(host, port).connect()
            paths = [M1, M2, "db1/seg_parts/parts/p1", "db1/seg_parts/parts/p2"]
            for round_no in range(6):
                txn = "t%d" % round_no
                assert (await client.start(txn)).startswith("OK")
                dead = False
                for path in paths:
                    response = await client.lock("SLOCK", txn, path)
                    if response.startswith("ERR FAULT") or response.startswith(
                        "ERR NOTXN"
                    ):
                        dead = True
                        break
                    assert response.startswith("OK GRANTED"), response
                if not dead:
                    assert (await client.end(txn)).startswith("OK")
            await client.close()
            assert_no_leaks(server)
            await server.stop()

        asyncio.run(go())
