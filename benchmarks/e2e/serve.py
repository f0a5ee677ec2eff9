"""The server process of the served workloads.

Boots exactly what ``repro-serve`` would with its defaults — partlib at
16x behind ``make_stack(shards=4)`` and a ``LockServer`` on a loopback
port the kernel picks — passing no ablation flag and no modelled service
time.  The benchmark process drives it over TCP and talks to it over a
line-per-command control channel on stdin/stdout (commands run on the
event loop, so they see a consistent lock table):

    snapshot           counters, audit result, traced totals  -> one JSON line
    trace_on [raw]     install the timing wrappers (``raw`` keeps spans)
    trace_off          remove them
    dump <path>        write the kept spans as JSON lines
    (EOF)              stop serving and exit

EOF on stdin is the only way out, so the server cannot outlive the
benchmark process that started it.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys

import repro
from repro.service import wire
from repro.service.server import LockServer
from repro.workloads import build_partlib_database

from benchmarks.e2e import trace
from benchmarks.e2e.workloads import stack_counters

#: partlib at 16x the default size: 64 assemblies + 96 parts + 48 materials
PARTLIB = dict(
    n_assemblies=64,
    positions_per_assembly=3,
    n_parts=96,
    n_materials=48,
    materials_per_part=2,
)
SHARDS = 4
LOCK_TIMEOUT = 5.0


def snapshot(server: LockServer, tracer) -> dict:
    stack = server.stack
    counters = stack_counters(stack)
    counters.update(("server." + key, value) for key, value in server.stats.items())
    return {
        "counters": counters,
        "lock_count": stack.manager.lock_count(),
        "active_txns": len(stack.txns.active),
        "audit": [str(violation) for violation in repro.audit(stack.protocol)],
        "trace": tracer.summary() if tracer is not None else {},
        "skipped": tracer.skipped if tracer is not None else [],
    }


async def serve():
    database, catalog = build_partlib_database(**PARTLIB)
    stack = repro.make_stack(database, catalog, shards=SHARDS)
    server = LockServer(stack, port=0, lock_timeout=LOCK_TIMEOUT)
    _, port = await server.start()
    print(json.dumps({"port": port, "pid": os.getpid()}), flush=True)
    loop = asyncio.get_running_loop()
    tracer = None
    try:
        while True:
            line = await loop.run_in_executor(None, sys.stdin.readline)
            if not line:
                break
            command, _, argument = line.strip().partition(" ")
            reply = {}
            if command == "snapshot":
                reply = snapshot(server, tracer)
            elif command == "trace_on":
                tracer = trace.Tracer(keep_raw=argument == "raw")
                trace.install_stack(tracer, stack)
                tracer.install({"wire": wire}, trace.WIRE_TARGETS)
            elif command == "trace_off":
                if tracer is not None:
                    tracer.uninstall()
            elif command == "dump":
                if tracer is not None:
                    tracer.write(argument)
            else:
                reply = {"error": "unknown command %r" % command}
            print(json.dumps(reply), flush=True)
    finally:
        await server.stop()


if __name__ == "__main__":
    asyncio.run(serve())
