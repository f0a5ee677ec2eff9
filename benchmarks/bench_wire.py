"""Binary wire protocol and pipelining: req/sec ablation ladder (BENCH_6).

Boots the asyncio server in-process under the BENCH_5 service-time
model — one millisecond charged inside the owning shard's mutex per
submitted lock step, sixteen shards — and drives it with a *single*
load connection per rung.  That is the configuration pipelining exists
for: a serial client pays every shard's service latency back to back,
one round-trip at a time, while a pipelined client keeps 32 frames in
flight so independent shards sleep out their service time concurrently
(the server releases the frame-order lock across waits, so a parked
frame never head-of-line-blocks the frames behind it).  The rungs:

* ``text``                — PR-7 line protocol, one request in flight;
* ``binary``              — binary frames after HELLO, still depth 1;
* ``pipelined-uncoal``    — 32 requests in flight, but the server
                            flushes every response individually;
* ``pipelined``           — depth 32 with coalesced per-batch writes
                            (the shipping configuration).

The headline and the PR's acceptance bar: binary + pipelining at depth
32 must clear **5x** the text protocol's req/sec on partlib.  The
binary-vs-text rung isolates the framing win (framing alone is roughly
throughput-neutral at depth 1 — the round-trip dominates) and the
uncoalesced rung isolates the write-batching win.
"""

import asyncio

from benchmarks._common import print_table
from repro.service.client import run_load, workload_paths
from repro.service.server import LockServer, make_service_stack

WORKLOAD = "partlib"
CLIENTS = 1
SHARDS = 16
TXN_LOCKS = 6
SERVICE_TIME = 0.001
DURATION = 1.2
DEPTH = 32

#: rung -> (binary, pipeline_depth, coalesce_writes)
LADDER = (
    ("text", (False, 1, True)),
    ("binary", (True, 1, True)),
    ("pipelined-uncoal", (True, DEPTH, False)),
    ("pipelined", (True, DEPTH, True)),
)

_paths_cache = {}


def _paths(workload):
    if workload not in _paths_cache:
        _paths_cache[workload] = workload_paths(workload)
    return _paths_cache[workload]


def _throughput(binary, depth, coalesce, duration=DURATION):
    """Serve partlib under one ladder rung, load it, report req/sec."""

    async def go():
        server = LockServer(
            make_service_stack(WORKLOAD, shards=SHARDS),
            port=0,
            shard_service_time=SERVICE_TIME,
            coalesce_writes=coalesce,
        )
        host, port = await server.start()
        try:
            return await run_load(
                host,
                port,
                clients=CLIENTS,
                duration=duration,
                seed=7,
                workload=WORKLOAD,
                txn_locks=TXN_LOCKS,
                write_ratio=0.0,  # pure readers: transport, not contention
                paths=_paths(WORKLOAD),
                binary=binary,
                pipeline_depth=depth,
            )
        finally:
            await server.stop()

    return asyncio.run(go())


def test_wire_protocol_ladder(benchmark):
    """The BENCH_6 headline: req/sec per wire-protocol rung."""
    results = {}
    for rung, spec in LADDER:
        results[rung] = _throughput(*spec)
    base = results["text"]["req_per_sec"]
    rows = []
    for rung, _spec in LADDER:
        report = results[rung]
        latency = report["latency_ms"]
        rows.append(
            (
                rung,
                report["pipeline_depth"],
                "%.0f" % report["req_per_sec"],
                "%.2fx" % (report["req_per_sec"] / base),
                "%.2f" % latency["p50"],
                "%.2f" % latency["p95"],
                "%.2f" % latency["p99"],
            )
        )
    print_table(
        "Wire protocol ladder: %s, %d client(s), %d shards, %.0fms shard "
        "service time, %.1fs per rung"
        % (WORKLOAD, CLIENTS, SHARDS, SERVICE_TIME * 1e3, DURATION),
        ("rung", "depth", "req/s", "speedup", "p50ms", "p95ms", "p99ms"),
        rows,
    )
    for rung, report in results.items():
        # pure-reader load: every frame must have been answered OK
        assert report["err"] == 0, (rung, report)
        assert report["server"]["lock_count"] == 0, "server leaked locks"
    assert results["binary"]["server"]["binary_sessions"] > 0
    assert results["pipelined"]["server"]["max_batch"] > 1, (
        "coalesced rung never saw a multi-frame batch"
    )
    pipelined_speedup = results["pipelined"]["req_per_sec"] / base
    # the PR's acceptance bar: >= 5x req/sec over text at depth 32
    assert pipelined_speedup >= 5.0, (
        "binary+pipelined only %.2fx over text" % pipelined_speedup
    )
    for rung, _spec in LADDER:
        report = results[rung]
        key = rung.replace("-", "_")
        benchmark.extra_info["wire_%s_rps" % key] = round(
            report["req_per_sec"], 1
        )
        benchmark.extra_info["wire_%s_p99_ms" % key] = report["latency_ms"][
            "p99"
        ]
    benchmark.extra_info["wire_pipelined_speedup"] = round(
        pipelined_speedup, 3
    )
    benchmark.extra_info["wire_binary_speedup"] = round(
        results["binary"]["req_per_sec"] / base, 3
    )
    benchmark.extra_info["wire_pipeline_depth"] = DEPTH
    benchmark.pedantic(_throughput, args=(True, DEPTH, True), rounds=1)
