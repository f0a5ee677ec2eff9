"""``repro-serve`` and ``repro-load`` console entry points."""

from __future__ import annotations

import argparse
import asyncio
import json
import sys


def serve_main(argv=None) -> int:
    """Serve a lock stack over the text and binary protocols."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve a lock stack over the asyncio text "
        "and binary wire protocols.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7457)
    parser.add_argument(
        "--workload",
        choices=("cells", "partlib"),
        default="cells",
        help="database to serve",
    )
    parser.add_argument(
        "--lock-timeout",
        type=float,
        default=5.0,
        help="seconds a lock wait may park before ERR TIMEOUT",
    )
    parser.add_argument(
        "--semantic-modes",
        action="store_true",
        help="accept the commutativity-aware lock modes (SI/AP/INC verbs, "
        "mode codes 5-10; off = classic five-mode vocabulary)",
    )
    args = parser.parse_args(argv)

    from repro.service.server import LockServer, make_service_stack

    stack = make_service_stack(
        args.workload,
        use_semantic_modes=args.semantic_modes,
    )
    server = LockServer(
        stack,
        host=args.host,
        port=args.port,
        lock_timeout=args.lock_timeout,
    )

    async def _serve():
        host, port = await server.start()
        print(
            "repro-serve: %s workload, listening on %s:%d"
            % (args.workload, host, port),
            flush=True,
        )
        assert server._server is not None
        try:
            async with server._server:
                await server._server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def load_main(argv=None) -> int:
    """Drive concurrent load clients against a running repro-serve."""
    parser = argparse.ArgumentParser(
        prog="repro-load",
        description="Load-generate against a running repro-serve instance.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7457)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--duration", type=float, default=5.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--workload",
        choices=("cells", "partlib"),
        default="cells",
        help="workload whose object paths to lock (must match the server)",
    )
    parser.add_argument(
        "--txn-locks", type=int, default=3, help="lock demands per transaction"
    )
    parser.add_argument(
        "--write-ratio", type=float, default=0.2, help="fraction of XLOCKs"
    )
    parser.add_argument(
        "--binary",
        action="store_true",
        help="use the binary wire protocol (HELLO BINARY upgrade)",
    )
    parser.add_argument(
        "--pipeline-depth",
        type=int,
        default=1,
        help="requests in flight per connection (>1 requires --binary)",
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="also write the report as JSON ('-' for stdout)",
    )
    args = parser.parse_args(argv)

    from repro.service.client import run_load

    report = asyncio.run(
        run_load(
            args.host,
            args.port,
            clients=args.clients,
            duration=args.duration,
            seed=args.seed,
            workload=args.workload,
            txn_locks=args.txn_locks,
            write_ratio=args.write_ratio,
            binary=args.binary,
            pipeline_depth=args.pipeline_depth,
        )
    )
    latency = report["latency_ms"]
    print(
        "repro-load: %d clients x %.1fs (%s, depth %d) -> %d OK / %d ERR, "
        "%.1f req/s, latency p50=%.3fms p95=%.3fms p99=%.3fms"
        % (
            report["clients"],
            report["duration"],
            "binary" if report["binary"] else "text",
            report["pipeline_depth"],
            report["ok"],
            report["err"],
            report["req_per_sec"],
            latency["p50"],
            latency["p95"],
            latency["p99"],
        )
    )
    if args.json:
        payload = json.dumps(report, indent=2, sort_keys=True)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w") as handle:
                handle.write(payload + "\n")
    return 0 if report["ok"] > 0 else 1


if __name__ == "__main__":
    sys.exit(serve_main())
