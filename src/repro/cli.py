"""Command-line interface: inspect graphs, explain plans, run experiments.

    python -m repro graph cells                  render an object-specific lock graph
    python -m repro figure7                      reproduce Figure 7's lock placement
    python -m repro explain robots[r1] --mode X  show a lock plan step by step
    python -m repro compare                      simulated protocol comparison table
    python -m repro sweep --axis work_time       one axis of the section-5 claim

All commands operate on the paper's cells/effectors database; ``--cells``,
``--robots``, ``--effectors`` size a synthetic instance instead of the
exact Figure 6/7 one.
"""

from __future__ import annotations

import argparse
import sys

import repro
from repro.graphs.units import component_resource, object_resource
from repro.locking.modes import LockMode, S, X
from repro.nf2 import parse_path
from repro.protocol import (
    HerrmannProtocol,
    SystemRRelationProtocol,
    SystemRTupleProtocol,
    XSQLProtocol,
)
from repro.sim import Simulator, WorkloadSpec, submit_workload
from repro.workloads import build_cells_database

PROTOCOLS = (
    HerrmannProtocol,
    SystemRTupleProtocol,
    SystemRRelationProtocol,
    XSQLProtocol,
)


def _build(args):
    if args.cells is None:
        return build_cells_database(figure7=True)
    return build_cells_database(
        n_cells=args.cells,
        n_robots=args.robots,
        n_effectors=args.effectors,
        seed=args.seed,
    )


def cmd_graph(args):
    _, catalog = _build(args)
    if args.relation not in catalog.relation_names():
        print(
            "unknown relation %r (have: %s)"
            % (args.relation, ", ".join(catalog.relation_names())),
            file=sys.stderr,
        )
        return 1
    print(catalog.object_graph(args.relation).render())
    return 0


def cmd_figure7(args):
    database, catalog = build_cells_database(figure7=True)
    stack = repro.make_stack(database, catalog)
    stack.authorization.grant_modify("engineer2", "cells")
    stack.authorization.grant_modify("engineer3", "cells")
    cell = object_resource(catalog, "cells", "c1")
    for name, principal, robot in (("Q2", "engineer2", "r1"), ("Q3", "engineer3", "r2")):
        txn = stack.txns.begin(principal=principal, name=name)
        stack.protocol.request(
            txn, component_resource(cell, parse_path("robots[%s]" % robot)), X
        )
        print("%s holds:" % name)
        for resource, mode in sorted(stack.manager.locks_of(txn).items(), key=repr):
            print("   %-4s %s" % (mode, "/".join(resource)))
        print()
    print("both granted concurrently (they share effector e2 in S mode)")
    return 0


def cmd_explain(args):
    database, catalog = _build(args)
    stack = repro.make_stack(database, catalog)
    if args.modify:
        stack.authorization.grant_modify("cli", args.modify)
    txn = stack.txns.begin(principal="cli" if args.modify else None)
    target = object_resource(catalog, args.relation, args.key)
    if args.path:
        target = component_resource(target, parse_path(args.path))
    mode = LockMode(args.mode)
    for line in stack.protocol.explain(txn, target, mode):
        print(line)
    return 0


def cmd_trace(args):
    """Narrate the lock-manager activity of Q2/Q3 (section 4.4.2.2 style)."""
    from repro.locking.trace import LockTrace

    database, catalog = build_cells_database(figure7=True)
    stack = repro.make_stack(database, catalog)
    stack.authorization.grant_modify("engineer2", "cells")
    stack.authorization.grant_modify("engineer3", "cells")
    trace = LockTrace.attach(stack.manager)
    cell = object_resource(catalog, "cells", "c1")
    t2 = stack.txns.begin(principal="engineer2", name="Q2")
    t3 = stack.txns.begin(principal="engineer3", name="Q3")
    stack.protocol.request(
        t2, component_resource(cell, parse_path("robots[r1]")), X
    )
    stack.protocol.request(
        t3, component_resource(cell, parse_path("robots[r2]")), X
    )
    stack.txns.commit(t2)
    stack.txns.commit(t3)
    trace.detach()
    print(trace.render())
    return 0


def cmd_compare(args):
    spec = WorkloadSpec(
        n_transactions=args.transactions,
        update_fraction=args.update_fraction,
        whole_object_fraction=0.15,
        library_update_fraction=0.05,
        work_time=args.work_time,
        mean_interarrival=0.4,
        seed=args.seed,
    )
    header = "%-18s %10s %10s %8s %8s %8s" % (
        "protocol", "throughput", "mean resp", "waits", "dlocks", "locks",
    )
    print(header)
    print("-" * len(header))
    for protocol_cls in PROTOCOLS:
        database, catalog = _build(args)
        stack = repro.make_stack(database, catalog, protocol_cls=protocol_cls)
        simulator = Simulator(stack.protocol, lock_cost=0.02, scan_item_cost=0.01)
        submit_workload(simulator, catalog, spec, authorization=stack.authorization)
        metrics = simulator.run()
        print(
            "%-18s %10.3f %10.2f %8.1f %8d %8d"
            % (
                protocol_cls.name,
                metrics.throughput,
                metrics.mean_response_time,
                metrics.total_wait_time,
                metrics.deadlocks,
                metrics.locks_requested,
            )
        )
    return 0


def cmd_sweep(args):
    settings = {
        "work_time": (0.5, 2.0, 8.0),
        "update_fraction": (0.2, 0.6, 1.0),
        "think_time": (0.0, 10.0, 40.0),
    }[args.axis]
    print("%-14s %-14s" % (args.axis, "herrmann/xsql"))
    for value in settings:
        spec_kwargs = dict(
            n_transactions=args.transactions,
            update_fraction=args.update_fraction,
            whole_object_fraction=0.1,
            work_time=args.work_time,
            mean_interarrival=0.4,
            seed=args.seed,
        )
        spec_kwargs[args.axis] = value
        throughputs = {}
        for protocol_cls in (HerrmannProtocol, XSQLProtocol):
            database, catalog = _build(args)
            stack = repro.make_stack(
                database, catalog, protocol_cls=protocol_cls
            )
            simulator = Simulator(stack.protocol, lock_cost=0.02)
            submit_workload(
                simulator, catalog, WorkloadSpec(**spec_kwargs),
                authorization=stack.authorization,
            )
            throughputs[protocol_cls.name] = simulator.run().throughput
        print(
            "%-14s %-14.2f"
            % (value, throughputs["herrmann"] / max(throughputs["xsql"], 1e-9))
        )
    return 0


def cmd_check(args):
    """Forward to the ``repro-check`` CLI (schedule-exploring oracle)."""
    from repro.check.cli import main as check_main

    return check_main(args.check_args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Lock technique for disjoint and non-disjoint complex "
        "objects (Herrmann et al., EDBT 1990) — reproduction CLI",
    )
    parser.add_argument("--cells", type=int, default=None,
                        help="synthetic database: number of cells (default: Figure 7 instance)")
    parser.add_argument("--robots", type=int, default=3)
    parser.add_argument("--effectors", type=int, default=5)
    parser.add_argument("--seed", type=int, default=7)
    commands = parser.add_subparsers(dest="command", required=True)

    graph = commands.add_parser("graph", help="render an object-specific lock graph")
    graph.add_argument("relation")
    graph.set_defaults(func=cmd_graph)

    fig7 = commands.add_parser("figure7", help="reproduce Figure 7")
    fig7.set_defaults(func=cmd_figure7)

    explain = commands.add_parser("explain", help="show a lock plan")
    explain.add_argument("path", nargs="?", default="",
                         help="component path, e.g. robots[r1]")
    explain.add_argument("--relation", default="cells")
    explain.add_argument("--key", default="c1")
    explain.add_argument("--mode", default="S", choices=[m.value for m in LockMode])
    explain.add_argument("--modify", default=None,
                         help="grant the CLI principal modify rights on a relation")
    explain.set_defaults(func=cmd_explain)

    trace = commands.add_parser(
        "trace", help="narrate the lock activity of Q2 and Q3"
    )
    trace.set_defaults(func=cmd_trace)

    compare = commands.add_parser("compare", help="simulated protocol comparison")
    compare.add_argument("--transactions", type=int, default=60)
    compare.add_argument("--update-fraction", dest="update_fraction",
                         type=float, default=0.5)
    compare.add_argument("--work-time", dest="work_time", type=float, default=2.0)
    compare.set_defaults(func=cmd_compare, cells=3)

    sweep = commands.add_parser("sweep", help="one axis of the section-5 claim")
    sweep.add_argument("--axis", default="work_time",
                       choices=("work_time", "update_fraction", "think_time"))
    sweep.add_argument("--transactions", type=int, default=40)
    sweep.add_argument("--update-fraction", dest="update_fraction",
                       type=float, default=0.6)
    sweep.add_argument("--work-time", dest="work_time", type=float, default=2.0)
    sweep.set_defaults(func=cmd_sweep, cells=2)

    check = commands.add_parser(
        "check",
        help="schedule exploration and differential oracle (repro-check)",
    )
    check.add_argument("check_args", nargs=argparse.REMAINDER,
                       help="arguments forwarded to repro-check")
    check.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
