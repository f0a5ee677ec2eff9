"""``repro-check`` — the schedule-exploration command line.

Subcommands::

    repro-check list                          # workloads and protocols
    repro-check explore  -w partlib -p herrmann
    repro-check certify  -w partlib -p herrmann
    repro-check counterexample -w from-the-side
    repro-check differential -w from-the-side
    repro-check smoke                         # bounded CI pass (< 30 s)

``explore`` enumerates schedules and prints the verdict distribution;
``certify`` exits non-zero unless *every* explored schedule is certified;
``counterexample`` replays the unsafe DAG baseline and prints the first
interleaving that violates the entry-point visibility obligation, with
its lock narrative; ``differential`` runs the full cross-protocol and
ablation comparison; ``smoke`` is the fast bounded variant CI runs.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import CheckError
from repro.protocol import PROTOCOLS
from repro.check.differential import (
    SAFE_PROTOCOLS,
    UNSAFE_PROTOCOLS,
    VISIBILITY_OBLIGED,
    ablation_fingerprints,
    assert_ablations_agree,
    check_rules_for,
    differential_check,
    explore_protocols,
    find_unsafe_counterexample,
    plan_cache_fingerprints,
    semantic_modes_fingerprints,
)
from repro.check.scheduler import Explorer
from repro.check.workloads import WORKLOADS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-check",
        description="schedule exploration, serializability oracle and "
        "differential protocol testing",
    )
    commands = parser.add_subparsers(dest="command")

    def common(sub):
        sub.add_argument(
            "-w", "--workload", default="partlib", choices=sorted(WORKLOADS)
        )
        sub.add_argument(
            "-p", "--protocol", default="herrmann", choices=sorted(PROTOCOLS)
        )
        sub.add_argument("--max-schedules", type=int, default=5000)
        sub.add_argument("--max-steps", type=int, default=300)
        sub.add_argument(
            "--walks",
            type=int,
            default=0,
            help="use N seeded random walks instead of exhaustive search",
        )
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument(
            "--semantic-modes",
            action="store_true",
            help="run the stack with commutativity-aware lock modes "
            "(SI/AP/INC) enabled",
        )

    commands.add_parser("list", help="available workloads and protocols")
    common(commands.add_parser("explore", help="enumerate schedules"))
    certify = commands.add_parser(
        "certify", help="fail unless all schedules pass"
    )
    common(certify)
    certify.add_argument(
        "--faults",
        metavar="SPEC",
        default=None,
        help='certify under injected faults: "seed=0..4" (seeded plans '
        'per seed), "seed=3" (one seed) or "k=1" (exhaustive k-fault '
        "enumeration)",
    )
    certify.add_argument(
        "--fault-injections",
        type=int,
        default=3,
        help="faults per seeded plan (seed= mode only)",
    )
    certify.add_argument(
        "--faults-report",
        metavar="PATH",
        default=None,
        help="write the JSON fault-certification report to PATH",
    )
    certify.add_argument(
        "--report",
        metavar="PATH",
        default=None,
        help="write the JSON certification report to PATH",
    )
    counter = commands.add_parser(
        "counterexample",
        help="show the section 3.2.2 anomaly on the unsafe baseline",
    )
    counter.add_argument(
        "-w", "--workload", default="from-the-side", choices=sorted(WORKLOADS)
    )
    counter.add_argument("--max-schedules", type=int, default=5000)
    counter.add_argument("--max-steps", type=int, default=300)
    diff = commands.add_parser(
        "differential", help="cross-protocol and ablation comparison"
    )
    diff.add_argument(
        "-w", "--workload", default="from-the-side", choices=sorted(WORKLOADS)
    )
    diff.add_argument("--max-schedules", type=int, default=5000)
    diff.add_argument("--max-steps", type=int, default=300)
    diff.add_argument("--walks", type=int, default=0)
    diff.add_argument("--seed", type=int, default=0)
    diff.add_argument(
        "--no-ablations", action="store_true", help="skip the ablation matrix"
    )
    diff.add_argument(
        "--no-plan-cache",
        action="store_true",
        help="skip the plan cache vs. uncached comparison",
    )
    diff.add_argument(
        "--no-binary-wire",
        action="store_true",
        help="skip the three-way text/binary/pipelined wire comparison",
    )
    diff.add_argument(
        "--no-semantic-modes",
        action="store_true",
        help="skip the semantic-modes flag on/off invisibility comparison",
    )
    smoke = commands.add_parser("smoke", help="bounded differential pass for CI")
    smoke.add_argument(
        "--no-binary-wire",
        action="store_true",
        help="skip the three-way text/binary/pipelined wire comparison",
    )
    return parser


def _explorer(args) -> Explorer:
    variant = {"protocol_cls": PROTOCOLS[args.protocol]}
    if getattr(args, "semantic_modes", False):
        variant["use_semantic_modes"] = True
    return Explorer(
        WORKLOADS[args.workload],
        variant=variant,
        check_rules=check_rules_for(args.protocol),
        max_schedules=args.max_schedules,
        max_steps=args.max_steps,
    )


def _report_for(args):
    explorer = _explorer(args)
    if getattr(args, "walks", 0):
        return explorer.random_walks(walks=args.walks, seed=args.seed)
    return explorer.explore()


def cmd_list(_args) -> int:
    print("workloads:")
    for name in sorted(WORKLOADS):
        print("  %-14s %s" % (name, WORKLOADS[name].description))
    print("protocols:")
    for name in sorted(PROTOCOLS):
        safety = (
            "unsafe (section 3.2.2 straw man)"
            if name in UNSAFE_PROTOCOLS
            else "safe"
        )
        obliged = (
            ", visibility-obliged" if name in VISIBILITY_OBLIGED else ""
        )
        print("  %-18s %s%s" % (name, safety, obliged))
    return 0


def cmd_explore(args) -> int:
    report = _report_for(args)
    obliged = args.protocol in VISIBILITY_OBLIGED
    verdicts = report.verdicts(visibility_obliged=obliged)
    ok = sum(1 for _, verdict in verdicts if verdict.ok)
    print(
        "%s under %s: %d schedules (%d replays, %d pruned, %s)"
        % (
            report.workload,
            report.protocol,
            len(report),
            report.replays,
            report.pruned,
            "exhaustive" if report.exhaustive else "sampled",
        )
    )
    print("  certified: %d   counterexamples: %d" % (ok, len(verdicts) - ok))
    for result, verdict in verdicts:
        if not verdict.ok:
            print("  [%s] %s" % (result.schedule_string(), verdict.describe()))
    return 0


def _parse_faults_spec(spec: str):
    """``seed=A..B`` | ``seed=N`` -> ("seed", [seeds]); ``k=N`` -> ("k", N)."""
    key, _, value = spec.partition("=")
    if not value:
        raise ValueError("bad --faults spec %r (want seed=... or k=...)" % spec)
    if key == "seed":
        if ".." in value:
            low, _, high = value.partition("..")
            return "seed", list(range(int(low), int(high) + 1))
        return "seed", [int(value)]
    if key == "k":
        return "k", int(value)
    raise ValueError("bad --faults spec %r (want seed=... or k=...)" % spec)


def cmd_certify_faults(args) -> int:
    from repro.faults import certify_faults, exhaustive_campaign

    try:
        mode, value = _parse_faults_spec(args.faults)
    except ValueError as exc:
        print(exc)
        return 2
    workload = WORKLOADS[args.workload]
    variant = {"protocol_cls": PROTOCOLS[args.protocol]}
    if mode == "seed":
        report = certify_faults(
            workload,
            value,
            n_faults=args.fault_injections,
            variant=variant,
            max_steps=args.max_steps,
        )
    else:
        runs = exhaustive_campaign(
            workload, k=value, variant=variant, max_steps=args.max_steps
        )
        report = {
            "workload": workload.name,
            "k": value,
            "plans": len(runs),
            "faults_fired": sum(len(run.fired) for run in runs),
            "violations": sum(len(run.violations) for run in runs),
            "ok": all(run.ok for run in runs),
            "runs": [run.summary() for run in runs],
        }
    if args.faults_report:
        import json

        with open(args.faults_report, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
    label = (
        "seeds %s" % ",".join(str(seed) for seed in value)
        if mode == "seed"
        else "exhaustive k=%d (%d plans)" % (value, report["plans"])
    )
    print(
        "%s under %s faults (%s): %d faults fired, %d violations"
        % (
            workload.name,
            args.protocol,
            label,
            report["faults_fired"],
            report["violations"],
        )
    )
    for run in report["runs"]:
        if run["violations"]:
            print(
                "  FAIL seed/walk %s: fired %s -> %s"
                % (run["walk_seed"], run["fired"], run["violations"][:3])
            )
    if not report["ok"]:
        return 1
    print("  certified: every injected fault cleaned up completely")
    return 0


def cmd_certify(args) -> int:
    if getattr(args, "faults", None):
        return cmd_certify_faults(args)
    report = _report_for(args)
    obliged = args.protocol in VISIBILITY_OBLIGED
    bad = report.counterexamples(visibility_obliged=obliged)
    kind = "exhaustively certified" if report.exhaustive else "sampled"
    if getattr(args, "report", None):
        import json

        payload = dict(report.summary())
        payload["semantic_modes"] = bool(
            getattr(args, "semantic_modes", False)
        )
        payload["ok"] = not bad
        with open(args.report, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print("  certification report written to %s" % args.report)
    if not bad:
        print(
            "%s under %s: all %d schedules conflict-serializable (%s)"
            % (report.workload, report.protocol, len(report), kind)
        )
        return 0
    result, verdict = bad[0]
    print(
        "%s under %s: %d of %d schedules FAIL"
        % (report.workload, report.protocol, len(bad), len(report))
    )
    print("  first: [%s] %s" % (result.schedule_string(), verdict.describe()))
    return 1


def cmd_counterexample(args) -> int:
    explorer = Explorer(
        WORKLOADS[args.workload],
        variant={"protocol_cls": PROTOCOLS["naive_dag_unsafe"]},
        check_rules=check_rules_for("naive_dag_unsafe"),
        max_schedules=args.max_schedules,
        max_steps=args.max_steps,
    )
    report = explorer.explore()
    evidence = find_unsafe_counterexample(report)
    if evidence is None:
        print(
            "no counterexample found under naive_dag_unsafe on %s "
            "(%d schedules)" % (args.workload, len(report))
        )
        return 1
    result, verdict = evidence
    print(
        "counterexample on %s under naive_dag_unsafe "
        "(explored %d schedules):" % (args.workload, len(report))
    )
    print("  interleaving: %s" % result.schedule_string())
    print("  verdict:      %s" % verdict.describe())
    for step, rule, txn, resource, detail in result.violations:
        if rule == "entry-point-visibility":
            print(
                "  step %d: %s holds %r uncovered — %s"
                % (step, txn, resource, detail)
            )
    print("  lock narrative:")
    for action, txn, resource, mode, outcome in result.trace_events:
        line = "    %-11s %-4s" % (action, txn)
        if resource is not None:
            line += " " + "/".join(str(part) for part in resource)
        if mode:
            line += " " + mode
        if outcome:
            line += " -> " + outcome
        print(line)
    return 0


def cmd_differential(args) -> int:
    try:
        summary = differential_check(
            WORKLOADS[args.workload],
            max_schedules=args.max_schedules,
            max_steps=args.max_steps,
            walks=args.walks,
            seed=args.seed,
            ablations=not args.no_ablations,
            plan_cache=not args.no_plan_cache,
            semantic_modes=not args.no_semantic_modes,
        )
    except CheckError as exc:
        print("DIFFERENTIAL FAILURE: %s" % exc)
        return 1
    _print_differential(summary)
    if not args.no_binary_wire:
        from repro.check.wire import wire_differential

        try:
            wire_summary = wire_differential()
        except CheckError as exc:
            print("DIFFERENTIAL FAILURE: %s" % exc)
            return 1
        _print_wire(wire_summary)
    return 0


def _print_wire(wire_summary) -> None:
    for script, info in wire_summary.items():
        print(
            "  wire modes invisible on %s: %d lock events + %d responses "
            "bit-identical across %s"
            % (
                script,
                info["events"],
                info["responses"],
                "/".join(info["modes"]),
            )
        )


def _print_differential(summary) -> None:
    print("workload: %s" % summary["workload"])
    print("  %-18s %10s %9s %8s %15s" % (
        "protocol", "schedules", "replays", "pruned", "verdict"
    ))
    for name, report in summary["reports"].items():
        if name in summary.get("anomalies", {}):
            verdict = "anomaly found"
        else:
            verdict = "all safe"
        print(
            "  %-18s %10d %9d %8d %15s"
            % (name, len(report), report.replays, report.pruned, verdict)
        )
    for name, (result, verdict) in summary.get("anomalies", {}).items():
        print(
            "  %s counterexample: [%s] %s"
            % (name, result.schedule_string(), verdict.describe())
        )
    if "ablation_schedules" in summary:
        print(
            "  ablations agree: %d identical schedules across refindex "
            "on/off x dense/naive mode tables" % summary["ablation_schedules"]
        )
    if "plan_cache_schedules" in summary:
        print(
            "  plan cache invisible: %d schedules with "
            "bit-identical lock traces on vs off"
            % summary["plan_cache_schedules"]
        )
    if "semantic_modes_schedules" in summary:
        print(
            "  semantic-modes flag invisible: %d schedules with "
            "bit-identical lock traces on vs off"
            % summary["semantic_modes_schedules"]
        )


def cmd_smoke(args) -> int:
    """Bounded differential pass: the CI budget is ~30 seconds."""
    failures = 0
    try:
        summary = differential_check(
            WORKLOADS["from-the-side"], max_schedules=400, max_steps=60
        )
        _print_differential(summary)
    except CheckError as exc:
        print("SMOKE FAILURE (from-the-side): %s" % exc)
        failures += 1
    try:
        reports = explore_protocols(
            WORKLOADS["partlib"],
            protocols=("herrmann", "naive_dag_unsafe"),
            max_schedules=1500,
            max_steps=80,
        )
        herrmann = reports["herrmann"]
        bad = herrmann.counterexamples(visibility_obliged=True)
        if bad or not herrmann.exhaustive:
            print("SMOKE FAILURE (partlib herrmann): %d counterexamples" % len(bad))
            failures += 1
        else:
            print(
                "partlib under herrmann: all %d schedules certified "
                "(exhaustive)" % len(herrmann)
            )
        if find_unsafe_counterexample(reports["naive_dag_unsafe"]) is None:
            print("SMOKE FAILURE (partlib unsafe): anomaly not rediscovered")
            failures += 1
        else:
            print("partlib under naive_dag_unsafe: anomaly rediscovered")
    except CheckError as exc:
        print("SMOKE FAILURE (partlib): %s" % exc)
        failures += 1
    # The plan-compilation ablation on the remaining standard workloads
    # (from-the-side is already covered by the differential pass above).
    for name, (max_schedules, max_steps) in (
        ("partlib", (400, 60)),
        ("deadlock", (400, 60)),
    ):
        try:
            fingerprints = plan_cache_fingerprints(
                WORKLOADS[name], max_schedules=max_schedules, max_steps=max_steps
            )
            schedules = assert_ablations_agree(fingerprints)
            print(
                "%s plan cache invisible: %d schedules with "
                "bit-identical lock traces on vs off" % (name, schedules)
            )
        except CheckError as exc:
            print("SMOKE FAILURE (%s plan cache): %s" % (name, exc))
            failures += 1
        try:
            fingerprints = semantic_modes_fingerprints(
                WORKLOADS[name], max_schedules=max_schedules, max_steps=max_steps
            )
            schedules = assert_ablations_agree(fingerprints)
            print(
                "%s semantic-modes flag invisible: %d schedules with "
                "bit-identical lock traces on vs off" % (name, schedules)
            )
        except CheckError as exc:
            print("SMOKE FAILURE (%s semantic modes): %s" % (name, exc))
            failures += 1
    # The commutativity headline: every admissible interleaving of the
    # shared-part insert workload is certified with the semantic modes
    # on, and the SI admissions are strictly more numerous than under X
    # (prune=False counts raw interleavings, not equivalence classes —
    # with pruning on, SI collapses the whole workload to *one* class,
    # which is the same fact seen from the other side).
    try:
        counts = {}
        for enabled in (False, True):
            explorer = Explorer(
                WORKLOADS["commuting-inserts"],
                variant={
                    "protocol_cls": PROTOCOLS["herrmann"],
                    "use_semantic_modes": enabled,
                },
                check_rules=check_rules_for("herrmann"),
                max_schedules=2000,
                max_steps=200,
                prune=False,
            )
            report = explorer.explore()
            bad = report.counterexamples(visibility_obliged=True)
            if bad or not report.exhaustive:
                print(
                    "SMOKE FAILURE (commuting-inserts semantic=%s): "
                    "%d counterexamples" % (enabled, len(bad))
                )
                failures += 1
            counts[enabled] = len(report)
        if counts[True] <= counts[False]:
            print(
                "SMOKE FAILURE (commuting-inserts): semantic modes "
                "admitted %d interleavings vs %d under X — expected "
                "strictly more" % (counts[True], counts[False])
            )
            failures += 1
        else:
            print(
                "commuting-inserts certified: %d admissible interleavings "
                "under SI vs %d under X, all serializable"
                % (counts[True], counts[False])
            )
    except CheckError as exc:
        print("SMOKE FAILURE (commuting-inserts): %s" % exc)
        failures += 1
    if not getattr(args, "no_binary_wire", False):
        from repro.check.wire import wire_differential

        try:
            _print_wire(wire_differential())
        except CheckError as exc:
            print("SMOKE FAILURE (binary wire): %s" % exc)
            failures += 1
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "list": cmd_list,
        "explore": cmd_explore,
        "certify": cmd_certify,
        "counterexample": cmd_counterexample,
        "differential": cmd_differential,
        "smoke": cmd_smoke,
        None: lambda _args: (parser.print_help(), 0)[1],
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
