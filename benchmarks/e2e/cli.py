"""Command line of the end-to-end benchmark.

One workload, as the benchmark driver calls it::

    python3 -m benchmarks.e2e --workload W --seed N --seconds S --trace 0|1

prints the run's metrics by name, the full run record as a ``#detail``
line (the suite reads it) and, as the last line of stdout, one JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace
1``: half the time untraced, half with the timing wrappers installed).

The whole suite, as a person calls it::

    python3 -m benchmarks.e2e [--json FILE] [--smoke] [--trace-out DIR]

runs every workload ``ROUNDS`` times in fresh processes, interleaved
across workloads (A B C D E F, A B ...), then one traced run each, and
prints the end-to-end table (median and min-max over the rounds,
``fail_ratio``) followed by the per-layer table.  ``--compare A.json
B.json`` holds two ``--json`` files against each other (bounds:
``metrics.compare``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Optional

from benchmarks.e2e import metrics, workloads
from benchmarks.e2e.workloads import ROOT, child_env

WARM_UP_S = 1.0
#: the suite's run length and untraced runs per workload; the driver's run
#: length is run_seconds of BENCHMARK.json
SUITE_SECONDS = 6.0
ROUNDS = 3


# -- one workload -------------------------------------------------------------


def since_process_start() -> float:
    """Seconds since the kernel started this process (``starttime`` of
    ``/proc/self/stat`` counts clock ticks since boot: 10 ms steps)."""
    with open("/proc/self/stat") as handle:
        started_ticks = int(handle.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started_ticks / os.sysconf("SC_CLK_TCK")


def run_one(name: str, seed: int, seconds: float, traced: bool,
            trace_out: Optional[str] = None, smoke: bool = False) -> dict:
    """Run one workload; returns the detail record (the ``#detail`` line)."""
    workload = workloads.make(name, smoke)
    try:
        workload.setup(seed)
        # process start -> ready for the first measured operation:
        # interpreter, imports, database build, make_stack, server boot,
        # connect, resource-table fetch
        setup_s = since_process_start()
        workload.warm_up(0.2 if smoke else WARM_UP_S)
        if traced:
            phase = workload.measure(seconds / 2)
            workload.trace_on(keep_raw=bool(trace_out))
            traced_phase = workload.measure(seconds / 2)
            spans = workload.trace_off(trace_out)
            layers = metrics.per_layer(phase, traced_phase, spans)
            phases = [phase, traced_phase]
        else:
            phase = workload.measure(seconds)
            layers, phases = {}, [phase]
        peak_rss_mb = workload.peak_rss_mb()
        problems = workload.check()
    finally:
        workload.close()
    failed = sum(one.failed for one in phases) + len(problems)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "attempted": sum(one.attempted for one in phases),
        "failed": failed,
        "problems": problems + [e for one in phases for e in one.errors],
        "end_to_end": metrics.end_to_end(phase, setup_s, peak_rss_mb),
        "per_layer": layers,
        "windows": [metrics.window_end_to_end(window) for window in phase.windows],
        "samples": {
            "txn": sum(len(window.txn_ns) for window in phase.windows),
            "req": len(phase.req_ns),
        },
        "skipped_targets": getattr(workload, "skipped", []),
    }


def print_one(detail: dict, contract: dict):
    units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    name = detail["workload"]
    windows = detail["windows"]
    print("# %s  seed=%d  seconds=%g  windows=%d  txn samples=%d  req samples=%d" % (
        name, detail["seed"], detail["seconds"], len(windows),
        detail["samples"]["txn"], detail["samples"]["req"]))
    if not detail["traced"]:
        for metric, value in detail["end_to_end"].items():
            spread = ""
            if windows and metric in windows[0]:
                values = [window[metric] for window in windows]
                spread = "  [%.6g .. %.6g]" % (min(values), max(values))
            print("%s %s %.6g %s%s" % (name, metric, value, units[metric], spread))
    else:
        for metric, value in detail["per_layer"].items():
            print("%s %s %.6g %s" % (name, metric, value, units[metric]))
        if detail["skipped_targets"]:
            print("# trace targets that no longer exist: %s" % ", ".join(detail["skipped_targets"]))
    print("%s fail_ratio %.6g ratio  (%d failed / %d attempted)" % (
        name, detail["failed"] / max(1, detail["attempted"]), detail["failed"], detail["attempted"]))
    for problem in detail["problems"][:10]:
        print("# PROBLEM %s: %s" % (name, problem))


def result_line(detail: dict, contract: dict) -> str:
    """The driver's line: exactly the metrics BENCHMARK.json lists."""
    section = "per_layer" if detail["traced"] else "end_to_end"
    values = detail[section]
    return json.dumps(
        {
            "correct": detail["failed"] == 0,
            "attempted": detail["attempted"],
            "failed": detail["failed"],
            "metrics": {
                metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
                for metric in contract[section]
            },
        }
    )


# -- the suite ----------------------------------------------------------------


def fingerprint() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "commit": commit,
        "load_average_1m": os.getloadavg()[0],
    }


def _invoke(name: str, seed: int, seconds: float, traced: bool,
            trace_out: Optional[str], smoke: bool) -> dict:
    """One run in a fresh process; its ``#detail`` line, parsed."""
    command = [
        sys.executable, "-m", "benchmarks.e2e",
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", "1" if traced else "0",
    ]
    if trace_out:
        command += ["--trace-out", trace_out]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=ROOT, env=child_env(), capture_output=True, text=True)
    for line in done.stdout.splitlines():
        if line.startswith("#detail "):
            return json.loads(line[len("#detail "):])
    raise RuntimeError("%s did not finish:\n%s%s" % (name, done.stdout, done.stderr))


def run_suite(seconds: float, smoke: bool, json_path: Optional[str],
              trace_dir: Optional[str]) -> int:
    contract = metrics.load_contract()
    names = [w["name"] for w in contract["workloads"]]
    machine = fingerprint()
    print("# %s" % json.dumps(machine))
    runs = {name: [] for name in names}  # where the end-to-end numbers come from
    traced = {}
    if not smoke:
        for index in range(ROUNDS):  # interleaved: A B C D E F, A B ...
            for name in names:
                detail = _invoke(name, index + 1, seconds, False, None, smoke)
                runs[name].append(detail)
                print("# round %d %s: %.6g txn/s" % (
                    index + 1, name, detail["end_to_end"]["txn_per_s"]), flush=True)
    for name in names:
        trace_out = None
        if trace_dir:
            os.makedirs(trace_dir, exist_ok=True)
            trace_out = os.path.join(os.path.abspath(trace_dir), name + ".spans.jsonl")
        traced[name] = _invoke(name, 1, seconds, True, trace_out, smoke)
        if smoke:
            # a smoke run has no untraced rounds: the untraced half of the
            # traced run stands in
            runs[name].append(traced[name])
        print("# traced %s" % name, flush=True)

    record = {
        "fingerprint": machine,
        "config": {"seconds": seconds, "rounds": len(runs[names[0]]), "smoke": smoke},
        "workloads": {},
    }
    print("\n== end to end (median of %d runs [min .. max]) ==" % len(runs[names[0]]))
    for name in names:
        counted = runs[name] if smoke else runs[name] + [traced[name]]
        attempted = sum(detail["attempted"] for detail in counted)
        failed = sum(detail["failed"] for detail in counted)
        entry = record["workloads"][name] = {
            "runs": {},
            "median": {},
            "windows": [detail["windows"] for detail in runs[name]],
            "attempted": attempted,
            "failed": failed,
            "fail_ratio": failed / max(1, attempted),
            "per_layer": traced[name]["per_layer"],
            "skipped_targets": traced[name]["skipped_targets"],
        }
        for metric in contract["end_to_end"]:
            values = [detail["end_to_end"][metric["name"]] for detail in runs[name]]
            entry["runs"][metric["name"]] = values
            entry["median"][metric["name"]] = statistics.median(values)
            print("%-22s %-12s %12.6g %-5s [%.6g .. %.6g]" % (
                name, metric["name"], statistics.median(values), metric["unit"],
                min(values), max(values)))
        samples = runs[name][0]["samples"]
        print("%-22s %-12s %12.6g %-5s (%d failed / %d attempted; n=%d txn, %d req per run)" % (
            name, "fail_ratio", entry["fail_ratio"], "ratio", failed, attempted,
            samples["txn"], samples["req"]))
        for detail in counted:
            for problem in detail["problems"][:5]:
                print("# PROBLEM %s: %s" % (name, problem))

    print("\n== per layer (traced run; columns: %s) ==" % " | ".join(names))
    for metric in contract["per_layer"]:
        cells = ["%10.5g" % traced[name]["per_layer"][metric["name"]] for name in names]
        print("%-42s %-6s %s" % (metric["name"], metric["unit"], " ".join(cells)))
    for name in names:
        if traced[name]["skipped_targets"]:
            print("# %s: trace targets that no longer exist: %s" % (
                name, ", ".join(traced[name]["skipped_targets"])))
    if json_path:
        with open(json_path, "w") as handle:
            json.dump(record, handle, indent=1)
    return 1 if any(entry["failed"] for entry in record["workloads"].values()) else 0


def run_compare(base_path: str, new_path: str) -> int:
    contract = metrics.load_contract()
    with open(base_path) as handle:
        base = json.load(handle)
    with open(new_path) as handle:
        new = json.load(handle)
    rows = metrics.compare(base, new, contract)
    for row in rows:
        if row["verdict"] == "missing":
            print("%-22s %-12s missing" % (row["workload"], row["metric"]))
            continue
        # a bound is a share of the base median, or (setup_s, fail_ratio)
        # so many units whatever the base
        scale, unit = (1, " " + row["unit"]) if row["absolute"] else (100, "%")
        print("%-22s %-12s %12.6g -> %12.6g %-5s worse by %+.4g%s (bound %.4g%s, spread %.4g%s)  %s" % (
            row["workload"], row["metric"], row["base"], row["new"], row["unit"],
            scale * row["worsening"], unit, scale * row["bound"], unit,
            scale * row["spread"], unit, row["verdict"]))
    mismatches = metrics.exact_count_mismatches(base, new)
    for mismatch in mismatches:
        print("exact count moved: %s" % mismatch)
    bad = [row for row in rows if row["verdict"] in ("regressed", "missing")]
    return 1 if bad or mismatches else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.e2e", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measured seconds per run (default: run_seconds of BENCHMARK.json with --workload, 6 for the suite)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="write the raw spans here (a file with --workload, a directory for the suite)")
    parser.add_argument("--json", help="suite: write every run's values and the machine fingerprint")
    parser.add_argument("--smoke", action="store_true", help="1 s runs, one traced run per workload")
    parser.add_argument("--compare", nargs=2, metavar=("BASE.json", "NEW.json"))
    args = parser.parse_args(argv)

    if args.compare:
        return run_compare(*args.compare)
    contract = metrics.load_contract()
    if not args.workload:
        seconds = args.seconds or (1.0 if args.smoke else SUITE_SECONDS)
        return run_suite(seconds, args.smoke, args.json, args.trace_out)
    seconds = args.seconds or float(contract["run_seconds"])
    shortest = workloads.WINDOW_S * (2 if args.trace else 1)
    if seconds < shortest:
        parser.error("--seconds must be at least %g: one %g s window per measured phase"
                     % (shortest, workloads.WINDOW_S))
    detail = run_one(args.workload, args.seed, seconds, bool(args.trace), args.trace_out, args.smoke)
    print_one(detail, contract)
    print("#detail " + json.dumps(detail))
    print(result_line(detail, contract))
    return 0 if detail["failed"] == 0 else 1
