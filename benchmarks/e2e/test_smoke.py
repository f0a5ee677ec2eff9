"""Smoke test of the end-to-end benchmark (run explicitly; not tier-1):

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py

Runs the whole suite in ``--smoke`` mode (1 s runs, one traced run per
workload) and holds its output to ``BENCHMARK.json``: the same workload
names, the same metric names, nothing failed.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_smoke_prints_exactly_the_contract(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    workloads = [w["name"] for w in contract["workloads"]]
    end_to_end = [m["name"] for m in contract["end_to_end"]]
    per_layer = [m["name"] for m in contract["per_layer"]]

    record_path = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--smoke", "--json", str(record_path)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr

    # the printed tables: "<workload> <metric> <value> <unit> ..." rows,
    # then "<metric> <unit> <one value per workload>" rows
    printed_end_to_end, printed_layers = {}, []
    section = None
    for line in done.stdout.splitlines():
        if line.startswith("== end to end"):
            section = "end_to_end"
        elif line.startswith("== per layer"):
            section = "per_layer"
        elif line and not line.startswith("#"):
            fields = line.split()
            if section == "end_to_end":
                printed_end_to_end.setdefault(fields[0], []).append(fields[1])
            elif section == "per_layer":
                printed_layers.append(fields[0])
                assert len(fields) == 2 + len(workloads), line
    assert list(printed_end_to_end) == workloads
    for name in workloads:
        assert printed_end_to_end[name] == end_to_end + ["fail_ratio"]
    assert printed_layers == per_layer

    # the --json record carries the same names, raw values and a fingerprint
    with open(record_path) as handle:
        record = json.load(handle)
    assert {"nproc", "cpu_model", "python", "commit", "load_average_1m"} <= set(record["fingerprint"])
    assert list(record["workloads"]) == workloads
    for name in workloads:
        entry = record["workloads"][name]
        assert list(entry["runs"]) == end_to_end
        assert list(entry["per_layer"]) == per_layer
        assert entry["fail_ratio"] == 0
        assert all(value > 0 for values in entry["runs"].values() for value in values)
