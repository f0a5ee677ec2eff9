"""Shared helpers for the benchmark harness (imported by bench_*.py).

Every experiment of DESIGN.md's index has one ``bench_*.py`` file.  Each
file benchmarks its core operation with pytest-benchmark **and** prints
the experiment's comparison rows (the "table/figure" the paper's
qualitative evaluation implies) — the printed rows are the reproduction
artifact, the timing is the engineering artifact.  Simulated-time metrics
are attached to ``benchmark.extra_info`` so they land in the JSON output.
"""

from __future__ import annotations

import os

import pytest

import repro
from repro.sim import Simulator, WorkloadSpec, submit_workload
from repro.workloads import build_cells_database

#: CI runs the smoke subset with REPRO_SEMANTIC=0 and =1 to show the
#: semantic-mode vocabulary leaves every benchmark's correctness
#: assertions (lock counts, tables, anomalies) untouched.  The flag only
#: widens the accepted mode set; benchmarks that demand classic modes
#: must behave identically under it.
ABLATION_FLAGS = dict(
    use_semantic_modes=os.environ.get("REPRO_SEMANTIC") == "1",
)


def make_cells_stack(protocol_cls=None, **db_kwargs):
    from repro.protocol import HerrmannProtocol

    database, catalog = build_cells_database(**db_kwargs)
    return repro.make_stack(
        database,
        catalog,
        protocol_cls=protocol_cls or HerrmannProtocol,
        **ABLATION_FLAGS,
    )


def run_simulation(protocol_cls, spec: WorkloadSpec, **db_kwargs):
    stack = make_cells_stack(protocol_cls, **db_kwargs)
    simulator = Simulator(stack.protocol, lock_cost=0.02, scan_item_cost=0.01)
    submit_workload(simulator, stack.catalog, spec, authorization=stack.authorization)
    return simulator.run()


def print_table(title, header, rows):
    """Render one experiment table to stdout (visible with pytest -s and
    captured into bench_output.txt by the harness run)."""
    print()
    print("== %s ==" % title)
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) for i, h in enumerate(header)]
    line = "  ".join(str(h).ljust(w) for h, w in zip(header, widths))
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
