"""End-to-end benchmark of the lock service, the in-process query path and
the simulator: six workloads, client-observed metrics, and a traced
per-layer budget.  ``BENCHMARK.json`` at the repository root names every
workload and metric; ``README.md`` here explains them.

Run ``python3 -m benchmarks.e2e --help`` from the repository root.
"""
