"""The six workloads.

Each workload wires the program exactly as a user would with no options
(``repro.make_stack(database, catalog)``; ``shards=4`` behind the server)
— no ``use_*`` flag, no modelled shard service time — drives it from
outside, and hands back one :class:`Phase` per measured phase.  The
parameters below are part of the benchmark's definition: changing one
changes what every recorded number means.

``setup(seed)`` is everything between process start and the first
measured operation; ``measure(seconds)`` is one measured phase;
``check()`` is the correctness gate that closes a run.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import resource
import subprocess
import sys
import time
from time import perf_counter, perf_counter_ns
from typing import Dict, List, Optional

import repro
from repro.query import parser
from repro.sim import Simulator
from repro.sim.workload import WorkloadSpec, submit_workload
from repro.workloads import build_cells_database

from benchmarks.e2e import loadgen, trace

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def child_env() -> dict:
    """The environment of every process the benchmark starts: this
    checkout's ``benchmarks`` package and ``src/`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [ROOT, os.path.join(ROOT, "src"), env.get("PYTHONPATH", "")]
    )
    return env

#: a measured phase is cut into windows of this length; every reported
#: timing is read off the windows (``metrics.timings``), so that a noisy
#: stretch of the host moves the result only if it covers most of the run
WINDOW_S = 0.25

_CLK_TCK = os.sysconf("SC_CLK_TCK")


class Window:
    """One slice of a measured phase."""

    __slots__ = ("wall_s", "committed", "txn_ns")

    def __init__(self, wall_s: float, committed: int, txn_ns: List[int]):
        self.wall_s = wall_s
        self.committed = committed
        self.txn_ns = txn_ns  # latencies of the transactions committed in it


class Phase:
    """Raw observations of one measured phase."""

    def __init__(self):
        self.started_ns = 0
        self.wall_s = 0.0
        self.txn_ns: List[int] = []  # first attempt -> commit, per committed txn
        self.txn_end_ns: List[int] = []  # when each of those committed
        self.windows: List[Window] = []
        self.req_ns: List[int] = []  # OK frames, submit -> response (served only)
        self.attempted = 0  # transactions begun (first attempts)
        self.committed = 0
        self.failed = 0  # transactions that never succeeded
        self.attempts = 0  # first attempts + deadlock-victim retries (served only)
        self.victims = 0  # attempts ended by ERR DEADLOCK
        self.attempts_max = 0  # most attempts any one transaction needed
        self.frames_sent = 0
        self.frames = 0  # frames answered (served only)
        self.server_cpu_s = 0.0
        self.client_cpu_s = 0.0
        #: program counters, as deltas over the phase
        self.counters: Dict[str, float] = {}
        self.errors: List[str] = []  # the first few unexpected outcomes

    def note_error(self, text: str):
        if len(self.errors) < 5:
            self.errors.append(text)

    def cut_windows(self):
        """Slice the phase into whole WINDOW_S windows by commit time; the
        tail that does not fill a window (where the closed loops drain)
        is left out."""
        width = int(WINDOW_S * 1e9)
        count = int(self.wall_s * 1e9) // width
        buckets: List[List[int]] = [[] for _ in range(count)]
        for ended, latency in zip(self.txn_end_ns, self.txn_ns):
            index = (ended - self.started_ns) // width
            if index < count:
                buckets[index].append(latency)
        self.windows = [Window(WINDOW_S, len(bucket), bucket) for bucket in buckets]


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {key: after[key] - before.get(key, 0) for key in after}


def stack_counters(stack) -> Dict[str, float]:
    """The program's own counters, flattened (also sent by ``serve.py``)."""
    manager = stack.manager.metrics()
    protocol = stack.protocol.metrics()
    return {
        "table.requests": manager["requests"],
        "table.immediate_grants": manager["immediate_grants"],
        "table.waits": manager["waits"],
        "table.conflict_tests": manager["conflict_tests"],
        "table.summary_rebuilds": manager["summary_rebuilds"],
        "deadlock.found": manager["deadlocks"],
        "plancache.hits": protocol["plan_cache_hits"],
        "plancache.misses": protocol["plan_cache_misses"],
        "plancache.invalidations": protocol["plan_cache_invalidations"],
        "refindex.lookups": _index_consultations(stack.database.reference_index.stats()),
    }


def _index_consultations(stats: Dict[str, int]) -> int:
    """Direct-entry lookups plus memoized-closure hits of the reference index."""
    return stats["lookups"] + stats["memo_hits"]


# -- served -------------------------------------------------------------------


def _proc_cpu_s(pid: int) -> float:
    with open("/proc/%d/stat" % pid) as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK  # utime + stime


def _proc_peak_rss_mb(pid: int) -> float:
    with open("/proc/%d/status" % pid) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class Served:
    """One server subprocess on loopback TCP, load from this process over
    ``connections`` connections with ``clients_per_connection`` closed-loop
    logical clients on each."""

    def __init__(self, name, binary, clients_per_connection, burst, write_ratio):
        self.name = name
        self.binary = binary
        self.clients_per_connection = clients_per_connection
        self.burst = burst
        self.write_ratio = write_ratio
        self.connections = 2
        self.server: Optional[subprocess.Popen] = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.conns: list = []
        self.clients: list = []
        self.skipped: List[str] = []
        self.problems: List[str] = []
        self.affinity = None

    def setup(self, seed: int):
        self.server = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.e2e.serve"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=child_env(),
            cwd=ROOT,
            text=True,
        )
        ready = self.server.stdout.readline()
        if not ready:
            raise RuntimeError("the server process did not start")
        port = json.loads(ready)["port"]
        # One CPU for the server, another for the generator.  Left alone,
        # the scheduler's wake affinity often parks both processes on one
        # CPU (their CPU shares then sum to 1.0 and the other CPU idles)
        # and moves them between runs: the same commit then measures
        # 1150 or 1500 txn/s on served_contended_mux depending on where
        # they landed.  Apart, the server runs at ~0.95 of its CPU and is
        # the bottleneck, which is what these workloads are for.
        self.affinity = os.sched_getaffinity(0)
        cpus = sorted(self.affinity)
        if len(cpus) >= 2:
            os.sched_setaffinity(self.server.pid, {cpus[0]})
            os.sched_setaffinity(0, {cpus[1]})
        self.loop = asyncio.new_event_loop()

        async def connect():
            if self.binary:
                return [
                    await loadgen.BinaryConn.open("127.0.0.1", port)
                    for _ in range(self.connections)
                ]
            # the line protocol has no resource listing: learn the object
            # paths over a short-lived binary connection
            probe = await loadgen.BinaryConn.open("127.0.0.1", port)
            probe.close()
            return [
                await loadgen.TextConn.open("127.0.0.1", port, probe.paths)
                for _ in range(self.connections)
            ]

        self.conns = self.loop.run_until_complete(connect())
        self.clients = [
            loadgen.Client(
                conn,
                seed * 1000 + index * self.clients_per_connection + slot,
                len(conn.paths),
                self.write_ratio,
                self.burst,
            )
            for index, conn in enumerate(self.conns)
            for slot in range(self.clients_per_connection)
        ]

    def control(self, command: str) -> dict:
        self.server.stdin.write(command + "\n")
        self.server.stdin.flush()
        reply = self.server.stdout.readline()
        if not reply:
            raise RuntimeError("the server process died")
        return json.loads(reply)

    def warm_up(self, seconds: float):
        self.loop.run_until_complete(
            loadgen.run_phase(self.conns, self.clients, seconds, Phase())
        )

    def measure(self, seconds: float) -> Phase:
        out = Phase()
        before = self.control("snapshot")["counters"]
        server_cpu = _proc_cpu_s(self.server.pid)
        client_cpu = time.process_time()
        self.loop.run_until_complete(
            loadgen.run_phase(self.conns, self.clients, seconds, out)
        )
        out.client_cpu_s = time.process_time() - client_cpu
        out.server_cpu_s = _proc_cpu_s(self.server.pid) - server_cpu
        out.counters = _delta(self.control("snapshot")["counters"], before)
        out.cut_windows()
        if out.frames != out.frames_sent:
            self.problems.append(
                "%d frames sent, %d answered" % (out.frames_sent, out.frames)
            )
        return out

    def trace_on(self, keep_raw: bool):
        self.control("trace_on raw" if keep_raw else "trace_on")

    def trace_off(self, out_path: Optional[str]) -> dict:
        self.control("trace_off")
        if out_path:
            self.control("dump " + os.path.abspath(out_path))
        snap = self.control("snapshot")
        self.skipped = snap["skipped"]
        return snap["trace"]

    def check(self) -> List[str]:
        snap = self.control("snapshot")
        problems = self.problems + ["audit: " + violation for violation in snap["audit"]]
        if snap["lock_count"]:
            problems.append("%d locks still held at the end" % snap["lock_count"])
        if snap["counters"]["server.timeouts"]:
            problems.append("%d lock timeouts" % snap["counters"]["server.timeouts"])
        if snap["active_txns"]:
            problems.append("%d transactions still active" % snap["active_txns"])
        return problems

    def peak_rss_mb(self) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return own + _proc_peak_rss_mb(self.server.pid)

    def close(self):
        for conn in self.conns:
            conn.close()
        if self.loop is not None:
            # let the transports finish closing before the loop goes away
            self.loop.run_until_complete(asyncio.sleep(0))
            self.loop.close()
        if self.server is not None:
            self.server.stdin.close()  # EOF is the server's stop signal
            try:
                self.server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.server.stdout.close()
        if self.affinity is not None:
            os.sched_setaffinity(0, self.affinity)


# -- in process ---------------------------------------------------------------


class InprocQuery:
    """No service: one thread loops parse -> begin -> execute -> commit
    over a seeded mix of HDBL queries on a cells database."""

    N_OBJECTS = 30
    N_ROBOTS = 6
    N_EFFECTORS = 20

    def __init__(self, name: str, n_cells: int):
        self.name = name
        self.n_cells = n_cells
        self.stack = None
        self.tracer: Optional[trace.Tracer] = None
        self.skipped: List[str] = []

    def setup(self, seed: int):
        database, catalog = build_cells_database(
            n_cells=self.n_cells,
            n_objects=self.N_OBJECTS,
            n_robots=self.N_ROBOTS,
            n_effectors=self.N_EFFECTORS,
            seed=4,
        )
        self.stack = repro.make_stack(database, catalog)
        WorkloadSpec().grant_rights(self.stack.authorization)
        self.rng = random.Random(seed)
        self.cells = sorted(obj.key for obj in database.relation("cells"))
        self.robots = {
            key: [robot["robot_id"] for robot in database.get("cells", key).root["robots"]]
            for key in self.cells
        }
        self.effectors = sorted(obj.key for obj in database.relation("effectors"))

    def _draw(self):
        """(query text, principal, expected row count)"""
        rng = self.rng
        draw = rng.random()
        if draw < 0.5:
            return (
                "SELECT o FROM c IN cells, o IN c.c_objects "
                "WHERE c.cell_id = '%s' FOR READ" % rng.choice(self.cells),
                "engineer",
                self.N_OBJECTS,
            )
        if draw < 0.9:
            cell = rng.choice(self.cells)
            return (
                "SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = '%s' "
                "AND r.robot_id = '%s' FOR UPDATE" % (cell, rng.choice(self.robots[cell])),
                "engineer",
                1,
            )
        return (
            "SELECT e FROM e IN effectors WHERE e.eff_id = '%s' FOR UPDATE"
            % rng.choice(self.effectors),
            "librarian",
            1,
        )

    def measure(self, seconds: float) -> Phase:
        out = Phase()
        stack = self.stack
        before = stack_counters(stack)
        cpu = time.process_time()
        out.started_ns = now = perf_counter_ns()
        deadline = now + int(seconds * 1e9)
        while now < deadline:
            text, principal, expected = self._draw()
            out.attempted += 1
            begin = perf_counter_ns()
            # looked up per call, so that installed wrappers are seen
            query = parser.parse_query(text)
            txn = stack.txns.begin(principal=principal)
            rows = stack.executor.execute(txn, query)
            stack.txns.commit(txn)
            now = perf_counter_ns()
            if len(rows) != expected or stack.manager.lock_count():
                out.failed += 1
                out.note_error(
                    "%s: %d rows (expected %d), %d locks after commit"
                    % (text, len(rows), expected, stack.manager.lock_count())
                )
            else:
                out.committed += 1
                out.txn_ns.append(now - begin)
                out.txn_end_ns.append(now)
        out.wall_s = (now - out.started_ns) / 1e9
        out.client_cpu_s = time.process_time() - cpu
        out.counters = _delta(stack_counters(stack), before)
        out.cut_windows()
        return out

    def warm_up(self, seconds: float):
        self.measure(seconds)

    def trace_on(self, keep_raw: bool):
        self.tracer = trace.Tracer(keep_raw)
        trace.install_stack(self.tracer, self.stack)
        self.tracer.install({"parser": parser}, trace.PARSER_TARGETS)

    def trace_off(self, out_path: Optional[str]) -> dict:
        self.tracer.uninstall()
        if out_path:
            self.tracer.write(out_path)
        self.skipped = self.tracer.skipped
        return self.tracer.summary()

    def check(self) -> List[str]:
        problems = ["audit: %s" % v for v in repro.audit(self.stack.protocol)]
        if self.stack.manager.lock_count():
            problems.append("%d locks still held" % self.stack.manager.lock_count())
        return problems

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self):
        self.stack = None


# -- simulator ----------------------------------------------------------------


class SimContended:
    """``repro.sim`` in deterministic overload: fixed work, not fixed time.

    One round is one complete simulation of the pinned workload spec.  The
    spec's seed does **not** follow ``--seed``: deadlock dynamics are
    chaotic in it (332..890 simulated commits per wall second across spec
    seeds 1..8 on one commit), so a seed-following run would compare
    different amounts of work.  Pinned, every round does bit-identical
    work — checked: each round's exact counts must equal the first's.
    """

    name = "sim_contended"
    SPEC_SEED = 1

    def __init__(self, n_transactions: int = 1500):
        self.n_transactions = n_transactions
        self.tracer: Optional[trace.Tracer] = None
        self.fingerprint: Optional[tuple] = None
        self.prepared = None
        self.skipped: List[str] = []
        self.problems: List[str] = []

    def _prepare(self):
        database, catalog = build_cells_database(
            n_cells=8, n_objects=10, n_robots=4, n_effectors=6, seed=4
        )
        stack = repro.make_stack(database, catalog)
        spec = WorkloadSpec(
            n_transactions=self.n_transactions,
            update_fraction=0.6,
            whole_object_fraction=0.2,
            library_update_fraction=0.1,
            work_time=1.0,
            mean_interarrival=0.15,
            seed=self.SPEC_SEED,
        )
        simulator = Simulator(stack.protocol, lock_cost=0.02, scan_item_cost=0.01)
        submit_workload(simulator, catalog, spec, authorization=stack.authorization)
        if self.tracer is not None:
            trace.install_stack(self.tracer, stack)
            self.tracer.install({"sim": simulator}, trace.SIM_TARGETS)
        return stack, simulator

    def setup(self, seed: int):
        self.prepared = self._prepare()

    def _simulate(self, out: Phase):
        """One complete simulation: one window of the phase."""
        stack, simulator = self.prepared or self._prepare()
        self.prepared = None
        cpu = time.process_time()
        started = perf_counter()
        metrics = simulator.run()
        wall_s = perf_counter() - started
        out.client_cpu_s += time.process_time() - cpu
        out.wall_s += wall_s
        out.attempted += self.n_transactions
        out.committed += metrics.committed
        out.failed += self.n_transactions - metrics.committed
        # host milliseconds per simulated commit stand in for a latency:
        # simulated transactions interleave in simulated time and have no
        # wall-clock duration of their own
        per_commit_ns = int(wall_s * 1e9 / max(1, metrics.committed))
        out.windows.append(Window(wall_s, metrics.committed, [per_commit_ns]))
        for key, value in stack_counters(stack).items():
            out.counters[key] = out.counters.get(key, 0) + value
        exact = {
            "sim.locks_requested": metrics.locks_requested,
            "sim.conflict_tests": metrics.conflict_tests,
            "sim.deadlocks": metrics.deadlocks,
            "sim.restarts": metrics.restarts,
            "sim.makespan": metrics.makespan,
        }
        out.counters.update(exact)  # of one simulation, not summed
        fingerprint = tuple(sorted(exact.items()))
        if self.fingerprint is None:
            self.fingerprint = fingerprint
        elif fingerprint != self.fingerprint:
            self.problems.append(
                "simulation counts moved between runs: %r != %r"
                % (fingerprint, self.fingerprint)
            )
        self.problems.extend("audit: %s" % v for v in repro.audit(stack.protocol))
        if stack.manager.lock_count():
            self.problems.append("%d locks held after the run" % stack.manager.lock_count())

    def warm_up(self, seconds: float):
        pass  # a simulation starts cold by definition; nothing to warm

    def measure(self, seconds: float) -> Phase:
        out = Phase()
        while not out.windows or out.wall_s < seconds:
            self._simulate(out)
        return out

    def trace_on(self, keep_raw: bool):
        self.tracer = trace.Tracer(keep_raw)

    def trace_off(self, out_path: Optional[str]) -> dict:
        tracer, self.tracer = self.tracer, None
        if out_path:
            tracer.write(out_path)
        self.skipped = tracer.skipped
        return tracer.summary()

    def check(self) -> List[str]:
        return self.problems

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self):
        self.prepared = None


def make(name: str, smoke: bool = False):
    if name == "served_read_pipelined":
        return Served(name, binary=True, clients_per_connection=6, burst=True, write_ratio=0.0)
    if name == "served_contended_mux":
        return Served(name, binary=True, clients_per_connection=4, burst=False, write_ratio=0.1)
    if name == "served_text_rtt":
        return Served(name, binary=False, clients_per_connection=1, burst=False, write_ratio=0.0)
    if name == "inproc_query_fit":
        return InprocQuery(name, n_cells=40)
    if name == "inproc_query_spill":
        return InprocQuery(name, n_cells=1000)
    if name == "sim_contended":
        # a full simulation (~2.5 s) outlasts a whole smoke run
        return SimContended(300 if smoke else 1500)
    raise ValueError("unknown workload %r" % name)


NAMES = (
    "served_read_pipelined",
    "served_contended_mux",
    "served_text_rtt",
    "inproc_query_fit",
    "inproc_query_spill",
    "sim_contended",
)
