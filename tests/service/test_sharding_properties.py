"""Sharding properties: routing purity, trace identity, one victim.

Three claims certify the sharded lock table as pure deployment:

1. shard routing is a pure function of the interned resource id and is
   stable as the interner grows (ids are never reused or rebalanced);
2. any interleaving of lock operations replays bit-identically — every
   request, grant, wait, wake and release event — on N shards and on
   the single table, including the bounded differential explorer's
   schedule fingerprints on the standard check workloads;
3. a cross-shard deadlock ring is always detected and broken with
   exactly one victim.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.check.differential import assert_ablations_agree, sharded_fingerprints
from repro.check.workloads import WORKLOADS
from repro.locking.manager import LockManager
from repro.locking.modes import IS, IX, S, SIX, X
from repro.locking.trace import LockTrace
from repro.nf2.surrogate import ResourceInterner
from repro.service.sharded import ShardedLockManager, shard_of

MODES = [IS, IX, S, SIX, X]

resources_st = st.lists(
    st.tuples(
        st.sampled_from(["db1", "db2"]),
        st.integers(0, 3),
        st.integers(0, 40),
    ),
    min_size=1,
    max_size=30,
)


class TestShardRouting:
    @given(resources_st, st.integers(1, 8), resources_st)
    @settings(max_examples=100, deadline=None)
    def test_routing_stable_across_interner_growth(self, first, n_shards, later):
        """A resource's shard never changes, no matter what is interned
        after it — the property that lets clients cache routes."""
        router = ResourceInterner()
        baseline = {r: shard_of(router, r, n_shards) for r in first}
        for resource in later:
            router.intern(resource)
        for resource in first:
            assert shard_of(router, resource, n_shards) == baseline[resource]

    @given(resources_st, st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_routing_is_pure_function_of_interned_id(self, resources, n_shards):
        router = ResourceInterner()
        for resource in resources:
            shard = shard_of(router, resource, n_shards)
            assert shard == router.id_of(resource) % n_shards
            assert 0 <= shard < n_shards
            # repeat calls agree (and never grow the interner further)
            size = len(router)
            assert shard_of(router, resource, n_shards) == shard
            assert len(router) == size


def trace_tuples(trace):
    return [
        (e.action, e.txn, e.resource, str(e.mode) if e.mode else None, e.outcome)
        for e in trace.events
    ]


ops_st = st.lists(
    st.one_of(
        st.tuples(
            st.just("acquire"),
            st.integers(0, 3),  # txn index
            st.integers(0, 5),  # resource index
            st.sampled_from(MODES),
        ),
        st.tuples(st.just("release_all"), st.integers(0, 3)),
    ),
    min_size=1,
    max_size=40,
)


class TestTraceIdentity:
    @given(ops_st, st.integers(1, 8))
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_interleavings_replay_identically_on_n_shards(self, ops, n_shards):
        """The same operation sequence against a single LockManager and
        against N shards must produce identical lock-event narratives —
        grants, waits, wake order, everything."""
        txns = ["t%d" % i for i in range(4)]
        pool = [("db", "r%d" % i) for i in range(6)]
        single = LockManager()
        sharded = ShardedLockManager(n_shards=n_shards)
        results = []
        for manager in (single, sharded):
            with LockTrace.attach(manager) as trace:
                for op in ops:
                    if op[0] == "acquire":
                        _, t, r, mode = op
                        manager.acquire(txns[t], pool[r], mode)
                    else:
                        manager.release_all(txns[op[1]])
                for txn in txns:
                    manager.release_all(txn)
            results.append(
                (
                    trace_tuples(trace),
                    {txn: manager.locks_of(txn) for txn in txns},
                    manager.lock_count(),
                )
            )
        assert results[0] == results[1]

    def test_check_workload_fingerprints_bit_identical(self):
        """The acceptance bar: the differential explorer's schedule
        fingerprints (with the full lock-trace narrative) coincide on
        partlib, from-the-side and deadlock for shards=4 vs the single
        table."""
        for name in ("partlib", "from-the-side", "deadlock"):
            fingerprints = sharded_fingerprints(
                WORKLOADS[name], max_schedules=400, max_steps=80
            )
            schedules = assert_ablations_agree(fingerprints)
            assert schedules > 0


class TestCrossShardDeadlocks:
    @given(st.integers(2, 5), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_ring_detected_with_exactly_one_victim(self, ring, n_shards):
        """An N-transaction X-lock ring spanning the shards is always
        found, and resolving it aborts exactly one transaction."""
        manager = ShardedLockManager(n_shards=n_shards)
        txns = ["t%d" % i for i in range(ring)]
        pool = [("ring", i) for i in range(ring)]
        for i, txn in enumerate(txns):
            assert manager.acquire(txn, pool[i], X).granted
        for i, txn in enumerate(txns):
            assert not manager.acquire(txn, pool[(i + 1) % ring], X).granted
        # with more than one shard the ring genuinely crosses them
        if n_shards > 1 and ring >= n_shards:
            assert len({manager.shard_of(r) for r in pool}) > 1

        victims = []

        def abort(victim, cycle):
            for request in manager.table.waiting_requests_of(victim):
                manager.cancel(request)
            manager.release_all(victim)
            victims.append(victim)

        resolved = manager.detector.resolve(abort)
        assert resolved == victims
        assert len(victims) == 1
        assert manager.detect_deadlock() is None
        # the victim lost everything; the ring-1 survivors keep their
        # original lock and the one behind the victim also inherited its
        # resource: ring granted locks in total
        assert manager.locks_of(victims[0]) == {}
        assert manager.lock_count() == ring

    @given(st.integers(2, 5), st.integers(2, 8), st.integers(0, 7))
    @settings(max_examples=60, deadline=None)
    def test_victim_choice_is_shard_count_invariant(self, ring, n_shards, seed):
        """pick_victim is a pure max over the cycle, so the chosen victim
        does not depend on how the ring maps onto shards."""
        outcomes = []
        for shards in (1, n_shards):
            manager = ShardedLockManager(n_shards=shards)
            txns = ["t%d" % ((i + seed) % ring) for i in range(ring)]
            pool = [("ring", i) for i in range(ring)]
            for i, txn in enumerate(txns):
                manager.acquire(txn, pool[i], X)
            for i, txn in enumerate(txns):
                manager.acquire(txn, pool[(i + 1) % ring], X)
            cycle = manager.detect_deadlock()
            assert cycle is not None
            outcomes.append(manager.detector.pick_victim(cycle))
        assert outcomes[0] == outcomes[1]
