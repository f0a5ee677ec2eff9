"""PlanCache: stamp-validated memoization of compiled lock plans."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.locking.plancache import CompiledPlan, PlanCache

KEY = (("db1", "seg1", "cells", "c1"), "X")
STAMP = (3, 0)
STEPS = (("db1",), ("db1", "seg1"))


@pytest.fixture
def cache():
    return PlanCache()


class TestLookupStore:
    def test_empty_lookup_is_miss(self, cache):
        assert cache.lookup(KEY, STAMP) is None
        assert cache.misses == 1
        assert cache.hits == 0

    def test_store_then_lookup_hits(self, cache):
        cache.store(KEY, STAMP, STEPS)
        assert cache.lookup(KEY, STAMP) is STEPS
        assert cache.hits == 1

    def test_hit_counts_accumulate_per_plan(self, cache):
        plan = cache.store(KEY, STAMP, STEPS)
        cache.lookup(KEY, STAMP)
        cache.lookup(KEY, STAMP)
        assert plan.hits == 2
        assert cache.hits == 2

    def test_distinct_keys_are_distinct_entries(self, cache):
        other_key = (("db1",), "S")
        cache.store(KEY, STAMP, STEPS)
        cache.store(other_key, STAMP, (("db1",),))
        assert len(cache) == 2
        assert cache.lookup(other_key, STAMP) == (("db1",),)


class TestStampInvalidation:
    def test_stale_stamp_is_invalidation_and_miss(self, cache):
        cache.store(KEY, STAMP, STEPS)
        assert cache.lookup(KEY, (4, 0)) is None
        assert cache.invalidations == 1
        assert cache.misses == 1
        assert cache.hits == 0

    def test_stale_entry_is_evicted(self, cache):
        cache.store(KEY, STAMP, STEPS)
        cache.lookup(KEY, (4, 0))
        assert len(cache) == 0

    def test_authorization_component_invalidates_too(self, cache):
        cache.store(KEY, (3, 7), STEPS)
        assert cache.lookup(KEY, (3, 8)) is None
        assert cache.invalidations == 1

    def test_restore_after_invalidation(self, cache):
        cache.store(KEY, STAMP, STEPS)
        cache.lookup(KEY, (4, 0))
        cache.store(KEY, (4, 0), STEPS)
        assert cache.lookup(KEY, (4, 0)) is STEPS


class TestEvictionAndBounds:
    def test_fifo_eviction_at_capacity(self):
        cache = PlanCache(max_steps=2 * len(STEPS))
        cache.store(("a",), STAMP, STEPS)
        cache.store(("b",), STAMP, STEPS)
        cache.store(("c",), STAMP, STEPS)  # evicts ("a",)
        assert len(cache) == 2
        assert cache.steps == 2 * len(STEPS)
        assert cache.lookup(("a",), STAMP) is None
        assert cache.lookup(("b",), STAMP) is STEPS
        assert cache.lookup(("c",), STAMP) is STEPS

    def test_clear(self, cache):
        cache.store(KEY, STAMP, STEPS)
        cache.clear()
        assert len(cache) == 0
        assert cache.lookup(KEY, STAMP) is None

    @given(
        budget=st.integers(0, 12),
        ops=st.lists(
            st.one_of(
                st.tuples(
                    st.just("store"),
                    st.integers(0, 4),
                    st.integers(0, 15),
                    st.integers(0, 1),
                ),
                st.tuples(st.just("lookup"), st.integers(0, 4), st.integers(0, 1)),
                st.tuples(st.just("clear")),
            ),
            max_size=40,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_step_budget_matches_fifo_list_model(self, budget, ops):
        """Every op is checked against a FIFO list of live
        ``[key, stamp, steps]`` entries: retained steps are the sum over
        live plans and never exceed the budget, eviction is oldest-first,
        a stale-stamp hit drops its plan, and a plan longer than the
        whole budget is served but not retained."""
        cache = PlanCache(max_steps=budget)
        model = []
        counts = {"hits": 0, "misses": 0, "invalidations": 0}
        for op in ops:
            if op[0] == "store":
                _, key, length, stamp = op
                steps = tuple(("r", i) for i in range(length))
                plan = cache.store(key, stamp, steps)
                assert plan.steps is steps
                model = [entry for entry in model if entry[0] != key]
                if length <= budget:
                    while sum(len(e[2]) for e in model) + length > budget:
                        model.pop(0)
                    model.append([key, stamp, steps])
            elif op[0] == "lookup":
                _, key, stamp = op
                found = cache.lookup(key, stamp)
                entry = next((e for e in model if e[0] == key), None)
                if entry is None:
                    counts["misses"] += 1
                    assert found is None
                elif entry[1] != stamp:
                    counts["misses"] += 1
                    counts["invalidations"] += 1
                    model.remove(entry)
                    assert found is None
                else:
                    counts["hits"] += 1
                    assert found is entry[2]
            else:
                cache.clear()
                model = []
            assert list(cache._plans) == [entry[0] for entry in model]
            assert cache.steps == sum(len(entry[2]) for entry in model)
            assert cache.steps <= budget
            assert (cache.hits, cache.misses, cache.invalidations) == (
                counts["hits"], counts["misses"], counts["invalidations"]
            )


class TestStats:
    def test_stats_keys(self, cache):
        cache.store(KEY, STAMP, STEPS)
        cache.lookup(KEY, STAMP)
        cache.lookup(("other",), STAMP)
        stats = cache.stats()
        assert stats == {
            "plan_cache_size": 1,
            "plan_cache_steps": len(STEPS),
            "plan_cache_hits": 1,
            "plan_cache_misses": 1,
            "plan_cache_invalidations": 0,
        }

    def test_reset_stats_keeps_entries(self, cache):
        cache.store(KEY, STAMP, STEPS)
        cache.lookup(KEY, STAMP)
        cache.reset_stats()
        assert cache.hits == cache.misses == cache.invalidations == 0
        assert len(cache) == 1
        assert cache.lookup(KEY, STAMP) is STEPS

    def test_slots_no_dict(self, cache):
        # hot-path records stay __slots__-only (no per-instance __dict__)
        with pytest.raises(AttributeError):
            cache.arbitrary = 1
        plan = CompiledPlan(KEY, STAMP, STEPS)
        with pytest.raises(AttributeError):
            plan.arbitrary = 1
