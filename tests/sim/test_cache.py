"""Unit and property tests for the functional cache model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.cache import FunctionalCache
from repro.sim.params import CacheGeometry


def small_cache(assoc=2, sets=4, line=64):
    geom = CacheGeometry(
        size_bytes=line * assoc * sets, line_bytes=line, associativity=assoc,
    )
    return FunctionalCache(geom)


def addr(set_idx, tag, line=64, sets=4):
    return ((tag * sets + set_idx) * line)


class TestGeometry:
    def test_derived_fields(self):
        geom = CacheGeometry(32 * 1024, line_bytes=64, associativity=8)
        assert geom.n_sets == 64
        assert geom.offset_bits == 6

    def test_rejects_non_power_of_two_size(self):
        with pytest.raises(ValueError):
            CacheGeometry(30 * 1000)

    def test_rejects_inconsistent_shape(self):
        # 32 KB with 64 B lines and assoc 3: 170.67 sets — not a power of two.
        with pytest.raises(ValueError):
            CacheGeometry(32 * 1024, line_bytes=64, associativity=3)

    def test_rejects_cache_smaller_than_one_set(self):
        with pytest.raises(ValueError):
            CacheGeometry(64, line_bytes=64, associativity=2)


class TestBasicOperation:
    def test_cold_miss_then_hit(self):
        c = small_cache()
        assert not c.lookup(0)
        c.insert(0)
        assert c.lookup(0)

    def test_same_line_different_word_hits(self):
        c = small_cache()
        c.insert(0)
        assert c.lookup(8)
        assert c.lookup(63)

    def test_contains_does_not_promote(self):
        c = small_cache(assoc=2)
        a0, a1, a2 = addr(0, 0), addr(0, 1), addr(0, 2)
        c.insert(a0)
        c.insert(a1)
        assert c.contains(a0)
        assert not c.contains(4096)
        c.insert(a2)  # a0 is still the least recently used
        assert not c.contains(a0)

    def test_insert_evicts_the_least_recent_block(self):
        c = small_cache(assoc=2)
        a0, a1, a2 = addr(0, 0), addr(0, 1), addr(0, 2)
        c.insert(a0)
        c.insert(a1)
        c.insert(a2)
        assert not c.contains(a0)
        assert c.contains(a1) and c.contains(a2)

    def test_reinsert_resident_block_evicts_nothing(self):
        c = small_cache(assoc=2)
        c.insert(addr(0, 0))
        c.insert(addr(0, 1))
        c.insert(addr(0, 0))
        sets = c.lru_hot_state()[0]
        assert sum(len(ways) for ways in sets.values()) == 2
        c.insert(addr(0, 2))  # the refresh made addr(0, 1) the oldest
        assert c.contains(addr(0, 0)) and not c.contains(addr(0, 1))

    def test_set_isolation(self):
        c = small_cache(assoc=1, sets=4)
        c.insert(addr(0, 0))
        c.insert(addr(1, 0))
        assert c.contains(addr(0, 0))
        assert c.contains(addr(1, 0))


class TestLRUStackProperty:
    """LRU inclusion: a larger LRU cache contains everything a smaller one does."""

    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_inclusion(self, lines):
        # Fully-associative LRU pair (1 set) with assoc 4 and 8.
        small = small_cache(assoc=4, sets=1)
        big = small_cache(assoc=8, sets=1)
        for line_no in lines:
            a = line_no * 64
            if not small.lookup(a):
                small.insert(a)
            if not big.lookup(a):
                big.insert(a)
        for line_no in set(lines):
            a = line_no * 64
            if small.contains(a):
                assert big.contains(a)

    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_miss_count_monotone_in_size(self, lines):
        small = small_cache(assoc=4, sets=1)
        big = small_cache(assoc=8, sets=1)
        misses = [0, 0]
        for line_no in lines:
            a = line_no * 64
            for i, c in enumerate((small, big)):
                if not c.lookup(a):
                    misses[i] += 1
                    c.insert(a)
        assert misses[1] <= misses[0]


class TestReplacementPolicies:
    def test_lru_promotes_on_hit(self):
        c = small_cache(assoc=2)
        a0, a1, a2 = addr(0, 0), addr(0, 1), addr(0, 2)
        c.insert(a0)
        c.insert(a1)
        c.lookup(a0)          # promote a0
        c.insert(a2)
        assert c.contains(a0) and not c.contains(a1)

    def test_capacity_never_exceeded(self):
        c = small_cache(assoc=4, sets=2)
        rng = np.random.default_rng(0)
        for a in rng.integers(0, 64, 500):
            line = int(a) * 64
            if not c.lookup(line):
                c.insert(line)
        sets = c.lru_hot_state()[0]
        assert all(len(ways) <= 4 for ways in sets.values())

    def test_working_set_within_capacity_has_no_capacity_misses(self):
        c = small_cache(assoc=4, sets=2)
        lines = [addr(s, t, sets=2) for s in range(2) for t in range(4)]
        for a in lines:
            c.insert(a)
        for _ in range(10):
            for a in lines:
                assert c.lookup(a)


class TestWarming:
    def test_warm_lookup_array_fills_without_stats(self):
        c = small_cache(assoc=8, sets=1)
        c.warm_lookup_array(np.array([0, 64, 128]))
        assert c.contains(0) and c.contains(64) and c.contains(128)


def _replay_warm(cache, addresses):
    """The per-address warm walk: probe, fill on a miss."""
    for a in addresses:
        if not cache.lookup(int(a)):
            cache.insert(int(a))


def _contents(cache):
    """Outer set order and, per set, the resident tags in LRU order."""
    return [(i, list(s)) for i, s in cache._sets.items()]


@st.composite
def warm_case(draw):
    """A geometry, the accesses that fill it first, and 1-3 warm chunks."""
    assoc = draw(st.sampled_from([1, 2, 4, 8, 16]))
    sets = draw(st.sampled_from([1, 2, 4, 16, 64]))
    span = draw(st.integers(min_value=1, max_value=4 * assoc * sets))
    stride = draw(st.sampled_from([1, 8, 64, 72]))
    addrs = st.lists(st.integers(min_value=0, max_value=span), max_size=300).map(
        lambda xs: np.array(xs, dtype=np.int64) * stride
    )
    return (
        assoc, sets, draw(addrs),
        draw(st.lists(addrs, min_size=1, max_size=3)),
    )


class TestWarmEquivalence:
    """``warm_lookup_array`` leaves exactly the state of a per-address walk."""

    @given(warm_case())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_address_walk(self, case):
        assoc, sets, prefill, chunks = case
        got = small_cache(assoc=assoc, sets=sets)
        want = small_cache(assoc=assoc, sets=sets)
        for cache in (got, want):
            # Live traffic first, so warming starts from resident blocks.
            _replay_warm(cache, prefill)
        for chunk in chunks:
            got.warm_lookup_array(chunk)
            _replay_warm(want, chunk)
            assert _contents(got) == _contents(want)

    def test_engine_keeps_its_bound_lru_state(self):
        c = small_cache(assoc=2, sets=4)
        c.insert(addr(1, 5))
        sets = c.lru_hot_state()[0]
        inner = sets[1]
        c.warm_lookup_array(np.array([addr(1, 6), addr(2, 1), addr(1, 7)]))
        assert c.lru_hot_state()[0] is sets and sets[1] is inner
        assert list(sets) == [1, 2] and list(inner) == [6, 7]
