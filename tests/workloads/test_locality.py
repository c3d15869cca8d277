"""Stack-distance profiling: brute-force cross-checks and invariants.

The Fenwick-tree histogram must agree exactly with a naive materialized
LRU stack, the derived miss-ratio curve must be a survival function
(monotone non-increasing in capacity), and the histogram must depend
only on the trace *content* — never on names, seeds, or other metadata
outside the digest.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.locality import (
    LocalityProfile,
    profile_trace,
    reuse_histogram,
)
from repro.workloads.trace import Trace


def _trace_from_lines(lines, *, name="loc", compute=2, depends=None):
    return Trace.from_memory_addresses(
        np.asarray(lines, dtype=np.int64) * 64,
        compute_per_access=compute, name=name, seed=0, depends=depends,
    )


def _naive_stack_distances(lines):
    """Materialized LRU stack: the textbook O(M^2) definition."""
    stack = []
    out = []
    for line in lines:
        if line in stack:
            idx = stack.index(line)
            out.append(idx)
            stack.pop(idx)
        else:
            out.append(-1)
        stack.insert(0, line)
    return out


def _lru_miss_ratio(lines, capacity):
    """Direct fully-associative LRU simulation at ``capacity`` lines."""
    stack = []
    misses = 0
    for line in lines:
        if line in stack:
            stack.remove(line)
        else:
            misses += 1
            if len(stack) >= capacity:
                stack.pop()
        stack.insert(0, line)
    return misses / len(lines)


@st.composite
def line_sequences(draw):
    n = draw(st.integers(min_value=1, max_value=80))
    n_lines = draw(st.integers(min_value=1, max_value=24))
    return [draw(st.integers(min_value=0, max_value=n_lines - 1)) for _ in range(n)]


class TestStackDistances:
    @given(line_sequences())
    @settings(max_examples=100, deadline=None)
    def test_matches_naive_lru_stack(self, lines):
        trace = _trace_from_lines(lines)
        hist = reuse_histogram(trace, warm=False)
        naive = _naive_stack_distances(lines)
        assert hist.cold == sum(1 for d in naive if d < 0)
        reuse = sorted(d for d in naive if d >= 0)
        expanded = sorted(
            int(d) for d, c in zip(hist.distances, hist.counts) for _ in range(c)
        )
        assert expanded == reuse

    @given(line_sequences(), st.integers(min_value=1, max_value=32))
    @settings(max_examples=100, deadline=None)
    def test_miss_fraction_matches_lru_simulation(self, lines, capacity):
        trace = _trace_from_lines(lines)
        hist = reuse_histogram(trace, warm=False)
        assert hist.miss_fraction(capacity) == pytest.approx(
            _lru_miss_ratio(lines, capacity)
        )

    @given(line_sequences())
    @settings(max_examples=60, deadline=None)
    def test_miss_fraction_monotone_in_capacity(self, lines):
        trace = _trace_from_lines(lines)
        for warm in (False, True):
            hist = reuse_histogram(trace, warm=warm)
            curve = [hist.miss_fraction(c) for c in range(0, 40)]
            assert all(a >= b for a, b in zip(curve, curve[1:]))
            assert all(0.0 <= m <= 1.0 for m in curve)

    @given(line_sequences())
    @settings(max_examples=60, deadline=None)
    def test_content_determines_histogram(self, lines):
        """Same content digest -> identical histogram, whatever the metadata."""
        a = reuse_histogram(_trace_from_lines(lines, name="first"))
        b = reuse_histogram(_trace_from_lines(lines, name="second"))
        assert a.trace_digest == b.trace_digest
        assert np.array_equal(a.distances, b.distances)
        assert np.array_equal(a.counts, b.counts)
        assert (a.cold, a.n_accesses) == (b.cold, b.n_accesses)


class TestWarmConvention:
    def test_warm_has_no_cold_misses(self):
        hist = reuse_histogram(_trace_from_lines([1, 2, 3, 1, 2, 3]), warm=True)
        assert hist.cold == 0
        assert int(hist.counts.sum()) == hist.n_accesses

    def test_warm_sees_wraparound_reuse(self):
        # A cyclic scan of 3 lines: cold-start says 3 cold misses; warm
        # steady state says every access reuses at distance 2.
        cold = reuse_histogram(_trace_from_lines([1, 2, 3]), warm=False)
        warm = reuse_histogram(_trace_from_lines([1, 2, 3]), warm=True)
        assert cold.cold == 3
        assert warm.miss_fraction(3) == 0.0
        assert warm.miss_fraction(2) == 1.0


class TestHistogramPlumbing:
    def test_line_bytes_must_be_power_of_two(self):
        trace = _trace_from_lines([1, 2, 3])
        with pytest.raises(ValueError):
            reuse_histogram(trace, line_bytes=48)

    def test_line_granularity_merges_neighbours(self):
        # Addresses 0 and 64 are distinct 64B lines but one 128B line.
        trace = Trace.from_memory_addresses(
            np.array([0, 64, 0, 64]), compute_per_access=1, name="g", seed=0
        )
        fine = reuse_histogram(trace, line_bytes=64, warm=False)
        coarse = reuse_histogram(trace, line_bytes=128, warm=False)
        assert fine.miss_fraction(1) > coarse.miss_fraction(1)


class TestLocalityProfile:
    def test_profile_statistics(self):
        dep = np.array([False, True, False, True, False, False])
        trace = _trace_from_lines([1, 2, 3, 1, 2, 3], depends=dep, compute=0)
        profile = profile_trace(trace)
        assert profile.f_mem == pytest.approx(1.0)
        assert profile.dep_frac_mem == pytest.approx(2 / 6)
        assert profile.n_instructions == trace.n_instructions
        assert profile.trace_digest == trace.content_digest()
