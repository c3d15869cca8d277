"""Property-based tests of the C-AMAT analyzer invariants.

Strategy: generate random access populations (hit interval of fixed length
H at a random start; optional miss interval appended after the hit
interval) and check the paper's structural identities on the vectorized
measurement, plus exact agreement with the cycle-stepped streaming
reference on populations crowded with ties and degenerate intervals.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analyzer import CAMATAnalyzer, LayerMeasurement, measure_layer


@st.composite
def access_population(draw, max_accesses=40, max_start=60, hit_time=3, max_penalty=12):
    n = draw(st.integers(min_value=1, max_value=max_accesses))
    hs, he, ms, me = [], [], [], []
    for _ in range(n):
        start = draw(st.integers(min_value=0, max_value=max_start))
        hs.append(start)
        he.append(start + hit_time)
        penalty = draw(st.integers(min_value=0, max_value=max_penalty))
        if penalty:
            # Penalty may begin after an arbitrary queueing delay.
            delay = draw(st.integers(min_value=0, max_value=4))
            ms.append(start + hit_time + delay)
            me.append(start + hit_time + delay + penalty)
        else:
            ms.append(0)
            me.append(0)
    return hs, he, ms, me


@st.composite
def crowded_population(draw, max_accesses=10, max_start=8):
    """Few cycles, many accesses: endpoints tie, hit times vary, a miss may
    start inside its own hit interval and may have zero length."""
    n = draw(st.integers(min_value=1, max_value=max_accesses))
    hs, he, ms, me = [], [], [], []
    for _ in range(n):
        start = draw(st.integers(min_value=0, max_value=max_start))
        end = start + draw(st.integers(min_value=1, max_value=4))
        miss_start = draw(st.integers(min_value=start, max_value=end + 3))
        hs.append(start)
        he.append(end)
        ms.append(miss_start)
        me.append(miss_start + draw(st.integers(min_value=0, max_value=6)))
    return hs, he, ms, me


def _reference(pop) -> LayerMeasurement:
    analyzer = CAMATAnalyzer()
    for access in zip(*pop):
        analyzer.add_access(*access)
    return analyzer.run()


class TestAnalyzerIdentities:
    @given(access_population())
    @settings(max_examples=120, deadline=None)
    def test_camat_equals_inverse_apc(self, pop):
        m = measure_layer(*pop)
        assert m.camat == pytest.approx(1.0 / m.apc)

    @given(access_population())
    @settings(max_examples=120, deadline=None)
    def test_eq2_matches_apc_measurement(self, pop):
        # For uniform hit times, Eq. (2) equals active_cycles/accesses exactly.
        m = measure_layer(*pop)
        assert m.camat_model == pytest.approx(m.camat)

    @given(access_population())
    @settings(max_examples=120, deadline=None)
    def test_camat_never_exceeds_amat(self, pop):
        # Concurrency can only hide latency, never add it.
        m = measure_layer(*pop)
        assert m.camat <= m.amat + 1e-9

    @given(access_population())
    @settings(max_examples=120, deadline=None)
    def test_pure_miss_rate_bounded_by_miss_rate(self, pop):
        m = measure_layer(*pop)
        assert m.pure_miss_rate <= m.miss_rate + 1e-12
        assert m.pure_miss_count <= m.miss_count

    @given(access_population())
    @settings(max_examples=120, deadline=None)
    def test_concurrencies_at_least_one(self, pop):
        m = measure_layer(*pop)
        assert m.hit_concurrency >= 1.0
        assert m.pure_miss_concurrency >= 1.0
        assert m.miss_concurrency >= 1.0

    @given(access_population())
    @settings(max_examples=120, deadline=None)
    def test_pure_miss_concurrency_bounds_conventional(self, pop):
        # Every pure miss cycle is a miss-active cycle, so pure cycles are a
        # subset; the pure-cycle total can't exceed the conventional total.
        m = measure_layer(*pop)
        assert m.pure_miss_cycles <= m.miss_active_cycles

    @given(access_population())
    @settings(max_examples=120, deadline=None)
    def test_active_cycle_partition(self, pop):
        # Every memory-active cycle is hit-active or a pure-miss cycle.
        m = measure_layer(*pop)
        assert m.active_cycles == m.hit_active_cycles + m.pure_miss_cycles

    @given(access_population())
    @settings(max_examples=120, deadline=None)
    def test_layer_eta_non_negative(self, pop):
        # The per-layer eta of Eq. (4) can exceed 1 (pAMP averages over the
        # penalty-biased pure-miss population); only non-negativity holds.
        m = measure_layer(*pop)
        assert m.eta >= 0.0

    @given(access_population())
    @settings(max_examples=120, deadline=None)
    def test_combined_eta_is_pure_cycle_fraction(self, pop):
        # The Eq. (13) combined eta algebraically reduces to
        # pure_miss_cycles / miss_active_cycles, hence always lies in [0, 1].
        from repro.core.stall import combined_eta

        m = measure_layer(*pop)
        if m.miss_count == 0 or m.avg_miss_penalty == 0.0:
            return
        value = combined_eta(
            m.pure_miss_penalty, m.avg_miss_penalty,
            m.miss_concurrency, m.pure_miss_concurrency,
            m.pure_miss_rate, m.miss_rate,
        )
        assert value == pytest.approx(m.pure_miss_cycles / m.miss_active_cycles)
        assert 0.0 <= value <= 1.0 + 1e-9

    @given(access_population())
    @settings(max_examples=120, deadline=None)
    def test_pamp_bounded_by_amp(self, pop):
        # Pure cycles of a miss are a subset of its penalty cycles, but pAMP
        # averages over *pure misses* only, so compare totals instead:
        # pAMP * pure_misses <= AMP * misses.
        m = measure_layer(*pop)
        assert (
            m.pure_miss_penalty * m.pure_miss_count
            <= m.avg_miss_penalty * m.miss_count + 1e-9
        )

    @given(access_population())
    @settings(max_examples=60, deadline=None)
    def test_hit_mass_equals_total_hit_length(self, pop):
        # Hit concurrency summed over the hit-active cycles counts every
        # (access, hit cycle) incidence once.
        hs, he, _, _ = pop
        m = measure_layer(*pop)
        total = sum(e - s for s, e in zip(hs, he))
        assert m.hit_concurrency * m.hit_active_cycles == pytest.approx(total)
        assert m.hit_active_cycles <= total

    @given(crowded_population())
    @settings(max_examples=200, deadline=None)
    def test_exactly_equals_streaming_reference(self, pop):
        # Every field is the same integer ratio on both paths, so floats
        # compare with ==, not approx.
        m = measure_layer(*pop)
        r = _reference(pop)
        for f in dataclasses.fields(m):
            assert getattr(m, f.name) == getattr(r, f.name), f.name

    @pytest.mark.parametrize("pop", [
        ([5], [7], [5], [5]),                      # single access, zero-length miss
        ([5], [9], [6], [12]),                     # miss starts inside its hit
        ([0, 0, 3], [3, 3, 6], [3, 3, 6], [8, 8, 6]),  # tied endpoints
    ])
    def test_degenerate_populations_equal_reference(self, pop):
        assert measure_layer(*pop) == _reference(pop)

    @given(access_population(max_accesses=12, max_start=20, max_penalty=6))
    @settings(max_examples=60, deadline=None)
    def test_vectorized_agrees_with_streaming_reference(self, pop):
        m = measure_layer(*pop)
        analyzer = CAMATAnalyzer()
        for hs, he, ms, me in zip(*pop):
            analyzer.add_access(hs, he, ms, me)
        r = analyzer.run()
        assert r.accesses == m.accesses
        assert r.hit_concurrency == pytest.approx(m.hit_concurrency)
        assert r.pure_miss_concurrency == pytest.approx(m.pure_miss_concurrency)
        assert r.miss_concurrency == pytest.approx(m.miss_concurrency)
        assert r.pure_miss_count == m.pure_miss_count
        assert r.pure_miss_penalty == pytest.approx(m.pure_miss_penalty)
        assert r.avg_miss_penalty == pytest.approx(m.avg_miss_penalty)
        assert r.active_cycles == m.active_cycles
        assert r.camat == pytest.approx(m.camat)


class TestAnalyzerEdgeCases:
    def test_empty_population(self):
        m = measure_layer([], [], [], [])
        assert m.accesses == 0
        assert m.camat == 0.0
        assert m.apc == 0.0

    def test_single_hit(self):
        m = measure_layer([0], [3], [0], [0])
        assert m.camat == pytest.approx(3.0)
        assert m.miss_count == 0
        assert m.eta == 0.0

    def test_single_isolated_miss_is_pure(self):
        m = measure_layer([0], [3], [3], [13])
        assert m.pure_miss_count == 1
        assert m.pure_miss_penalty == pytest.approx(10.0)
        assert m.camat == pytest.approx(13.0)
        assert m.camat == pytest.approx(m.amat)  # no concurrency to exploit

    def test_fully_hidden_miss_is_not_pure(self):
        # A long-running hit stream covers the whole miss penalty.
        m = measure_layer([0, 0], [3, 20], [3, 0], [10, 0])
        assert m.miss_count == 1
        assert m.pure_miss_count == 0
        assert m.pure_miss_rate == 0.0

    def test_memory_is_independent_of_cycle_span(self):
        # A handful of accesses spread over two million cycles: a per-cycle
        # profile would allocate tens of MB here.
        hs = np.array([0, 10, 700_000, 1_400_000, 1_999_000], dtype=np.int64)
        he = hs + 3
        ms = np.array([3, 0, 700_003, 1_400_003, 1_999_003], dtype=np.int64)
        me = np.array([650_000, 0, 1_300_000, 1_400_003, 2_000_000], dtype=np.int64)
        tracemalloc.start()
        try:
            m = measure_layer(hs, he, ms, me)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert m.miss_active_cycles == 649_997 + 599_997 + 997

    def test_rejects_empty_hit_interval(self):
        with pytest.raises(ValueError):
            measure_layer([0], [0], [0], [5])

    def test_rejects_inverted_miss_interval(self):
        with pytest.raises(ValueError):
            measure_layer([0], [3], [5], [4])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            measure_layer([0, 1], [3, 4], [0], [0])

    def test_streaming_detector_rejects_negative(self):
        from repro.core.analyzer import HitConcurrencyDetector, MissConcurrencyDetector

        with pytest.raises(ValueError):
            HitConcurrencyDetector().observe(-1)
        with pytest.raises(ValueError):
            MissConcurrencyDetector().observe(-1, False)

    def test_detector_reset(self):
        from repro.core.analyzer import HitConcurrencyDetector

        hcd = HitConcurrencyDetector()
        hcd.observe(3)
        hcd.reset()
        assert hcd.hit_active_cycles == 0
        assert hcd.hit_concurrency == 1.0


class TestSerialization:
    @given(st.one_of(access_population(), crowded_population()))
    @settings(max_examples=80, deadline=None)
    def test_to_dict_is_asdict_and_round_trips(self, pop):
        m = measure_layer(*pop)
        data = m.to_dict()
        assert data == dataclasses.asdict(m)
        assert list(data) == list(dataclasses.asdict(m))  # same key order
        assert LayerMeasurement.from_dict(data) == m
