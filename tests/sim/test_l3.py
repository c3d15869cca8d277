"""Tests for the optional third cache level.

The paper: "the extension to additional cache levels is straightforward"
(Section III) and "C-AMAT can be further extended to the next layer of the
memory hierarchy" (Section II).  These tests exercise the three-level
engine path and the extended measurement chain.
"""

import numpy as np
import pytest

from repro.sim import CacheGeometry, DEFAULT_MACHINE, HierarchySimulator, simulate_and_measure
from repro.workloads.spec import get_benchmark
from repro.workloads.trace import Trace

KB = 1024
MB = 1024 * 1024


def three_level(l2_kb=128, l3_kb=1024, **kw):
    return DEFAULT_MACHINE.with_(
        l2=CacheGeometry(l2_kb * KB, associativity=16),
        l3=CacheGeometry(l3_kb * KB, associativity=16),
        name="3-level",
        **kw,
    )


@pytest.fixture(scope="module")
def mcf_trace():
    return get_benchmark("429.mcf").trace(8000, seed=7)


class TestConfigValidation:
    def test_l3_line_size_must_match(self):
        with pytest.raises(ValueError):
            DEFAULT_MACHINE.with_(
                l3=CacheGeometry(1 * MB, line_bytes=128, associativity=16)
            )

    def test_l3_params_validated(self):
        with pytest.raises(ValueError):
            three_level(l3_banks=3)
        with pytest.raises(ValueError):
            three_level(l3_hit_time=0)

    def test_two_level_machines_have_no_l3_records(self, mcf_trace):
        res = HierarchySimulator(DEFAULT_MACHINE, seed=0).run(mcf_trace)
        assert not res.accesses.has_l3
        assert res.accesses.n_l3_accesses == 0


class TestThreeLevelExecution:
    def test_l3_rows_match_l2_primary_misses(self, mcf_trace):
        res = HierarchySimulator(three_level(), seed=0).run(mcf_trace)
        acc = res.accesses
        primaries = int(np.count_nonzero(acc.l2_is_miss & ~acc.l2_is_secondary))
        assert acc.n_l3_accesses == primaries
        assert acc.has_l3

    def test_l3_index_mapping(self, mcf_trace):
        res = HierarchySimulator(three_level(), seed=0).run(mcf_trace)
        acc = res.accesses
        mapped = acc.l3_index[acc.l3_index >= 0]
        assert sorted(mapped.tolist()) == list(range(acc.n_l3_accesses))
        # No direct L2 -> memory rows when an L3 is present.
        assert np.all(acc.mem_index == -1)

    def test_mem_rows_hang_off_l3(self):
        # Footprint bigger than L3 so DRAM traffic exists.
        rng = np.random.default_rng(0)
        addrs = (rng.integers(0, 16 * MB, 6000) >> 6) << 6
        tr = Trace.from_memory_addresses(addrs, compute_per_access=1, name="big")
        res = HierarchySimulator(three_level(l3_kb=256), seed=0).run(tr)
        acc = res.accesses
        assert acc.n_mem_accesses > 0
        mapped = acc.l3_mem_index[acc.l3_mem_index >= 0]
        assert sorted(mapped.tolist()) == list(range(acc.n_mem_accesses))

    def test_l3_reduces_memory_pressure_for_mid_footprints(self, mcf_trace):
        small = HierarchySimulator(DEFAULT_MACHINE, seed=0)
        small.warm_caches(mcf_trace)
        two = small.run(mcf_trace)
        big = HierarchySimulator(three_level(), seed=0)
        big.warm_caches(mcf_trace)
        three = big.run(mcf_trace)
        assert three.total_cycles < two.total_cycles

    def test_l3_hit_interval_length(self, mcf_trace):
        cfg = three_level(l3_hit_time=17)
        res = HierarchySimulator(cfg, seed=0).run(mcf_trace)
        acc = res.accesses
        if acc.n_l3_accesses:
            lengths = acc.l3_hit_end - acc.l3_hit_start
            assert np.all(lengths == 17)

    def test_warm_includes_l3(self, mcf_trace):
        sim = HierarchySimulator(three_level(), seed=0)
        sim.warm_caches(mcf_trace)
        res = sim.run(mcf_trace)
        assert res.accesses.l3_miss_rate < 0.05


class TestThreeLevelMeasurement:
    def test_stats_expose_l3_layer(self, mcf_trace):
        _, st = simulate_and_measure(three_level(), mcf_trace, seed=0)
        assert st.l3 is not None
        assert st.l3.accesses > 0
        # The Eq. (2)/(3) identity holds at the third layer too.
        assert st.l3.camat_model == pytest.approx(st.l3.camat)

    def test_two_level_stats_have_no_l3(self, mcf_trace):
        _, st = simulate_and_measure(DEFAULT_MACHINE, mcf_trace, seed=0)
        assert st.l3 is None
        assert st.lpmr4 == 0.0

    def test_lpmr_chain_thins_down_the_hierarchy(self):
        rng = np.random.default_rng(0)
        addrs = (rng.integers(0, 16 * MB, 8000) >> 6) << 6
        tr = Trace.from_memory_addresses(addrs, compute_per_access=2, name="big")
        _, st = simulate_and_measure(three_level(l3_kb=256), tr, seed=0)
        # Request rates thin layer by layer, so the deeper matching ratios
        # are bounded by the shallower ones for this uniform workload.
        assert st.lpmr1 >= st.lpmr3 * 0.5
        assert st.lpmr4 > 0.0

    def test_mr3_fields_populated(self):
        rng = np.random.default_rng(0)
        addrs = (rng.integers(0, 16 * MB, 6000) >> 6) << 6
        tr = Trace.from_memory_addresses(addrs, compute_per_access=1, name="big")
        _, st = simulate_and_measure(three_level(l3_kb=256), tr, seed=0)
        assert 0.0 < st.mr3_conventional <= 1.0
        assert 0.0 < st.mr3_request <= 1.0

    def test_reconfigure_keeps_l3(self, mcf_trace):
        cfg = three_level()
        sim = HierarchySimulator(cfg, seed=0)
        sim.warm_caches(mcf_trace)
        sim.reconfigure(cfg.with_knobs(mshr_count=16))
        res = sim.run(mcf_trace)
        assert res.accesses.l3_miss_rate < 0.05
        # The L3 resources are re-provisioned like their L2 twins.
        sim.reconfigure(cfg.with_(l3_banks=2, l3_mshr_count=4))
        assert sim.l3_banks.n_banks == 2
        assert sim.l3_mshrs.capacity == 4
