"""Unit tests for the measurement glue in repro.sim.stats."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.analyzer import measure_layer
from repro.core.lpm import CPI_EXE_FLOOR, MAX_OVERLAP
from repro.sim.stats import HierarchyStats, measure_hierarchy, simulate_and_measure
from repro.sim import DEFAULT_MACHINE, HierarchySimulator
from repro.workloads.trace import Trace


def _layer(hs, he, ms, me):
    return measure_layer(hs, he, ms, me)


def make_stats(**overrides) -> HierarchyStats:
    l1 = _layer([0, 3], [3, 6], [3, 0], [13, 0])
    l2 = _layer([4], [12], [0], [0])
    mem = measure_layer([], [], [], [])
    base = dict(
        l1=l1, l2=l2, mem=mem,
        cpi=1.0, cpi_exe=0.5, f_mem=0.4, n_instructions=100,
        mr1_conventional=0.5, mr1_request=0.5,
        mr2_conventional=0.0, mr2_request=0.0,
    )
    base.update(overrides)
    return HierarchyStats(**base)


class TestDerivedQuantities:
    def test_stall_per_instruction(self):
        st = make_stats(cpi=1.2, cpi_exe=0.5)
        assert st.stall_per_instruction == pytest.approx(0.7)

    def test_stall_clamped_at_zero(self):
        st = make_stats(cpi=0.4, cpi_exe=0.5)
        assert st.stall_per_instruction == 0.0

    def test_stall_fraction(self):
        st = make_stats(cpi=1.0, cpi_exe=0.5)
        assert st.stall_fraction_of_compute == pytest.approx(1.0)

    def test_overlap_ratio_in_range(self):
        st = make_stats()
        assert 0.0 <= st.overlap_ratio_cm < 1.0

    def test_overlap_ratio_zero_when_stall_exceeds_activity(self):
        st = make_stats(cpi=100.0, cpi_exe=0.5)
        assert st.overlap_ratio_cm == 0.0

    def test_overlap_capped_below_one_when_no_stall(self):
        st = make_stats(cpi=0.5, cpi_exe=0.5)
        assert st.overlap_ratio_cm < 1.0

    def test_eta_combined_is_pure_cycle_fraction(self):
        st = make_stats()
        expected = st.l1.pure_miss_cycles / st.l1.miss_active_cycles
        assert st.eta_combined == pytest.approx(expected)

    def test_eta_zero_without_misses(self):
        hit_only = _layer([0], [3], [0], [0])
        st = make_stats(l1=hit_only)
        assert st.eta_combined == 0.0

    def test_lpmr_formulas(self):
        st = make_stats()
        assert st.lpmr1 == pytest.approx(st.l1.camat * 0.4 / 0.5)
        assert st.lpmr2 == pytest.approx(st.l2.camat * 0.4 * 0.5 / 0.5)
        assert st.lpmr3 == 0.0  # no memory accesses

    def test_apc_accessors(self):
        st = make_stats()
        assert st.apc1 == st.l1.apc
        assert st.apc2 == st.l2.apc

    def test_ipc(self):
        assert make_stats(cpi=2.0).ipc == pytest.approx(0.5)

    def test_lpmr_report_threshold_path_with_zero_eta(self):
        # eta == 0 must yield an infinite T2 (vacuous L2 constraint), not an
        # exception (regression test for the threshold_t2 guard).
        hit_only = _layer([0], [3], [0], [0])
        st = make_stats(l1=hit_only, cpi=0.5, cpi_exe=0.5)
        th = st.lpmr_report().thresholds(10.0)
        assert th.t2 == float("inf")


class TestMeasureHierarchy:
    def test_empty_memory_layer(self):
        tr = Trace(is_mem=np.zeros(50, bool), address=np.zeros(50, np.int64),
                   is_load=np.zeros(50, bool))
        sim = HierarchySimulator(DEFAULT_MACHINE)
        res = sim.run(tr)
        st = measure_hierarchy(res, cpi_exe=res.cpi)
        assert st.l1.accesses == 0
        assert st.mem.accesses == 0
        assert st.f_mem == 0.0
        assert st.lpmr1 == 0.0

    def test_warm_flag_changes_miss_rate(self):
        addrs = (np.arange(600, dtype=np.int64) % 300) * 64
        tr = Trace.from_memory_addresses(addrs, compute_per_access=1)
        _, cold = simulate_and_measure(DEFAULT_MACHINE, tr, warm=False)
        _, warmed = simulate_and_measure(DEFAULT_MACHINE, tr, warm=True)
        assert warmed.mr1_conventional <= cold.mr1_conventional

    def test_cpi_exe_from_perfect_run_is_attached(self):
        addrs = np.arange(400, dtype=np.int64) * 64
        tr = Trace.from_memory_addresses(addrs, compute_per_access=2)
        _, st = simulate_and_measure(DEFAULT_MACHINE, tr)
        assert 0 < st.cpi_exe <= st.cpi


class TestSharedModelConstants:
    """The overlap cap and the CPI_exe floor reach every consumer."""

    @pytest.fixture(scope="class")
    def measured(self):
        addrs = (np.arange(800, dtype=np.int64) % 500) * 64
        tr = Trace.from_memory_addresses(addrs, compute_per_access=2)
        return simulate_and_measure(DEFAULT_MACHINE, tr)[1]

    def test_zero_stall_overlap_is_the_cap(self, measured):
        no_stall = replace(measured, cpi=measured.cpi_exe)
        assert no_stall.stall_per_instruction == 0.0
        assert no_stall.overlap_ratio_cm == MAX_OVERLAP < 1.0
        assert no_stall.stall_model.overlap_ratio_cm == MAX_OVERLAP
        assert no_stall.lpmr_report().overlap_ratio_cm == MAX_OVERLAP

    def test_zero_cpi_exe_is_floored(self, measured):
        degenerate = replace(measured, cpi_exe=0.0)
        assert degenerate.stall_model.cpi_exe == CPI_EXE_FLOOR
        assert degenerate.lpmr_report().cpi_exe == CPI_EXE_FLOOR
