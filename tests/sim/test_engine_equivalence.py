"""Bit-for-bit equivalence of the fast, batch and reference engines.

The fast path (`engine="auto"`) and the vectorized batch kernel
(:class:`~repro.sim.batch.BatchHierarchySimulator`) are specializations of
the reference issue loop, not approximations: on every eligible
workload/machine pair they must produce byte-identical access records,
instruction records and component statistics.  This suite sweeps the
workload-generator matrix (strided / working-set / zipf / pointer-chase),
warm and cold caches, and the Table I machines three ways, the kernel as
a one-lane batch; the kernel additionally runs *multi-lane* — one kernel
call stepping a heterogeneous config slice — against per-config reference
runs, with failure diffs that name the config lane, the divergent field
and the first divergent row.  The fast loop also runs the stride prefetcher and
the stream-bypass detector: prefetch, bypass and prefetch+bypass configs
match the reference loop on every `SimulationResult` field and on the
units' training state over the generator matrix, across resumed quanta,
with an L3, with a shared out-of-order L2 MSHR file (`sim.multicore`)
and in a hypothesis sweep of the `PrefetchConfig`/`BypassConfig` fields.
The gates are pinned down too: `engine="auto"` never enters the
reference loop, real or perfect, on any config (multicore included), and
the batch kernel still rejects prefetch and bypass configs.  The
core-only perfect-L1 loop that `auto` runs for every config is held to
the reference loop's perfect branch across resumed quanta.  The
reference loop itself is pinned by committed digests
(`test_engine_oracle.py`).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.errors import ConfigError
from repro.sim import DEFAULT_MACHINE, HierarchySimulator, table1_config
from repro.sim.batch import BatchHierarchySimulator
from repro.sim.engine import batch_eligible
from repro.sim.params import CacheGeometry, MachineConfig
from repro.sim.prefetch import BypassConfig, PrefetchConfig
from repro.sim.stats import BATCH_MIN_LANES, dispatch_plan
from repro.workloads.generators import (
    pointer_chase_addresses,
    strided_addresses,
    working_set_addresses,
    zipf_addresses,
)
from repro.workloads.trace import Trace

N = 4_000
FOOTPRINT = 256 * 1024  # larger than L1, smaller than L2: exercises both

#: A small heterogeneous design-space slice: Table I cores plus an
#: undersized-L1 variant so lanes disagree on geometry, not just knobs.
BATCH_SLICE = [
    DEFAULT_MACHINE,
    table1_config("A"),
    table1_config("C"),
    table1_config("E"),
    DEFAULT_MACHINE.with_knobs(l1_size_bytes=16 * 1024, name="L1-16KB"),
]


def _make_trace(kind: str) -> Trace:
    if kind == "strided":
        addrs = strided_addresses(N, footprint_bytes=FOOTPRINT, stride_bytes=72)
        depends = None
    elif kind == "working_set":
        addrs = working_set_addresses(N, footprint_bytes=FOOTPRINT, seed=5)
        depends = None
    elif kind == "zipf":
        addrs = zipf_addresses(N, footprint_bytes=FOOTPRINT, alpha=1.1, seed=5)
        depends = None
    elif kind == "pointer_chase":
        addrs = pointer_chase_addresses(N, footprint_bytes=FOOTPRINT, seed=5)
        depends = np.ones(N, dtype=bool)
    elif kind == "interleaved":
        # Two line streams 2 KB apart in one 4 KB region, each line touched
        # twice: the second touch is an L1-MSHR secondary miss whose block
        # is not the region's last one, so training on it would show.
        step = np.arange(N // 4) * 64
        addrs = np.stack([step, step + 2048, step + 8, step + 2056], axis=1).ravel()
        depends = None
    else:  # pragma: no cover - parametrization guard
        raise AssertionError(kind)
    return Trace.from_memory_addresses(
        addrs, compute_per_access=2, load_fraction=0.8, name=kind,
        seed=9, depends=depends,
    )


def _field_diff(name: str, got, want, *, lane: str) -> str:
    """A failure message naming the lane, field and first divergent row."""
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        return f"{lane}: field {name!r} shape {got.shape} != {want.shape}"
    bad = np.nonzero(got != want)[0]
    first = int(bad[0])
    return (
        f"{lane}: field {name!r} diverges first at row {first} "
        f"(got {got[first]!r}, want {want[first]!r}; "
        f"{bad.size}/{got.size} rows differ)"
    )


def _assert_identical(res_got, res_ref, *, lane: str = "single") -> None:
    for rec_name in ("accesses", "instructions"):
        got_rec = getattr(res_got, rec_name)
        ref_rec = getattr(res_ref, rec_name)
        for f in dataclasses.fields(ref_rec):
            a = getattr(got_rec, f.name)
            b = getattr(ref_rec, f.name)
            assert a.dtype == b.dtype, f"{lane}: {f.name} dtype {a.dtype} != {b.dtype}"
            if not np.array_equal(a, b):
                pytest.fail(_field_diff(f.name, a, b, lane=lane))
    assert res_got.component_stats == res_ref.component_stats, (
        f"{lane}: component_stats differ"
    )


def _assert_same_result(got, want, *, lane: str) -> None:
    """Every :class:`SimulationResult` field, records and scalars alike."""
    _assert_identical(got, want, lane=lane)
    assert (got.config, got.trace_name, got.instructions_executed) == (
        want.config, want.trace_name, want.instructions_executed
    ), lane


def _run_both(config: MachineConfig, trace: Trace, *, warm: bool,
              engines=("auto", "reference")):
    """One result per engine; ``"batch"`` is the kernel with one lane."""
    results = []
    for engine in engines:
        if engine == "batch":
            kernel = BatchHierarchySimulator([config], seed=0)
            runs = [kernel.run(trace)[0] for _ in range(1 + warm)]
        else:
            sim = HierarchySimulator(config, seed=0, engine=engine)
            runs = [sim.run(trace) for _ in range(1 + warm)]
        results.append(runs[-1])
    return results


def _reference_runs(configs, trace, *, warm: bool, perfect: bool = False):
    out = []
    for config in configs:
        sim = HierarchySimulator(config, seed=0, engine="reference")
        if warm:
            sim.run(trace)
        out.append(sim.run(trace, perfect=perfect))
    return out


def _batch_runs(configs, trace, *, warm: bool, perfect: bool = False):
    sim = BatchHierarchySimulator(configs, seed=0)
    if warm:
        sim.run(trace)
    return sim.run(trace, perfect=perfect)


def _assert_batch_matches_reference(configs, trace, *, warm: bool,
                                    perfect: bool = False):
    ref = _reference_runs(configs, trace, warm=warm, perfect=perfect)
    got = _batch_runs(configs, trace, warm=warm, perfect=perfect)
    assert len(got) == len(configs)
    for idx, (config, res_ref, res_batch) in enumerate(zip(configs, ref, got)):
        _assert_identical(res_batch, res_ref, lane=f"lane {idx} ({config.name})")


class TestGeneratorMatrix:
    @pytest.mark.parametrize("kind", ["strided", "working_set", "zipf",
                                      "pointer_chase"])
    @pytest.mark.parametrize("warm", [False, True])
    def test_bit_identical(self, kind, warm):
        res_fast, res_batch, res_ref = _run_both(
            DEFAULT_MACHINE, _make_trace(kind), warm=warm,
            engines=("auto", "batch", "reference"),
        )
        _assert_identical(res_fast, res_ref, lane="fast")
        _assert_identical(res_batch, res_ref, lane="batch")

    @pytest.mark.parametrize("label", ["A", "C", "E"])
    def test_table1_machines(self, label):
        res_fast, res_batch, res_ref = _run_both(
            table1_config(label), _make_trace("working_set"), warm=False,
            engines=("auto", "batch", "reference"),
        )
        _assert_identical(res_fast, res_ref, lane="fast")
        _assert_identical(res_batch, res_ref, lane="batch")

    def test_benchmark_profile_trace(self):
        from repro.workloads.spec import get_benchmark

        trace = get_benchmark("403.gcc").trace(3_000, seed=1)
        res_fast, res_batch, res_ref = _run_both(
            DEFAULT_MACHINE, trace, warm=False,
            engines=("auto", "batch", "reference"),
        )
        _assert_identical(res_fast, res_ref, lane="fast")
        _assert_identical(res_batch, res_ref, lane="batch")

    def test_stop_cycle_truncation(self):
        trace = _make_trace("working_set")
        sims = [HierarchySimulator(DEFAULT_MACHINE, seed=0, engine=e)
                for e in ("auto", "reference")]
        res_fast, res_ref = (s.run(trace, stop_cycle=5_000) for s in sims)
        assert res_fast.instructions.n_instructions < trace.n_instructions
        _assert_identical(res_fast, res_ref, lane="fast")


class TestBatchMultiLane:
    """One kernel call stepping a heterogeneous slice == N reference runs."""

    @pytest.mark.parametrize("kind", ["strided", "working_set", "zipf",
                                      "pointer_chase"])
    @pytest.mark.parametrize("warm", [False, True])
    def test_slice_bit_identical(self, kind, warm):
        _assert_batch_matches_reference(BATCH_SLICE, _make_trace(kind),
                                        warm=warm)

    def test_perfect_mode(self):
        _assert_batch_matches_reference(BATCH_SLICE, _make_trace("zipf"),
                                        warm=False, perfect=True)

    def test_l3_configured_lane(self):
        l3_config = dataclasses.replace(
            DEFAULT_MACHINE,
            l3=CacheGeometry(2 * 1024 * 1024, line_bytes=64,
                             associativity=16),
            name="with-L3",
        )
        _assert_batch_matches_reference([DEFAULT_MACHINE, l3_config],
                                        _make_trace("zipf"), warm=True)

    def test_full_l2_mshr_file_lane(self):
        # One L2 MSHR behind four L1 MSHRs: on a cold miss-heavy trace the
        # lane's L2 misses queue for the single register.
        configs = [DEFAULT_MACHINE,
                   DEFAULT_MACHINE.with_(l2_mshr_count=1, name="L2-MSHR-1")]
        trace = _make_trace("strided")
        _assert_batch_matches_reference(configs, trace, warm=False)
        ref = HierarchySimulator(configs[1], seed=0, engine="reference")
        ref.run(trace)
        assert ref.l2_mshrs.full_stall_cycles > 0

    def test_sequential_runs_carry_warm_state(self):
        # Two runs on one batch instance == two runs on each reference
        # instance: cache/DRAM/port state carries across runs per lane.
        trace = _make_trace("working_set")
        batch = BatchHierarchySimulator(BATCH_SLICE, seed=0)
        refs = [HierarchySimulator(c, seed=0, engine="reference")
                for c in BATCH_SLICE]
        for round_no in range(2):
            got = batch.run(trace)
            for idx, (config, ref) in enumerate(zip(BATCH_SLICE, refs)):
                _assert_identical(
                    got[idx], ref.run(trace),
                    lane=f"round {round_no}, lane {idx} ({config.name})",
                )


#: Machines whose miss walk stalls: one L1 MSHR, and one L2 MSHR behind
#: eight L1 ones.  The 64 KB L2 keeps the 256 KB working set missing in it
#: on every run, not just the cold one.
STALLING_MACHINES = [
    DEFAULT_MACHINE.with_knobs(mshr_count=1, name="L1-MSHR-1").with_(
        l2=CacheGeometry(64 * 1024, associativity=8)),
    DEFAULT_MACHINE.with_knobs(mshr_count=8, name="L2-MSHR-1").with_(
        l2=CacheGeometry(64 * 1024, associativity=8), l2_mshr_count=1),
]


def _folded_state(sim: HierarchySimulator) -> dict:
    """The component state the walk below the L1 keeps in locals during a
    run and folds back into the simulator when it closes."""
    state = {"last_l2_req": sim._last_l2_req, "last_mem_req": sim._last_mem_req,
             "l2_bank_grants": sim.l2_banks.grants,
             "l2_bank_wait": sim.l2_banks.total_wait}
    for level, mshrs in (("l1", sim.l1_mshrs), ("l2", sim.l2_mshrs)):
        state.update({
            f"{level}_mshr_now": mshrs._now,
            f"{level}_mshr_primary": mshrs.primary_misses,
            f"{level}_mshr_secondary": mshrs.secondary_misses,
            f"{level}_mshr_stall": mshrs.full_stall_cycles,
            f"{level}_mshr_peak": mshrs.peak_occupancy,
        })
    return state


class TestFoldedState:
    """What the fast loop and the kernel lanes fold back after a run: the
    MSHR, L2 bank and request-clamp state, and the ``sim.*`` metrics read
    from it, equal the reference loop's after each of two runs."""

    @pytest.fixture(autouse=True)
    def _metrics_on(self):
        from repro.obs import metrics as obs_metrics

        obs_metrics.set_metrics_enabled(True)
        yield
        obs_metrics.set_metrics_enabled(False)
        obs_metrics.get_registry().reset()

    @staticmethod
    def _measured(run) -> dict:
        """The ``sim.*`` counters and gauges that *run* records alone."""
        from repro.obs import metrics as obs_metrics

        registry = obs_metrics.get_registry()
        registry.reset()
        run()
        snap = registry.snapshot()
        return {name: value
                for kind in ("counters", "gauges")
                for name, value in snap[kind].items() if name.startswith("sim.")}

    def test_two_runs_fold_like_the_reference(self):
        trace = _make_trace("working_set")
        refs = [HierarchySimulator(c, seed=0, engine="reference")
                for c in STALLING_MACHINES]
        fasts = [HierarchySimulator(c, seed=0) for c in STALLING_MACHINES]
        kernel = BatchHierarchySimulator(STALLING_MACHINES, seed=0)
        for round_no in range(2):
            want = self._measured(lambda: [ref.run(trace) for ref in refs])
            assert want["sim.l1.mshr_stall_cycles"] > 0
            assert want["sim.l2.mshr_stall_cycles"] > 0
            got_fast = self._measured(lambda: [sim.run(trace) for sim in fasts])
            got_batch = self._measured(lambda: kernel.run(trace))
            assert got_fast == want, f"fast loop, round {round_no}"
            assert got_batch == want, f"batch kernel, round {round_no}"
            for idx, config in enumerate(STALLING_MACHINES):
                state = _folded_state(refs[idx])
                lane = f"{config.name}, round {round_no}"
                assert _folded_state(fasts[idx]) == state, f"fast loop, {lane}"
                assert _folded_state(kernel.lane_sims[idx]) == state, (
                    f"batch kernel, {lane}"
                )


SPEC_PROFILES_16 = [
    "400.perlbench", "401.bzip2", "403.gcc", "410.bwaves", "416.gamess",
    "429.mcf", "433.milc", "434.zeusmp", "435.gromacs", "436.cactusADM",
    "437.leslie3d", "444.namd", "445.gobmk", "450.soplex", "456.hmmer",
    "458.sjeng",
]


class TestSpecProfileSweep:
    """Equivalence-matrix sweep over the 16 SPEC-profile generators.

    Reduced scale (1.5k accesses, two-lane slice) keeps the sweep under
    test-suite budget while still touching every profile's kernel mixture;
    a kernel regression is diagnosable from the failure message alone
    (config lane, field, first divergent row).
    """

    @pytest.mark.parametrize("profile", SPEC_PROFILES_16)
    def test_profile_bit_identical(self, profile):
        from repro.workloads.spec import get_benchmark

        trace = get_benchmark(profile).trace(1_500, seed=1)
        configs = [DEFAULT_MACHINE, table1_config("C")]
        _assert_batch_matches_reference(configs, trace, warm=True)


#: The units the fast loop runs besides plain LRU: the stride prefetcher,
#: the stream-bypass detector and both together (with a tight prefetch
#: budget and a quick detector).
PREFETCH_BYPASS_CONFIGS = [
    DEFAULT_MACHINE.with_(prefetch=PrefetchConfig(degree=4, distance=2), name="prefetch"),
    DEFAULT_MACHINE.with_(l1_bypass=BypassConfig(), name="bypass"),
    DEFAULT_MACHINE.with_(
        prefetch=PrefetchConfig(max_outstanding=2),
        l1_bypass=BypassConfig(confirm_after=2),
        name="prefetch+bypass",
    ),
]

KINDS = ["strided", "working_set", "zipf", "pointer_chase", "interleaved"]


def _unit_state(sim: HierarchySimulator):
    """What a later run inherits beyond the caches: the pipeline, the
    prefetches in flight and both units' training tables and counters."""
    def table(unit):
        if unit is None:
            return None
        return [(region, e.last_block, e.stride, e.confidence)
                for region, e in unit._table.items()]
    pf, bp = sim.prefetcher, sim.bypass
    return (sim._pipe, sim._prefetch_fills, table(pf), table(bp),
            pf and pf.trained_triggers, bp and bp.observed,
            sim._last_l2_req, sim._last_mem_req)


class TestPrefetchBypassLoop:
    """The fast loop == the reference loop with a prefetcher or bypass."""

    @pytest.mark.parametrize("config", PREFETCH_BYPASS_CONFIGS, ids=lambda c: c.name)
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_generator_matrix(self, config, kind, warm):
        trace = _make_trace(kind)
        sims = [HierarchySimulator(config, seed=0, engine=e) for e in ("auto", "reference")]
        for round_no in range(2 if warm else 1):
            got, want = (sim.run(trace) for sim in sims)
            _assert_same_result(got, want, lane=f"{config.name} round {round_no}")
            assert _unit_state(sims[0]) == _unit_state(sims[1])
        if config.prefetch is not None and kind == "strided":
            assert want.component_stats["prefetches_issued"] > 0
        if config.l1_bypass is not None and kind == "strided":
            assert want.component_stats["l1_bypassed_fills"] > 0

    @pytest.mark.parametrize("config", PREFETCH_BYPASS_CONFIGS, ids=lambda c: c.name)
    @pytest.mark.parametrize("kind", ["strided", "zipf"])
    def test_resumed_quanta(self, config, kind):
        trace = _make_trace(kind)
        sims = {e: HierarchySimulator(config, seed=0, engine=e) for e in ("auto", "reference")}
        total = HierarchySimulator(config, seed=0, engine="reference").run(trace).total_cycles
        done = dict.fromkeys(sims, 0)
        stop = 0
        step = 0
        while done["reference"] < trace.n_instructions:
            start, stop = stop, stop + total // 5
            results = {}
            for engine, sim in sims.items():
                rest = trace.slice(done[engine], trace.n_instructions)
                results[engine] = sim.run(rest, start_cycle=start, stop_cycle=stop,
                                          resume=step > 0)
                done[engine] += results[engine].instructions_executed
            lane = f"{config.name} quantum {step}"
            _assert_same_result(results["auto"], results["reference"], lane=lane)
            assert _unit_state(sims["auto"]) == _unit_state(sims["reference"]), lane
            step += 1
        assert step > 2

    @pytest.mark.parametrize("kind", ["strided", "interleaved"])
    def test_hit_time_lowered_between_runs(self, kind):
        # reconfigure() lowers the L1 hit time and re-provisions the ports,
        # so the next run's hit_end starts far below the last one of the
        # run before: the prefetches that had landed by then are in
        # flight again and count against the budget.
        slow = PREFETCH_BYPASS_CONFIGS[0].with_(l1_hit_time=8, name="prefetch-h8")
        quick = slow.with_(l1_hit_time=1, l1_ports=2, name="prefetch-h1")
        trace = _make_trace(kind)
        sims = [HierarchySimulator(slow, seed=0, engine=e) for e in ("auto", "reference")]
        for round_no, config in enumerate((slow, quick, slow, quick)):
            for sim in sims:
                sim.reconfigure(config)
            got, want = (sim.run(trace) for sim in sims)
            _assert_same_result(got, want, lane=f"{config.name} round {round_no}")
            assert _unit_state(sims[0]) == _unit_state(sims[1])
        assert sims[1].prefetcher.issued > 0

    @pytest.mark.parametrize("kind", KINDS)
    def test_with_l3(self, kind):
        config = PREFETCH_BYPASS_CONFIGS[2].with_(
            l3=CacheGeometry(1024 * 1024, associativity=16), name="prefetch+bypass+l3",
        )
        trace = _make_trace(kind)
        sims = [HierarchySimulator(config, seed=0, engine=e) for e in ("auto", "reference")]
        for round_no in range(2):
            got, want = (sim.run(trace) for sim in sims)
            assert want.accesses.has_l3
            _assert_same_result(got, want, lane=f"round {round_no}")

    def test_shared_out_of_order_l2_mshrs(self):
        from repro.sim.multicore import MulticoreSimulator

        configs = [PREFETCH_BYPASS_CONFIGS[0], PREFETCH_BYPASS_CONFIGS[2]]
        traces = [_make_trace("strided"), _make_trace("zipf")]
        fast = MulticoreSimulator(configs, quantum=400, seed=0)
        ref = MulticoreSimulator(configs, quantum=400, seed=0)
        for core in ref.cores:
            core.engine = "reference"
        assert not fast.cores[0].l2_mshrs.in_order
        assert all(core._use_fast_path() for core in fast.cores)
        got, want = fast.run(traces), ref.run(traces)
        for idx, (g, w) in enumerate(zip(got.core_results, want.core_results)):
            _assert_same_result(g, w, lane=f"core {idx}")
        assert got.core_stats == want.core_stats

    @given(
        prefetch=st.none() | st.builds(
            PrefetchConfig,
            degree=st.integers(1, 6),
            distance=st.integers(1, 4),
            region_bytes=st.sampled_from([256, 1024, 4096]),
            table_size=st.integers(1, 16),
            confirm_after=st.integers(1, 4),
            max_outstanding=st.integers(1, 12),
        ),
        bypass=st.none() | st.builds(
            BypassConfig,
            region_bytes=st.sampled_from([256, 1024, 4096]),
            table_size=st.integers(1, 16),
            confirm_after=st.integers(1, 4),
        ),
        kind=st.sampled_from(KINDS),
        mshr_count=st.sampled_from([1, 2, 8]),
        length=st.integers(1, 1_200),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_unit_config(self, prefetch, bypass, kind, mshr_count, length):
        config = DEFAULT_MACHINE.with_knobs(mshr_count=mshr_count).with_(
            prefetch=prefetch, l1_bypass=bypass)
        trace = _make_trace(kind).slice(0, length)
        sims = [HierarchySimulator(config, seed=0, engine=e) for e in ("auto", "reference")]
        for round_no in range(2):
            got, want = (sim.run(trace) for sim in sims)
            _assert_same_result(got, want, lane=f"round {round_no}")
            assert _unit_state(sims[0]) == _unit_state(sims[1])


class TestEligibilityGate:
    def _prefetch_config(self) -> MachineConfig:
        return dataclasses.replace(DEFAULT_MACHINE, prefetch=PrefetchConfig())

    def test_auto_uses_fast_on_default_machine(self):
        sim = HierarchySimulator(DEFAULT_MACHINE, seed=0)
        assert sim._use_fast_path()

    def test_prefetch_takes_the_fast_path(self, monkeypatch):
        def refuse(self, trace, **kwargs):
            raise AssertionError("the reference loop ran")

        monkeypatch.setattr(HierarchySimulator, "_run_impl", refuse)
        for config in PREFETCH_BYPASS_CONFIGS:
            sim = HierarchySimulator(config, seed=0)
            assert sim._use_fast_path(), config.name
            res = sim.run(_make_trace("strided"))
            assert res.accesses.n_accesses == N

    def test_auto_never_enters_the_reference_loop(self, monkeypatch):
        def refuse(self, trace, **kwargs):
            raise AssertionError("the reference loop ran")

        monkeypatch.setattr(HierarchySimulator, "_run_impl", refuse)
        trace = _make_trace("zipf")
        for config in PERFECT_CONFIGS:
            sim = HierarchySimulator(config, seed=0)
            sim.warm_caches(trace)
            assert sim.run(trace).accesses.n_accesses == N, config.name
        # Shared out-of-order L2 MSHRs: the L1 file each core inlines
        # stays in-order.
        from repro.sim.multicore import MulticoreSimulator

        multi = MulticoreSimulator(
            [DEFAULT_MACHINE, PREFETCH_BYPASS_CONFIGS[2]], quantum=400, seed=0
        )
        assert not multi.cores[0].l2_mshrs.in_order
        assert all(core.l1_mshrs.in_order for core in multi.cores)
        multi.run([_make_trace("strided"), trace])

    def test_batch_gate_is_unchanged(self):
        # The kernel still takes exactly the configs with no prefetcher and
        # no bypass detector, whatever the scalar loop learned.
        for prefetch in (None, PrefetchConfig()):
            for bypass in (None, BypassConfig()):
                config = DEFAULT_MACHINE.with_(prefetch=prefetch, l1_bypass=bypass)
                assert batch_eligible(config) == (
                    prefetch is None and bypass is None
                ), config

    def test_unknown_engine_rejected(self):
        for engine in ("turbo", "batch", "fast"):
            with pytest.raises(ConfigError):
                HierarchySimulator(DEFAULT_MACHINE, seed=0, engine=engine)

    def test_prefetch_reference_results_unchanged(self):
        # engine="auto" (the fast loop) and engine="reference" agree.
        config = self._prefetch_config()
        trace = _make_trace("zipf")
        res_auto = HierarchySimulator(config, seed=0).run(trace)
        res_ref = HierarchySimulator(config, seed=0, engine="reference").run(trace)
        _assert_identical(res_auto, res_ref)


class TestBatchEligibilityGate:
    def _prefetch_config(self) -> MachineConfig:
        return dataclasses.replace(
            DEFAULT_MACHINE, prefetch=PrefetchConfig(), name="prefetching"
        )

    def test_constructor_rejects_ineligible_lane_eagerly(self):
        configs = [DEFAULT_MACHINE, self._prefetch_config(), table1_config("A")]
        with pytest.raises(ConfigError, match="prefetching"):
            BatchHierarchySimulator(configs, seed=0)

    def test_constructor_rejects_empty_batch(self):
        with pytest.raises(ConfigError):
            BatchHierarchySimulator([], seed=0)

    def test_warm_caches_needs_a_pristine_kernel(self):
        trace = _make_trace("zipf")
        warmed = BatchHierarchySimulator(BATCH_SLICE, seed=0)
        warmed.warm_caches(trace)
        ran = BatchHierarchySimulator(BATCH_SLICE, seed=0)
        ran.run(trace)
        for sim in (warmed, ran):
            with pytest.raises(ConfigError, match="pristine"):
                sim.warm_caches(trace)

    def test_dispatch_plan_splits_by_gate(self):
        bypass = DEFAULT_MACHINE.with_(l1_bypass=BypassConfig(), name="bypass")
        configs = [DEFAULT_MACHINE, self._prefetch_config(),
                   table1_config("C"), bypass]
        wide = configs + [table1_config("D")] * BATCH_MIN_LANES
        plan = dispatch_plan(wide)
        assert plan.kernel == [0, 2] + list(range(4, len(wide)))
        assert plan.scalar == plan.ineligible == [1, 3]
        narrow = dispatch_plan(configs)
        assert narrow.kernel == []
        assert narrow.scalar == [0, 1, 2, 3]
        assert narrow.ineligible == [1, 3]


#: One config per unit the real pass can route through; the perfect pass
#: must ignore all of them.
PERFECT_CONFIGS = [
    DEFAULT_MACHINE,
    DEFAULT_MACHINE.with_(prefetch=PrefetchConfig(degree=4, distance=2), name="prefetch"),
    DEFAULT_MACHINE.with_(l1_bypass=BypassConfig(), name="bypass"),
    DEFAULT_MACHINE.with_(l3=CacheGeometry(1024 * 1024, associativity=16), name="l3"),
    table1_config("A").with_(l1_hit_time=2),
    # A one-entry window that the slow hits keep full, so quanta stop on a
    # full window.
    DEFAULT_MACHINE.with_knobs(iw_size=1, name="tiny-window").with_(l1_hit_time=5),
]


class TestPerfectLoop:
    """The core-only perfect loop == the reference loop's perfect branch."""

    @pytest.mark.parametrize("config", PERFECT_CONFIGS, ids=lambda c: c.name)
    @pytest.mark.parametrize("kind", ["working_set", "pointer_chase"])
    def test_matches_reference_across_quanta(self, config, kind):
        trace = _make_trace(kind)
        engines = ("auto",)
        sims = {e: HierarchySimulator(config, seed=0, engine=e)
                for e in engines + ("reference",)}
        ref = sims["reference"]
        whole = ref.run(trace, perfect=True)
        for engine in engines:
            got = HierarchySimulator(config, seed=0, engine=engine).run(trace, perfect=True)
            _assert_same_result(got, whole, lane=f"{engine} whole")
        # Real and perfect quanta alternating, each resumed from the
        # previous one's in-flight window.
        stop = whole.total_cycles // 3
        quanta = [(False, stop), (True, 2 * stop), (False, 3 * stop), (True, None)]
        for sim in sims.values():
            sim.warm_caches(trace)
        done = {e: 0 for e in sims}
        start = 0
        for step, (perfect, stop_cycle) in enumerate(quanta):
            results = {}
            for engine, sim in sims.items():
                rest = trace.slice(done[engine], trace.n_instructions)
                results[engine] = sim.run(
                    rest, perfect=perfect, start_cycle=start, stop_cycle=stop_cycle,
                    resume=step > 0,
                )
                done[engine] += results[engine].instructions_executed
            assert results["reference"].instructions_executed > 0, step
            for engine in engines:
                lane = f"{engine} quantum {step} (perfect={perfect})"
                _assert_same_result(results[engine], results["reference"], lane=lane)
                assert sims[engine]._pipe == ref._pipe, lane
            start = stop_cycle or start
        assert done["reference"] == trace.n_instructions

    @pytest.mark.parametrize("config", PERFECT_CONFIGS, ids=lambda c: c.name)
    def test_short_quanta_match_reference(self, config):
        """Quanta shorter than the ROB: the saved retire window is partial."""
        trace = _make_trace("zipf")
        engines = ("auto",)
        sims = {e: HierarchySimulator(config, seed=0, engine=e)
                for e in engines + ("reference",)}
        done = dict.fromkeys(sims, 0)
        for step, stop_cycle in enumerate((2, 5, 9, 14)):
            results = {}
            for engine, sim in sims.items():
                rest = trace.slice(done[engine], trace.n_instructions)
                results[engine] = sim.run(rest, perfect=True, stop_cycle=stop_cycle,
                                          resume=step > 0)
                done[engine] += results[engine].instructions_executed
            assert 0 < done["reference"] < config.core.rob_size * (step + 1)
            for engine in engines:
                lane = f"{engine} quantum {step}"
                _assert_same_result(results[engine], results["reference"], lane=lane)
                assert sims[engine]._pipe == sims["reference"]._pipe, lane

    def test_perfect_runs_never_enter_the_reference_loop(self, monkeypatch):
        def refuse(self, trace, **kwargs):
            raise AssertionError("the reference loop ran")

        monkeypatch.setattr(HierarchySimulator, "_run_impl", refuse)
        trace = _make_trace("zipf")
        for config in PERFECT_CONFIGS:
            HierarchySimulator(config, seed=0).run(trace, perfect=True)
        # The oracle still takes it.
        with pytest.raises(AssertionError, match="reference loop ran"):
            HierarchySimulator(DEFAULT_MACHINE, seed=0, engine="reference").run(
                trace, perfect=True
            )
