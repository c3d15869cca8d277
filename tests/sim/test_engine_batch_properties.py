"""Property-based tests of the batch kernel's config-axis algebra.

A lane's result must depend only on that lane's config, the trace and the
seed — never on which other lanes share the kernel call.  Hypothesis
hammers that contract with random small traces and random knob draws:
a batch of one equals the scalar fast path, every lane of a mixed-ROB
batch equals its own scalar run, permuting the config axis permutes the
results, re-batching any slice leaves each lane untouched, and ineligible
configs mixed into a kernel measurement batch fall back per-lane without
perturbing the eligible lanes.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import DEFAULT_MACHINE, HierarchySimulator
from repro.sim.batch import BatchHierarchySimulator
from repro.sim.prefetch import PrefetchConfig
from repro.sim.stats import DispatchPlan, _measure_planned, simulate_and_measure
from repro.workloads.trace import Trace


@st.composite
def random_trace(draw):
    n = draw(st.integers(min_value=1, max_value=120))
    rng_seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(rng_seed)
    footprint_lines = draw(st.integers(min_value=1, max_value=4096))
    addrs = rng.integers(0, footprint_lines, n) * 64
    gaps = rng.integers(0, 4, n)
    dep = rng.random(n) < draw(st.floats(min_value=0.0, max_value=0.9))
    return Trace.from_memory_addresses(
        addrs, compute_per_access=gaps, name="prop", seed=0, depends=dep
    )


@st.composite
def random_machine(draw, name="prop"):
    return DEFAULT_MACHINE.with_knobs(
        issue_width=draw(st.sampled_from([1, 2, 4, 8])),
        iw_size=draw(st.sampled_from([2, 8, 32, 128])),
        rob_size=draw(st.sampled_from([4, 16, 64, 256])),
        l1_ports=draw(st.sampled_from([1, 2, 4])),
        mshr_count=draw(st.sampled_from([1, 4, 16])),
        l2_banks=draw(st.sampled_from([2, 8])),
        name=name,
    )


@st.composite
def random_batch(draw, min_size=1, max_size=4):
    k = draw(st.integers(min_value=min_size, max_value=max_size))
    return [draw(random_machine(name=f"lane{i}")) for i in range(k)]


@st.composite
def mixed_rob_case(draw):
    """A trace and a batch with at least two ROB sizes drawn around its
    length: sizes longer than the trace, whose skewed clamp rows are never
    written, and batches whose smallest ROB outlasts the whole trace."""
    trace = draw(random_trace())
    n = trace.n_instructions
    robs = draw(
        st.lists(st.integers(min_value=1, max_value=2 * n + 2), min_size=2,
                 max_size=5).filter(lambda robs: len(set(robs)) >= 2)
    )
    configs = [
        draw(random_machine(name=f"lane{i}")).with_knobs(rob_size=rob)
        for i, rob in enumerate(robs)
    ]
    return trace, configs


def _assert_same(res_got, res_want, *, lane: str) -> None:
    for rec_name in ("accesses", "instructions"):
        got = getattr(res_got, rec_name)
        want = getattr(res_want, rec_name)
        for f in dataclasses.fields(want):
            assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), (
                f"{lane}: {rec_name}.{f.name} differs"
            )
    assert res_got.component_stats == res_want.component_stats, (
        f"{lane}: component_stats differ"
    )


class TestBatchConfigAxis:
    @given(random_trace(), random_machine())
    @settings(max_examples=40, deadline=None)
    def test_batch_of_one_equals_scalar_fast_path(self, trace, machine):
        res_batch = BatchHierarchySimulator([machine], seed=0).run(trace)[0]
        res_fast = HierarchySimulator(machine, seed=0, engine="auto").run(trace)
        _assert_same(res_batch, res_fast, lane="batch-of-1")

    @given(mixed_rob_case(), st.booleans(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_mixed_rob_lanes_equal_their_scalar_runs(self, case, warm, perfect):
        trace, configs = case
        batch = BatchHierarchySimulator(configs, seed=0)
        if warm:
            batch.warm_caches(trace)
        got = batch.run(trace, perfect=perfect)
        for i, config in enumerate(configs):
            sim = HierarchySimulator(config, seed=0)
            if warm:
                sim.warm_caches(trace)
            want = sim.run(trace, perfect=perfect)
            _assert_same(got[i], want, lane=f"rob {config.core.rob_size} lane {i}")

    @given(random_trace(), random_batch(min_size=2), st.randoms())
    @settings(max_examples=25, deadline=None)
    def test_permuting_configs_permutes_results(self, trace, configs, rnd):
        perm = list(range(len(configs)))
        rnd.shuffle(perm)
        base = BatchHierarchySimulator(configs, seed=0).run(trace)
        shuffled = BatchHierarchySimulator(
            [configs[j] for j in perm], seed=0
        ).run(trace)
        for i, j in enumerate(perm):
            _assert_same(shuffled[i], base[j], lane=f"perm lane {i} <- {j}")

    @given(random_trace(), random_batch(min_size=2), st.data())
    @settings(max_examples=25, deadline=None)
    def test_rebatching_a_slice_is_invariant(self, trace, configs, data):
        split = data.draw(
            st.integers(min_value=1, max_value=len(configs) - 1), label="split"
        )
        whole = BatchHierarchySimulator(configs, seed=0).run(trace)
        head = BatchHierarchySimulator(configs[:split], seed=0).run(trace)
        tail = BatchHierarchySimulator(configs[split:], seed=0).run(trace)
        for i, res in enumerate(head + tail):
            _assert_same(res, whole[i], lane=f"rebatch lane {i}")

    @given(random_trace(), random_batch())
    @settings(max_examples=15, deadline=None)
    def test_batch_is_deterministic(self, trace, configs):
        a = BatchHierarchySimulator(configs, seed=1).run(trace)
        b = BatchHierarchySimulator(configs, seed=1).run(trace)
        for i, (ra, rb) in enumerate(zip(a, b)):
            _assert_same(ra, rb, lane=f"determinism lane {i}")


class TestMixedEligibilityFallback:
    @given(random_trace(), random_batch(max_size=3), st.data())
    @settings(max_examples=15, deadline=None)
    def test_ineligible_lane_falls_back_without_perturbing_others(
        self, trace, configs, data
    ):
        ineligible = DEFAULT_MACHINE.with_knobs(name="prefetching")
        ineligible = dataclasses.replace(ineligible, prefetch=PrefetchConfig())
        pos = data.draw(
            st.integers(min_value=0, max_value=len(configs)), label="pos"
        )
        mixed = configs[:pos] + [ineligible] + configs[pos:]
        # Force the kernel: these batches are narrower than the dispatch
        # crossover, where simulate_and_measure_batch would go scalar.
        lanes = [i for i in range(len(mixed)) if i != pos]
        plan = DispatchPlan(kernel=lanes, scalar=[pos], ineligible=[pos])
        pairs = _measure_planned(mixed, trace, plan, seed=0, warm=True)
        assert len(pairs) == len(mixed)
        for i, config in enumerate(mixed):
            res_solo, stats_solo = simulate_and_measure(
                config, trace, seed=0, warm=True
            )
            _assert_same(pairs[i][0], res_solo, lane=f"mixed lane {i}")
            assert pairs[i][1] == stats_solo, f"mixed lane {i}: stats differ"
