"""Kernel-or-scalar dispatch and the shared perfect-L1 pass.

:func:`simulate_and_measure_batch` runs a group of batch-eligible configs
on the vectorized kernel only when it is at least ``BATCH_MIN_LANES``
wide, and runs the perfect-L1 CPI_exe pass once per distinct
:func:`perfect_projection`.  Sharing that pass is sound only if the pass
reads nothing outside the projection; the property test below perturbs
every other :class:`MachineConfig` field — enumerated from
``dataclasses.fields``, so a field added later is covered without editing
this file — and demands a bit-identical perfect run.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sweep import sweep_configs
from repro.runtime.errors import ConfigError
from repro.sim import DEFAULT_MACHINE, HierarchySimulator
from repro.sim.batch import BatchHierarchySimulator, batch_eligible
from repro.sim.params import CacheGeometry, MachineConfig
from repro.sim.prefetch import BypassConfig, PrefetchConfig
from repro.sim.stats import (
    BATCH_MIN_LANES,
    PERFECT_PASS_KNOBS,
    dispatch_plan,
    perfect_projection,
    simulate_and_measure,
    simulate_and_measure_batch,
)
from repro.workloads.trace import Trace

#: Values for fields that are ``None`` on a batch-eligible config.  A new
#: optional field fails :func:`_perturbations` until it gets an entry here.
_OPTIONAL_VALUES = {
    "l3": CacheGeometry(1024 * 1024, associativity=16),
    "prefetch": PrefetchConfig(degree=4, distance=2),
    "l1_bypass": BypassConfig(),
}

#: Fields that must change together to keep a config constructible.
_COUPLED = {
    "l1.line_bytes": ("l2.line_bytes",),
    "l2.line_bytes": ("l1.line_bytes",),
}


def _leaves(obj, prefix=""):
    """``(dotted path, value)`` of every non-dataclass field under *obj*."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from _leaves(value, f"{prefix}{f.name}.")
        else:
            yield f"{prefix}{f.name}", value


def _replace(obj, changes):
    """*obj* with every ``dotted path: value`` of *changes* applied at once."""
    direct, nested = {}, {}
    for path, value in changes.items():
        head, _, rest = path.partition(".")
        if rest:
            nested.setdefault(head, {})[rest] = value
        else:
            direct[head] = value
    for head, sub in nested.items():
        direct[head] = _replace(getattr(obj, head), sub)
    return dataclasses.replace(obj, **direct)


def _candidates(path, value):
    if value is None:
        if path not in _OPTIONAL_VALUES:
            pytest.fail(f"no perturbation for the optional field {path!r}; "
                        "add one to _OPTIONAL_VALUES")
        return [_OPTIONAL_VALUES[path]]
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, int):
        return [value * 2, value + 1, value // 2]
    if isinstance(value, str):
        return [value + "-perturbed"]
    pytest.fail(f"no perturbation for {path!r} of type {type(value).__name__}")


def _perturbations(config: MachineConfig):
    """One ``(path, config)`` per leaf field outside the projection."""
    out = []
    for path, value in _leaves(config):
        if path in PERFECT_PASS_KNOBS:
            continue
        for candidate in _candidates(path, value):
            if candidate == value:
                continue
            paths = (path, *_COUPLED.get(path, ()))
            try:
                changed = _replace(config, dict.fromkeys(paths, candidate))
            except (ValueError, ConfigError):
                continue
            out.append((path, changed))
            break
        else:
            pytest.fail(f"no valid perturbation for {path!r} (value {value!r})")
    return out


@st.composite
def random_trace(draw):
    n = draw(st.integers(min_value=1, max_value=150))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    addrs = rng.integers(0, draw(st.integers(min_value=1, max_value=4096)), n) * 64
    dep = rng.random(n) < draw(st.floats(min_value=0.0, max_value=0.9))
    return Trace.from_memory_addresses(
        addrs, compute_per_access=rng.integers(0, 4, n), name="proj", seed=0,
        depends=dep,
    )


@st.composite
def eligible_machine(draw):
    config = DEFAULT_MACHINE.with_knobs(
        issue_width=draw(st.sampled_from([1, 2, 4, 8])),
        iw_size=draw(st.sampled_from([2, 8, 32, 128])),
        rob_size=draw(st.sampled_from([4, 16, 64, 256])),
        l1_ports=draw(st.sampled_from([1, 2, 4])),
        mshr_count=draw(st.sampled_from([1, 4, 16])),
        l2_banks=draw(st.sampled_from([2, 8])),
        l1_size_bytes=draw(st.sampled_from([4096, 32768])),
    )
    return config.with_(
        l1_hit_time=draw(st.integers(min_value=1, max_value=5)),
        l1_pipelined=draw(st.booleans()),
    )


class TestPerfectProjectionSoundness:
    def test_every_field_outside_the_projection_is_perturbed(self):
        paths = {path for path, _ in _perturbations(DEFAULT_MACHINE)}
        leaves = {path for path, _ in _leaves(DEFAULT_MACHINE)}
        assert paths == leaves - set(PERFECT_PASS_KNOBS)
        assert set(PERFECT_PASS_KNOBS) <= leaves

    @given(random_trace(), eligible_machine(), st.integers(min_value=1, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_perfect_pass_ignores_every_other_field(self, trace, base, seed):
        want = HierarchySimulator(base, seed=0).run(trace, perfect=True)
        # The simulator seed is outside the projection too: PerfectPassMemo
        # serves one seed's pass to every other seed.
        got = HierarchySimulator(base, seed=seed).run(trace, perfect=True)
        assert (got.cpi, got.total_cycles) == (want.cpi, want.total_cycles), (
            "the perfect pass reads the simulator seed: key PerfectPassMemo on it"
        )
        perturbed = _perturbations(base)
        for path, config in perturbed:
            assert perfect_projection(config) == perfect_projection(base), path
            got = HierarchySimulator(config, seed=seed).run(trace, perfect=True)
            assert (got.cpi, got.total_cycles) == (want.cpi, want.total_cycles), (
                f"the perfect pass reads {path!r}: widen PERFECT_PASS_KNOBS"
            )
        # The kernel's perfect lanes share the same projection contract.
        lanes = [base] + [c for _, c in perturbed if batch_eligible(c)]
        kernel = BatchHierarchySimulator(lanes, seed=seed).run(trace, perfect=True)
        for config, got in zip(lanes, kernel):
            assert (got.cpi, got.total_cycles) == (want.cpi, want.total_cycles), (
                config.cache_key()
            )


def _ineligible_twins():
    """Ineligible configs that all share the default projection."""
    return [
        DEFAULT_MACHINE.with_(prefetch=PrefetchConfig(), name="prefetch"),
        DEFAULT_MACHINE.with_(l1_bypass=BypassConfig(), name="bypass"),
        DEFAULT_MACHINE.with_(prefetch=PrefetchConfig(degree=4), name="prefetch4"),
    ]


@pytest.fixture
def runs(monkeypatch):
    """Record every scalar run and kernel call as ``(kind, lanes, perfect)``."""
    log = []
    scalar_run, kernel_run = HierarchySimulator.run, BatchHierarchySimulator.run
    kernel_init = BatchHierarchySimulator.__init__

    def run(self, trace, **kwargs):
        log.append(("scalar", 1, bool(kwargs.get("perfect", False))))
        return scalar_run(self, trace, **kwargs)

    def run_batch(self, trace, **kwargs):
        log.append(("kernel", self.n_lanes, bool(kwargs.get("perfect", False))))
        return kernel_run(self, trace, **kwargs)

    def init(self, configs, **kwargs):
        log.append(("construct", len(configs), None))
        kernel_init(self, configs, **kwargs)

    monkeypatch.setattr(HierarchySimulator, "run", run)
    monkeypatch.setattr(BatchHierarchySimulator, "run", run_batch)
    monkeypatch.setattr(BatchHierarchySimulator, "__init__", init)
    return log


def _trace(n=400, seed=5):
    rng = np.random.default_rng(seed)
    return Trace.from_memory_addresses(
        rng.integers(0, 2048, n) * 64, compute_per_access=2, name="dispatch",
        seed=seed, depends=rng.random(n) < 0.3,
    )


def _core_grid():
    """``BATCH_MIN_LANES`` eligible configs with distinct projections."""
    configs = [
        DEFAULT_MACHINE.with_knobs(issue_width=w, rob_size=rob, name=f"w{w}-rob{rob}")
        for w in (1, 2, 4, 8) for rob in (8, 16, 32, 64, 128)
    ]
    return configs[:BATCH_MIN_LANES]


def _scalar_stats(configs, trace):
    return [s.to_dict() for s in sweep_configs(configs, trace, engine="scalar").stats]


class TestDispatch:
    def test_below_crossover_runs_scalar_with_one_perfect_pass_per_projection(
        self, runs
    ):
        trace = _trace()
        configs = [
            DEFAULT_MACHINE.with_knobs(l1_size_bytes=kb * 1024, name=f"L1-{kb}")
            for kb in (4, 8, 16, 32, 64)
        ] + _core_grid()[: BATCH_MIN_LANES - 6] + _ineligible_twins()[:1]
        assert len(configs) == BATCH_MIN_LANES
        plan = dispatch_plan(configs)
        assert plan.kernel == [] and plan.scalar == list(range(len(configs)))
        pairs = simulate_and_measure_batch(configs, trace, seed=0)
        assert not [r for r in runs if r[0] != "scalar"], "no kernel below it"
        # The ineligible twin shares the L1-size configs' projection.
        projections = {perfect_projection(c) for c in configs}
        assert perfect_projection(configs[-1]) in {
            perfect_projection(c) for c in configs[:-1]
        }
        assert sum(1 for r in runs if r[2]) == len(projections)
        assert sum(1 for r in runs if not r[2]) == len(configs)
        runs.clear()
        assert [s.to_dict() for _, s in pairs] == _scalar_stats(configs, trace)

    def test_at_crossover_one_perfect_and_one_real_kernel_call(self, runs):
        trace = _trace()
        grid = _core_grid()
        # Four more lanes that repeat projections of the grid.
        repeats = [c.with_knobs(l1_size_bytes=8192, name=f"{c.name}-8k") for c in grid[:4]]
        configs = grid + repeats + _ineligible_twins()[:1]
        plan = dispatch_plan(configs)
        assert plan.kernel == list(range(len(grid) + len(repeats)))
        assert plan.scalar == plan.ineligible == [len(configs) - 1]
        pairs = simulate_and_measure_batch(configs, trace, seed=0)
        kernel_calls = [r for r in runs if r[0] == "kernel"]
        assert kernel_calls == [
            ("kernel", BATCH_MIN_LANES, True),
            ("kernel", len(plan.kernel), False),
        ]
        # Only the ineligible config's real pass runs on the scalar engine;
        # its projection is one of the kernel's perfect lanes.
        assert [r for r in runs if r[0] == "scalar"] == [("scalar", 1, False)]
        runs.clear()
        assert [s.to_dict() for _, s in pairs] == _scalar_stats(configs, trace)

    def test_wide_group_with_few_projections_runs_its_perfect_pass_scalar(self, runs):
        trace = _trace()
        configs = [
            DEFAULT_MACHINE.with_knobs(l1_ports=ports, mshr_count=mshrs,
                                       l2_banks=banks, name=f"p{ports}-m{mshrs}-b{banks}")
            for ports in (1, 2) for mshrs in (2, 4, 8, 16) for banks in (2, 4)
        ]
        assert len(configs) >= BATCH_MIN_LANES
        pairs = simulate_and_measure_batch(configs, trace, seed=0)
        assert [r for r in runs if r[0] != "construct"] == [
            ("scalar", 1, True), ("kernel", len(configs), False),
        ]
        runs.clear()
        assert [s.to_dict() for _, s in pairs] == _scalar_stats(configs, trace)

    def test_ineligible_configs_share_the_perfect_pass(self, runs):
        trace = _trace(n=200)
        twins = _ineligible_twins()
        configs = twins + [DEFAULT_MACHINE, DEFAULT_MACHINE.with_(name="again")]
        assert len({perfect_projection(c) for c in configs}) == 1
        pairs = simulate_and_measure_batch(configs, trace, seed=0)
        # One projection: one perfect pass for eligible and ineligible alike.
        assert sum(1 for r in runs if r[2]) == 1
        runs.clear()
        for config, (_, stats) in zip(configs, pairs):
            assert stats == simulate_and_measure(config, trace, seed=0)[1], config.name

    def test_ineligible_projection_rides_the_perfect_kernel_call(self, runs):
        trace = _trace(n=200)
        # The prefetch config comes first with a projection of its own, so
        # the kernel's perfect lane for it must be a stand-in config.
        prefetch = DEFAULT_MACHINE.with_knobs(issue_width=3, name="w3").with_(
            prefetch=PrefetchConfig()
        )
        configs = [prefetch] + _core_grid()[: BATCH_MIN_LANES - 1]
        assert len({perfect_projection(c) for c in configs}) == BATCH_MIN_LANES
        pairs = simulate_and_measure_batch(configs, trace, seed=0)
        assert [r for r in runs if r[2]] == [("kernel", BATCH_MIN_LANES, True)]
        runs.clear()
        assert [s.to_dict() for _, s in pairs] == _scalar_stats(configs, trace)
