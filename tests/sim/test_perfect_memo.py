"""Cross-call soundness of :class:`PerfectPassMemo`.

The memo serves a perfect-L1 CPI_exe pass from an earlier call, keyed on
the digest of the trace actually simulated and the config's
:func:`perfect_projection` — no seed, no warm flag.  Each test here fails
when that key is too narrow: a memo-served result must equal the memo-free
:func:`simulate_and_measure` bit for bit, on the scalar and the batch path.
(``tests/sim/test_batch_dispatch.py`` proves the pass reads nothing outside
the key, seed included.)
"""

import numpy as np
import pytest

from repro.obs import metrics as obs_metrics
from repro.runtime.evaluate import _simulate_job
from repro.runtime.errors import MeasurementError
from repro.runtime.faults import FaultConfig, FaultInjector
from repro.sim import DEFAULT_MACHINE, HierarchySimulator
from repro.sim.batch import BatchHierarchySimulator
from repro.sim.prefetch import PrefetchConfig
from repro.sim.stats import (
    BATCH_MIN_LANES,
    PERFECT_MEMO_ENTRIES,
    PerfectPassMemo,
    perfect_projection,
    simulate_and_measure,
    simulate_and_measure_batch,
)
from repro.workloads.trace import Trace


def _trace(n=400, seed=5):
    rng = np.random.default_rng(seed)
    return Trace.from_memory_addresses(
        rng.integers(0, 2048, n) * 64, compute_per_access=2, name="memo",
        seed=seed, depends=rng.random(n) < 0.3,
    )


def _core_grid():
    """``BATCH_MIN_LANES`` eligible configs with distinct projections."""
    configs = [
        DEFAULT_MACHINE.with_knobs(issue_width=w, rob_size=rob, name=f"w{w}-rob{rob}")
        for w in (1, 2, 4, 8) for rob in (8, 16, 32, 64, 128)
    ]
    return configs[:BATCH_MIN_LANES]


@pytest.fixture
def perfect_runs(monkeypatch):
    """Count perfect-pass lanes, scalar runs and kernel lanes alike."""
    count = [0]
    scalar_run, kernel_run = HierarchySimulator.run, BatchHierarchySimulator.run

    def run(self, trace, **kwargs):
        count[0] += bool(kwargs.get("perfect", False))
        return scalar_run(self, trace, **kwargs)

    def run_batch(self, trace, **kwargs):
        count[0] += self.n_lanes if kwargs.get("perfect", False) else 0
        return kernel_run(self, trace, **kwargs)

    monkeypatch.setattr(HierarchySimulator, "run", run)
    monkeypatch.setattr(BatchHierarchySimulator, "run", run_batch)
    return count


@pytest.fixture
def metrics():
    obs_metrics.get_registry().reset()
    obs_metrics.set_metrics_enabled(True)
    yield lambda: obs_metrics.get_registry().snapshot()["counters"]
    obs_metrics.set_metrics_enabled(False)
    obs_metrics.get_registry().reset()


class TestCrossCall:
    def test_scalar_path_serves_other_seeds_and_warm_bit_identically(self, perfect_runs):
        trace = _trace()
        memo = PerfectPassMemo()
        configs = [DEFAULT_MACHINE.with_knobs(l1_size_bytes=kb * 1024, name=f"L1-{kb}")
                   for kb in (8, 32)]
        calls = [(c, seed, warm) for c in configs for seed in (0, 3, 11)
                 for warm in (True, False)]
        served = [simulate_and_measure(c, trace, seed=s, warm=w, memo=memo)[1]
                  for c, s, w in calls]
        # One projection: one perfect pass for all twelve calls.
        assert len(memo) == 1 and perfect_runs[0] == 1
        for (c, s, w), stats in zip(calls, served):
            assert stats == simulate_and_measure(c, trace, seed=s, warm=w)[1], (c.name, s, w)

    def test_batch_path_reuses_an_earlier_call_bit_identically(self, perfect_runs):
        trace = _trace()
        memo = PerfectPassMemo()
        grid = _core_grid()
        first = simulate_and_measure_batch(grid, trace, seed=1, memo=memo)
        assert perfect_runs[0] == len(grid)
        # Same projections on another L1 and seed, plus one new projection:
        # only the new one runs.
        again = [c.with_knobs(l1_size_bytes=8192, name=f"{c.name}-8k") for c in grid]
        new = DEFAULT_MACHINE.with_knobs(issue_width=3, name="w3")
        second = simulate_and_measure_batch(again + [new], trace, seed=4, memo=memo)
        assert perfect_runs[0] == len(grid) + 1
        assert len(memo) == len(grid) + 1
        perfect_runs[0] = 0
        for configs, pairs, seed in ((grid, first, 1), (again + [new], second, 4)):
            want = simulate_and_measure_batch(configs, trace, seed=seed)
            assert [s for _, s in pairs] == [s for _, s in want]

    def test_scalar_and_batch_share_one_memo(self, perfect_runs):
        trace = _trace()
        memo = PerfectPassMemo()
        simulate_and_measure_batch(_core_grid()[:3], trace, seed=0, memo=memo)
        config = _core_grid()[1].with_knobs(mshr_count=2, name="m2")
        _, stats = simulate_and_measure(config, trace, seed=9, memo=memo)
        assert perfect_runs[0] == 3
        assert stats == simulate_and_measure(config, trace, seed=9)[1]


class TestKeySeparation:
    def test_traces_with_different_content_never_share_an_entry(self):
        trace = _trace()
        other = _trace(seed=6)
        truncated = FaultInjector(FaultConfig(truncate_rate=1.0), "t").corrupt_trace(trace)
        assert truncated.n_instructions < trace.n_instructions
        memo = PerfectPassMemo()
        for t in (trace, other, truncated, trace):
            _, stats = simulate_and_measure(DEFAULT_MACHINE, t, memo=memo)
            assert stats == simulate_and_measure(DEFAULT_MACHINE, t)[1]
        assert len(memo) == 3

    def test_a_truncated_attempt_never_answers_for_the_whole_trace(self, perfect_runs):
        """A fault-truncated attempt fills the memo under the truncated
        trace's digest; the clean retry of the same job must miss it."""
        trace = _trace()
        memo = PerfectPassMemo()
        faults = FaultConfig(truncate_rate=1.0)
        with pytest.raises(MeasurementError):
            _simulate_job(DEFAULT_MACHINE, trace, 0, True, faults, 1, _state=memo)
        assert len(memo) == 1 and perfect_runs[0] == 1
        stats = _simulate_job(DEFAULT_MACHINE, trace, 0, True, None, 2, _state=memo)
        assert perfect_runs[0] == 2 and len(memo) == 2
        assert stats == simulate_and_measure(DEFAULT_MACHINE, trace)[1]

    def test_configs_differing_only_in_issue_width_get_their_own_cpi_exe(self):
        trace = _trace()
        narrow = DEFAULT_MACHINE.with_knobs(issue_width=1, name="w1")
        wide = DEFAULT_MACHINE.with_knobs(issue_width=4, name="w4")
        assert perfect_projection(narrow) != perfect_projection(wide)
        memo = PerfectPassMemo()
        got = [simulate_and_measure(c, trace, memo=memo)[1] for c in (narrow, wide)]
        assert got[0].cpi_exe != got[1].cpi_exe
        assert got == [simulate_and_measure(c, trace)[1] for c in (narrow, wide)]


class TestScope:
    def test_prefetch_config_hits_the_memo(self, perfect_runs, metrics):
        trace = _trace(n=200)
        memo = PerfectPassMemo()
        prefetch = DEFAULT_MACHINE.with_(prefetch=PrefetchConfig(), name="prefetch")
        served = [simulate_and_measure(c, trace, seed=s, memo=memo)[1]
                  for c, s in ((prefetch, 0), (prefetch, 3), (DEFAULT_MACHINE, 5))]
        # One projection: the prefetch config's pass serves the other two.
        assert len(memo) == 1 and perfect_runs[0] == 1
        counters = metrics()
        assert counters["sim.perfect_memo.misses"] == 1
        assert counters["sim.perfect_memo.hits"] == 2
        perfect_runs[0] = 0
        assert served == [simulate_and_measure(c, trace, seed=s)[1]
                          for c, s in ((prefetch, 0), (prefetch, 3), (DEFAULT_MACHINE, 5))]

    def test_without_a_memo_nothing_is_looked_up(self, metrics):
        trace = _trace(n=200)
        simulate_and_measure(DEFAULT_MACHINE, trace)
        simulate_and_measure_batch(_core_grid()[:2], trace)
        assert not any(k.startswith("sim.perfect_memo") for k in metrics())

    def test_counters_record_one_hit_or_miss_per_lookup(self, metrics):
        trace = _trace(n=200)
        memo = PerfectPassMemo()
        grid = _core_grid()[:3]
        simulate_and_measure_batch(grid, trace, memo=memo)
        simulate_and_measure_batch(grid + [grid[0].with_(name="again")], trace, memo=memo)
        simulate_and_measure(grid[2], trace, memo=memo)
        counters = metrics()
        assert counters["sim.perfect_memo.misses"] == 3
        assert counters["sim.perfect_memo.hits"] == 3 + 1

    def test_memo_is_bounded_least_recently_used_first(self):
        trace = _trace(n=200)
        memo = PerfectPassMemo()
        points = [(i,) for i in range(PERFECT_MEMO_ENTRIES + 1)]
        memo.remember(trace, {p: float(i) for i, p in enumerate(points[:-1])})
        assert memo.recall(trace, [points[0]]) == {points[0]: 0.0}  # now the newest
        memo.remember(trace, {points[-1]: -1.0})
        assert len(memo) == PERFECT_MEMO_ENTRIES
        # The least recently used entry (points[1]) made room.
        assert memo.recall(trace, [points[0], points[1], points[-1]]) == {
            points[0]: 0.0, points[-1]: -1.0,
        }
