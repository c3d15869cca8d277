"""Speedup gates: the optimized paths must stay faster than what they replace.

Four ratios of two paths timed in alternating rounds in one process,
each side's time being its fastest round.  Each side runs a set number of
rounds and at least :data:`MIN_SIDE_SECONDS` in total, so a burst of host
load cannot cover all of one side's rounds.  The ratio does not depend on
the host the way an absolute throughput does, so CI gates on it.  Each
gate also checks that the fast path computes the same thing, since a
speedup for a wrong answer means nothing.

* fast / reference issue loop on 403.gcc, with identical access records;
* the same with a stride prefetcher (degree 4, distance 2), with identical
  access records and prefetch counters;
* batch kernel / 64 scalar fast-path runs on the ``lpm-batch-gate``
  slice, with every lane identical;
* multi-fidelity / engine-only sweep of the same slice, whose escalated
  frontier must reach the engine-only optimum with at least 20x fewer
  engine simulations.

Each floor is at least 80% of the ratio first recorded for that gate.
Run by path (``python -m pytest benchmarks/speedup_gates.py -q``); each
test prints its ratio.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.analysis.sweep import sweep_configs
from repro.sim import DEFAULT_MACHINE, HierarchySimulator
from repro.sim.batch import BatchHierarchySimulator
from repro.sim.prefetch import PrefetchConfig
from repro.workloads.generators import working_set_addresses
from repro.workloads.spec import get_benchmark
from repro.workloads.trace import Trace

#: 0.8 x the 1.583x fast/reference ratio first recorded at 10,000 accesses.
ENGINE_FLOOR = 1.267
#: 0.8 x the 1.575x fast/reference ratio first recorded with a prefetcher.
PREFETCH_FLOOR = 1.260
#: Absolute floor for one kernel call over 64 scalar runs.
BATCH_FLOOR = 4.0
#: 0.8 x the 3.841x multi-fidelity/engine-only ratio first recorded.
SURROGATE_FLOOR = 3.073
#: Minimum configurations per engine escalation in the multi-fidelity sweep.
MIN_SIM_REDUCTION = 20.0
#: Minimum total seconds each side of a gate is timed for (see _alternate).
MIN_SIDE_SECONDS = 1.5

#: Access-record fields every identity check compares.
IDENTITY_FIELDS = (
    "l1_hit_start", "l1_hit_end", "l1_miss_start", "l1_miss_end",
    "l2_hit_start", "l2_hit_end", "l2_miss_start", "l2_miss_end",
    "mem_start", "mem_end",
)


def _alternate(rounds, baseline, candidate):
    """(each side's fastest round in seconds, each side's result), keyed by side.

    The two sides alternate, round by round, so a burst of host load lands
    on both sides alike instead of on one side's block of rounds.  They
    keep alternating until each side has run at least *rounds* rounds and
    :data:`MIN_SIDE_SECONDS` in total, so a burst shorter than that cannot
    cover every round of one side.  Each side's time is its minimum over its rounds.
    """
    best = {baseline: math.inf, candidate: math.inf}
    total = {baseline: 0.0, candidate: 0.0}
    results = {}
    done = 0
    while done < rounds or min(total.values()) < MIN_SIDE_SECONDS:
        for fn in (baseline, candidate):
            t0 = time.perf_counter()
            results[fn] = fn()
            elapsed = time.perf_counter() - t0
            best[fn] = min(best[fn], elapsed)
            total[fn] += elapsed
        done += 1
    return best, results


def _speedup(rounds, baseline, candidate):
    """(baseline / candidate ratio of the fastest rounds, their results);
    see :func:`_alternate`."""
    best, results = _alternate(rounds, baseline, candidate)
    return best[baseline] / best[candidate], results[baseline], results[candidate]


def _same_accesses(a, b) -> bool:
    return all(
        np.array_equal(getattr(a.accesses, name), getattr(b.accesses, name))
        for name in IDENTITY_FIELDS
    )


def _gate_workload(accesses: int = 10_000):
    """The compute-heavy ``lpm-batch-gate`` trace and its 64-config slice.

    A 12 KB working set with 8 compute ops per access: the high-locality
    regime where the config axis dominates run time.  The slice is the
    Table I cross-product of issue width x IW size x ROB size.
    """
    addrs = working_set_addresses(accesses, footprint_bytes=12 * 1024, seed=7)
    trace = Trace.from_memory_addresses(
        addrs, compute_per_access=8, load_fraction=0.7,
        name="lpm-batch-gate", seed=7,
    )
    configs = [
        DEFAULT_MACHINE.with_knobs(issue_width=iw, iw_size=w, rob_size=rob,
                                   name=f"c{iw}-{w}-{rob}")
        for iw in (2, 4, 6, 8)
        for w in (32, 64, 96, 128)
        for rob in (48, 96, 128, 192)
    ]
    return trace, configs


def _report(capsys, line: str) -> None:
    with capsys.disabled():
        print(f"\n{line}")


def _fast_over_reference(config):
    """:func:`_speedup` of the fast issue loop over the reference loop on
    4,000 accesses of 403.gcc."""
    trace = get_benchmark("403.gcc").trace(4_000, seed=1)

    def run(engine):
        return lambda: HierarchySimulator(config, seed=0, engine=engine).run(trace)

    return _speedup(5, run("reference"), run("auto"))


def test_fast_engine_over_reference(capsys):
    speedup, ref, fast = _fast_over_reference(DEFAULT_MACHINE)
    _report(capsys, f"fast/reference: {speedup:.3f}x (floor {ENGINE_FLOOR}x)")
    assert _same_accesses(fast, ref)
    assert speedup >= ENGINE_FLOOR


def test_prefetch_fast_over_reference(capsys):
    speedup, ref, fast = _fast_over_reference(DEFAULT_MACHINE.with_(
        prefetch=PrefetchConfig(degree=4, distance=2), name="default+prefetch"))
    _report(capsys, f"prefetch fast/reference: {speedup:.3f}x (floor {PREFETCH_FLOOR}x)")
    assert _same_accesses(fast, ref)
    counters = ("prefetches_issued", "prefetches_useful", "prefetches_late")
    assert [fast.component_stats[k] for k in counters] == [
        ref.component_stats[k] for k in counters
    ]
    assert ref.component_stats["prefetches_issued"] > 0
    assert speedup >= PREFETCH_FLOOR


def test_batch_kernel_over_scalar(capsys):
    trace, configs = _gate_workload()

    def scalar():
        results = []
        for config in configs:
            sim = HierarchySimulator(config, seed=0)
            sim.warm_caches(trace)
            results.append(sim.run(trace))
        return results

    def batch():
        sim = BatchHierarchySimulator(configs, seed=0)
        sim.warm_caches(trace)
        return sim.run(trace)

    best, results = _alternate(3, scalar, batch)
    speedup = best[scalar] / best[batch]
    scalar_results, batch_results = results[scalar], results[batch]
    _report(capsys, f"batch/scalar: {speedup:.3f}x over {len(configs)} configs "
                    f"(scalar {best[scalar]:.3f} s, batch {best[batch]:.3f} s; "
                    f"floor {BATCH_FLOOR}x)")
    assert len(batch_results) == len(configs)
    assert all(_same_accesses(s, b) for s, b in zip(scalar_results, batch_results))
    assert speedup >= BATCH_FLOOR


def test_multi_fidelity_over_engine_only(capsys):
    trace, configs = _gate_workload()
    speedup, engine, multi = _speedup(
        3,
        lambda: sweep_configs(configs, trace, seed=0),
        lambda: sweep_configs(configs, trace, seed=0, fidelity="multi",
                              top_k=8, margin=0.05),
    )
    escalated = [s for s, src in zip(multi.stats, multi.sources) if src != "predicted"]
    reduction = len(configs) / max(len(escalated), 1)
    _report(capsys, f"multi-fidelity/engine-only: {speedup:.3f}x, "
                    f"{len(escalated)} of {len(configs)} configs simulated "
                    f"(floors {SURROGATE_FLOOR}x, {MIN_SIM_REDUCTION:.0f}x fewer)")
    assert escalated
    assert min(s.cpi for s in escalated) == min(s.cpi for s in engine.stats)
    assert reduction >= MIN_SIM_REDUCTION
    assert speedup >= SURROGATE_FLOOR
