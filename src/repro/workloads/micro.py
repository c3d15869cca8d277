"""Machine-characterization microbenchmarks (lmbench-style probes).

Small, purpose-built traces that expose one property of a simulated
machine at a time — the way lmbench/STREAM characterize real hardware.
Useful for validating a :class:`~repro.sim.params.MachineConfig` before an
experiment, and used by the test suite to pin the simulator's timing
semantics end to end.

* :func:`latency_probe` — a dependent pointer chase over a footprint:
  the measured cycles per access converge to the round-trip latency of
  whichever layer the footprint lands in (L1 / L2 / L3 / DRAM).
* :func:`bandwidth_probe` — an independent line-granularity stream:
  lines per cycle converge to the bottleneck supply bandwidth.
* :func:`mlp_probe` — bursts of independent far misses: the achieved
  overlap (average concurrent misses) converges to the machine's usable
  memory-level parallelism (bounded by MSHRs / window / banks).
* :func:`characterize` — run all probes over a ladder of footprints and
  return a :class:`MachineProfile` summary table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from typing import TYPE_CHECKING

from repro.util.rng import make_rng
from repro.util.validation import check_int, safe_ratio
from repro.workloads.generators import pointer_chase_addresses, strided_addresses
from repro.workloads.trace import Trace

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.params import MachineConfig


def _simulator(config, seed):
    # Imported lazily: repro.sim.engine itself imports repro.workloads.trace,
    # so a module-level import here would create a package-init cycle.
    from repro.sim.engine import HierarchySimulator

    return HierarchySimulator(config, seed=seed)

__all__ = [
    "latency_probe",
    "bandwidth_probe",
    "mlp_probe",
    "MachineProfile",
    "characterize",
]

KB = 1024


def latency_probe(
    config: "MachineConfig",
    footprint_bytes: int,
    *,
    n_accesses: int = 4000,
    seed: int = 0,
) -> float:
    """Measured cycles per dependent access over *footprint_bytes*.

    A random-permutation chase with every access dependent on the previous
    one: no overlap is possible, so cycles/access equals the load-to-use
    round trip of the layer holding the footprint.
    """
    check_int("n_accesses", n_accesses, minimum=1)
    addrs = pointer_chase_addresses(
        n_accesses, footprint_bytes=footprint_bytes, seed=seed
    )
    trace = Trace.from_memory_addresses(
        addrs, compute_per_access=0, name=f"lat-{footprint_bytes}",
        depends=np.ones(n_accesses, dtype=bool),
    )
    sim = _simulator(config, seed)
    sim.warm_caches(trace)
    result = sim.run(trace)
    return result.total_cycles / n_accesses


def bandwidth_probe(
    config: "MachineConfig",
    footprint_bytes: int,
    *,
    n_accesses: int = 6000,
    seed: int = 0,
) -> float:
    """Sustained line-fetch bandwidth (lines per cycle) over a footprint.

    An independent line-granularity sweep; with ample window resources the
    achieved rate is the bottleneck layer's supply bandwidth.
    """
    check_int("n_accesses", n_accesses, minimum=1)
    line = config.l1.line_bytes
    addrs = strided_addresses(
        n_accesses, footprint_bytes=footprint_bytes, stride_bytes=line
    )
    trace = Trace.from_memory_addresses(
        addrs, compute_per_access=0, name=f"bw-{footprint_bytes}"
    )
    # Generous core resources so the memory system is the bottleneck.
    cfg = config.with_knobs(iw_size=256, rob_size=256)
    sim = _simulator(cfg, seed)
    sim.warm_caches(trace)
    result = sim.run(trace)
    return safe_ratio(n_accesses, result.total_cycles)


def mlp_probe(
    config: "MachineConfig",
    *,
    footprint_bytes: int = 64 << 20,
    n_accesses: int = 3000,
    seed: int = 0,
) -> float:
    """Achieved memory-level parallelism on independent far misses.

    Random line-granularity accesses over a DRAM-resident footprint; the
    peak number of simultaneously outstanding primary misses (MSHR
    occupancy) is the machine's usable MLP — bounded by the MSHR count and
    by how many misses the window can expose.
    """
    check_int("n_accesses", n_accesses, minimum=1)
    rng = make_rng(seed)
    n_lines = footprint_bytes // config.l1.line_bytes
    addrs = rng.integers(0, n_lines, n_accesses) * config.l1.line_bytes
    trace = Trace.from_memory_addresses(addrs, compute_per_access=0, name="mlp")
    sim = _simulator(config, seed)
    result = sim.run(trace)
    return float(result.component_stats["l1_mshr_peak"])


@dataclass
class MachineProfile:
    """Characterization summary produced by :func:`characterize`."""

    config_name: str
    latency_cycles: dict[int, float] = field(default_factory=dict)
    bandwidth_lines_per_cycle: dict[int, float] = field(default_factory=dict)
    mlp: float = 0.0

    def as_rows(self) -> list[tuple[str, float]]:
        """Flat (label, value) rows for table rendering."""
        rows: list[tuple[str, float]] = []
        for fp, lat in sorted(self.latency_cycles.items()):
            rows.append((f"latency @ {fp // KB} KB (cycles)", lat))
        for fp, bw in sorted(self.bandwidth_lines_per_cycle.items()):
            rows.append((f"bandwidth @ {fp // KB} KB (lines/cycle)", bw))
        rows.append(("memory-level parallelism", self.mlp))
        return rows


def characterize(
    config: "MachineConfig",
    *,
    footprints: "tuple[int, ...] | None" = None,
    seed: int = 0,
) -> MachineProfile:
    """Run the probe suite over a footprint ladder."""
    if footprints is None:
        footprints = (8 * KB, 64 * KB, 4 << 20)
    profile = MachineProfile(config_name=config.name)
    for fp in footprints:
        profile.latency_cycles[fp] = latency_probe(config, fp, seed=seed)
        profile.bandwidth_lines_per_cycle[fp] = bandwidth_probe(config, fp, seed=seed)
    profile.mlp = mlp_probe(config, seed=seed)
    return profile
