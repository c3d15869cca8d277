"""The Fig. 5 machine: a 16-core CMP with heterogeneous private L1 caches.

Four computing-unit groups of four cores each, with private L1 data caches
of 4 KB, 16 KB, 32 KB and 64 KB, sharing the L2 (NUCA — non-uniform cache
access).  Scheduling decides which application runs on which core, i.e.
which L1 size each application receives.

:func:`profile_benchmarks` builds the measurement database that both the
Fig. 6/7 plots and the NUCA-SA scheduler consume: every benchmark simulated
standalone on every distinct L1 size, yielding APC1, APC2, IPC and the LPMR
snapshot per (benchmark, L1 size).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.sim.params import MachineConfig
from repro.sim.stats import HierarchyStats, simulate_and_measure_batch
from repro.util.validation import check_int
from repro.workloads.spec import BenchmarkProfile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.evaluate import EvaluationRuntime

__all__ = ["CoreGroup", "NUCAMachine", "BenchmarkProfileDB", "profile_benchmarks"]

KB = 1024


@dataclass(frozen=True)
class CoreGroup:
    """A group of identical cores with one private-L1 size."""

    l1_size_bytes: int
    n_cores: int

    def __post_init__(self) -> None:
        check_int("l1_size_bytes", self.l1_size_bytes, minimum=1024)
        check_int("n_cores", self.n_cores, minimum=1)


def _default_groups() -> tuple[CoreGroup, ...]:
    return (
        CoreGroup(4 * KB, 4),
        CoreGroup(16 * KB, 4),
        CoreGroup(32 * KB, 4),
        CoreGroup(64 * KB, 4),
    )


@dataclass(frozen=True)
class NUCAMachine:
    """The heterogeneous-L1 CMP of Fig. 5.

    ``base_config`` supplies everything except the per-core L1 size.  Case
    Study II uses a pipelined dual-ported L1 with generous MSHRs, so cache
    *size* (not bandwidth) is the differentiating resource between groups.
    """

    groups: tuple[CoreGroup, ...] = field(default_factory=_default_groups)
    #: Per-core parameters.  The shared LLC of a 16-core CMP is pipelined
    #: and 8-way banked, i.e. it can accept one access per bank per cycle —
    #: otherwise sixteen co-runners would saturate it under any schedule and
    #: scheduling could not differentiate (the paper's CMP likewise provides
    #: an LLC sized/banked for sixteen clients).
    base_config: MachineConfig = field(
        default_factory=lambda: MachineConfig().with_knobs(
            issue_width=4, iw_size=64, rob_size=64,
            l1_ports=2, mshr_count=16, l2_banks=8,
        ).with_(l1_pipelined=True, l2_pipelined=True, l2_hit_time=24)
    )

    def __post_init__(self) -> None:
        if not self.groups:
            raise ValueError("need at least one core group")

    @property
    def n_cores(self) -> int:
        """Total core count."""
        return sum(g.n_cores for g in self.groups)

    @property
    def core_l1_sizes(self) -> tuple[int, ...]:
        """Per-core L1 size, cores ordered group by group."""
        sizes: list[int] = []
        for g in self.groups:
            sizes.extend([g.l1_size_bytes] * g.n_cores)
        return tuple(sizes)

    @property
    def distinct_l1_sizes(self) -> tuple[int, ...]:
        """Sorted distinct L1 sizes across groups."""
        return tuple(sorted({g.l1_size_bytes for g in self.groups}))

    def config_for_l1(self, l1_size_bytes: int) -> MachineConfig:
        """Per-core simulator configuration with the given L1 size."""
        return self.base_config.with_knobs(
            l1_size_bytes=l1_size_bytes, name=f"nuca-l1-{l1_size_bytes // KB}k"
        )

    def mapping_space_size(self, n_apps: int | None = None) -> int:
        """Number of distinct application-to-core-group mappings.

        For 16 applications on the default 4x4 machine this is
        ``16! / (4!)^4 = 63,063,000`` — the paper's "extremely large"
        mapping space that motivates LPM-guided scheduling.
        """
        from math import factorial

        n = self.n_cores if n_apps is None else n_apps
        if n != self.n_cores:
            raise ValueError("mapping space defined for n_apps == n_cores")
        size = factorial(n)
        for g in self.groups:
            size //= factorial(g.n_cores)
        return size


@dataclass
class BenchmarkProfileDB:
    """Standalone measurements per (benchmark, L1 size).

    The information NUCA-SA is allowed to use: exactly what the paper's
    online C-AMAT analyzer measures per application on each core type.
    """

    machine: NUCAMachine
    n_mem: int
    seed: int
    stats: dict[tuple[str, int], HierarchyStats] = field(default_factory=dict)

    def get(self, benchmark: str, l1_size: int) -> HierarchyStats:
        """Measurement for one (benchmark, L1 size) pair."""
        try:
            return self.stats[(benchmark, l1_size)]
        except KeyError:
            raise KeyError(
                f"no profile for {benchmark!r} at L1={l1_size}; "
                "was it included in profile_benchmarks()?"
            ) from None

    def benchmarks(self) -> list[str]:
        """Profiled benchmark names, sorted."""
        return sorted({b for b, _ in self.stats})

    def apc1(self, benchmark: str, l1_size: int) -> float:
        """Fig. 6 quantity."""
        return self.get(benchmark, l1_size).apc1

    def apc2(self, benchmark: str, l1_size: int) -> float:
        """Fig. 7 quantity."""
        return self.get(benchmark, l1_size).apc2

    def ipc(self, benchmark: str, l1_size: int) -> float:
        """Standalone IPC (the IPC_alone of the Hsp metric at that L1)."""
        return self.get(benchmark, l1_size).ipc


def profile_benchmarks(
    machine: NUCAMachine,
    benchmarks: "list[BenchmarkProfile]",
    *,
    n_mem: int = 20000,
    seed: int = 0,
    warm: bool = True,
    runtime: "EvaluationRuntime | None" = None,
) -> BenchmarkProfileDB:
    """Simulate every benchmark standalone on every distinct L1 size.

    Each benchmark's L1 sizes are measured together, so they share one
    perfect-L1 pass.  With a *runtime*, the whole (benchmark x L1 size)
    grid goes through the supervised evaluation pool
    (:meth:`EvaluationRuntime.evaluate`) — one job per benchmark,
    parallel across workers, with per-job retries, and checkpointed to the
    runtime's journal so an interrupted profiling run resumes where it
    stopped.  Under fault injection or a custom job body every grid point
    is its own scalar job.
    """
    db = BenchmarkProfileDB(machine=machine, n_mem=n_mem, seed=seed)
    sizes = machine.distinct_l1_sizes
    configs = [machine.config_for_l1(l1_size) for l1_size in sizes]
    traces = [profile.trace(n_mem, seed=seed) for profile in benchmarks]
    if runtime is not None:
        from repro.runtime.evaluate import EvaluationRequest

        outcomes = runtime.evaluate([
            EvaluationRequest(config=config, trace=trace, seed=seed, warm=warm)
            for trace in traces for config in configs
        ])
        stats = [outcome.result() for outcome in outcomes]
    else:
        stats = [
            measured
            for trace in traces
            for _, measured in simulate_and_measure_batch(
                configs, trace, seed=seed, warm=warm
            )
        ]
    slots = [(profile.name, l1_size) for profile in benchmarks for l1_size in sizes]
    db.stats.update(zip(slots, stats))
    return db
