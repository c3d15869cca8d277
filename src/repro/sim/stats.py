"""From simulator records to the paper's quantities.

:func:`measure_hierarchy` feeds each layer's activity intervals into the
C-AMAT analyzer and combines the per-layer measurements with the
processor-side observations (CPI, CPI_exe, f_mem, overlap ratio) into a
:class:`HierarchyStats`, which in turn assembles the paper's
:class:`~repro.core.lpm.LPMRReport` (Eqs. 9-11) for the LPM algorithm.

Measurement conventions (DESIGN.md section 5):

* ``MR1`` reported two ways: the conventional miss rate (all misses over
  accesses) and the *request-rate* miss ratio (primary misses only — what
  actually reaches L2 after MSHR coalescing).  The LPMR formulas use the
  request-rate version, because LPMR is literally request rate over supply
  rate; the conventional one is kept for AMAT-style comparisons.
* ``CPI_exe`` is measured by re-running the trace with a perfect L1
  (``perfect=True``), exactly the paper's "computation cycles per
  instruction under perfect cache".
* Data stall time per instruction = ``CPI - CPI_exe`` (clamped at 0); the
  overlap ratio of Eq. (8) then follows from Eq. (7) as
  ``1 - stall_cycles / memory_active_cycles`` — this is the definitional
  equivalence proved in the paper's reference [17].
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

from repro.core.analyzer import LayerMeasurement, measure_layer
from repro.core.lpm import CPI_EXE_FLOOR, MAX_OVERLAP, LPMRReport
from repro.core.stall import StallModel
from repro.lint.contracts import satisfies
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.sim.engine import (
    HierarchySimulator,
    SimulationResult,
    batch_eligible,
)
from repro.sim.params import DEFAULT_MACHINE, CoreParams, MachineConfig
from repro.util.validation import safe_ratio
from repro.workloads.trace import Trace

__all__ = [
    "BATCH_MIN_LANES",
    "DispatchPlan",
    "HierarchyStats",
    "PERFECT_MEMO_ENTRIES",
    "PERFECT_PASS_KNOBS",
    "PerfectPassMemo",
    "dispatch_plan",
    "measure_hierarchy",
    "perfect_projection",
    "simulate_and_measure",
    "simulate_and_measure_batch",
]


@dataclass(frozen=True)
class HierarchyStats:
    """Per-layer C-AMAT measurements plus processor-side context."""

    l1: LayerMeasurement
    l2: LayerMeasurement
    mem: LayerMeasurement
    cpi: float
    cpi_exe: float
    f_mem: float
    n_instructions: int
    mr1_conventional: float
    mr1_request: float
    mr2_conventional: float
    mr2_request: float
    #: Present only when the machine has a third cache level.
    l3: "LayerMeasurement | None" = None
    mr3_conventional: float = 0.0
    mr3_request: float = 0.0

    @property
    def stall_per_instruction(self) -> float:
        """Measured data stall time per instruction (CPI - CPI_exe)."""
        return max(self.cpi - self.cpi_exe, 0.0)

    @property
    def stall_fraction_of_compute(self) -> float:
        """Stall as a fraction of pure compute time (the Δ% quantity)."""
        return safe_ratio(self.stall_per_instruction, self.cpi_exe)

    @property
    def overlap_ratio_cm(self) -> float:
        """Eq. (8) overlap ratio, measured via the Eq. (7) identity."""
        active = self.l1.active_cycles
        if active == 0:
            return 0.0
        stall_cycles = self.stall_per_instruction * self.n_instructions
        ratio = 1.0 - stall_cycles / active
        return min(max(ratio, 0.0), MAX_OVERLAP)

    @property
    def eta_combined(self) -> float:
        """The Eq. (13) effectiveness factor (pure cycles / miss cycles at L1)."""
        return safe_ratio(self.l1.pure_miss_cycles, self.l1.miss_active_cycles)

    @property
    def lpmr1(self) -> float:
        """Eq. (9)."""
        return safe_ratio(self.l1.camat * self.f_mem, self.cpi_exe)

    @property
    def lpmr2(self) -> float:
        """Eq. (10), with the request-rate MR1 (post-coalescing)."""
        return safe_ratio(self.l2.camat * self.f_mem * self.mr1_request, self.cpi_exe)

    @property
    def lpmr3(self) -> float:
        """Eq. (11), with request-rate miss ratios.

        With two cache levels this matches the paper's (LLC, MM) pair; with
        a third level configured it becomes the (L2, L3) matching ratio and
        :attr:`lpmr4` carries the (L3, MM) pair.
        """
        third = self.l3 if self.l3 is not None else self.mem
        return safe_ratio(
            third.camat * self.f_mem * self.mr1_request * self.mr2_request, self.cpi_exe
        )

    @property
    def lpmr4(self) -> float:
        """The (L3, main memory) matching ratio; 0 without an L3."""
        if self.l3 is None:
            return 0.0
        return safe_ratio(
            self.mem.camat * self.f_mem * self.mr1_request
            * self.mr2_request * self.mr3_request,
            self.cpi_exe,
        )

    @property
    def stall_model(self) -> StallModel:
        """Processor-side parameter bundle for the stall formulas."""
        return StallModel(
            f_mem=min(self.f_mem, 1.0),
            cpi_exe=max(self.cpi_exe, CPI_EXE_FLOOR),
            overlap_ratio_cm=self.overlap_ratio_cm,
        )

    @satisfies("lpmr_definitions", "report_bounds", "finite_report")
    def lpmr_report(self) -> LPMRReport:
        """The full matching snapshot consumed by the LPM algorithm."""
        return LPMRReport(
            lpmr1=self.lpmr1,
            lpmr2=self.lpmr2,
            lpmr3=self.lpmr3,
            camat1=self.l1.camat,
            camat2=self.l2.camat,
            camat3=self.mem.camat,
            mr1=self.mr1_request,
            mr2=self.mr2_request,
            f_mem=min(self.f_mem, 1.0),
            cpi_exe=max(self.cpi_exe, CPI_EXE_FLOOR),
            overlap_ratio_cm=self.overlap_ratio_cm,
            eta_combined=self.eta_combined,
            hit_time1=max(self.l1.hit_time, 1e-12),
            hit_concurrency1=self.l1.hit_concurrency,
        )

    @property
    def apc1(self) -> float:
        """L1 accesses per memory-active cycle (Fig. 6 quantity)."""
        return self.l1.apc

    @property
    def apc2(self) -> float:
        """L2 accesses per L2-active cycle (Fig. 7 quantity)."""
        return self.l2.apc

    @property
    def ipc(self) -> float:
        """Achieved instructions per cycle."""
        return safe_ratio(1.0, self.cpi)

    # -- serialization (checkpoint journal) -------------------------------
    def to_dict(self) -> dict:
        """JSON-serializable form, round-tripped by :meth:`from_dict`.

        Used by the evaluation runtime's checkpoint journal so interrupted
        explorations resume without re-simulating completed design points.
        """
        data = {
            "cpi": self.cpi,
            "cpi_exe": self.cpi_exe,
            "f_mem": self.f_mem,
            "n_instructions": self.n_instructions,
            "mr1_conventional": self.mr1_conventional,
            "mr1_request": self.mr1_request,
            "mr2_conventional": self.mr2_conventional,
            "mr2_request": self.mr2_request,
            "mr3_conventional": self.mr3_conventional,
            "mr3_request": self.mr3_request,
            "l1": self.l1.to_dict(),
            "l2": self.l2.to_dict(),
            "mem": self.mem.to_dict(),
        }
        if self.l3 is not None:
            data["l3"] = self.l3.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "HierarchyStats":
        """Inverse of :meth:`to_dict`."""
        layers = {
            name: LayerMeasurement.from_dict(data[name]) for name in ("l1", "l2", "mem")
        }
        l3 = LayerMeasurement.from_dict(data["l3"]) if "l3" in data else None
        scalars = {
            k: data[k]
            for k in (
                "cpi", "cpi_exe", "f_mem", "n_instructions",
                "mr1_conventional", "mr1_request",
                "mr2_conventional", "mr2_request",
                "mr3_conventional", "mr3_request",
            )
        }
        return cls(l3=l3, **layers, **scalars)


@satisfies("stats_layers", "lpmr_definitions", "report_bounds")
def measure_hierarchy(result: SimulationResult, cpi_exe: float) -> HierarchyStats:
    """Run the C-AMAT analyzer over a simulation's records."""
    with obs_trace.span("analysis.measure", trace=result.trace_name, config=result.config.name):
        acc = result.accesses
        l1 = measure_layer(acc.l1_hit_start, acc.l1_hit_end, acc.l1_miss_start, acc.l1_miss_end)
        l2 = measure_layer(acc.l2_hit_start, acc.l2_hit_end, acc.l2_miss_start, acc.l2_miss_end)
        mem = measure_layer(
            acc.mem_start, acc.mem_end,
            acc.mem_start, acc.mem_start,  # main memory has no miss phase
        ) if acc.n_mem_accesses else measure_layer([], [], [], [])
        l3 = None
        mr2_request = acc.mem_per_l2_access
        mr3_conventional = 0.0
        mr3_request = 0.0
        if acc.has_l3:
            l3 = measure_layer(
                acc.l3_hit_start, acc.l3_hit_end, acc.l3_miss_start, acc.l3_miss_end
            ) if acc.n_l3_accesses else measure_layer([], [], [], [])
            mr2_request = acc.l3_per_l2_access
            mr3_conventional = acc.l3_miss_rate
            mr3_request = acc.mem_per_l3_access
        n_instr = result.instructions.n_instructions
        n_mem_ops = acc.n_accesses
        return HierarchyStats(
            l1=l1,
            l2=l2,
            mem=mem,
            cpi=result.cpi,
            cpi_exe=cpi_exe,
            f_mem=safe_ratio(n_mem_ops, n_instr),
            n_instructions=n_instr,
            mr1_conventional=acc.l1_miss_rate,
            mr1_request=acc.l2_per_l1_access,
            mr2_conventional=acc.l2_miss_rate,
            mr2_request=mr2_request,
            l3=l3,
            mr3_conventional=mr3_conventional,
            mr3_request=mr3_request,
        )


#: The knobs the perfect-L1 CPI_exe pass reads besides the trace, as dotted
#: :class:`MachineConfig` field paths.  With a perfect L1 every access hits
#: in ``l1_hit_time`` with no port contention, so nothing below the L1 and
#: no L1 geometry can move the result.  ``tests/sim/test_batch_dispatch.py``
#: perturbs every other field and fails if the pass starts reading one.
PERFECT_PASS_KNOBS = ("core.issue_width", "core.rob_size", "core.iw_size", "l1_hit_time")

_perfect_knobs = attrgetter(*PERFECT_PASS_KNOBS)


def perfect_projection(config: MachineConfig) -> tuple:
    """The values of *config*'s :data:`PERFECT_PASS_KNOBS`, in order."""
    return _perfect_knobs(config)


def _perfect_lane(projection: tuple) -> MachineConfig:
    """A batch-eligible config whose :func:`perfect_projection` is *projection*.

    :data:`DEFAULT_MACHINE` with the four knobs set; every other field is
    irrelevant to the pass (``tests/sim/test_batch_dispatch.py``).
    """
    knobs = dict(zip(PERFECT_PASS_KNOBS, projection))
    core = CoreParams(
        issue_width=knobs["core.issue_width"],
        rob_size=knobs["core.rob_size"],
        iw_size=knobs["core.iw_size"],
    )
    return DEFAULT_MACHINE.with_(core=core, l1_hit_time=knobs["l1_hit_time"])


#: Entries a :class:`PerfectPassMemo` keeps before evicting the least
#: recently used one (a float and a short key each: well under 1 MB).
PERFECT_MEMO_ENTRIES = 4096


class PerfectPassMemo:
    """Bounded memo of perfect-L1 CPI_exe values across calls.

    Keyed on the content digest of the trace actually simulated and the
    config's :func:`perfect_projection`.  Nothing else can move the
    result: the pass never touches cache or DRAM state (every access hits
    in ``l1_hit_time``), so neither the simulator seed nor warm-up is
    part of the key, and a memo held in memory cannot outlive the code
    that filled it.  ``tests/sim/test_batch_dispatch.py`` fails if the
    pass starts reading anything outside the key.

    A memo is an object its owner passes in explicitly — one per
    evaluation runtime for inline runs, one per pool worker for the
    worker's lifetime — never module state, so callers that pass none
    (the default) hash and look up nothing.  Every config consults it,
    prefetch, bypass and L3 configs included: the perfect pass
    never reaches the units that make a config ineligible for the kernel.
    """

    def __init__(self) -> None:
        self._cpis: "OrderedDict[tuple[str, tuple], float]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._cpis)

    def recall(self, trace: Trace, projections: "list[tuple]") -> "dict[tuple, float]":
        """The remembered CPI_exe of each of *projections* on *trace*."""
        digest = trace.content_digest()
        found: "dict[tuple, float]" = {}
        for projection in projections:
            key = (digest, projection)
            cpi = self._cpis.get(key)
            if cpi is not None:
                self._cpis.move_to_end(key)
                found[projection] = cpi
        if obs_metrics.metrics_enabled():
            reg = obs_metrics.get_registry()
            reg.counter("sim.perfect_memo.hits").inc(len(found))
            reg.counter("sim.perfect_memo.misses").inc(len(projections) - len(found))
        return found

    def remember(self, trace: Trace, cpis: "dict[tuple, float]") -> None:
        """Store CPI_exe per projection for *trace*, evicting the oldest."""
        digest = trace.content_digest()
        for projection, cpi in cpis.items():
            self._cpis[(digest, projection)] = cpi
        while len(self._cpis) > PERFECT_MEMO_ENTRIES:
            self._cpis.popitem(last=False)


#: Narrowest group of batch-eligible configs that runs on the vectorized
#: kernel; narrower groups take the scalar fast path.  The kernel's cost
#: per instruction is nearly flat in the lane count, so it only wins once
#: enough lanes share it: measured on gcc, namd and bwaves it costs
#: 0.63-0.96x the scalar fast path at 16 lanes but 0.66-1.34x at 12 and
#: 0.84-1.34x at 8 (docs/PERFORMANCE.md, "Dispatch").
BATCH_MIN_LANES = 16


class DispatchPlan(NamedTuple):
    """Where :func:`simulate_and_measure_batch` runs each config (indices)."""

    #: Lanes of the one real-pass kernel call (empty below the crossover).
    kernel: "list[int]"
    #: Configs simulated one by one on the scalar engine, in input order.
    scalar: "list[int]"
    #: The scalar configs the kernel cannot run at all (prefetcher or L1
    #: bypass).  Only their real pass is theirs alone; the
    #: perfect pass is shared with every config of the same projection.
    ineligible: "list[int]"


def dispatch_plan(configs: "list[MachineConfig]") -> DispatchPlan:
    """Split *configs* between one kernel call and the scalar path.

    Batch-eligible configs go to the kernel together when there are at
    least :data:`BATCH_MIN_LANES` of them; otherwise every config runs on
    the scalar path.  Ineligible configs always run there.
    """
    eligible: "list[int]" = []
    ineligible: "list[int]" = []
    for idx, config in enumerate(configs):
        (eligible if batch_eligible(config) else ineligible).append(idx)
    if len(eligible) >= BATCH_MIN_LANES:
        return DispatchPlan(eligible, ineligible, ineligible)
    return DispatchPlan([], list(range(len(configs))), ineligible)


def _perfect_cpi(config: MachineConfig, trace: Trace, seed: int) -> float:
    """CPI_exe: the CPI of *trace* on *config* with a perfect L1."""
    return HierarchySimulator(config, seed=seed).run(trace, perfect=True).cpi


def _measure_real(
    config: MachineConfig, trace: Trace, cpi_exe: float, *, seed: int, warm: bool
) -> tuple[SimulationResult, HierarchyStats]:
    """The real run of *config* on *trace*, measured against *cpi_exe*."""
    sim = HierarchySimulator(config, seed=seed)
    if warm:
        sim.warm_caches(trace)
    result = sim.run(trace)
    return result, measure_hierarchy(result, cpi_exe=cpi_exe)


def simulate_and_measure(
    config: MachineConfig,
    trace: Trace,
    *,
    seed: int = 0,
    warm: bool = True,
    memo: "PerfectPassMemo | None" = None,
) -> tuple[SimulationResult, HierarchyStats]:
    """Convenience path: perfect run for CPI_exe, real run, analyzer pass.

    ``warm=True`` touches the trace's addresses functionally first, so the
    measured window reflects steady-state locality rather than cold-start
    compulsory misses (the paper samples long-running SPEC regions).
    A *memo* serves the perfect pass of any config from an earlier call
    with the same :func:`perfect_projection`; the result is bit-identical
    either way.
    """
    cpi = _shared_perfect_cpis([config], trace, seed, memo)[perfect_projection(config)]
    return _measure_real(config, trace, cpi, seed=seed, warm=warm)


def simulate_and_measure_batch(
    configs: "list[MachineConfig]",
    trace: Trace,
    *,
    seed: int = 0,
    warm: bool = True,
    memo: "PerfectPassMemo | None" = None,
) -> "list[tuple[SimulationResult, HierarchyStats]]":
    """:func:`simulate_and_measure` for N configs sharing one trace.

    :func:`dispatch_plan` decides where each config runs: a wide enough
    group of batch-eligible configs shares one vectorized kernel call,
    everything else takes the scalar engine.  Either way the perfect-L1
    pass runs once per distinct :func:`perfect_projection` among all the
    configs, eligible or not (none at all for those a *memo* remembers).
    Every engine is bit-identical, so the results equal N
    :func:`simulate_and_measure` calls, in input order.
    """
    plan = dispatch_plan(configs)
    return _measure_planned(configs, trace, plan, seed=seed, warm=warm, memo=memo)


def _shared_perfect_cpis(
    configs: "list[MachineConfig]",
    trace: Trace,
    seed: int,
    memo: "PerfectPassMemo | None" = None,
) -> "dict[tuple, float]":
    """CPI_exe per distinct :func:`perfect_projection` of *configs*.

    Projections the *memo* remembers cost nothing; the rest run one
    perfect pass each: all in one kernel call when there are at least
    :data:`BATCH_MIN_LANES` of them, else one scalar run each (the
    scalar engine's core-only perfect loop runs any config).  A kernel
    lane is the projection's :func:`_perfect_lane`, so ineligible configs
    share the kernel call too.
    """
    firsts: "dict[tuple, MachineConfig]" = {}
    for config in configs:
        firsts.setdefault(perfect_projection(config), config)
    known = memo.recall(trace, list(firsts)) if memo is not None and firsts else {}
    todo = {key: config for key, config in firsts.items() if key not in known}
    if len(todo) < BATCH_MIN_LANES:
        fresh = {key: _perfect_cpi(config, trace, seed) for key, config in todo.items()}
    else:
        from repro.sim.batch import BatchHierarchySimulator

        lanes = [_perfect_lane(key) for key in todo]
        perfect = BatchHierarchySimulator(lanes, seed=seed).run(trace, perfect=True)
        fresh = {key: res.cpi for key, res in zip(todo, perfect)}
    if memo is not None:
        memo.remember(trace, fresh)
    return {**known, **fresh}


def _measure_planned(
    configs: "list[MachineConfig]",
    trace: Trace,
    plan: DispatchPlan,
    *,
    seed: int,
    warm: bool,
    memo: "PerfectPassMemo | None" = None,
) -> "list[tuple[SimulationResult, HierarchyStats]]":
    """Measure *configs* where *plan* puts them, sharing perfect passes."""
    cpi_exe = _shared_perfect_cpis(configs, trace, seed, memo)
    out: "list[tuple[SimulationResult, HierarchyStats] | None]" = [None] * len(configs)
    if plan.kernel:
        from repro.sim.batch import BatchHierarchySimulator

        sim = BatchHierarchySimulator([configs[i] for i in plan.kernel], seed=seed)
        if warm:
            sim.warm_caches(trace)
        for idx, res in zip(plan.kernel, sim.run(trace)):
            cpi = cpi_exe[perfect_projection(configs[idx])]
            out[idx] = (res, measure_hierarchy(res, cpi_exe=cpi))
    for idx in plan.scalar:
        config = configs[idx]
        cpi = cpi_exe[perfect_projection(config)]
        out[idx] = _measure_real(config, trace, cpi, seed=seed, warm=warm)
    return out  # type: ignore[return-value]
