"""Tier-0 analytical predictor: locality profile + config -> LPM quantities.

Maps a :class:`~repro.workloads.locality.LocalityProfile` and a
:class:`~repro.sim.params.MachineConfig` to predicted per-level miss
ratios, C-AMAT_i, LPMR_i and CPI **without running the engine** — pure
arithmetic, microseconds per configuration, so the full Case Study I
space can be ranked before a single simulation is spent.

The model (docs/MODEL.md section 10 derives each step):

* **Miss ratios** come from the stack-distance survival function:
  ``MR1 = P(SD >= C1/line)`` (fully-associative LRU approximation of the
  set-associative cache) and, by inclusion at a shared line size,
  ``MR2 = P(SD >= C2/line) / MR1`` — one histogram serves every size.
* **CPI_exe** is a critical-path estimate from the issue width and the
  trace's dependency fractions.
* **Concurrency** terms are Little's-law estimates clamped by the
  hardware resources: ``C_H1`` by the L1 ports, ``C_M1`` by MSHRs and
  the instruction window, ``C_H2`` by the L2 banks, ``C_M3`` by the
  DRAM banks.
* **C-AMAT_i** then follow from Eq. (2), the LPMRs from their defining
  Eqs. (9)-(11) ratios (exactly — the ``lpmr_definitions`` contract is
  satisfied by construction), and CPI from the Eq. (12) stall model.

This is a *surrogate*: systematically biased where the engine's event
interactions dominate (see docs/PERFORMANCE.md for the measured
per-SPEC error).  Multi-fidelity exploration therefore never trusts it
for final numbers — it only ranks, and the frontier is re-measured by
the engine (:func:`select_frontier`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.lpm import CPI_EXE_FLOOR, MAX_OVERLAP, LPMRReport
from repro.lint.contracts import satisfies
from repro.runtime.errors import ConfigError
from repro.sim.params import MachineConfig
from repro.util.validation import safe_ratio
from repro.workloads.locality import LocalityProfile

__all__ = ["SurrogatePrediction", "predict", "predict_many", "select_frontier"]


def _clamp01(x: float) -> float:
    return min(max(x, 0.0), 1.0)


@dataclass(frozen=True)
class SurrogatePrediction:
    """Predicted LPM snapshot of one configuration on one trace.

    Field-compatible with :class:`~repro.core.lpm.LPMRReport` (the duck
    type the contract checkers and the LPM algorithm consume) plus the
    sweep-facing quantities (``cpi``, ``apc1``, ``apc2``...), so a
    prediction can stand in for a :class:`~repro.sim.stats.
    HierarchyStats` row in ranking tables.
    """

    lpmr1: float
    lpmr2: float
    lpmr3: float
    camat1: float
    camat2: float
    camat3: float
    mr1: float
    mr2: float
    f_mem: float
    cpi_exe: float
    cpi: float
    overlap_ratio_cm: float
    eta_combined: float
    hit_time1: float
    hit_concurrency1: float
    config_name: str = ""
    #: Monotone resource richness (log2 of the knob product), used only
    #: to pick a representative inside an exact-tie class — see
    #: :func:`select_frontier`.
    resource_score: float = 0.0
    #: The six exploration knobs as a vector, for knob-wise dominance
    #: tests inside an exact-tie class.  Empty when the prediction was
    #: built by hand (tests); frontier selection then falls back to the
    #: scalar ``resource_score``.
    resources: "tuple[int, ...]" = ()

    @property
    def mr1_conventional(self) -> float:
        """Alias for table parity with HierarchyStats rows."""
        return self.mr1

    @property
    def mr1_request(self) -> float:
        """The surrogate does not model MSHR coalescing separately."""
        return self.mr1

    @property
    def mr2_request(self) -> float:
        """Conditional (inclusion) L2 miss ratio."""
        return self.mr2

    @property
    def apc1(self) -> float:
        """Predicted L1 accesses per memory-active cycle (1 / C-AMAT1)."""
        return safe_ratio(1.0, self.camat1)

    @property
    def apc2(self) -> float:
        """Predicted L2 accesses per L2-active cycle (1 / C-AMAT2)."""
        return safe_ratio(1.0, self.camat2)

    @property
    def ipc(self) -> float:
        """Predicted instructions per cycle."""
        return safe_ratio(1.0, self.cpi)

    @satisfies("lpmr_definitions", "report_bounds", "finite_report")
    def lpmr_report(self) -> LPMRReport:
        """The prediction as an LPMRReport, for the LPM algorithm."""
        return LPMRReport(
            lpmr1=self.lpmr1, lpmr2=self.lpmr2, lpmr3=self.lpmr3,
            camat1=self.camat1, camat2=self.camat2, camat3=self.camat3,
            mr1=self.mr1, mr2=self.mr2, f_mem=self.f_mem,
            cpi_exe=self.cpi_exe, overlap_ratio_cm=self.overlap_ratio_cm,
            eta_combined=self.eta_combined, hit_time1=self.hit_time1,
            hit_concurrency1=self.hit_concurrency1,
        )


@satisfies("lpmr_definitions", "report_bounds", "finite_report")
def predict(profile: LocalityProfile, config: MachineConfig) -> SurrogatePrediction:
    """Tier-0 prediction of *config*'s LPM quantities on the profiled trace."""
    line = profile.line_bytes
    if config.l1.line_bytes != line:
        raise ConfigError(
            f"locality profile is line_bytes={line} but the configuration "
            f"uses {config.l1.line_bytes}-byte lines; re-profile the trace"
        )
    if config.l3 is not None:
        raise ConfigError(
            "the tier-0 surrogate models two-level hierarchies; "
            f"{config.name!r} configures an L3"
        )
    hist = profile.histogram
    f_mem = _clamp01(profile.f_mem)

    # Miss-ratio curve: one survival-function lookup per level.
    mr1 = _clamp01(hist.miss_fraction(config.l1.size_bytes // line))
    p2 = _clamp01(hist.miss_fraction(config.l2.size_bytes // line))
    mr2 = _clamp01(safe_ratio(p2, mr1)) if mr1 > 1e-12 else 0.0

    # CPI_exe: issue-width floor plus the dependency critical path (a
    # dependent load pays the L1 hit time even under a perfect cache).
    h1 = float(config.l1_hit_time)
    w = config.core.issue_width
    alu_latency = 1.0  # the compute dependency term pays one ALU cycle
    dep_path = (
        f_mem * profile.dep_frac_mem * h1
        + (1.0 - f_mem) * profile.dep_frac_compute * alu_latency
    )
    cpi_exe = max(1.0 / w, dep_path, CPI_EXE_FLOOR)

    # Little's-law concurrency estimates, clamped by hardware resources.
    demand = safe_ratio(f_mem, cpi_exe)  # accesses per cycle at full speed
    h2 = float(config.l2_hit_time)
    mem_latency = float(
        config.l2_to_mem_delay + 2 * config.dram.t_bus
        + config.dram.row_closed_latency + config.dram.t_burst
    )
    amp2 = mem_latency
    # L2 bank contention: pipelined banks, so the penalty is a mild mean
    # queueing wait that shrinks with the bank count — calibrated against
    # the engine's ~0.1-CPI swing over the banks ladder, not a hard M/D/1
    # knee (the engine never saturates its banks on these traces).
    demand2 = demand * mr1
    bank_wait = min(0.5 * h2 * demand2 / float(config.l2_banks), 2.0 * h2)
    amp1 = config.l1_to_l2_delay + h2 + bank_wait + mr2 * amp2
    ports_eff = config.l1_ports * (h1 if config.l1_pipelined else 1.0)
    c_h1 = max(1.0, min(ports_eff, demand * h1))
    mlp_scale = 1.0 - profile.dep_frac_mem  # dependent loads serialize
    # The MLP window: misses in flight are bounded by the MSHR file and
    # by how many *independent misses* the core keeps in flight — the
    # classic ROB-limited MLP bound.  ``iw_size`` bounds in-flight memory
    # requests directly (load/store-queue); the ROB holds instructions of
    # every kind, of which only the f_mem fraction are accesses.
    window = min(float(config.core.iw_size), config.core.rob_size * f_mem)
    window_mlp = 1.0 + window * mr1 * mlp_scale
    mlp_cap = min(float(config.mshr_count), window_mlp)
    c_m1 = max(1.0, min(mlp_cap, 1.0 + demand * mr1 * amp1 * mlp_scale))
    c_h2 = max(1.0, min(float(config.l2_banks), demand2 * h2))
    c_m2 = max(
        1.0,
        min(float(config.l2_mshr_count), 1.0 + demand2 * mr2 * amp2 * mlp_scale),
    )
    demand3 = demand2 * mr2
    c_m3 = max(1.0, min(float(config.dram.n_banks), demand3 * mem_latency))

    # Eq. (2) per layer.
    camat1 = h1 / c_h1 + mr1 * amp1 / c_m1
    camat2 = h2 / c_h2 + mr2 * amp2 / c_m2
    camat3 = mem_latency / c_m3

    # Stall model: cpi_exe already pays the L1 hit time (it is measured
    # under a perfect L1), so only miss latency stalls the core.  A
    # dependent load exposes its full AMP — no MSHR can hide a pointer
    # chase — while independent misses overlap each other, amortizing to
    # AMP/C_M1 apiece.  Monotonically non-decreasing in MR1: more misses
    # never predict a faster machine, even as concurrency saturates.
    stall_per_access = mr1 * amp1 * (
        profile.dep_frac_mem + (1.0 - profile.dep_frac_mem) / c_m1
    )
    # L1 port contention: an unpipelined port is busy h1 cycles per
    # access, so every access additionally waits for the port — the
    # engine's single strongest CPU-side knob on these traces.
    service = 1.0 if config.l1_pipelined else h1
    rho1 = min(demand * service / config.l1_ports, 1.0)
    port_wait = 0.5 * (service / config.l1_ports) * rho1
    cpi = cpi_exe + f_mem * (stall_per_access + port_wait)
    # ... and the matching throughput floor: the core cannot retire
    # faster than the ports can serve its memory accesses.
    cpi = max(cpi, f_mem * service / config.l1_ports)
    # Report overlap via the same Eq. (7) identity the engine measures:
    # 1 - stall cycles / memory-active cycles, so Eq. (12) holds exactly
    # for the predicted (cpi, cpi_exe, camat1, overlap) tuple.
    active_per_instr = f_mem * camat1
    if active_per_instr > 1e-12:
        overlap = 1.0 - (cpi - cpi_exe) / active_per_instr
    else:
        overlap = 0.0
    overlap = min(max(overlap, 0.0), MAX_OVERLAP)
    eta = _clamp01(safe_ratio(1.0, c_m1))
    return SurrogatePrediction(
        lpmr1=camat1 * demand,
        lpmr2=camat2 * demand * mr1,
        lpmr3=camat3 * demand * mr1 * mr2,
        camat1=camat1, camat2=camat2, camat3=camat3,
        mr1=mr1, mr2=mr2, f_mem=f_mem, cpi_exe=cpi_exe, cpi=cpi,
        overlap_ratio_cm=overlap, eta_combined=eta,
        hit_time1=h1, hit_concurrency1=c_h1,
        config_name=config.name,
        resource_score=math.log2(
            config.core.issue_width * config.core.iw_size * config.core.rob_size
            * config.l1_ports * config.mshr_count * config.l2_banks
        ),
        resources=(
            config.core.issue_width, config.core.iw_size,
            config.core.rob_size, config.l1_ports,
            config.mshr_count, config.l2_banks,
        ),
    )


def predict_many(
    profile: LocalityProfile, configs: "list[MachineConfig]"
) -> "list[SurrogatePrediction]":
    """Rank-ready predictions for a whole candidate slice."""
    return [predict(profile, config) for config in configs]


def select_frontier(
    predictions: "list[SurrogatePrediction]",
    *,
    top_k: int = 8,
    margin: float = 0.05,
    objective: str = "cpi",
) -> "list[int]":
    """Indices of the predictions worth escalating to the engine.

    Predictions with an *identical* objective value form an equivalence
    class the surrogate cannot rank — configurations differing only in
    knobs past their saturation point (ROB beyond the MSHR-limited MLP
    window, issue width beyond the dependency limit, ...).  The engine
    is monotone in each resource, so any class member that is knob-wise
    dominated by another member cannot beat it on the engine; each class
    is therefore represented by its *Pareto-maximal* members.  A
    saturated-knob subgrid (the sweep case) has a single maximum, so the
    whole class costs one simulation; a set of single-knob upgrades (the
    greedy-walk case) is an antichain, so every member escalates —
    dominance never silently drops a direction the engine could still
    tell apart.

    The escalated set is then the union of the *top_k* best classes and
    every class within a fractional *margin* of the best — error-margin
    awareness: a margin above the surrogate's observed ranking error
    buys robustness against between-class mis-ranking at the cost of
    extra simulations.  Indices come back in input order.
    """
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    if margin < 0.0:
        raise ValueError(f"margin must be >= 0, got {margin}")
    if not predictions:
        return []
    values = [float(getattr(p, objective)) for p in predictions]
    classes: "dict[float, list[int]]" = {}
    for i, value in enumerate(values):
        classes.setdefault(value, []).append(i)
    reps: "dict[float, list[int]]" = {
        value: _pareto_maximal(predictions, members)
        for value, members in classes.items()
    }
    ranked = sorted(reps)
    chosen: "set[int]" = set()
    for v in ranked[:top_k]:
        chosen.update(reps[v])
    cutoff = ranked[0] * (1.0 + margin)
    for v in ranked:
        if v <= cutoff:
            chosen.update(reps[v])
    return sorted(chosen)


def _pareto_maximal(
    predictions: "list[SurrogatePrediction]", members: "list[int]"
) -> "list[int]":
    """Members of one tie class not knob-wise dominated by another member."""
    if len(members) == 1:
        return list(members)
    if any(not predictions[i].resources for i in members):
        # Hand-built predictions without knob vectors: fall back to the
        # scalar richness score (a total order, so one representative).
        return [max(members, key=lambda i: predictions[i].resource_score)]
    out = []
    for i in members:
        ri = predictions[i].resources
        dominated = any(
            j != i
            and all(a >= b for a, b in zip(predictions[j].resources, ri))
            and predictions[j].resources != ri
            for j in members
        )
        if not dominated:
            out.append(i)
    return out
