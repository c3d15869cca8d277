"""The Layered Performance Matching model (Section III-B, Eqs. 9-11, 14-15).

A memory hierarchy matches its processor when, at every layer, the request
rate from above equals the supply rate from below.  The Layered Performance
Matching Ratios quantify the mismatch::

    LPMR1 = C-AMAT1 * f_mem / CPI_exe                                 (Eq. 9)
    LPMR2 = C-AMAT2 * f_mem * MR1 / CPI_exe                           (Eq. 10)
    LPMR3 = C-AMAT3 * f_mem * MR1 * MR2 / CPI_exe                     (Eq. 11)

``LPMR >= 1`` in steady state (a layer cannot supply faster than it is
asked); LPMR = 1 is the perfectly matched optimum.

Request/supply rates (Section III-B):

* request rate on L1  = ``IPC_exe * f_mem``
* request rate on LLC = ``IPC_exe * f_mem * MR1``
* request rate on MM  = ``IPC_exe * f_mem * MR1 * MR2``
* supply rate of a layer = its measured ``APC`` (= 1 / C-AMAT of the layer)

so each LPMR is exactly (request rate)/(supply rate) of the matching pair.

Thresholds for "minimal data stall" (Δ% of pure compute time)::

    T1 = Δ% / (1 - overlapRatio_cm)                                   (Eq. 14)
    T2 = 1/eta * (Δ%/(1 - overlapRatio_cm) - H1*f_mem/(C_H1*CPI_exe)) (Eq. 15)

Meeting ``LPMR1 <= T1`` (equivalently ``LPMR2 <= T2``) bounds stall time per
instruction by ``Δ% * CPI_exe``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.stall import StallModel
from repro.util.validation import check_fraction, check_non_negative, check_positive

__all__ = [
    "lpmr1",
    "lpmr2",
    "lpmr3",
    "request_rate",
    "threshold_t1",
    "threshold_t2",
    "LPMRReport",
    "MatchingThresholds",
    "MAX_OVERLAP",
    "CPI_EXE_FLOOR",
]

#: Overlap ratios are capped strictly below 1 so the Eq. (14)/(15)
#: thresholds stay finite; a measured 1.0 means "no observable stall".
#: Both the measurement path and the tier-0 surrogate clamp to this.
MAX_OVERLAP = 1.0 - 1e-9

#: Smallest CPI_exe fed to the LPMR ratios and the stall model, which
#: divide by it; keeps a degenerate (empty) run finite.
CPI_EXE_FLOOR = 1e-12


def request_rate(ipc_exe: float, f_mem: float, *miss_rates: float) -> float:
    """Request rate arriving at a layer, in accesses per cycle.

    ``IPC_exe * f_mem`` filtered down by the miss rates of every layer
    above: the L1 sees all memory instructions, the LLC sees the L1 misses,
    and main memory sees the LLC misses.
    """
    check_positive("ipc_exe", ipc_exe)
    check_fraction("f_mem", f_mem)
    rate = ipc_exe * f_mem
    for i, mr in enumerate(miss_rates):
        check_fraction(f"miss_rates[{i}]", mr)
        rate *= mr
    return rate


def lpmr1(camat1: float, f_mem: float, cpi_exe: float) -> float:
    """Eq. (9): ``LPMR1 = C-AMAT1 * f_mem / CPI_exe``."""
    check_non_negative("camat1", camat1)
    check_fraction("f_mem", f_mem)
    check_positive("cpi_exe", cpi_exe)
    return camat1 * f_mem / cpi_exe


def lpmr2(camat2: float, f_mem: float, mr1: float, cpi_exe: float) -> float:
    """Eq. (10): ``LPMR2 = C-AMAT2 * f_mem * MR1 / CPI_exe``."""
    check_non_negative("camat2", camat2)
    check_fraction("f_mem", f_mem)
    check_fraction("mr1", mr1)
    check_positive("cpi_exe", cpi_exe)
    return camat2 * f_mem * mr1 / cpi_exe


def lpmr3(camat3: float, f_mem: float, mr1: float, mr2: float, cpi_exe: float) -> float:
    """Eq. (11): ``LPMR3 = C-AMAT3 * f_mem * MR1 * MR2 / CPI_exe``."""
    check_non_negative("camat3", camat3)
    check_fraction("f_mem", f_mem)
    check_fraction("mr1", mr1)
    check_fraction("mr2", mr2)
    check_positive("cpi_exe", cpi_exe)
    return camat3 * f_mem * mr1 * mr2 / cpi_exe


def threshold_t1(delta_percent: float, overlap_ratio_cm: float) -> float:
    """Eq. (14): ``T1 = Δ% / (1 - overlapRatio_cm)``.

    ``LPMR1 <= T1`` guarantees stall/instruction <= Δ% of ``CPI_exe``
    (by substituting into Eq. 12).  Δ is given in percent (1 -> "1%").
    """
    check_positive("delta_percent", delta_percent)
    check_fraction("overlap_ratio_cm", overlap_ratio_cm, inclusive_high=False)
    return (delta_percent / 100.0) / (1.0 - overlap_ratio_cm)


def threshold_t2(
    delta_percent: float,
    overlap_ratio_cm: float,
    eta_combined: float,
    hit_time: float,
    hit_concurrency: float,
    f_mem: float,
    cpi_exe: float,
) -> float:
    """Eq. (15): the LPMR2 threshold.

    ``T2 = (1/eta) * (Δ%/(1 - overlap) - H1*f_mem/(C_H1*CPI_exe))``

    The inner difference is the stall budget left after the (unavoidable)
    concurrency-adjusted L1 hit cost; it is divided by ``eta`` because only
    an ``eta`` fraction of L2's latency reaches stall time (Eq. 13).  A
    non-positive T2 means the L1 hit cost alone exceeds the budget, so the
    Δ% target is unreachable by L2-side optimization alone.
    """
    check_positive("delta_percent", delta_percent)
    check_fraction("overlap_ratio_cm", overlap_ratio_cm, inclusive_high=False)
    check_non_negative("eta_combined", eta_combined)
    check_positive("hit_time", hit_time)
    check_positive("hit_concurrency", hit_concurrency)
    check_fraction("f_mem", f_mem)
    check_positive("cpi_exe", cpi_exe)
    budget = (delta_percent / 100.0) / (1.0 - overlap_ratio_cm)
    hit_cost = hit_time * f_mem / (hit_concurrency * cpi_exe)
    if eta_combined == 0.0:
        # No miss penalty reaches stall time; the L2 matching constraint is
        # vacuous (any LPMR2 satisfies the budget) unless the hit cost alone
        # already blows it.
        return math.inf if budget >= hit_cost else -math.inf
    return (budget - hit_cost) / eta_combined


@dataclass(frozen=True)
class MatchingThresholds:
    """The pair of thresholds (T1, T2) for a given Δ% target."""

    delta_percent: float
    t1: float
    t2: float

    @classmethod
    def compute(
        cls,
        delta_percent: float,
        stall_model: StallModel,
        eta_combined: float,
        hit_time: float,
        hit_concurrency: float,
    ) -> "MatchingThresholds":
        """Evaluate Eqs. (14) and (15) from measured quantities."""
        t1 = threshold_t1(delta_percent, stall_model.overlap_ratio_cm)
        t2 = threshold_t2(
            delta_percent,
            stall_model.overlap_ratio_cm,
            eta_combined,
            hit_time,
            hit_concurrency,
            stall_model.f_mem,
            stall_model.cpi_exe,
        )
        return cls(delta_percent=delta_percent, t1=t1, t2=t2)


@dataclass(frozen=True)
class LPMRReport:
    """A complete matching snapshot of a two-cache-level hierarchy.

    Produced by :func:`repro.core.analyzer.analyze_hierarchy` (measurement
    path) or assembled manually for model studies.  All rates are per-core.
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
    overlap_ratio_cm: float
    eta_combined: float
    hit_time1: float
    hit_concurrency1: float

    def __post_init__(self) -> None:
        check_non_negative("lpmr1", self.lpmr1)
        check_non_negative("lpmr2", self.lpmr2)
        check_non_negative("lpmr3", self.lpmr3)
        check_positive("cpi_exe", self.cpi_exe)

    @property
    def stall_model(self) -> StallModel:
        """Processor-side stall parameters embedded in this report."""
        return StallModel(
            f_mem=self.f_mem,
            cpi_exe=self.cpi_exe,
            overlap_ratio_cm=self.overlap_ratio_cm,
        )

    def predicted_stall_per_instruction(self) -> float:
        """Eq. (12) prediction of stall cycles per instruction."""
        return self.stall_model.stall_from_lpmr1(self.lpmr1)

    def predicted_stall_fraction_of_compute(self) -> float:
        """Predicted stall as a fraction of ``CPI_exe`` (the Δ% quantity)."""
        return self.predicted_stall_per_instruction() / self.cpi_exe

    def thresholds(self, delta_percent: float) -> MatchingThresholds:
        """Thresholds (T1, T2) for a Δ% stall target under this snapshot."""
        return MatchingThresholds.compute(
            delta_percent,
            self.stall_model,
            self.eta_combined,
            self.hit_time1,
            self.hit_concurrency1,
        )

    def is_matched(self, delta_percent: float) -> bool:
        """Whether layer-1 matching meets the Δ% target (``LPMR1 <= T1``)."""
        return self.lpmr1 <= self.thresholds(delta_percent).t1
