"""The C-AMAT analyzer (paper Fig. 4): measuring C_H, C_M, pMR, pAMP, APC.

The paper's detecting system consists of a Hit Concurrency Detector (HCD)
and a Miss Concurrency Detector (MCD) attached to each cache layer:

* the HCD counts, per cycle, how many in-flight accesses are in their
  *hit-operation* phase (this includes the lookup phase of accesses that
  will miss — in Fig. 1 every access spends ``H`` cycles on "cache hit
  operations" whether it hits or not);
* the MCD counts, per cycle, how many in-flight accesses are in their
  *miss-penalty* phase, and — by asking the HCD whether the current cycle
  has any hit activity — classifies each miss cycle as *pure* (no
  concurrent hit activity) or *overlapped*.

From those per-cycle observations the five C-AMAT parameters follow:

===============  =====================================================
``C_H``          (sum of hit concurrency over hit-active cycles)
                 / (number of hit-active cycles)
``C_M``          (sum of miss concurrency over pure-miss cycles)
                 / (number of pure-miss cycles)
``pMR``          (number of accesses with >= 1 pure miss cycle) / accesses
``pAMP``         (total pure miss cycles of pure misses) / (pure misses)
``APC``          accesses / memory-active cycles
===============  =====================================================

Exact identities (proved by the definitions, property-tested in
``tests/core/test_analyzer_properties.py``):

* every memory-active cycle is either hit-active or a pure-miss cycle, so
  ``C-AMAT = H/C_H + pMR*pAMP/C_M = active_cycles/accesses = 1/APC``
  whenever all accesses share the same hit time ``H``;
* ``sum of per-access pure miss cycles == sum of miss concurrency over
  pure-miss cycles`` (both count (access, pure cycle) incidences).

Two implementations are provided:

* :func:`measure_layer` — vectorized over the sorted interval endpoints,
  used by the simulator; cost is O(accesses log accesses), independent of
  the cycle span;
* :class:`HitConcurrencyDetector` / :class:`MissConcurrencyDetector` — the
  cycle-by-cycle streaming detectors of Fig. 4, used online by the LPM
  algorithm's interval-based measurement and to cross-validate the
  vectorized path in tests.

Interval convention: all intervals are half-open ``[start, end)`` in cycles;
an empty interval (``start == end``) denotes "no such phase" (e.g. the miss
interval of a hit).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.camat import CAMATParams
from repro.lint.contracts import satisfies
from repro.util.validation import safe_ratio

__all__ = [
    "LayerMeasurement",
    "measure_layer",
    "HitConcurrencyDetector",
    "MissConcurrencyDetector",
    "CAMATAnalyzer",
]


def _as_cycle_array(name: str, values: "np.ndarray | list[int]") -> np.ndarray:
    arr = np.asarray(values, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


def _union(starts: np.ndarray, ends: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Disjoint, sorted components of the union of non-empty intervals.

    With the starts ``S`` and the ends ``E`` each sorted on its own, the
    union has a gap after the ``i+1`` earliest ends exactly when
    ``E[i] < S[i+1]``: at any cycle in ``[E[i], S[i+1])`` as many intervals
    have ended as have started.  So the components start at ``S[0]`` and
    after every gap, and end before every gap and at ``E[-1]``.  The
    engines emit intervals nearly in start order, which the stable sort
    (a merge of sorted runs) turns into close to linear time.
    """
    s = np.sort(starts, kind="stable")
    e = np.sort(ends, kind="stable")
    gap = np.flatnonzero(e[:-1] < s[1:])
    return (
        np.concatenate((s[:1], s[gap + 1])),
        np.concatenate((e[gap], e[-1:])),
    )


@dataclass(frozen=True)
class LayerMeasurement:
    """Everything the HCD/MCD pair measures for one memory layer.

    All concurrency values are per-cycle averages; all penalties and times
    are in cycles of this layer's clock.  ``camat_params`` bundles the five
    C-AMAT parameters (Eq. 2) for downstream model evaluation.
    """

    accesses: int
    hit_time: float
    hit_concurrency: float          # C_H
    miss_count: int
    miss_rate: float                # MR
    avg_miss_penalty: float         # AMP (0 when no misses)
    miss_concurrency: float         # Cm  (1 when no miss-active cycles)
    pure_miss_count: int
    pure_miss_rate: float           # pMR
    pure_miss_penalty: float        # pAMP (pure cycles only; 0 if no pure misses)
    pure_miss_concurrency: float    # C_M (1 when no pure-miss cycles)
    hit_active_cycles: int
    miss_active_cycles: int
    pure_miss_cycles: int
    active_cycles: int

    @property
    def apc(self) -> float:
        """Accesses per memory-active cycle (Eq. 3 measurement)."""
        return safe_ratio(self.accesses, self.active_cycles)

    @property
    def camat(self) -> float:
        """C-AMAT = 1/APC = active cycles per access."""
        return safe_ratio(self.active_cycles, self.accesses)

    @property
    def amat(self) -> float:
        """The conventional AMAT (Eq. 1) from the same measurements."""
        return self.hit_time + self.miss_rate * self.avg_miss_penalty

    @property
    def eta(self) -> float:
        """Per-layer coupling factor ``eta = (pAMP/AMP) * (Cm/C_M)`` (Eq. 4).

        Defined as 0 when there are no misses (the recursion term vanishes).
        """
        if self.miss_count == 0:
            return 0.0
        return safe_ratio(self.pure_miss_penalty, self.avg_miss_penalty) * safe_ratio(
            self.miss_concurrency, self.pure_miss_concurrency, default=1.0
        )

    @property
    def camat_params(self) -> CAMATParams:
        """The five Eq. (2) parameters as a :class:`CAMATParams` bundle."""
        return CAMATParams(
            hit_time=self.hit_time,
            hit_concurrency=max(self.hit_concurrency, 1.0),
            pure_miss_rate=self.pure_miss_rate,
            pure_miss_penalty=self.pure_miss_penalty,
            pure_miss_concurrency=max(self.pure_miss_concurrency, 1.0),
        )

    @property
    def camat_model(self) -> float:
        """C-AMAT via Eq. (2); equals :attr:`camat` for uniform hit times."""
        return self.camat_params.value

    # -- serialization (checkpoint journal) -------------------------------
    def to_dict(self) -> dict:
        """Plain-scalar dictionary for JSON checkpointing.

        Equal to ``dataclasses.asdict(self)``: every field is a scalar, so
        the recursive deepcopy ``asdict`` makes is skipped.
        """
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, data: dict) -> "LayerMeasurement":
        """Inverse of :meth:`to_dict`."""
        return cls(**data)


@satisfies(
    "cycle_conservation", "pure_subset", "rate_bounds", "concurrency_floor",
    "eq2_identity", "eq3_apc_inverse", "finite_layer",
)
def measure_layer(
    hit_start: "np.ndarray | list[int]",
    hit_end: "np.ndarray | list[int]",
    miss_start: "np.ndarray | list[int]",
    miss_end: "np.ndarray | list[int]",
) -> LayerMeasurement:
    """Measure one layer from per-access hit/miss intervals (vectorized HCD+MCD).

    Parameters
    ----------
    hit_start, hit_end:
        Half-open hit-operation interval of every access (misses included —
        their lookup cycles are hit activity, per Fig. 1).
    miss_start, miss_end:
        Half-open miss-penalty interval; ``start == end`` for hits.

    Notes
    -----
    Hit and miss concurrency only change at interval endpoints, so every
    per-cycle sum of the detectors is an exact integer sum over the sorted
    endpoints: the hit-active cycles are the length of the union of the
    hit intervals; the concurrency summed over them is the total hit
    interval length (each interval adds one per cycle it covers); the same
    holds for the misses; and the pure-miss cycles of an access are its
    miss length minus the hit-union cycles inside it, read off a prefix
    sum of the union's component lengths.  Cost is O(accesses log
    accesses) in time and O(accesses) in memory, independent of the cycle
    span, so a stalled run costs no more to measure than a fast one.
    """
    hs = _as_cycle_array("hit_start", hit_start)
    he = _as_cycle_array("hit_end", hit_end)
    ms = _as_cycle_array("miss_start", miss_start)
    me = _as_cycle_array("miss_end", miss_end)
    n = hs.shape[0]
    if not (he.shape[0] == ms.shape[0] == me.shape[0] == n):
        raise ValueError("all interval arrays must have the same length")
    if n == 0:
        return LayerMeasurement(
            accesses=0, hit_time=0.0, hit_concurrency=1.0,
            miss_count=0, miss_rate=0.0, avg_miss_penalty=0.0, miss_concurrency=1.0,
            pure_miss_count=0, pure_miss_rate=0.0, pure_miss_penalty=0.0,
            pure_miss_concurrency=1.0, hit_active_cycles=0, miss_active_cycles=0,
            pure_miss_cycles=0, active_cycles=0,
        )
    if np.any(he < hs) or np.any(me < ms):
        raise ValueError("interval ends must be >= starts")
    if np.any(he == hs):
        raise ValueError("every access must have a non-empty hit-operation interval")

    hit_s, hit_e = _union(hs, he)
    hit_len = hit_e - hit_s
    hit_active_cycles = int(hit_len.sum())
    hit_cycles_total = int(he.sum()) - int(hs.sum())
    prefix = np.cumsum(hit_len) - hit_len  # hit-union cycles before each component

    def hit_cycles_before(t: np.ndarray) -> np.ndarray:
        # The components starting at or before t count whole, the last of
        # them only up to t.
        j = np.searchsorted(hit_s, t, side="right")
        j -= 1
        np.maximum(j, 0, out=j)
        out = t - hit_s[j]
        np.clip(out, 0, hit_len[j], out=out)
        out += prefix[j]
        return out

    missed = np.flatnonzero(me > ms)
    miss_count = missed.shape[0]
    m_s, m_e = ms[missed], me[missed]
    m_len = m_e - m_s
    miss_cycles_total = int(m_len.sum())
    miss_s, miss_e = _union(m_s, m_e)
    miss_active_cycles = int((miss_e - miss_s).sum())

    # Pure cycles: miss cycles outside the hit union, per access and over
    # the miss union.
    pure_per_access = m_len - (hit_cycles_before(m_e) - hit_cycles_before(m_s))
    pure_miss_cycles = miss_active_cycles - (
        int(hit_cycles_before(miss_e).sum()) - int(hit_cycles_before(miss_s).sum())
    )
    pure_miss_count = int(np.count_nonzero(pure_per_access))
    # Miss concurrency summed over the pure cycles (C_M's numerator) is the
    # accesses' pure cycles summed (pAMP's): both count (access, pure
    # cycle) incidences.
    pure_concurrency_sum = int(pure_per_access.sum())

    return LayerMeasurement(
        accesses=n,
        hit_time=hit_cycles_total / n,
        hit_concurrency=safe_ratio(hit_cycles_total, hit_active_cycles, default=1.0),
        miss_count=miss_count,
        miss_rate=miss_count / n,
        avg_miss_penalty=safe_ratio(miss_cycles_total, miss_count),
        miss_concurrency=safe_ratio(miss_cycles_total, miss_active_cycles, default=1.0),
        pure_miss_count=pure_miss_count,
        pure_miss_rate=pure_miss_count / n,
        pure_miss_penalty=safe_ratio(pure_concurrency_sum, pure_miss_count),
        pure_miss_concurrency=safe_ratio(
            pure_concurrency_sum, pure_miss_cycles, default=1.0
        ),
        hit_active_cycles=hit_active_cycles,
        miss_active_cycles=miss_active_cycles,
        pure_miss_cycles=pure_miss_cycles,
        active_cycles=hit_active_cycles + pure_miss_cycles,
    )


class HitConcurrencyDetector:
    """Streaming HCD (paper Fig. 4): counts hit activity cycle by cycle.

    The hardware analogue is a set of lightweight counters attached to the
    cache's hit path.  Feed it the number of accesses in their hit-operation
    phase each cycle via :meth:`observe`; it accumulates the totals needed
    for ``C_H`` and answers "does this cycle have hit activity?" queries
    from the MCD.
    """

    def __init__(self) -> None:
        self.hit_active_cycles = 0
        self.hit_concurrency_sum = 0
        self._last_had_hit = False

    def observe(self, hits_in_flight: int) -> bool:
        """Record one cycle; returns whether the cycle had hit activity."""
        if hits_in_flight < 0:
            raise ValueError("hits_in_flight must be >= 0")
        had_hit = hits_in_flight > 0
        if had_hit:
            self.hit_active_cycles += 1
            self.hit_concurrency_sum += hits_in_flight
        self._last_had_hit = had_hit
        return had_hit

    @property
    def hit_concurrency(self) -> float:
        """``C_H`` over the observed window (1.0 if no hit activity yet)."""
        if self.hit_active_cycles == 0:
            return 1.0
        return self.hit_concurrency_sum / self.hit_active_cycles

    def reset(self) -> None:
        """Clear counters (used at measurement-interval boundaries)."""
        self.hit_active_cycles = 0
        self.hit_concurrency_sum = 0
        self._last_had_hit = False


class MissConcurrencyDetector:
    """Streaming MCD (paper Fig. 4): classifies miss cycles as pure/overlapped.

    Each cycle it receives the number of misses in flight and consults the
    HCD's same-cycle answer; a cycle with misses but no hit activity is a
    *pure miss cycle*.  Per-access pure-miss attribution is done by the
    caller tagging which access ids are in flight (see
    :class:`CAMATAnalyzer`); the MCD itself keeps the aggregate counters for
    ``C_M`` and the pure-cycle total for ``pAMP``.
    """

    def __init__(self) -> None:
        self.pure_miss_cycles = 0
        self.pure_concurrency_sum = 0
        self.miss_active_cycles = 0
        self.miss_concurrency_sum = 0

    def observe(self, misses_in_flight: int, cycle_has_hit: bool) -> bool:
        """Record one cycle; returns whether the cycle was a pure miss cycle."""
        if misses_in_flight < 0:
            raise ValueError("misses_in_flight must be >= 0")
        if misses_in_flight == 0:
            return False
        self.miss_active_cycles += 1
        self.miss_concurrency_sum += misses_in_flight
        if cycle_has_hit:
            return False
        self.pure_miss_cycles += 1
        self.pure_concurrency_sum += misses_in_flight
        return True

    @property
    def pure_miss_concurrency(self) -> float:
        """``C_M`` over the observed window (1.0 if no pure cycles yet)."""
        if self.pure_miss_cycles == 0:
            return 1.0
        return self.pure_concurrency_sum / self.pure_miss_cycles

    @property
    def miss_concurrency(self) -> float:
        """Conventional ``Cm`` over the observed window."""
        if self.miss_active_cycles == 0:
            return 1.0
        return self.miss_concurrency_sum / self.miss_active_cycles

    def reset(self) -> None:
        """Clear counters (used at measurement-interval boundaries)."""
        self.pure_miss_cycles = 0
        self.pure_concurrency_sum = 0
        self.miss_active_cycles = 0
        self.miss_concurrency_sum = 0


class CAMATAnalyzer:
    """Cycle-stepped reference analyzer combining an HCD and an MCD.

    This walks cycles explicitly (O(span) per layer) and is therefore the
    slow-but-obviously-correct reference implementation; the vectorized
    :func:`measure_layer` is validated against it in the test suite.  It is
    also the component the LPM algorithm instantiates per measurement
    interval when operating online.
    """

    def __init__(self) -> None:
        self.hcd = HitConcurrencyDetector()
        self.mcd = MissConcurrencyDetector()
        self._hit_intervals: list[tuple[int, int]] = []
        self._miss_intervals: list[tuple[int, int]] = []

    def add_access(
        self, hit_start: int, hit_end: int, miss_start: int = 0, miss_end: int = 0
    ) -> None:
        """Register one access's hit interval and optional miss interval."""
        if hit_end <= hit_start:
            raise ValueError("hit interval must be non-empty")
        if miss_end < miss_start:
            raise ValueError("miss interval end must be >= start")
        self._hit_intervals.append((hit_start, hit_end))
        self._miss_intervals.append((miss_start, miss_end))

    @satisfies(
        "cycle_conservation", "pure_subset", "rate_bounds", "concurrency_floor",
        "eq2_identity", "eq3_apc_inverse", "finite_layer",
    )
    def run(self) -> LayerMeasurement:
        """Replay all registered accesses cycle by cycle and measure.

        Mirrors the hardware: for each cycle the HCD observes hit activity
        first, then the MCD classifies the cycle using the HCD's answer.
        """
        self.hcd.reset()
        self.mcd.reset()
        n = len(self._hit_intervals)
        if n == 0:
            return measure_layer([], [], [], [])
        lo = min(s for s, _ in self._hit_intervals)
        hi = max(e for _, e in self._hit_intervals)
        for s, e in self._miss_intervals:
            if e > s:
                lo = min(lo, s)
                hi = max(hi, e)

        pure_per_access = [0] * n
        hit_cycles_total = 0
        active_cycles = 0
        for cycle in range(lo, hi):
            hits = sum(1 for s, e in self._hit_intervals if s <= cycle < e)
            misses = sum(1 for s, e in self._miss_intervals if s <= cycle < e)
            has_hit = self.hcd.observe(hits)
            is_pure = self.mcd.observe(misses, has_hit)
            if hits or misses:
                active_cycles += 1
            hit_cycles_total += hits
            if is_pure:
                for i, (s, e) in enumerate(self._miss_intervals):
                    if s <= cycle < e:
                        pure_per_access[i] += 1

        miss_lens = [e - s for s, e in self._miss_intervals]
        miss_count = sum(1 for ln in miss_lens if ln > 0)
        pure_misses = [p for p in pure_per_access if p > 0]
        pure_miss_count = len(pure_misses)
        return LayerMeasurement(
            accesses=n,
            hit_time=sum(e - s for s, e in self._hit_intervals) / n,
            hit_concurrency=self.hcd.hit_concurrency,
            miss_count=miss_count,
            miss_rate=miss_count / n,
            avg_miss_penalty=(
                sum(ln for ln in miss_lens if ln > 0) / miss_count if miss_count else 0.0
            ),
            miss_concurrency=self.mcd.miss_concurrency,
            pure_miss_count=pure_miss_count,
            pure_miss_rate=pure_miss_count / n,
            pure_miss_penalty=(sum(pure_misses) / pure_miss_count if pure_miss_count else 0.0),
            pure_miss_concurrency=self.mcd.pure_miss_concurrency,
            hit_active_cycles=self.hcd.hit_active_cycles,
            miss_active_cycles=self.mcd.miss_active_cycles,
            pure_miss_cycles=self.mcd.pure_miss_cycles,
            active_cycles=active_cycles,
        )
