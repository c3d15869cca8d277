"""One-pass reuse/stack-distance profiling of a :class:`Trace`.

The tier-0 surrogate (:mod:`repro.analysis.surrogate`) predicts per-level
miss ratios for *every* cache size from locality statistics computed once
per trace.  The statistic is the classic LRU **stack distance**: for each
memory access, the number of *distinct* cache lines touched since the
previous access to the same line.  A fully-associative LRU cache of
capacity ``C`` lines hits exactly when the stack distance is ``< C``, so
the whole miss-ratio curve ``MR(C)`` is one survival function of the
stack-distance histogram ("Fast Modeling L2 Cache Reuse Distance
Histograms", arXiv:1907.05068; docs/MODEL.md section 10).

Distances are computed line-granular with the Fenwick-tree (binary
indexed tree) last-occurrence algorithm — O(M log M) for M accesses, one
pass, no materialized LRU stack.  The per-access loop is plain Python by
design: it runs once per trace and line size (callers such as the
explorer keep the profile), never per configuration, so the
vectorization guideline's "measure first" bar is not met by the extra
complexity of a numpy phase-splitting variant.

Everything here is pure: no I/O, no ambient state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.workloads.trace import Trace

__all__ = [
    "ReuseHistogram",
    "LocalityProfile",
    "reuse_histogram",
    "profile_trace",
]


def _stack_distances(lines: "list[int]") -> np.ndarray:
    """Per-access LRU stack distance; -1 marks a cold (first) access.

    Fenwick tree over access positions: position ``i`` is marked while it
    is the *last* occurrence of some line.  The distance of an access at
    ``i`` whose line was last touched at ``p`` is then the number of
    marked positions strictly between ``p`` and ``i`` — the distinct
    other lines touched in between.
    """
    n = len(lines)
    out = np.empty(n, dtype=np.int64)
    tree = [0] * (n + 1)

    def add(pos: int, delta: int) -> None:
        while pos <= n:
            tree[pos] += delta
            pos += pos & -pos

    def prefix(pos: int) -> int:
        total = 0
        while pos > 0:
            total += tree[pos]
            pos -= pos & -pos
        return total

    last: "dict[int, int]" = {}
    for i, line in enumerate(lines):
        p = last.get(line)
        if p is None:
            out[i] = -1
        else:
            # Marked positions in 1-indexed (p+1, i] = distinct lines
            # touched since p, excluding this line itself.
            out[i] = prefix(i) - prefix(p + 1)
            add(p + 1, -1)
        last[line] = i
        add(i + 1, +1)
    return out


@dataclass(frozen=True)
class ReuseHistogram:
    """Stack-distance histogram of one trace at one line granularity.

    ``distances``/``counts`` are the sorted unique distances (in lines)
    with their access counts; ``cold`` counts first-touch accesses (which
    miss in every finite cache).  Under ``warm=True`` the distances model
    the post-warmup steady state — each access's distance is measured as
    if the whole trace had already run once (the second half of the
    doubled trace), matching the simulator's ``warm_caches`` semantics —
    so there are no cold accesses.
    """

    distances: np.ndarray
    counts: np.ndarray
    cold: int
    n_accesses: int
    line_bytes: int
    warm: bool
    trace_digest: str
    #: Suffix sums of ``counts``, built lazily for O(log K) queries.
    _tail: "np.ndarray | None" = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "distances", np.asarray(self.distances, dtype=np.int64))
        object.__setattr__(self, "counts", np.asarray(self.counts, dtype=np.int64))
        if self.distances.shape != self.counts.shape:
            raise ValueError("distances and counts must have equal shapes")

    def _tail_sums(self) -> np.ndarray:
        tail = self._tail
        if tail is None:
            # counts reversed-cumsum, with a trailing 0 for "past the end".
            tail = np.concatenate(
                [np.cumsum(self.counts[::-1])[::-1], np.zeros(1, dtype=np.int64)]
            )
            object.__setattr__(self, "_tail", tail)
        return tail

    def miss_fraction(self, capacity_lines: int) -> float:
        """Predicted miss ratio of a ``capacity_lines``-line LRU cache.

        ``P(stack distance >= capacity) + P(cold)`` — the survival
        function of the histogram.  Monotonically non-increasing in the
        capacity by construction.
        """
        if self.n_accesses == 0:
            return 0.0
        if capacity_lines <= 0:
            return 1.0
        idx = int(np.searchsorted(self.distances, capacity_lines, side="left"))
        survivors = int(self._tail_sums()[idx])
        return (survivors + self.cold) / self.n_accesses


def reuse_histogram(
    trace: Trace, *, line_bytes: int = 64, warm: bool = True
) -> ReuseHistogram:
    """Compute the stack-distance histogram of *trace* at *line_bytes*.

    Depends only on the trace *content* (same digest -> same histogram,
    regardless of name/metadata or generation order of equal arrays).
    """
    if line_bytes <= 0 or line_bytes & (line_bytes - 1):
        raise ValueError(f"line_bytes must be a positive power of two, got {line_bytes}")
    offset_bits = line_bytes.bit_length() - 1
    lines_arr = trace.memory_addresses >> offset_bits
    n = int(lines_arr.shape[0])
    if n == 0:
        return ReuseHistogram(
            distances=np.empty(0, dtype=np.int64), counts=np.empty(0, dtype=np.int64),
            cold=0, n_accesses=0, line_bytes=line_bytes, warm=warm,
            trace_digest=trace.content_digest(),
        )
    lines = lines_arr.tolist()
    if warm:
        # Steady state after warm_caches(trace): distance of each access as
        # the second half of the doubled trace, so every line's first
        # measured touch sees its wrap-around reuse distance, not a cold miss.
        sds = _stack_distances(lines + lines)[n:]
        cold = 0
    else:
        sds = _stack_distances(lines)
        cold = int(np.count_nonzero(sds < 0))
        sds = sds[sds >= 0]
    distances, counts = np.unique(sds, return_counts=True)
    return ReuseHistogram(
        distances=distances, counts=counts.astype(np.int64), cold=cold,
        n_accesses=n, line_bytes=line_bytes, warm=warm,
        trace_digest=trace.content_digest(),
    )


@dataclass(frozen=True)
class LocalityProfile:
    """Everything the tier-0 predictor needs to know about one trace.

    The reuse histogram plus the processor-facing trace statistics
    (memory fraction, dependency fractions) — computed in one profiling
    pass, keyed by the trace content digest, valid for *every*
    :class:`~repro.sim.params.MachineConfig` sharing the line size.
    """

    histogram: ReuseHistogram
    f_mem: float
    n_instructions: int
    #: Fraction of memory accesses that depend on the previous access's
    #: data (pointer chasing; bounds memory-level parallelism).
    dep_frac_mem: float
    #: Fraction of compute instructions that depend on their predecessor
    #: (bounds ILP and hence CPI_exe).
    dep_frac_compute: float

    @property
    def trace_digest(self) -> str:
        """Content digest of the profiled trace."""
        return self.histogram.trace_digest

    @property
    def line_bytes(self) -> int:
        """Line granularity of the histogram."""
        return self.histogram.line_bytes

    @property
    def warm(self) -> bool:
        """Whether the histogram models the post-warmup steady state."""
        return self.histogram.warm


def profile_trace(
    trace: Trace, *, line_bytes: int = 64, warm: bool = True
) -> LocalityProfile:
    """One profiling pass over *trace*: histogram + processor statistics."""
    hist = reuse_histogram(trace, line_bytes=line_bytes, warm=warm)
    n = trace.n_instructions
    if trace.depends is not None and n:
        mem_dep = trace.depends[trace.is_mem]
        comp_dep = trace.depends[~trace.is_mem]
        dep_mem = float(mem_dep.mean()) if mem_dep.size else 0.0
        dep_comp = float(comp_dep.mean()) if comp_dep.size else 0.0
    else:
        dep_mem = dep_comp = 0.0
    return LocalityProfile(
        histogram=hist,
        f_mem=min(trace.f_mem, 1.0),
        n_instructions=n,
        dep_frac_mem=dep_mem,
        dep_frac_compute=dep_comp,
    )
