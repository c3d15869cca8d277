"""Trace-driven out-of-order CPU + two-level non-blocking cache timing engine.

This is the GEM5 substitute (see DESIGN.md): a single forward pass over the
instruction trace computes, for every instruction, its dispatch, completion
and in-order retire cycles, and for every memory access its hit/miss
activity intervals at L1, L2 and main memory.  All resource contention
(issue/retire bandwidth, ROB occupancy, load/store-window slots, L1 ports,
L1/L2 MSHRs, L2 banks, DRAM banks) is modelled event-driven with
next-free-time schedulers — cost is O(instructions), never O(cycles).

Model structure per memory access::

    dispatch --(port grant)--> L1 hit-op [t, t+H1)
        hit  -> data at t+H1
        miss -> MSHR (coalesce or allocate, stall while full)
                --> L2 bank grant --> L2 hit-op [b, b+H2)
                    hit  -> data back to L1
                    miss -> L2 MSHR --> DRAM bank (row-buffer state machine)
                            --> fill L2 --> fill L1 --> data

Functional cache contents are updated lazily: fills are queued with their
arrival cycle and applied before any later lookup, so hit/miss outcomes are
consistent with the timing the engine itself computed.  Miss-queue grants
are clamped monotonic (in-order miss handling), which both matches simple
hardware and keeps the lazy-fill bookkeeping correct.

The engine deliberately emits *intervals* rather than aggregated statistics;
the C-AMAT analyzer (:mod:`repro.core.analyzer`) is the single source of
truth for C_H/C_M/pMR/pAMP at every layer.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.sim.cache import FunctionalCache
from repro.sim.dram import DRAMModel
from repro.sim.mshr import MSHRFile
from repro.runtime.errors import ConfigError
from repro.sim.params import MachineConfig
from repro.sim.ports import BankScheduler, PortScheduler
from repro.sim.prefetch import (
    BypassConfig,
    PrefetchConfig,
    StreamDetector,
    StridePrefetcher,
)
from repro.sim.records import AccessRecords, InstructionRecords
from repro.util.validation import check_int
from repro.workloads.trace import Trace

__all__ = ["ENGINE_VERSION", "HierarchySimulator", "SimulationResult", "batch_eligible"]

#: Engine-family version.  Bump whenever a change alters simulated timing or
#: any measured statistic, *and* whenever a new issue-loop implementation
#: starts feeding the persistent evaluation cache
#: (:mod:`repro.runtime.evalcache`) — even a bit-identical one.  Cached
#: measurements are keyed on this number, so versioning by implementation
#: generation means a latent kernel defect can be purged from the cache by
#: version alone, without auditing which engine produced which entry.
#: v2: the vectorized batch engine (:mod:`repro.sim.batch`) joined the
#: fast/reference pair.
#: v3: the core-only perfect-L1 loop
#: (:meth:`HierarchySimulator._run_impl_perfect`) feeds CPI_exe into cached
#: stats for every config.
#: v4: the fast loop (:meth:`HierarchySimulator._run_impl_fast`) runs the
#: real pass of prefetch and L1-bypass configs.
ENGINE_VERSION = 4


def batch_eligible(config: MachineConfig) -> bool:
    """Whether *config* can run on the vectorized batch kernel: no
    prefetcher and no L1 bypass detector, which only the scalar fast loop
    (:meth:`HierarchySimulator._run_impl_fast`) models."""
    return config.prefetch is None and config.l1_bypass is None


@dataclass
class SimulationResult:
    """Everything one simulation run produced."""

    config: MachineConfig
    trace_name: str
    accesses: AccessRecords
    instructions: InstructionRecords
    component_stats: dict = field(default_factory=dict)
    #: Instructions actually executed; smaller than the trace length only
    #: when a ``stop_cycle`` bound cut the quantum short.
    instructions_executed: int = 0

    @property
    def total_cycles(self) -> int:
        """End-to-end execution time in cycles."""
        return self.instructions.total_cycles

    @property
    def cpi(self) -> float:
        """Cycles per instruction of the run."""
        return self.instructions.cpi

    @property
    def ipc(self) -> float:
        """Instructions per cycle of the run."""
        cpi = self.cpi
        return 1.0 / cpi if cpi else 0.0


def build_simulation_result(
    *,
    config: MachineConfig,
    trace_name: str,
    executed: int,
    dispatch,
    complete,
    retire,
    is_mem,
    l1_hit_start,
    l1_hit_end,
    l1_miss_start,
    l1_miss_end,
    l1_is_miss,
    l1_is_secondary,
    l1_complete,
    l2_index,
    l2_hit_start,
    l2_hit_end,
    l2_miss_start,
    l2_miss_end,
    l2_is_miss,
    l2_is_secondary,
    mem_index,
    mem_start,
    mem_end,
    component_stats: dict,
    l3_index=None,
    l3_records=None,
) -> SimulationResult:
    """Coerce one engine run's raw record columns into a result.

    Every issue-loop implementation — reference, fast, and the vectorized
    batch kernel (:mod:`repro.sim.batch`) — finishes here, so column dtypes
    and the derived quantities (``total_cycles``/``cpi``/``ipc``, which the
    record classes compute from these arrays) cannot drift between engines:
    one coercion, one validation path, one set of formulas.

    *l3_records* is the 7-tuple of L3 record columns (hit/miss intervals,
    miss/secondary flags, memory cross-reference) that every issue loop
    collects through :meth:`HierarchySimulator._access_l3` when a third
    level is configured; ``None`` means "no L3".
    """
    if l3_records is None:
        l3_records = ((), (), (), (), (), (), ())
    accesses = AccessRecords(
        l1_hit_start=np.asarray(l1_hit_start, dtype=np.int64),
        l1_hit_end=np.asarray(l1_hit_end, dtype=np.int64),
        l1_miss_start=np.asarray(l1_miss_start, dtype=np.int64),
        l1_miss_end=np.asarray(l1_miss_end, dtype=np.int64),
        l1_is_miss=np.asarray(l1_is_miss, dtype=bool),
        l1_is_secondary=np.asarray(l1_is_secondary, dtype=bool),
        complete=np.asarray(l1_complete, dtype=np.int64),
        l2_index=np.asarray(l2_index, dtype=np.int64),
        l2_hit_start=np.asarray(l2_hit_start, dtype=np.int64),
        l2_hit_end=np.asarray(l2_hit_end, dtype=np.int64),
        l2_miss_start=np.asarray(l2_miss_start, dtype=np.int64),
        l2_miss_end=np.asarray(l2_miss_end, dtype=np.int64),
        l2_is_miss=np.asarray(l2_is_miss, dtype=bool),
        l2_is_secondary=np.asarray(l2_is_secondary, dtype=bool),
        mem_index=np.asarray(mem_index, dtype=np.int64),
        mem_start=np.asarray(mem_start, dtype=np.int64),
        mem_end=np.asarray(mem_end, dtype=np.int64),
        l3_index=np.asarray(
            l3_index if l3_index is not None else (), dtype=np.int64
        ),
        l3_hit_start=np.asarray(l3_records[0], dtype=np.int64),
        l3_hit_end=np.asarray(l3_records[1], dtype=np.int64),
        l3_miss_start=np.asarray(l3_records[2], dtype=np.int64),
        l3_miss_end=np.asarray(l3_records[3], dtype=np.int64),
        l3_is_miss=np.asarray(l3_records[4], dtype=bool),
        l3_is_secondary=np.asarray(l3_records[5], dtype=bool),
        l3_mem_index=np.asarray(l3_records[6], dtype=np.int64),
    )
    instructions = InstructionRecords(
        dispatch=np.asarray(dispatch, dtype=np.int64),
        complete=np.asarray(complete, dtype=np.int64),
        retire=np.asarray(retire, dtype=np.int64),
        is_mem=np.array(is_mem, dtype=bool),
    )
    return SimulationResult(
        config=config,
        trace_name=trace_name,
        accesses=accesses,
        instructions=instructions,
        component_stats=component_stats,
        instructions_executed=executed,
    )


class _FillQueue:
    """Pending cache fills applied lazily in arrival order."""

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: list[tuple[int, int]] = []  # (arrival cycle, address)

    def schedule(self, arrival: int, address: int) -> None:
        heapq.heappush(self._heap, (arrival, address))

    def apply_until(self, cache: FunctionalCache, now: int) -> None:
        heap = self._heap
        while heap and heap[0][0] <= now:
            _, address = heapq.heappop(heap)
            cache.insert(address)


class HierarchySimulator:
    """Simulate a :class:`Trace` on a :class:`MachineConfig`.

    A simulator instance carries warm state (cache contents, DRAM row
    buffers) across :meth:`run` calls; construct a fresh instance or call
    :meth:`reset` for independent experiments.
    """

    def __init__(
        self, config: MachineConfig, *, seed: int = 0, engine: str = "auto"
    ) -> None:
        if engine not in ("auto", "reference"):
            raise ConfigError(f"engine must be 'auto' or 'reference', got {engine!r}")
        self.config = config
        self.seed = seed
        #: Issue-loop selection: ``auto`` runs every config on the
        #: specialized fast loop; ``reference`` always runs the
        #: obviously-correct loop, the oracle the fast loop is pinned to.
        #: Many configs over one trace run on the vectorized kernel instead
        #: (:class:`repro.sim.batch.BatchHierarchySimulator`).
        self.engine = engine
        self.reset()

    def reset(self) -> None:
        """Recreate all functional and timing state."""
        cfg = self.config
        self.l1_cache = FunctionalCache(cfg.l1)
        self.l2_cache = FunctionalCache(cfg.l2)
        self.l1_ports = PortScheduler(cfg.l1_ports)
        self.l2_banks = BankScheduler(cfg.l2_banks)
        self.l1_mshrs = MSHRFile(cfg.mshr_count)
        self.l2_mshrs = MSHRFile(cfg.l2_mshr_count)
        self.dram = DRAMModel(cfg.dram, line_bytes=cfg.l1.line_bytes)
        # Hot-loop constant: CacheGeometry.offset_bits is a computed
        # property; cache it once (profiled ~2% of run time otherwise).
        self._offset_bits = cfg.l1.offset_bits
        # Saved pipeline state for run(resume=True) continuations.
        self._pipe: dict | None = None
        self._l1_fills = _FillQueue()
        self._l2_fills = _FillQueue()
        self._last_l2_req = 0
        self._last_mem_req = 0
        self.l3_cache: FunctionalCache | None = None
        if cfg.l3 is not None:
            self.l3_cache = FunctionalCache(cfg.l3)
            self.l3_banks = BankScheduler(cfg.l3_banks)
            self.l3_mshrs = MSHRFile(cfg.l3_mshr_count)
            self._l3_fills = _FillQueue()
            self._last_l3_req = 0
        # Per-run record lists for the optional L3 (populated by _access_l3)
        # and the per-L2-row L3 index column.
        self._l3_rec: tuple[list, ...] = tuple([] for _ in range(7))
        self._l2_l3_index: list[int] = []
        self.prefetcher: StridePrefetcher | None = None
        if cfg.prefetch is not None:
            if not isinstance(cfg.prefetch, PrefetchConfig):
                raise TypeError(
                    "MachineConfig.prefetch must be a PrefetchConfig or None, "
                    f"got {type(cfg.prefetch).__name__}"
                )
            self.prefetcher = StridePrefetcher(cfg.prefetch, cfg.l1.line_bytes)
        # block -> fill-arrival cycle of prefetches not yet consumed by a
        # demand access (usefulness / lateness attribution).
        self._prefetch_fills: dict[int, int] = {}
        self.bypass: StreamDetector | None = None
        if cfg.l1_bypass is not None:
            if not isinstance(cfg.l1_bypass, BypassConfig):
                raise TypeError(
                    "MachineConfig.l1_bypass must be a BypassConfig or None, "
                    f"got {type(cfg.l1_bypass).__name__}"
                )
            self.bypass = StreamDetector(cfg.l1_bypass, cfg.l1.line_bytes)

    def warm_caches(self, trace: Trace) -> None:
        """Touch the trace's addresses functionally (no timing, no stats).

        Used to measure steady-state behaviour without cold-start misses.
        """
        with obs_trace.span("engine.warm", trace=trace.name, config=self.config.name):
            addresses = trace.memory_addresses
            caches = [self.l1_cache, self.l2_cache]
            if self.l3_cache is not None:
                caches.append(self.l3_cache)
            for cache in caches:
                cache.warm_lookup_array(addresses)

    # ------------------------------------------------------------------
    def reconfigure(self, config: MachineConfig) -> None:
        """Switch to *config* at an interval boundary, keeping cache contents.

        Models runtime reconfiguration (Case Study I's substrate): SRAM
        contents, DRAM row-buffer state and all resource timing survive;
        the port/bank schedulers and MSHR capacities are re-provisioned.
        Cache *geometries* (including whether an L3 exists), the DRAM
        timing and the prefetch/bypass units are built once by
        :meth:`reset` and must be unchanged (the Table I knobs touch none
        of them).  In-flight timing at the boundary is carried by the next
        :meth:`run` call's ``start_cycle``.
        """
        old = self.config
        if (config.l1, config.l2, config.l3) != (old.l1, old.l2, old.l3):
            raise ConfigError("reconfigure() cannot change cache geometry")
        for name in ("dram", "prefetch", "l1_bypass"):
            if getattr(config, name) != getattr(old, name):
                raise ConfigError(
                    f"reconfigure() cannot change {name}; build a new simulator"
                )
        self.config = config
        if config.l1_ports != old.l1_ports:
            self.l1_ports = PortScheduler(config.l1_ports)
        if config.l2_banks != old.l2_banks:
            self.l2_banks = BankScheduler(config.l2_banks)
        # MSHR files keep their outstanding entries; capacity changes take
        # effect on the next allocation (shrinking drains naturally because
        # present() stalls while occupancy >= capacity).
        self.l1_mshrs.capacity = config.mshr_count
        self.l2_mshrs.capacity = config.l2_mshr_count
        if config.l3 is not None:
            if config.l3_banks != old.l3_banks:
                self.l3_banks = BankScheduler(config.l3_banks)
            self.l3_mshrs.capacity = config.l3_mshr_count

    def run(
        self,
        trace: Trace,
        *,
        perfect: bool = False,
        start_cycle: int = 0,
        stop_cycle: "int | None" = None,
        resume: bool = False,
    ) -> SimulationResult:
        """Execute *trace*; returns records for analysis.

        ``start_cycle`` continues a timeline begun by earlier :meth:`run`
        calls on the same simulator (used by the online controller to
        execute a trace in measurement intervals with reconfigurations in
        between); resource next-free times, pending fills and cache
        contents all carry over.

        ``stop_cycle`` bounds the quantum in *time*: dispatch stops at the
        first instruction whose dispatch cycle would reach it, and the
        result's ``instructions_executed`` tells the caller how far the
        trace was consumed (the multicore coordinator uses this to keep
        co-running cores' clocks aligned).  In-flight completions may
        extend past ``stop_cycle``.

        ``perfect=True`` forces every L1 access to hit in the flat hit time
        with no port contention (the paper's "perfect cache" used to
        measure ``CPI_exe``): CPI_exe must reflect pure compute capability
        — issue width, ILP chains, ROB — so that the LPMR request rate
        ``IPC_exe * f_mem`` expresses true demand.  If L1 bandwidth limits
        were included here they would cancel out of the matching ratios.
        On the ``auto`` engine a perfect run takes the core-only loop
        (:meth:`_run_impl_perfect`) for every config;
        ``engine="reference"`` keeps the reference loop's perfect branch
        as the oracle the equivalence suite compares it to.

        With observability enabled (``repro.obs``), the run is wrapped in
        a ``sim.run`` span and per-layer access/hit/miss/MSHR-stall
        counters are recorded from the finished record arrays — the
        per-instruction loop itself is never instrumented, so the disabled
        fast path costs two boolean checks per run.
        """
        if perfect and self.engine != "reference":
            impl = self._run_impl_perfect
        elif self._use_fast_path():
            impl = self._run_impl_fast
        else:
            impl = partial(self._run_impl, perfect=perfect)
        if not (obs_trace.tracing_enabled() or obs_metrics.metrics_enabled()):
            return impl(
                trace, start_cycle=start_cycle, stop_cycle=stop_cycle, resume=resume,
            )
        with obs_trace.span(
            "sim.run", trace=trace.name, config=self.config.name, perfect=perfect,
        ) as span:
            stall_before = (
                self.l1_mshrs.full_stall_cycles, self.l2_mshrs.full_stall_cycles,
            )
            result = impl(
                trace, start_cycle=start_cycle, stop_cycle=stop_cycle, resume=resume,
            )
            span.set(
                instructions=result.instructions_executed,
                cycles=result.total_cycles,
                cpi=result.cpi,
            )
            if obs_metrics.metrics_enabled():
                self._record_metrics(result, stall_before)
        return result

    def _record_metrics(
        self, result: SimulationResult, stall_before: "tuple[int, int]"
    ) -> None:
        """Fold one finished run into the global metrics registry.

        All counts come from the already-materialized record arrays
        (vectorized ``count_nonzero``), so this costs O(accesses) numpy
        work once per run — nothing is added to the issue loop.
        """
        reg = obs_metrics.get_registry()
        acc = result.accesses
        reg.counter("sim.runs").inc()
        reg.counter("sim.instructions").inc(result.instructions_executed)
        reg.counter("sim.cycles").inc(result.total_cycles)

        n_l1 = acc.n_accesses
        l1_miss = int(np.count_nonzero(acc.l1_is_miss))
        reg.counter("sim.l1.accesses").inc(n_l1)
        reg.counter("sim.l1.hits").inc(n_l1 - l1_miss)
        reg.counter("sim.l1.misses").inc(l1_miss)
        reg.counter("sim.l1.secondary_misses").inc(
            int(np.count_nonzero(acc.l1_is_secondary))
        )
        reg.counter("sim.l1.mshr_stall_cycles").inc(
            max(self.l1_mshrs.full_stall_cycles - stall_before[0], 0)
        )
        reg.gauge("sim.l1.mshr_peak").set_max(self.l1_mshrs.peak_occupancy)

        n_l2 = len(acc.l2_hit_start)
        l2_miss = int(np.count_nonzero(acc.l2_is_miss))
        reg.counter("sim.l2.accesses").inc(n_l2)
        reg.counter("sim.l2.hits").inc(n_l2 - l2_miss)
        reg.counter("sim.l2.misses").inc(l2_miss)
        reg.counter("sim.l2.secondary_misses").inc(
            int(np.count_nonzero(acc.l2_is_secondary))
        )
        reg.counter("sim.l2.mshr_stall_cycles").inc(
            max(self.l2_mshrs.full_stall_cycles - stall_before[1], 0)
        )
        reg.gauge("sim.l2.mshr_peak").set_max(self.l2_mshrs.peak_occupancy)

        if acc.has_l3:
            n_l3 = len(acc.l3_hit_start)
            l3_miss = int(np.count_nonzero(acc.l3_is_miss))
            reg.counter("sim.l3.accesses").inc(n_l3)
            reg.counter("sim.l3.hits").inc(n_l3 - l3_miss)
            reg.counter("sim.l3.misses").inc(l3_miss)
        reg.counter("sim.mem.accesses").inc(len(acc.mem_start))

    def _run_impl(
        self,
        trace: Trace,
        *,
        perfect: bool,
        start_cycle: int,
        stop_cycle: "int | None",
        resume: bool,
    ) -> SimulationResult:
        cfg = self.config
        n = trace.n_instructions
        check_int("n_instructions", n, minimum=0)
        is_mem = trace.is_mem
        address = trace.address
        depends = trace.depends

        issue_w = cfg.core.issue_width
        rob = cfg.core.rob_size
        iw = cfg.core.iw_size
        h1 = cfg.l1_hit_time

        dispatch = np.zeros(n, dtype=np.int64)
        complete = np.zeros(n, dtype=np.int64)
        retire = np.zeros(n, dtype=np.int64)

        n_mem_total = trace.n_mem
        l1_hs = np.zeros(n_mem_total, dtype=np.int64)
        l1_he = np.zeros(n_mem_total, dtype=np.int64)
        l1_ms = np.zeros(n_mem_total, dtype=np.int64)
        l1_me = np.zeros(n_mem_total, dtype=np.int64)
        l1_miss = np.zeros(n_mem_total, dtype=bool)
        l1_sec = np.zeros(n_mem_total, dtype=bool)
        l1_complete = np.zeros(n_mem_total, dtype=np.int64)
        l2_index = np.full(n_mem_total, -1, dtype=np.int64)

        l2_hs: list[int] = []
        l2_he: list[int] = []
        l2_ms: list[int] = []
        l2_me: list[int] = []
        l2_miss: list[bool] = []
        l2_sec: list[bool] = []
        mem_index: list[int] = []
        mem_s: list[int] = []
        mem_e: list[int] = []
        # Fresh per-run L3 record lists (continuation runs accumulate into
        # their own records; the analyzer treats each run independently).
        self._l3_rec = tuple([] for _ in range(7))
        self._l2_l3_index = []

        (disp_cycle, disp_count, ret_cycle, ret_count, last_mem_complete,
         last_compute_complete, lsq, recent_retires) = self._pipe_start(
            start_cycle, resume, rob)

        mem_i = 0  # memory-access row index
        memory_access = self._memory_access  # local binding for the hot loop

        executed = n
        for i in range(n):
            # --- dispatch: bandwidth + ROB + (for memory) window slots ----
            d = disp_cycle
            if disp_count >= issue_w:
                d += 1
            if len(recent_retires) >= rob:
                rr = recent_retires[-rob]
                if rr > d:
                    d = rr
            mem_op = bool(is_mem[i])
            popped = None
            if mem_op:
                # Dependent load: wait for the previous memory op's data
                # (pointer chasing bounds MLP regardless of resources).
                if depends is not None and depends[i] and last_mem_complete > d:
                    d = last_mem_complete
                # Window (load/store-queue) slots bound in-flight memory ops.
                while lsq and lsq[0] <= d:
                    heapq.heappop(lsq)
                if len(lsq) >= iw:
                    popped = heapq.heappop(lsq)
                    if popped > d:
                        d = popped
            elif depends is not None and depends[i] and last_compute_complete > d:
                # Dependent compute op: chains through the previous compute
                # op's result, bounding ILP (and hence CPI_exe) the way real
                # dependency chains do.  Load results deliberately do not
                # feed these chains (see DESIGN.md: load consumers are
                # modelled through the ROB/window bound instead).
                d = last_compute_complete
            if stop_cycle is not None and d >= stop_cycle:
                # Quantum bound reached: this instruction dispatches in a
                # later quantum.  Restore the LSQ entry consumed while
                # computing its dispatch cycle (the full-window pop may
                # represent a still-in-flight op; re-pushing a completed
                # one is harmless).
                if popped is not None:
                    heapq.heappush(lsq, popped)
                executed = i
                break
            if d > disp_cycle:
                disp_cycle = d
                disp_count = 1
            else:
                disp_count += 1
            dispatch[i] = d

            # --- execute -------------------------------------------------
            if mem_op:
                if perfect:
                    c = d + h1
                    l1_hs[mem_i] = d
                    l1_he[mem_i] = c
                    l1_complete[mem_i] = c
                else:
                    c = memory_access(
                        int(address[i]), d, mem_i,
                        l1_hs, l1_he, l1_ms, l1_me, l1_miss, l1_sec,
                        l1_complete, l2_index,
                        l2_hs, l2_he, l2_ms, l2_me, l2_miss, l2_sec,
                        mem_index, mem_s, mem_e,
                    )
                heapq.heappush(lsq, c)
                last_mem_complete = c
                mem_i += 1
            else:
                c = d + 1
                last_compute_complete = c
            complete[i] = c

            # --- in-order retire with bandwidth ---------------------------
            r = c
            if recent_retires and recent_retires[-1] > r:
                r = recent_retires[-1]
            if r > ret_cycle:
                ret_cycle = r
                ret_count = 1
            else:
                r = ret_cycle
                if ret_count >= issue_w:
                    r += 1
                    ret_cycle = r
                    ret_count = 1
                else:
                    ret_count += 1
            retire[i] = r
            recent_retires.append(r)

        self._pipe_save(
            disp_cycle, disp_count, ret_cycle, ret_count, last_mem_complete,
            last_compute_complete, lsq, recent_retires, rob,
        )

        if executed < n:
            dispatch = dispatch[:executed]
            complete = complete[:executed]
            retire = retire[:executed]
            is_mem = np.asarray(is_mem[:executed])
            l1_hs, l1_he = l1_hs[:mem_i], l1_he[:mem_i]
            l1_ms, l1_me = l1_ms[:mem_i], l1_me[:mem_i]
            l1_miss, l1_sec = l1_miss[:mem_i], l1_sec[:mem_i]
            l1_complete, l2_index = l1_complete[:mem_i], l2_index[:mem_i]
        return build_simulation_result(
            config=cfg,
            trace_name=trace.name,
            executed=executed,
            dispatch=dispatch, complete=complete, retire=retire, is_mem=is_mem,
            l1_hit_start=l1_hs, l1_hit_end=l1_he,
            l1_miss_start=l1_ms, l1_miss_end=l1_me,
            l1_is_miss=l1_miss, l1_is_secondary=l1_sec,
            l1_complete=l1_complete, l2_index=l2_index,
            l2_hit_start=l2_hs, l2_hit_end=l2_he,
            l2_miss_start=l2_ms, l2_miss_end=l2_me,
            l2_is_miss=l2_miss, l2_is_secondary=l2_sec,
            mem_index=mem_index, mem_start=mem_s, mem_end=mem_e,
            component_stats=self._component_stats(),
            l3_index=self._l2_l3_index if self.l3_cache is not None else None,
            l3_records=self._l3_rec,
        )

    # ------------------------------------------------------------------
    def _use_fast_path(self) -> bool:
        """Whether this run takes the specialized fast issue loop.

        Every config does unless ``engine="reference"``: the fast loop
        inlines an in-order L1 MSHR file, which :meth:`reset` always builds
        (:class:`repro.sim.multicore.MulticoreSimulator` swaps only the
        shared L2/L3 files).  The equivalence suite
        (``tests/sim/test_engine_equivalence.py``) pins the fast loop to the
        reference loop bit for bit.
        """
        return self.engine != "reference"

    def _pipe_start(self, start_cycle: int, resume: bool, rob: int) -> tuple:
        """Issue/retire state a run starts from.

        Either fresh at *start_cycle*, or with *resume*, the state the
        previous quantum saved (multicore windows; avoids a full pipeline
        drain per window).  Returns ``(disp_cycle, disp_count, ret_cycle,
        ret_count, last_mem_complete, last_compute_complete, lsq,
        retired)``: *lsq* is the completion-time heap of in-flight memory
        ops, *retired* the retire cycles of up to the last ``rob``
        instructions (the ROB window; the core-only and fast loops pad it
        in front and append this run's retire cycles to it), and the two
        ``last_*_complete`` clocks serialize dependent loads and compute
        ILP chains.
        """
        check_int("start_cycle", start_cycle, minimum=0)
        pipe = self._pipe
        if not resume or pipe is None:
            return (start_cycle, 0, start_cycle - 1, 0, start_cycle, start_cycle, [], [])
        disp_cycle = max(pipe["disp_cycle"], start_cycle)
        ret_cycle = max(pipe["ret_cycle"], start_cycle - 1)
        return (
            disp_cycle,
            pipe["disp_count"] if disp_cycle == pipe["disp_cycle"] else 0,
            ret_cycle,
            pipe["ret_count"] if ret_cycle == pipe["ret_cycle"] else 0,
            pipe["last_mem_complete"],
            pipe["last_compute_complete"],
            pipe["lsq"],
            pipe["recent_retires"][-rob:],
        )

    def _pipe_save(
        self, disp_cycle: int, disp_count: int, ret_cycle: int, ret_count: int,
        last_mem_complete: int, last_compute_complete: int, lsq: list,
        recent_retires: list, rob: int,
    ) -> None:
        """Save the pipeline state so a later ``run(resume=True)`` continues
        without an artificial drain at the quantum boundary."""
        self._pipe = {
            "disp_cycle": disp_cycle,
            "disp_count": disp_count,
            "ret_cycle": ret_cycle,
            "ret_count": ret_count,
            "last_mem_complete": last_mem_complete,
            "last_compute_complete": last_compute_complete,
            "lsq": lsq,
            "recent_retires": recent_retires[-max(rob, 1):],
        }

    def _component_stats(self) -> dict:
        """Per-component statistics every run reports, as of now."""
        stats = {
            "l1_port_mean_wait": self.l1_ports.mean_wait,
            "l2_bank_mean_wait": self.l2_banks.mean_wait,
            "l1_mshr_coalescing": self.l1_mshrs.coalescing_ratio,
            "l1_mshr_peak": self.l1_mshrs.peak_occupancy,
            "l2_mshr_peak": self.l2_mshrs.peak_occupancy,
            "dram_row_hit_rate": self.dram.row_hit_rate,
            "dram_mean_bank_wait": self.dram.mean_bank_wait,
        }
        if self.prefetcher is not None:
            stats.update(
                prefetches_issued=self.prefetcher.issued,
                prefetches_useful=self.prefetcher.useful,
                prefetches_late=self.prefetcher.late,
                prefetch_accuracy=self.prefetcher.accuracy,
            )
        if self.bypass is not None:
            stats.update(
                l1_bypassed_fills=self.bypass.bypassed,
                l1_bypass_rate=self.bypass.bypass_rate,
            )
        return stats

    def _run_impl_perfect(
        self,
        trace: Trace,
        *,
        start_cycle: int,
        stop_cycle: "int | None",
        resume: bool,
    ) -> SimulationResult:
        """Core-only issue loop for the perfect-L1 pass, on any config.

        A perfect L1 hits every access in ``l1_hit_time`` with no port
        contention, so the pass never reaches the prefetcher, the bypass
        detector, the L1 contents or anything below the L1.  What is
        left is dispatch, the ROB, the window heap and in-order retire:
        the loop tracks only those and records only dispatch and retire
        cycles.  Completion times and the L1 record columns follow from
        the dispatch cycles with numpy after the loop.  The result, the
        saved pipeline state and the component statistics match
        :meth:`_run_impl` with ``perfect=True`` bit for bit
        (``tests/sim/test_engine_equivalence.py``).
        """
        cfg = self.config
        n = trace.n_instructions
        check_int("n_instructions", n, minimum=0)
        # One code per instruction: bit 0 memory op, bit 1 dependent.
        kinds = trace.is_mem.astype(np.int8)
        if trace.depends is not None:
            kinds += 2 * trace.depends.astype(np.int8)
        issue_w = cfg.core.issue_width
        rob = cfg.core.rob_size
        iw = cfg.core.iw_size
        h1 = cfg.l1_hit_time
        self._l3_rec = tuple([] for _ in range(7))
        self._l2_l3_index = []

        (disp_cycle, disp_count, ret_cycle, ret_count, last_mem_complete,
         last_compute_complete, lsq, retired) = self._pipe_start(
            start_cycle, resume, rob)
        # `retired` is the ROB window and the retire record at once, padded
        # in front with cycles that never bind so `retired[-rob]` needs no
        # length check; this run's retire cycles are its tail from `first`.
        pad = max(rob - len(retired), 0)
        retired = [-1] * pad + retired
        first = len(retired)
        dispatch_l: list[int] = []
        stop = math.inf if stop_cycle is None else stop_cycle
        heappush = heapq.heappush
        heappop = heapq.heappop

        for kind in kinds.tolist():
            d = disp_cycle + 1 if disp_count >= issue_w else disp_cycle
            rr = retired[-rob]
            if rr > d:
                d = rr
            if kind & 1:
                if kind == 3 and last_mem_complete > d:
                    d = last_mem_complete
                while lsq and lsq[0] <= d:
                    heappop(lsq)
                if len(lsq) >= iw:
                    popped = heappop(lsq)
                    if popped > d:
                        d = popped
                    if d >= stop:
                        heappush(lsq, popped)
                        break
                elif d >= stop:
                    break
                c = d + h1
                heappush(lsq, c)
                last_mem_complete = c
            else:
                if kind == 2 and last_compute_complete > d:
                    d = last_compute_complete
                if d >= stop:
                    break
                c = d + 1
                last_compute_complete = c
            if d > disp_cycle:
                disp_cycle = d
                disp_count = 1
            else:
                disp_count += 1
            dispatch_l.append(d)
            # In-order retire with bandwidth.  `ret_cycle` never trails the
            # previous retire, so clamping to it is the reference's clamp
            # to the last retire followed by its bandwidth check.
            if c > ret_cycle:
                ret_cycle = c
                ret_count = 1
            elif ret_count >= issue_w:
                ret_cycle += 1
                ret_count = 1
            else:
                ret_count += 1
            retired.append(ret_cycle)

        executed = len(dispatch_l)
        self._pipe_save(
            disp_cycle, disp_count, ret_cycle, ret_count, last_mem_complete,
            last_compute_complete, lsq, retired[pad:], rob,
        )
        dispatch = np.array(dispatch_l, dtype=np.int64)
        is_mem = trace.is_mem[:executed]
        complete = dispatch + np.where(is_mem, h1, 1)
        mem_dispatch = dispatch[is_mem]
        n_mem = mem_dispatch.size
        i64 = np.int64
        return build_simulation_result(
            config=cfg,
            trace_name=trace.name,
            executed=executed,
            dispatch=dispatch, complete=complete,
            retire=retired[first:], is_mem=is_mem,
            l1_hit_start=mem_dispatch, l1_hit_end=mem_dispatch + h1,
            l1_miss_start=np.zeros(n_mem, i64), l1_miss_end=np.zeros(n_mem, i64),
            l1_is_miss=np.zeros(n_mem, bool), l1_is_secondary=np.zeros(n_mem, bool),
            l1_complete=mem_dispatch + h1, l2_index=np.full(n_mem, -1, i64),
            l2_hit_start=(), l2_hit_end=(), l2_miss_start=(), l2_miss_end=(),
            l2_is_miss=(), l2_is_secondary=(),
            mem_index=(), mem_start=(), mem_end=(),
            component_stats=self._component_stats(),
            l3_index=self._l2_l3_index if self.l3_cache is not None else None,
            l3_records=self._l3_rec,
        )

    def _run_impl_fast(
        self,
        trace: Trace,
        *,
        start_cycle: int,
        stop_cycle: "int | None",
        resume: bool,
    ) -> SimulationResult:
        """Specialized issue loop for the dominant L1-hit path.

        Semantically identical to :meth:`_run_impl` restricted to the
        eligible configurations (see :meth:`_use_fast_path`); every
        timing decision, record value and component statistic matches the
        reference loop bit for bit.  The speed comes from:

        * the bookkeeping of :meth:`_run_impl_perfect`: one kind code per
          instruction (bit 0 memory op, bit 1 dependent), a memory-only
          address list, and the padded ``retired`` list as both the ROB
          window and the retire record;
        * the L1 port grant, lazy-fill check and LRU probe inlined into the
          loop body — an L1 hit costs a handful of dict/list operations
          instead of a 20-argument method call;
        * only the record columns that carry information written in the
          loop: completions, the L1 hit-end and miss-start columns and the
          port counters follow from dispatch, the port grant and the miss
          end after it;
        * MSHR/bank counters accumulated in locals and folded into the
          component objects at the end of the run.

        The miss walk is inlined too — the in-order L1 MSHR present/complete,
        the L2 bank grant and the L2 LRU probe all run in the loop body.
        The L2 MSHRs and DRAM are inlined for an in-order L2 MSHR file; an
        optional L3 goes through :meth:`_access_l3`, and an out-of-order
        (shared) L2 MSHR file through :meth:`_l2_miss_walk`, exactly the
        reference walk.

        The stride prefetcher and the stream-bypass detector keep the
        reference loop's order.  The detector trains on every access and
        only a primary miss's L1 fill reads it.  The prefetcher trains on
        hits, late-prefetch hits and primary misses, not on L1-MSHR
        secondary misses.  Its requests take the same inlined L2 walk as
        the demand miss that triggers them, after it, so they share its
        request clamp, L2 banks, L2 MSHRs, L3 and DRAM.
        """
        cfg = self.config
        n = trace.n_instructions
        check_int("n_instructions", n, minimum=0)
        # One code per instruction: bit 0 memory op, bit 1 dependent.
        kinds = trace.is_mem.astype(np.int8)
        if trace.depends is not None:
            kinds += 2 * trace.depends.astype(np.int8)
        mem_address_l = trace.memory_addresses.tolist()

        issue_w = cfg.core.issue_width
        rob = cfg.core.rob_size
        iw = cfg.core.iw_size
        h1 = cfg.l1_hit_time
        stop = math.inf if stop_cycle is None else stop_cycle

        dispatch_l: list[int] = []

        # L1 record columns, preallocated with their miss-free defaults: a
        # hit (the common case) only writes its port grant cycle.  The
        # hit-end, miss-start and completion columns are derived after the
        # loop.
        n_mem_total = trace.n_mem
        l1_hs = [0] * n_mem_total
        l1_me = [0] * n_mem_total
        l1_miss = [False] * n_mem_total
        l1_sec = [False] * n_mem_total
        l2_index = [-1] * n_mem_total

        l2_hs: list[int] = []
        l2_he: list[int] = []
        l2_ms: list[int] = []
        l2_me: list[int] = []
        l2_miss: list[bool] = []
        l2_sec: list[bool] = []
        mem_index: list[int] = []
        mem_s: list[int] = []
        mem_e: list[int] = []
        self._l3_rec = tuple([] for _ in range(7))
        self._l2_l3_index = []

        (disp_cycle, disp_count, ret_cycle, ret_count, last_mem_complete,
         last_compute_complete, lsq, retired) = self._pipe_start(
            start_cycle, resume, rob)
        # `retired` is the ROB window and the retire record at once, padded
        # in front with cycles that never bind so `retired[-rob]` needs no
        # length check; this run's retire cycles are its tail from `first`.
        pad = max(rob - len(retired), 0)
        retired = [-1] * pad + retired
        first = len(retired)

        # Hot-loop bindings: everything the L1-hit path touches, resolved
        # once.  The LRU set dict is shared engine/cache state, so fills
        # applied through the fill queue stay visible to the inline probe.
        l1_sets, set_mask, set_bits, offset_bits = self.l1_cache.lru_hot_state()
        port_heap = self.l1_ports._free_times
        single_port = len(port_heap) == 1
        port_occ = 1 if cfg.l1_pipelined else h1
        l1_assoc = cfg.l1.associativity
        fills_heap = self._l1_fills._heap
        heappush = heapq.heappush
        heappop = heapq.heappop
        heapreplace = heapq.heapreplace

        # Miss-walk bindings: the in-order L1 MSHR file, the L2 bank
        # scheduler and the L2 LRU state, all inlined below.  Dict/heap/list
        # structures are the objects' own (shared, mutated in place); clocks
        # and counters are locals folded back after the loop.
        l1m = self.l1_mshrs
        l1_out = l1m._outstanding
        l1_rel = l1m._releases
        l1_now = l1m._now
        l1_cap = l1m.capacity
        l1m_primary = 0
        l1m_secondary = 0
        l1m_stall = 0
        l1m_peak = l1m.peak_occupancy

        l1_to_l2 = cfg.l1_to_l2_delay
        h2 = cfg.l2_hit_time
        l2_occ = 1 if cfg.l2_pipelined else h2
        l2_banks = self.l2_banks
        l2_free = l2_banks._free_times
        l2_bank_mask = l2_banks._mask
        l2_sets, l2_set_mask, l2_set_bits, l2_offset_bits = (
            self.l2_cache.lru_hot_state()
        )
        l2_assoc = cfg.l2.associativity
        l2_fills_heap = self._l2_fills._heap
        l2_l3_append = self._l2_l3_index.append
        l2_miss_walk = self._l2_miss_walk
        last_l2_req = self._last_l2_req
        l2_grants = 0
        l2_wait = 0

        # L2 MSHR + memory dispatch, inlined only for a private in-order L2
        # MSHR file; a shared out-of-order file (multicore) leaves through
        # :meth:`_l2_miss_walk` instead.
        l2m = self.l2_mshrs
        l2m_inline = l2m.in_order
        l2m_out = l2m._outstanding
        l2m_rel = l2m._releases
        l2m_now = l2m._now
        l2m_cap = l2m.capacity
        l2m_primary = 0
        l2m_secondary = 0
        l2m_stall = 0
        l2m_peak = l2m.peak_occupancy
        has_l3 = self.l3_cache is not None
        access_l3 = self._access_l3
        l2_to_mem = cfg.l2_to_mem_delay
        last_mem_req = self._last_mem_req
        dram_access = self.dram.access

        # Prefetcher and stream detector.  Their training tables stay in
        # the shared StridePrefetcher/StreamDetector objects.  A plain
        # config pays two local tests per L1 hit for them: `extras` and
        # `walk`.
        prefetcher = self.prefetcher
        has_pf = prefetcher is not None
        pf_observe = prefetcher.observe if has_pf else None
        pf_max = prefetcher.config.max_outstanding if has_pf else 0
        pf_fills = self._prefetch_fills
        # The prefetches still in flight, for the outstanding budget: the
        # pf_fills entries not yet seen to land, and a heap of their fill
        # times to retire them by.  hit_end never decreases within a run,
        # so a fill landed by one trigger's hit_end has landed for every
        # later one.  Rebuilt per run: between runs, reconfigure() may lower
        # l1_hit_time or re-provision the L1 ports, and so hit_end.
        pf_inflight = dict(pf_fills)
        pf_due = [(t, b) for b, t in pf_fills.items()]
        heapq.heapify(pf_due)
        pf_todo: list[int] = []
        pf_issued = 0
        pf_useful = 0
        pf_late = 0
        has_bypass = self.bypass is not None
        bypass_classify = self.bypass.observe_and_classify if has_bypass else None
        bypass_fill = False
        extras = has_pf or has_bypass
        walk = False  # this access has L2 requests or trains the prefetcher
        demand = False  # ... and the first is its own primary miss

        mem_i = 0  # memory-access row index
        for kind in kinds.tolist():
            # --- dispatch: bandwidth + ROB + (for memory) window slots ----
            d = disp_cycle + 1 if disp_count >= issue_w else disp_cycle
            rr = retired[-rob]
            if rr > d:
                d = rr
            if kind & 1:
                if kind == 3 and last_mem_complete > d:
                    d = last_mem_complete
                while lsq and lsq[0] <= d:
                    heappop(lsq)
                if len(lsq) >= iw:
                    popped = heappop(lsq)
                    if popped > d:
                        d = popped
                    if d >= stop:
                        heappush(lsq, popped)
                        break
                elif d >= stop:
                    break

                # --- execute -----------------------------------------------
                addr = mem_address_l[mem_i]
                # L1 port grant, inline (PortScheduler.acquire).
                free = port_heap[0]
                t_port = d if d >= free else free
                if single_port:
                    port_heap[0] = t_port + port_occ
                else:
                    heapreplace(port_heap, t_port + port_occ)
                # Lazy fills due before the probe, inline (the fill
                # queue's apply_until + FunctionalCache.insert for LRU).
                while fills_heap and fills_heap[0][0] <= t_port:
                    fb = heappop(fills_heap)[1] >> offset_bits
                    ft = fb >> set_bits
                    fi = fb & set_mask
                    fs = l1_sets.get(fi)
                    if fs is None:
                        l1_sets[fi] = {ft: None}
                    elif ft in fs:
                        del fs[ft]  # refresh: reinsert at the tail
                        fs[ft] = None
                    else:
                        if len(fs) >= l1_assoc:
                            del fs[next(iter(fs))]
                        fs[ft] = None
                # LRU probe, inline (FunctionalCache.lookup).
                block = addr >> offset_bits
                tag = block >> set_bits
                s = l1_sets.get(block & set_mask)
                hit_end = t_port + h1
                l1_hs[mem_i] = t_port
                if s is not None and tag in s:
                    del s[tag]  # LRU promotion: reinsert at the tail
                    s[tag] = None
                    c = hit_end
                    if extras:
                        if has_bypass:
                            bypass_classify(addr)  # trains on every access
                        if has_pf:
                            if pf_fills.pop(block, None) is not None:
                                pf_useful += 1
                                pf_inflight.pop(block, None)
                            walk = True
                else:
                    l1_miss[mem_i] = True
                    pending = None
                    if extras:
                        if has_bypass:
                            bypass_fill = bypass_classify(addr)
                        if has_pf:
                            # The demand consumes its prefetch entry; one
                            # that already landed counts neither useful
                            # nor late.
                            pending = pf_fills.pop(block, None)
                            if pending is not None:
                                pf_inflight.pop(block, None)
                                if pending <= t_port:
                                    pending = None
                    if pending is not None:
                        # Late prefetch: the fill is already on its way;
                        # ride it without touching the MSHR file.
                        pf_late += 1
                        c = pending if pending > hit_end else hit_end
                        l1_sec[mem_i] = True
                        l1_me[mem_i] = c
                        walk = True
                    else:
                        # L1 MSHR present, inline (in-order MSHRFile.present):
                        # clamp to the file's never-rewinding clock, expire
                        # returned fills, then coalesce or allocate.
                        arr = hit_end if hit_end >= l1_now else l1_now
                        while l1_rel and l1_rel[0][0] <= arr:
                            rel_block = heappop(l1_rel)[1]
                            f = l1_out.get(rel_block)
                            if f is not None and f <= arr:
                                del l1_out[rel_block]
                        fill = l1_out.get(block)
                        if fill is not None and fill > arr:
                            # Secondary miss: ride the outstanding fill.  The
                            # prefetcher does not train on it.
                            l1m_secondary += 1
                            c = fill if fill > hit_end else hit_end
                            l1_sec[mem_i] = True
                            l1_me[mem_i] = c
                        else:
                            grant = arr
                            if len(l1_out) >= l1_cap:
                                # Full: stall until the earliest fill returns.
                                earliest = l1_rel[0][0]
                                if earliest > grant:
                                    grant = earliest
                                while l1_rel and l1_rel[0][0] <= grant:
                                    rel_block = heappop(l1_rel)[1]
                                    f = l1_out.get(rel_block)
                                    if f is not None and f <= grant:
                                        del l1_out[rel_block]
                            l1_now = grant
                            l1m_primary += 1
                            l1m_stall += grant - arr
                            t_l2 = grant + l1_to_l2
                            demand = True
                            walk = True
                if walk:
                    # L2 requests of this access: the primary miss's own
                    # (`demand`), then the prefetches it triggers.
                    walk = False
                    if has_pf:
                        # Train on the access; keep the candidates the
                        # reference's _issue_prefetches would issue.  Filter
                        # them all first: an L2 walk changes nothing the
                        # filters read, and the candidates are distinct.
                        candidates = pf_observe(addr)
                        if candidates:
                            while pf_due and pf_due[0][0] <= hit_end:
                                due, due_block = heappop(pf_due)
                                if pf_inflight.get(due_block) == due:
                                    del pf_inflight[due_block]
                            pf_budget = pf_max - len(pf_inflight)
                            for pf_block in candidates:
                                if pf_budget <= 0:
                                    break
                                if pf_block < 0 or pf_fills.get(pf_block, hit_end) > hit_end:
                                    continue  # invalid, or already in flight
                                fs = l1_sets.get(pf_block & set_mask)
                                if fs is not None and pf_block >> set_bits in fs:
                                    continue  # already resident
                                pf_todo.append(pf_block)
                                pf_budget -= 1
                            pf_todo.reverse()  # popped from the tail, in order
                    while demand or pf_todo:
                        if not demand:
                            block = pf_todo.pop()
                            addr = block << offset_bits
                            t_l2 = hit_end + 1
                        # One L2 walk of (addr, block, t_l2).  In-order miss
                        # queue: the request cycle clamps monotonic.
                        if t_l2 < last_l2_req:
                            t_l2 = last_l2_req
                        last_l2_req = t_l2
                        # L2 bank grant, inline (BankScheduler.acquire).
                        bank = block & l2_bank_mask
                        bfree = l2_free[bank]
                        t_bank = t_l2 if t_l2 >= bfree else bfree
                        l2_free[bank] = t_bank + l2_occ
                        l2_grants += 1
                        l2_wait += t_bank - t_l2
                        while l2_fills_heap and l2_fills_heap[0][0] <= t_l2:
                            fb = heappop(l2_fills_heap)[1] >> l2_offset_bits
                            ft = fb >> l2_set_bits
                            fi = fb & l2_set_mask
                            fs = l2_sets.get(fi)
                            if fs is None:
                                l2_sets[fi] = {ft: None}
                            elif ft in fs:
                                del fs[ft]
                                fs[ft] = None
                            else:
                                if len(fs) >= l2_assoc:
                                    del fs[next(iter(fs))]
                                fs[ft] = None
                        # L2 LRU probe, inline.
                        l2_block = addr >> l2_offset_bits
                        l2_tag = l2_block >> l2_set_bits
                        s2 = l2_sets.get(l2_block & l2_set_mask)
                        l2_row = len(l2_hs)
                        l2_hit_end = t_bank + h2
                        l2_hs.append(t_bank)
                        l2_he.append(l2_hit_end)
                        if s2 is not None and l2_tag in s2:
                            del s2[l2_tag]
                            s2[l2_tag] = None
                            l2_ms.append(0)
                            l2_me.append(0)
                            l2_miss.append(False)
                            l2_sec.append(False)
                            mem_index.append(-1)
                            l2_l3_append(-1)
                            data_at_l1 = l2_hit_end + l1_to_l2
                        elif not l2m_inline:
                            data_at_l1 = l2_miss_walk(
                                addr, block, l2_hit_end,
                                l2_ms, l2_me, l2_miss, l2_sec,
                                mem_index, mem_s, mem_e,
                            ) + l1_to_l2
                        else:
                            l2_miss.append(True)
                            # L2 MSHR present, inline (in-order).
                            arr2 = (
                                l2_hit_end if l2_hit_end >= l2m_now
                                else l2m_now
                            )
                            while l2m_rel and l2m_rel[0][0] <= arr2:
                                rb = heappop(l2m_rel)[1]
                                f2 = l2m_out.get(rb)
                                if f2 is not None and f2 <= arr2:
                                    del l2m_out[rb]
                            fill2 = l2m_out.get(block)
                            if fill2 is not None and fill2 > arr2:
                                l2m_secondary += 1
                                l2_sec.append(True)
                                mem_index.append(-1)
                                l2_l3_append(-1)
                                mem_ready = (
                                    fill2 if fill2 > l2_hit_end
                                    else l2_hit_end
                                )
                            else:
                                grant2 = arr2
                                if len(l2m_out) >= l2m_cap:
                                    e2 = l2m_rel[0][0]
                                    if e2 > grant2:
                                        grant2 = e2
                                    while l2m_rel and l2m_rel[0][0] <= grant2:
                                        rb = heappop(l2m_rel)[1]
                                        f2 = l2m_out.get(rb)
                                        if f2 is not None and f2 <= grant2:
                                            del l2m_out[rb]
                                l2m_now = grant2
                                l2m_primary += 1
                                l2m_stall += grant2 - arr2
                                l2_sec.append(False)
                                if has_l3:
                                    l3_row, mem_ready = access_l3(
                                        addr, block,
                                        grant2 + cfg.l2_to_l3_delay,
                                        mem_s, mem_e,
                                    )
                                    mem_index.append(-1)
                                    l2_l3_append(l3_row)
                                else:
                                    t_mem = grant2 + l2_to_mem
                                    if t_mem < last_mem_req:
                                        t_mem = last_mem_req
                                    last_mem_req = t_mem
                                    dres = dram_access(block, t_mem)
                                    mem_index.append(len(mem_s))
                                    mem_s.append(dres.service_start)
                                    mem_e.append(dres.service_end)
                                    mem_ready = dres.data_ready + l2_to_mem
                                    l2_l3_append(-1)
                                # L2 fill + MSHR completion, inline.
                                heappush(l2_fills_heap, (mem_ready, addr))
                                l2m_out[block] = mem_ready
                                heappush(l2m_rel, (mem_ready, block))
                                occ2 = len(l2m_out)
                                if occ2 > l2m_peak:
                                    l2m_peak = occ2
                            l2_ms.append(l2_hit_end)
                            l2_me.append(
                                mem_ready if mem_ready > l2_hit_end
                                else l2_hit_end
                            )
                            data_at_l1 = mem_ready + l1_to_l2
                        if demand:
                            demand = False
                            l2_index[mem_i] = l2_row
                            # L1 fill (unless a confirmed stream bypasses
                            # the L1) + MSHR completion, inline.
                            if not bypass_fill:
                                heappush(fills_heap, (data_at_l1, addr))
                            l1_out[block] = data_at_l1
                            heappush(l1_rel, (data_at_l1, block))
                            occ = len(l1_out)
                            if occ > l1m_peak:
                                l1m_peak = occ
                            c = data_at_l1 if data_at_l1 > hit_end else hit_end
                            l1_me[mem_i] = c
                        else:
                            # Prefetch fill: into the L1 fill queue, never
                            # bypassed.
                            heappush(fills_heap, (data_at_l1, addr))
                            pf_fills[block] = data_at_l1
                            pf_inflight[block] = data_at_l1
                            heappush(pf_due, (data_at_l1, block))
                            pf_issued += 1
                heappush(lsq, c)
                last_mem_complete = c
                mem_i += 1
            else:
                if kind == 2 and last_compute_complete > d:
                    d = last_compute_complete
                if d >= stop:
                    break
                c = d + 1
                last_compute_complete = c
            if d > disp_cycle:
                disp_cycle = d
                disp_count = 1
            else:
                disp_count += 1
            dispatch_l.append(d)
            # In-order retire with bandwidth.  `ret_cycle` never trails the
            # previous retire, so clamping to it is the reference's clamp
            # to the last retire followed by its bandwidth check.
            if c > ret_cycle:
                ret_cycle = c
                ret_count = 1
            elif ret_count >= issue_w:
                ret_cycle += 1
                ret_count = 1
            else:
                ret_count += 1
            retired.append(ret_cycle)

        # Fold the locally accumulated counters back into the shared
        # scheduler objects so component statistics (and any direct
        # inspection of them) match the reference loop exactly.
        l1m._now = l1_now
        l1m.primary_misses += l1m_primary
        l1m.secondary_misses += l1m_secondary
        l1m.full_stall_cycles += l1m_stall
        l1m.peak_occupancy = l1m_peak
        l2_banks.grants += l2_grants
        l2_banks.total_wait += l2_wait
        self._last_l2_req = last_l2_req
        if has_pf:
            prefetcher.issued += pf_issued
            prefetcher.useful += pf_useful
            prefetcher.late += pf_late
        if l2m_inline:
            # Only the inline path tracked these locally; the out-of-order
            # walk mutated the MSHR file (and _last_mem_req) directly.
            l2m._now = l2m_now
            l2m.primary_misses += l2m_primary
            l2m.secondary_misses += l2m_secondary
            l2m.full_stall_cycles += l2m_stall
            l2m.peak_occupancy = l2m_peak
            if not has_l3:
                self._last_mem_req = last_mem_req

        executed = len(dispatch_l)
        self._pipe_save(
            disp_cycle, disp_count, ret_cycle, ret_count, last_mem_complete,
            last_compute_complete, lsq, retired[pad:], rob,
        )

        # The columns the loop leaves out follow from the ones it writes:
        # an access's hit window ends l1_hit_time after its port grant, a
        # miss window opens there, and the access completes there or at
        # the end of its miss.  A compute op completes one cycle after
        # dispatch.  (The slices drop the rows a quantum bound never
        # reached.)
        dispatch = np.array(dispatch_l, dtype=np.int64)
        is_mem = trace.is_mem[:executed]
        l1_hs = np.array(l1_hs, dtype=np.int64)[:mem_i]
        l1_he = l1_hs + h1
        l1_miss = np.array(l1_miss, dtype=bool)[:mem_i]
        l1_ms = np.where(l1_miss, l1_he, 0)
        l1_me = np.array(l1_me, dtype=np.int64)[:mem_i]
        l1_complete = np.where(l1_miss, l1_me, l1_he)
        l1_sec, l2_index = l1_sec[:mem_i], l2_index[:mem_i]
        complete = dispatch + 1
        complete[is_mem] = l1_complete
        self.l1_ports.grants += mem_i
        self.l1_ports.total_wait += int(l1_hs.sum() - dispatch[is_mem].sum())
        return build_simulation_result(
            config=cfg,
            trace_name=trace.name,
            executed=executed,
            dispatch=dispatch, complete=complete, retire=retired[first:],
            is_mem=is_mem,
            l1_hit_start=l1_hs, l1_hit_end=l1_he,
            l1_miss_start=l1_ms, l1_miss_end=l1_me,
            l1_is_miss=l1_miss, l1_is_secondary=l1_sec,
            l1_complete=l1_complete, l2_index=l2_index,
            l2_hit_start=l2_hs, l2_hit_end=l2_he,
            l2_miss_start=l2_ms, l2_miss_end=l2_me,
            l2_is_miss=l2_miss, l2_is_secondary=l2_sec,
            mem_index=mem_index, mem_start=mem_s, mem_end=mem_e,
            component_stats=self._component_stats(),
            l3_index=self._l2_l3_index if self.l3_cache is not None else None,
            l3_records=self._l3_rec,
        )

    def _l2_miss_walk(
        self, addr, block, l2_hit_end,
        l2_ms, l2_me, l2_miss, l2_sec, mem_index, mem_s, mem_e,
    ) -> int:
        """Fast-path L2-miss continuation: exactly the reference walk.

        The caller already granted the L2 bank, applied due L2 fills and
        probed (and missed) the inline L2 LRU state; this is the miss
        branch of :meth:`_access_l2` — L2 MSHRs, then the optional L3 or
        DRAM — returning the cycle the data is back at the L2.
        """
        cfg = self.config
        l2_miss.append(True)
        l2_miss_start = l2_hit_end
        res2 = self.l2_mshrs.present(block, l2_miss_start)
        if res2.is_secondary:
            l2_sec.append(True)
            mem_index.append(-1)
            self._l2_l3_index.append(-1)
            mem_ready = res2.fill_time if res2.fill_time > l2_hit_end else l2_hit_end
        else:
            l2_sec.append(False)
            if self.l3_cache is not None:
                t_l3_req = res2.grant_time + cfg.l2_to_l3_delay
                l3_row, mem_ready = self._access_l3(
                    addr, block, t_l3_req, mem_s, mem_e
                )
                mem_index.append(-1)
                self._l2_l3_index.append(l3_row)
            else:
                t_mem_req = res2.grant_time + cfg.l2_to_mem_delay
                if t_mem_req < self._last_mem_req:
                    t_mem_req = self._last_mem_req
                self._last_mem_req = t_mem_req
                dres = self.dram.access(block, t_mem_req)
                mem_index.append(len(mem_s))
                mem_s.append(dres.service_start)
                mem_e.append(dres.service_end)
                mem_ready = dres.data_ready + cfg.l2_to_mem_delay
                self._l2_l3_index.append(-1)
            self._l2_fills.schedule(mem_ready, addr)
            self.l2_mshrs.complete_primary(block, mem_ready)
        l2_ms.append(l2_miss_start)
        l2_me.append(mem_ready if mem_ready > l2_miss_start else l2_miss_start)
        return mem_ready

    # ------------------------------------------------------------------
    def _memory_access(
        self, addr, t_request, mem_i,
        l1_hs, l1_he, l1_ms, l1_me, l1_miss, l1_sec, l1_complete, l2_index,
        l2_hs, l2_he, l2_ms, l2_me, l2_miss, l2_sec,
        mem_index, mem_s, mem_e,
    ) -> int:
        """Walk one access through L1/L2/DRAM; fills record arrays; returns
        the data-ready cycle."""
        cfg = self.config
        h1 = cfg.l1_hit_time
        block = addr >> self._offset_bits

        # L1: port grant, lazy fill application, lookup.
        t_port = self.l1_ports.acquire(t_request, 1 if cfg.l1_pipelined else h1)
        self._l1_fills.apply_until(self.l1_cache, t_port)
        hit = self.l1_cache.lookup(addr)
        l1_hs[mem_i] = t_port
        hit_end = t_port + h1
        l1_he[mem_i] = hit_end
        # Selective replacement: train the stream detector on every access;
        # a confirmed-stream miss will skip L1 allocation below.
        bypass_fill = (
            self.bypass.observe_and_classify(addr) if self.bypass is not None else False
        )
        prefetcher = self.prefetcher
        if hit:
            if prefetcher is not None:
                if self._prefetch_fills.pop(block, None) is not None:
                    prefetcher.useful += 1
                self._issue_prefetches(
                    addr, hit_end,
                    l2_hs, l2_he, l2_ms, l2_me, l2_miss, l2_sec,
                    mem_index, mem_s, mem_e,
                )
            l1_complete[mem_i] = hit_end
            return hit_end

        # L1 miss.
        l1_miss[mem_i] = True
        miss_start = hit_end
        if prefetcher is not None:
            pending = self._prefetch_fills.pop(block, None)
            if pending is not None and pending > t_port:
                # Late prefetch: the fill is already on its way; ride it.
                prefetcher.late += 1
                done = pending if pending > hit_end else hit_end
                l1_sec[mem_i] = True
                l1_ms[mem_i] = miss_start
                l1_me[mem_i] = done
                l1_complete[mem_i] = done
                self._issue_prefetches(
                    addr, hit_end,
                    l2_hs, l2_he, l2_ms, l2_me, l2_miss, l2_sec,
                    mem_index, mem_s, mem_e,
                )
                return done
        res = self.l1_mshrs.present(block, miss_start)
        if res.is_secondary:
            done = res.fill_time if res.fill_time > hit_end else hit_end
            l1_sec[mem_i] = True
            l1_ms[mem_i] = miss_start
            l1_me[mem_i] = done
            l1_complete[mem_i] = done
            return done

        # Primary miss -> L2 request (in-order miss queue: clamp monotonic).
        t_l2_req = res.grant_time + cfg.l1_to_l2_delay
        l2_row, data_at_l1 = self._access_l2(
            addr, block, t_l2_req,
            l2_hs, l2_he, l2_ms, l2_me, l2_miss, l2_sec,
            mem_index, mem_s, mem_e,
        )
        l2_index[mem_i] = l2_row

        if not bypass_fill:
            self._l1_fills.schedule(data_at_l1, addr)
        self.l1_mshrs.complete_primary(block, data_at_l1)
        l1_ms[mem_i] = miss_start
        l1_me[mem_i] = data_at_l1 if data_at_l1 > miss_start else miss_start
        l1_complete[mem_i] = data_at_l1 if data_at_l1 > hit_end else hit_end
        if prefetcher is not None:
            self._issue_prefetches(
                addr, hit_end,
                l2_hs, l2_he, l2_ms, l2_me, l2_miss, l2_sec,
                mem_index, mem_s, mem_e,
            )
        return int(l1_complete[mem_i])

    def _access_l2(
        self, addr, block, t_l2_req,
        l2_hs, l2_he, l2_ms, l2_me, l2_miss, l2_sec,
        mem_index, mem_s, mem_e,
    ) -> tuple[int, int]:
        """L2 (and, on miss, DRAM) walk shared by demand misses and
        prefetches; returns (L2 record row, data-at-L1 cycle)."""
        cfg = self.config
        h2 = cfg.l2_hit_time
        if t_l2_req < self._last_l2_req:
            t_l2_req = self._last_l2_req
        self._last_l2_req = t_l2_req

        l2_occ = 1 if cfg.l2_pipelined else h2
        t_bank = self.l2_banks.acquire(block, t_l2_req, l2_occ)
        self._l2_fills.apply_until(self.l2_cache, t_l2_req)
        l2_hit = self.l2_cache.lookup(addr)
        l2_row = len(l2_hs)
        l2_hs.append(t_bank)
        l2_hit_end = t_bank + h2
        l2_he.append(l2_hit_end)

        if l2_hit:
            l2_ms.append(0)
            l2_me.append(0)
            l2_miss.append(False)
            l2_sec.append(False)
            mem_index.append(-1)
            self._l2_l3_index.append(-1)
            data_at_l1 = l2_hit_end + cfg.l1_to_l2_delay
        else:
            l2_miss.append(True)
            l2_miss_start = l2_hit_end
            res2 = self.l2_mshrs.present(block, l2_miss_start)
            if res2.is_secondary:
                l2_sec.append(True)
                mem_index.append(-1)
                self._l2_l3_index.append(-1)
                mem_ready = res2.fill_time if res2.fill_time > l2_hit_end else l2_hit_end
            else:
                l2_sec.append(False)
                if self.l3_cache is not None:
                    t_l3_req = res2.grant_time + cfg.l2_to_l3_delay
                    l3_row, mem_ready = self._access_l3(
                        addr, block, t_l3_req, mem_s, mem_e
                    )
                    mem_index.append(-1)
                    self._l2_l3_index.append(l3_row)
                else:
                    t_mem_req = res2.grant_time + cfg.l2_to_mem_delay
                    if t_mem_req < self._last_mem_req:
                        t_mem_req = self._last_mem_req
                    self._last_mem_req = t_mem_req
                    dres = self.dram.access(block, t_mem_req)
                    mem_index.append(len(mem_s))
                    mem_s.append(dres.service_start)
                    mem_e.append(dres.service_end)
                    mem_ready = dres.data_ready + cfg.l2_to_mem_delay
                    self._l2_l3_index.append(-1)
                self._l2_fills.schedule(mem_ready, addr)
                self.l2_mshrs.complete_primary(block, mem_ready)
            l2_ms.append(l2_miss_start)
            l2_me.append(mem_ready if mem_ready > l2_miss_start else l2_miss_start)
            data_at_l1 = mem_ready + cfg.l1_to_l2_delay
        return l2_row, data_at_l1

    def _access_l3(
        self, addr, block, t_l3_req, mem_s, mem_e
    ) -> tuple[int, int]:
        """Optional L3 walk (mirrors :meth:`_access_l2`); returns the L3
        record row and the cycle data is back at the L2."""
        cfg = self.config
        h3 = cfg.l3_hit_time
        if t_l3_req < self._last_l3_req:
            t_l3_req = self._last_l3_req
        self._last_l3_req = t_l3_req

        l3_hs, l3_he, l3_ms, l3_me, l3_miss, l3_sec, l3_mem_index = self._l3_rec
        l3_occ = 1 if cfg.l3_pipelined else h3
        t_bank = self.l3_banks.acquire(block, t_l3_req, l3_occ)
        self._l3_fills.apply_until(self.l3_cache, t_l3_req)
        l3_hit = self.l3_cache.lookup(addr)
        l3_row = len(l3_hs)
        l3_hs.append(t_bank)
        l3_hit_end = t_bank + h3
        l3_he.append(l3_hit_end)

        if l3_hit:
            l3_ms.append(0)
            l3_me.append(0)
            l3_miss.append(False)
            l3_sec.append(False)
            l3_mem_index.append(-1)
            data_at_l2 = l3_hit_end + cfg.l2_to_l3_delay
        else:
            l3_miss.append(True)
            miss_start = l3_hit_end
            res3 = self.l3_mshrs.present(block, miss_start)
            if res3.is_secondary:
                l3_sec.append(True)
                l3_mem_index.append(-1)
                mem_ready = res3.fill_time if res3.fill_time > miss_start else miss_start
            else:
                l3_sec.append(False)
                t_mem_req = res3.grant_time + cfg.l2_to_mem_delay
                if t_mem_req < self._last_mem_req:
                    t_mem_req = self._last_mem_req
                self._last_mem_req = t_mem_req
                dres = self.dram.access(block, t_mem_req)
                l3_mem_index.append(len(mem_s))
                mem_s.append(dres.service_start)
                mem_e.append(dres.service_end)
                mem_ready = dres.data_ready + cfg.l2_to_mem_delay
                self._l3_fills.schedule(mem_ready, addr)
                self.l3_mshrs.complete_primary(block, mem_ready)
            l3_ms.append(miss_start)
            l3_me.append(mem_ready if mem_ready > miss_start else miss_start)
            data_at_l2 = mem_ready + cfg.l2_to_l3_delay
        return l3_row, data_at_l2

    def _issue_prefetches(
        self, addr, now,
        l2_hs, l2_he, l2_ms, l2_me, l2_miss, l2_sec,
        mem_index, mem_s, mem_e,
    ) -> None:
        """Train the prefetcher on *addr* and turn candidates into traffic.

        Prefetches consume real L2 bank slots (and DRAM banks on L2 misses)
        through :meth:`_access_l2`, and their fills land in the L1 through
        the same lazy fill queue as demand fills — including the cache
        pollution that implies.  Candidates already resident, in flight, or
        beyond the outstanding budget are dropped.
        """
        prefetcher = self.prefetcher
        assert prefetcher is not None
        candidates = prefetcher.observe(addr)
        if not candidates:
            return
        offset_bits = self._offset_bits
        outstanding = sum(1 for t in self._prefetch_fills.values() if t > now)
        budget = prefetcher.config.max_outstanding - outstanding
        for pf_block in candidates:
            if budget <= 0:
                break
            if pf_block < 0:
                continue
            pf_addr = pf_block << offset_bits
            if pf_block in self._prefetch_fills and self._prefetch_fills[pf_block] > now:
                continue
            if self.l1_cache.contains(pf_addr):
                continue
            _, data_at_l1 = self._access_l2(
                pf_addr, pf_block, now + 1,
                l2_hs, l2_he, l2_ms, l2_me, l2_miss, l2_sec,
                mem_index, mem_s, mem_e,
            )
            self._l1_fills.schedule(data_at_l1, pf_addr)
            self._prefetch_fills[pf_block] = data_at_l1
            prefetcher.issued += 1
            budget -= 1
