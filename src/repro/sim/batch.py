"""Vectorized batch engine: step N machine configurations per kernel call.

The Fig. 3 walk and the Table I sweep evaluate many :class:`MachineConfig`
design points over the *same* trace.  The scalar fast path makes one such
run ~1.6x cheaper; this module restructures the problem instead: one
:class:`BatchHierarchySimulator` holds a struct-of-arrays copy of the
per-lane pipeline state (one array dimension per config — a *lane*) and a
single Python-level pass over the shared trace advances every lane with
numpy operations.  Every run covers the whole trace from cycle 0 on every
lane, so no lane ever stops early and runs of independent instructions
always step as one block.  The kernel holds its lanes in ascending ROB
size and hands results back in the caller's order.

Layout (L = number of lanes)::

    p_d                    (L,)  dispatch *potential* (see below)
    lsq                    (L, W) completion times, -1 = free/stale slot
    port_free              (L, max_ports), huge padding for narrow lanes
    l1_tags / l1_age       (L, max_sets, max_ways), tag -1 = invalid way
    dispatch/complete/retire records                    (n, L) int64
    wret_a: row k, lane j = w_j * retire[k - rob_j, j]  (n, L) int64
    L1 record columns                                   (n_mem, L)

**The skewed ROB clamp.**  Instruction i may not dispatch before
instruction ``i - rob`` retires.  ``wret_a`` stores that bound already
shifted by each lane's ROB size, so the clamp reads row i for every mix
of ROB sizes, and a block of instructions reads one contiguous slice.
Retire rows are computed in blocks of the smallest ROB size, and each
ROB size's columns are written ``rob`` rows further down; with the lanes
in ROB order, that is one basic-slice write per ROB size.

**The potential trick.**  The scalar engines track issue bandwidth as a
``(cycle, count)`` pair with branchy reset logic.  Both dispatch and
retire compress to one integer per lane: ``p = w*cycle + (count - 1)``
with ``count`` in ``[1, w]``.  A bandwidth-limited step is exactly
``p + 1`` (count rolls into the next cycle when it hits ``w``), and a
clamp to cycle ``m > cycle`` is exactly ``w*m`` (count resets to 1), so

    p' = max(p + 1, w*m_1, w*m_2, ...)      and   cycle' = p' // w

reproduces the reference recurrence bit for bit in three numpy ops per
instruction instead of seven.  Retire never steps per instruction: its
recurrence unrolls to a running maximum over a block (see
:meth:`BatchHierarchySimulator._run_kernel`), and so does dispatch over a
run of instructions that no dependence or full window can stall.

Only the dominant L1-hit path is vectorized.  The rare L1-miss walk drops
to per-lane scalar code that *inlines* the reference component semantics
the same way the scalar fast path does — in-order MSHR files as
dict + release-heap, L2 banks as a free-time list, L2 LRU as the cache's
own set dicts (``lru_hot_state``), DRAM via each lane's real
:class:`~repro.sim.dram.DRAMModel` — so everything below the L1 costs
plain dict/heap operations and the local clocks/counters are folded back
into the lane's component objects after the pass (exactly the fast path's
fold).  Lanes with an out-of-order L2 MSHR file or an L3 route through the
lane simulator's own ``_l2_miss_walk`` / ``_access_l3`` methods.

The vectorized L1 pieces have exact scalar equivalents:

* dict-ordered LRU == per-lane age arrays stamped from one monotone event
  counter (eviction = argmin age over valid ways; promotion/insert =
  age <- clock++);
* the port heap's ``heapreplace`` == replace-argmin on a free-time array
  (with two ports, a sorted pair);
* the LSQ drain/pop == lazy staleness (an entry <= d can never influence a
  later decision because dispatch cycles are monotone per lane), with a
  scalar upper-bound screen, so the full-window check costs nothing while
  the window is slack.

Eligibility is no prefetcher and no bypass detector, which only the
scalar loops model (the single-core L1 MSHR file is in-order by
construction); :class:`BatchHierarchySimulator` raises
:class:`ConfigError` eagerly on ineligible configs.  The three-way
equivalence suite (``tests/sim/test_engine_equivalence.py``) pins every
``SimulationResult`` field to the reference engine bit for bit.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime.errors import ConfigError
from repro.sim.cache import FunctionalCache
from repro.sim.engine import (
    HierarchySimulator,
    SimulationResult,
    batch_eligible,
    build_simulation_result,
)
from repro.sim.params import MachineConfig
from repro.util.validation import check_int
from repro.workloads.trace import Trace

__all__ = ["BatchHierarchySimulator", "batch_eligible"]

_HUGE = np.int64(2) ** 62


class BatchHierarchySimulator:
    """Simulate one shared :class:`Trace` on N configs simultaneously.

    Like :class:`HierarchySimulator`, an instance carries warm state
    (cache contents, port/bank/DRAM timing) across :meth:`run` calls;
    construct a fresh instance for independent experiments.  Each run is
    a whole-trace evaluation of fixed design points from cycle 0: there
    are no quanta, no ``resume`` and no
    :meth:`HierarchySimulator.reconfigure`.
    """

    def __init__(self, configs: "list[MachineConfig]", *, seed: int = 0) -> None:
        configs = list(configs)
        if not configs:
            raise ConfigError("batch simulation needs at least one config")
        bad = [c.name for c in configs if not batch_eligible(c)]
        if bad:
            raise ConfigError(
                "the batch kernel requires no prefetcher and no L1 bypass; "
                f"ineligible configs: {bad} (use "
                "repro.sim.stats.dispatch_plan() to split the batch)"
            )
        self.configs = configs
        self.seed = seed
        self.n_lanes = L = len(configs)
        #: Per-lane delegates.  Everything below the L1 — the MSHR files,
        #: L2 banks/LRU/fill queue, optional L3, DRAM — lives in *these*
        #: objects; the kernel's inlined miss walk mutates their dicts and
        #: heaps in place and folds local clocks/counters back after each
        #: run, so the post-run object state matches the reference loop.
        self.lane_sims = [
            HierarchySimulator(c, seed=seed, engine="reference") for c in configs
        ]
        # The kernel holds its lanes in ascending ROB size, so each ROB
        # size is one contiguous column block of the skewed clamp cache
        # (see _run_kernel); run() hands results back in caller order.
        self._order = sorted(range(L), key=lambda j: configs[j].core.rob_size)
        configs = self._lanes = [configs[j] for j in self._order]
        self._sims = [self.lane_sims[j] for j in self._order]

        i64 = np.int64
        self._issue_w = np.array([c.core.issue_width for c in configs], dtype=i64)
        self._iw = np.array([c.core.iw_size for c in configs], dtype=i64)
        self._h1 = np.array([c.l1_hit_time for c in configs], dtype=i64)
        self._occ = np.array(
            [1 if c.l1_pipelined else c.l1_hit_time for c in configs], dtype=i64
        )
        self._min_iw = int(self._iw.min())
        #: ``(first lane, end lane, rob_size)`` per ROB size, ascending.
        self._rob_groups: "list[tuple[int, int, int]]" = []
        for lane, c in enumerate(configs):
            rob = c.core.rob_size
            if self._rob_groups and self._rob_groups[-1][2] == rob:
                self._rob_groups[-1] = (self._rob_groups[-1][0], lane + 1, rob)
            else:
                self._rob_groups.append((lane, lane + 1, rob))

        # L1 geometry, per lane; the arrays are padded to the widest lane.
        self._off = np.array([c.l1.offset_bits for c in configs], dtype=i64)
        self._sbits = np.array(
            [c.l1.n_sets.bit_length() - 1 for c in configs], dtype=i64
        )
        self._smask = np.array([c.l1.n_sets - 1 for c in configs], dtype=i64)
        self._off_i = [c.l1.offset_bits for c in configs]
        self._sbits_i = [c.l1.n_sets.bit_length() - 1 for c in configs]
        self._smask_i = [c.l1.n_sets - 1 for c in configs]
        self._assoc = [c.l1.associativity for c in configs]
        self._homo_l1 = all(c.l1 == configs[0].l1 for c in configs)
        max_sets = max(c.l1.n_sets for c in configs)
        max_ways = max(self._assoc)
        self._max_ways = max_ways
        self._l1_tags = np.full((L, max_sets, max_ways), -1, dtype=i64)
        self._l1_age = np.zeros((L, max_sets, max_ways), dtype=i64)
        # One LRU clock for every lane: only the order of ages within a
        # set matters.  It starts above every age a warm-up loads, so
        # promotions are newer.
        self._l1_clock = max_ways
        # Flat per-lane views for the scalar fill path (same memory), plus
        # a plain-list mirror of the tags so the fill drain scans Python
        # lists instead of round-tripping numpy rows.  Only the drain and
        # the warm loader write tags, so the mirror stays in sync.
        self._l1_tags_flat = [self._l1_tags[lane].reshape(-1) for lane in range(L)]
        self._l1_age_flat = [self._l1_age[lane].reshape(-1) for lane in range(L)]
        self._l1_tags_list = [self._l1_tags_flat[lane].tolist() for lane in range(L)]

        # L1 ports: free-time array padded with a huge sentinel for narrow
        # lanes, so the vectorized replace-argmin never grants a pad port.
        max_ports = max(c.l1_ports for c in configs)
        self._max_ports = max_ports
        self._n_ports = [c.l1_ports for c in configs]
        self._port_free = np.full((L, max_ports), _HUGE, dtype=i64)
        for lane, c in enumerate(configs):
            self._port_free[lane, : c.l1_ports] = 0

        # Per-lane L1 fill queues (heaps) + vectorized due check.
        self._fills: "list[list[tuple[int, int]]]" = [[] for _ in range(L)]
        self._next_fill = np.full(L, _HUGE, dtype=i64)

        self._lane_idx = np.arange(L, dtype=np.intp)
        #: Whether any run or warm has touched the cache arrays; only a
        #: pristine simulator can be warmed.
        self._touched = False

    # -- warm-up ---------------------------------------------------------
    def warm_caches(self, trace: Trace) -> None:
        """Touch the trace's addresses functionally in every lane.

        Matches :meth:`HierarchySimulator.warm_caches` per lane on a
        pristine simulator: the warm walk runs once per *distinct* cache
        geometry and the resulting contents are copied across lanes.  A
        simulator that has already been warmed or run raises
        :class:`ConfigError`.
        """
        if self._touched:
            raise ConfigError(
                "warm_caches() needs a pristine batch simulator; build a new "
                "one instead of warming after a warm or a run"
            )
        addresses = trace.memory_addresses
        scratch_l1: "dict[object, FunctionalCache]" = {}
        scratch_l2: "dict[object, FunctionalCache]" = {}
        scratch_l3: "dict[object, FunctionalCache]" = {}
        for lane, cfg in enumerate(self._lanes):
            sim = self._sims[lane]
            c1 = scratch_l1.get(cfg.l1)
            if c1 is None:
                c1 = FunctionalCache(cfg.l1)
                c1.warm_lookup_array(addresses)
                scratch_l1[cfg.l1] = c1
            self._load_l1_lane(lane, c1)
            c2 = scratch_l2.get(cfg.l2)
            if c2 is None:
                c2 = FunctionalCache(cfg.l2)
                c2.warm_lookup_array(addresses)
                scratch_l2[cfg.l2] = c2
            sim.l2_cache._sets.update(
                {k: dict(v) for k, v in c2._sets.items()}
            )
            if sim.l3_cache is not None:
                c3 = scratch_l3.get(cfg.l3)
                if c3 is None:
                    c3 = FunctionalCache(cfg.l3)
                    c3.warm_lookup_array(addresses)
                    scratch_l3[cfg.l3] = c3
                sim.l3_cache._sets.update(
                    {k: dict(v) for k, v in c3._sets.items()}
                )
        self._touched = True

    def _load_l1_lane(self, lane: int, cache: FunctionalCache) -> None:
        """Copy a dict-LRU cache's contents into a pristine lane's tag/age
        arrays.

        Dict insertion order (oldest first) becomes ascending age, so the
        array kernel's argmin-age eviction picks exactly the dict head.
        """
        tags = self._l1_tags[lane]
        age = self._l1_age[lane]
        for set_idx, s in cache._sets.items():
            for way, tag in enumerate(s):
                tags[set_idx, way] = tag
                age[set_idx, way] = way
        self._l1_tags_list[lane] = self._l1_tags_flat[lane].tolist()

    def _drain_lane_fills(
        self, lane: int, now: int, clock: int
    ) -> "tuple[int, int]":
        """Apply one lane's due L1 fills to its tag/age arrays.

        Mirrors the reference fill semantics (``_FillQueue.apply_until`` +
        dict-LRU ``insert``): a resident block refreshes its position, an
        absent block fills a free way or evicts the least-recent one.
        Pure-Python list scans over the (tiny) set row — an order of
        magnitude cheaper per fill than numpy row kernels.  Returns the
        number of fills applied and the advanced LRU *clock*.
        """
        heap = self._fills[lane]
        mirror = self._l1_tags_list[lane]
        tags = self._l1_tags_flat[lane]
        age = self._l1_age_flat[lane]
        off = self._off_i[lane]
        sbits = self._sbits_i[lane]
        smask = self._smask_i[lane]
        assoc = self._assoc[lane]
        mw = self._max_ways
        npop = 0
        heappop = heapq.heappop
        while heap and heap[0][0] <= now:
            _, addr = heappop(heap)
            npop += 1
            block = addr >> off
            base = (block & smask) * mw
            tag = block >> sbits
            end = base + assoc
            row = mirror[base:end]
            if tag in row:
                way = row.index(tag)  # resident: refresh position only
            else:
                if -1 in row:
                    way = row.index(-1)  # free way
                else:
                    ages = age[base:end].tolist()
                    way = ages.index(min(ages))  # dict head == oldest age
                pos = base + way
                mirror[pos] = tag
                tags[pos] = tag
            age[base + way] = clock
            clock += 1
        self._next_fill[lane] = heap[0][0] if heap else _HUGE
        return npop, clock

    # -- the kernel ------------------------------------------------------
    def run(
        self, trace: Trace, *, perfect: bool = False
    ) -> "list[SimulationResult]":
        """Execute the whole *trace* on every lane from cycle 0; one result
        per config, in order.

        Semantics per lane are exactly ``HierarchySimulator.run(trace,
        perfect=perfect)``.

        With observability enabled the whole call is one ``sim.run_batch``
        span and each lane's finished result is folded into the metrics
        registry exactly as a scalar run would be, so ``sim.*`` counters
        are engine-independent.
        """
        if not (obs_trace.tracing_enabled() or obs_metrics.metrics_enabled()):
            return self._run_kernel(trace, perfect=perfect)
        with obs_trace.span(
            "sim.run_batch", trace=trace.name, lanes=self.n_lanes,
            perfect=perfect,
        ) as span:
            stall_before = [
                (sim.l1_mshrs.full_stall_cycles,
                 sim.l2_mshrs.full_stall_cycles)
                for sim in self.lane_sims
            ]
            results = self._run_kernel(trace, perfect=perfect)
            span.set(
                instructions=sum(r.instructions_executed for r in results),
                cycles=max(r.total_cycles for r in results),
            )
            if obs_metrics.metrics_enabled():
                for sim, result, before in zip(self.lane_sims, results,
                                               stall_before):
                    sim._record_metrics(result, before)
        return results

    def _run_kernel(
        self, trace: Trace, *, perfect: bool = False
    ) -> "list[SimulationResult]":
        """The vectorized issue loop behind :meth:`run` (no instrumentation)."""
        n = trace.n_instructions
        check_int("n_instructions", n, minimum=0)
        L = self.n_lanes
        lane_idx = self._lane_idx
        self._touched = True

        is_mem_l = trace.is_mem.tolist()
        address_l = trace.address.tolist()
        depends = trace.depends
        depends_l = depends.tolist() if depends is not None else None
        has_dep = depends_l is not None

        i64 = np.int64
        w_arr = self._issue_w
        iw_arr = self._iw
        h1_arr = self._h1
        occ_arr = self._occ
        min_iw = self._min_iw
        rob_groups = self._rob_groups
        lanes = self._lanes

        # Records: one row per instruction / memory access, one column per
        # lane.  Per-lane results are the columns of these at the end.
        n_mem_total = trace.n_mem
        dispatch_a = np.zeros((n, L), dtype=i64)
        complete_a = np.zeros((n, L), dtype=i64)
        retire_a = np.zeros((n, L), dtype=i64)
        l1_hs = np.zeros((n_mem_total, L), dtype=i64)
        l1_he = np.zeros((n_mem_total, L), dtype=i64)
        l1_ms = np.zeros((n_mem_total, L), dtype=i64)
        l1_me = np.zeros((n_mem_total, L), dtype=i64)
        l1_miss = np.zeros((n_mem_total, L), dtype=bool)
        l1_sec = np.zeros((n_mem_total, L), dtype=bool)
        l1_cmp = np.zeros((n_mem_total, L), dtype=i64)
        l2_index = np.full((n_mem_total, L), -1, dtype=i64)

        # Per-lane L2/L3/memory record columns, fed by the miss walk.
        l2_rec = [
            tuple([] for _ in range(9)) for _ in range(L)
        ]  # l2_hs, l2_he, l2_ms, l2_me, l2_miss, l2_sec, mem_index, mem_s, mem_e
        lane_sims = self._sims
        for sim in lane_sims:
            sim._l3_rec = tuple([] for _ in range(7))
            sim._l2_l3_index = []

        # Dispatch state as potentials, fresh at cycle 0 every run.
        p_d = np.full(L, -1, dtype=i64)

        # Retire is not stepped per instruction: the recurrence
        # ``p_r(i) = max(p_r(i-1) + 1, w*c_i)`` unrolls to
        # ``p_r(i) = i + max(q0, max_{k<=i}(w*c_k - k))`` — a running
        # maximum — so whole blocks of retire rows fall out of one
        # ``maximum.accumulate`` sweep.  The only in-loop consumer is the
        # ROB clamp, which reads retire rows at lag >= min_rob, so
        # flushing a block every ``B = min_rob`` instructions always stays
        # ahead of it.  The flush also fills in the completion rows:
        # ``dispatch + 1``, then the memory ops' rows from ``l1_cmp``.
        #
        # The clamp reads ``wret_a``, stored skewed: row k, lane j holds
        # ``w_j * retire[k - rob_j, j]``, so the clamp at instruction i is
        # one row for every mix of ROB sizes.  Rows k < rob_j stay 0, which
        # never binds because ``p_d(k) >= k``.  The flush writes each ROB
        # group's block rob rows further down, a basic-slice copy because
        # the lanes are held in ROB order.
        B = rob_groups[0][2]
        wret_a = np.zeros((n, L), dtype=i64)
        wret_groups = [(g0, g1, rob, w_arr[g0:g1]) for g0, g1, rob in rob_groups]
        q_carry = -w_arr
        scan_buf = np.empty((min(B, n) if n else 1, L), dtype=i64)
        idx_col = np.arange(n, dtype=i64)[:, None]
        flushed = 0
        flush_at = B

        # Memory op positions, and the memory ops before each instruction.
        mem_at = np.flatnonzero(trace.is_mem)
        mem_before_l = np.r_[0, np.cumsum(trace.is_mem)].tolist()

        def _flush_retire(i0: int, i1: int) -> None:
            cb = complete_a[i0:i1]
            np.add(dispatch_a[i0:i1], 1, out=cb)
            k0 = mem_before_l[i0]
            k1 = mem_before_l[i1]
            if k1 > k0:
                complete_a[mem_at[k0:k1]] = l1_cmp[k0:k1]
            sb = scan_buf[: i1 - i0]
            np.multiply(cb, w_arr, out=sb)
            np.subtract(sb, idx_col[i0:i1], out=sb)
            np.maximum.accumulate(sb, axis=0, out=sb)
            np.maximum(sb, q_carry, out=sb)
            np.copyto(q_carry, sb[-1])
            np.add(sb, idx_col[i0:i1], out=sb)
            rb = retire_a[i0:i1]
            np.floor_divide(sb, w_arr, out=rb)
            for g0, g1, rob, w_g in wret_groups:
                lo = i0 + rob
                if lo >= n:
                    break
                hi = i1 + rob if i1 + rob < n else n
                np.multiply(rb[: hi - lo, g0:g1], w_g, out=wret_a[lo:hi, g0:g1])

        # LSQ: completion times, -1 = free/stale slot.  Entries <= the
        # current dispatch cycle can never influence a later decision
        # (dispatch is monotone per lane), so they are *logically* drained
        # and only compacted when the shared append cursor runs off the
        # end.  Order within a row is irrelevant: the window check only
        # needs the count and minimum of live entries.
        max_iw = int(iw_arr.max())
        W = max_iw + 64
        lsq = np.full((L, W), -1, dtype=i64)
        lu = 0  # shared append cursor (uniform across lanes)
        lsq_ub = 0  # conservative upper bound on any lane's live entries
        stale_buf = np.empty((L, W), dtype=bool)
        lsq_buf = np.empty((L, W), dtype=i64)
        cnt_buf = np.empty(L, dtype=i64)
        m_buf = np.empty(L, dtype=i64)
        add_reduce = np.add.reduce
        max_reduce = np.maximum.reduce
        min_reduce = np.minimum.reduce

        port_free = self._port_free
        single_port = self._max_ports == 1
        two_port = self._max_ports == 2
        port_free0 = port_free[:, 0]
        port_free1 = port_free[:, 1] if self._max_ports >= 2 else None
        next_fill = self._next_fill
        l1_tags = self._l1_tags
        l1_age = self._l1_age
        clock = self._l1_clock
        homo_l1 = self._homo_l1
        off0 = self._off_i[0]
        sbits0 = self._sbits_i[0]
        smask0 = self._smask_i[0]
        off_i = self._off_i
        off_arr = self._off
        sbits_arr = self._sbits
        smask_arr = self._smask
        fills = self._fills
        fills_pending = sum(len(h) for h in fills)
        heappush = heapq.heappush
        heappop = heapq.heappop
        drain = self._drain_lane_fills

        # Per-lane miss-walk bindings: the lane objects' own dicts, heaps
        # and free-time lists (mutated in place), plus local clocks and
        # counters folded back after the loop — the fast path's layout,
        # one list entry per lane.
        l1outl = [s.l1_mshrs._outstanding for s in lane_sims]
        l1rell = [s.l1_mshrs._releases for s in lane_sims]
        l1nowl = [s.l1_mshrs._now for s in lane_sims]
        l1capl = [s.l1_mshrs.capacity for s in lane_sims]
        l1mprim = [0] * L
        l1msec = [0] * L
        l1mstall = [0] * L
        l1mpeak = [s.l1_mshrs.peak_occupancy for s in lane_sims]
        l1tol2 = [c.l1_to_l2_delay for c in lanes]
        h2l = [c.l2_hit_time for c in lanes]
        l2occl = [
            1 if c.l2_pipelined else c.l2_hit_time for c in lanes
        ]
        l2freel = [s.l2_banks._free_times for s in lane_sims]
        l2bmaskl = [s.l2_banks._mask for s in lane_sims]
        l2grants = [0] * L
        l2wait = [0] * L
        l2setsl, l2smaskl, l2sbitsl, l2offl = [], [], [], []
        for s in lane_sims:
            sets2, smask2, sbits2, off2 = s.l2_cache.lru_hot_state()
            l2setsl.append(sets2)
            l2smaskl.append(smask2)
            l2sbitsl.append(sbits2)
            l2offl.append(off2)
        l2assocl = [c.l2.associativity for c in lanes]
        l2fheapl = [s._l2_fills._heap for s in lane_sims]
        l2outl = [s.l2_mshrs._outstanding for s in lane_sims]
        l2rell = [s.l2_mshrs._releases for s in lane_sims]
        l2nowl = [s.l2_mshrs._now for s in lane_sims]
        l2capl = [s.l2_mshrs.capacity for s in lane_sims]
        l2inl = [s.l2_mshrs.in_order for s in lane_sims]
        l2mprim = [0] * L
        l2msec = [0] * L
        l2mstall = [0] * L
        l2mpeakl = [s.l2_mshrs.peak_occupancy for s in lane_sims]
        hasl3 = [s.l3_cache is not None for s in lane_sims]
        accl3 = [s._access_l3 for s in lane_sims]
        l2tol3 = [c.l2_to_l3_delay for c in lanes]
        l2tomem = [c.l2_to_mem_delay for c in lanes]
        lastl2 = [s._last_l2_req for s in lane_sims]
        lastmem = [s._last_mem_req for s in lane_sims]
        draml = [s.dram.access for s in lane_sims]
        walkl = [s._l2_miss_walk for s in lane_sims]
        l2l3app = [s._l2_l3_index.append for s in lane_sims]

        # Scratch buffers (allocation-free hot loop) + local ufunc binds
        # (a dozen global+attribute lookups per instruction add up).
        np_add = np.add
        np_mul = np.multiply
        np_max = np.maximum
        np_fdiv = np.floor_divide
        np_copyto = np.copyto
        np_le = np.less_equal
        np_cnz = np.count_nonzero
        np_not = np.logical_not
        tmp = np.empty(L, dtype=i64)
        b2 = np.empty(L, dtype=bool)
        b_arg = np.empty(L, dtype=bool)
        bhit = np.empty(L, dtype=bool)
        bdue = np.empty(L, dtype=bool)
        eqbuf = np.empty((L, self._max_ways), dtype=bool)
        blk_a = np.empty(L, dtype=i64)
        si_a = np.empty(L, dtype=i64)
        tg_a = np.empty(L, dtype=i64)

        # Row views as a Python list: list indexing is ~3x cheaper than
        # ndarray.__getitem__ for the one row the ROB clamp reads per
        # instruction.
        wret_rows = list(wret_a)

        # Ops that only the bandwidth step and the ROB clamp act on step as
        # one block: independent compute ops, and independent memory ops
        # that no window check would stop (``lsq_ub`` plus the block's
        # memory ops stays under ``min_iw``).
        # Between two such ops ``p_d(i) = max(p_d(i-1) + 1, R(i))`` with
        # ``R(i)`` the skewed clamp row, which unrolls to a running maximum
        # of ``R(k) - k`` just as retire does.  A block stops at the next
        # retire flush, so every row it reads is already flushed; its
        # memory ops then execute one by one at their block dispatch.
        if has_dep:
            breaks = np.flatnonzero(depends)
            run_end_l = np.append(breaks, n)[
                np.searchsorted(breaks, np.arange(n))].tolist()
            # A dependent compute op chains through the previous compute
            # op's completion (dispatch + 1); a dependent memory op through
            # the previous memory op's (its l1_cmp row).
            comp_at = np.where(trace.is_mem, -1, np.arange(n))
            prev_comp_l = np.r_[-1, np.maximum.accumulate(comp_at)[:-1]].tolist()
        else:
            run_end_l = [n] * n
        mem_at_l = mem_at.tolist() + [n] * (min_iw + 1)
        skip_to = 0
        run_rows = np.empty((min(B, n) if n else 1, L), dtype=i64)

        mem_i = 0
        for i in range(n):
            mem_op = is_mem_l[i]
            if i < skip_to:
                if not mem_op:
                    continue
                d = dispatch_a[i]
            else:
                # --- dispatch: bandwidth + ROB + (memory) window slots ---
                if i == flush_at:
                    _flush_retire(flushed, i)
                    flushed = i
                    flush_at += B
                end = run_end_l[i]
                if end > flush_at:
                    end = flush_at
                room = min_iw - lsq_ub if lsq_ub < min_iw else 0
                slack = mem_at_l[mem_i + room]
                if end > slack:
                    end = slack
                if end - i >= 2:
                    rows = run_rows[: end - i]
                    np.subtract(wret_a[i:end], idx_col[i:end], out=rows)
                    np.maximum.accumulate(rows, axis=0, out=rows)
                    np.subtract(p_d, i - 1, out=tmp)
                    np_max(rows, tmp, out=rows)
                    np_add(rows, idx_col[i:end], out=rows)
                    np_copyto(p_d, rows[-1])
                    np_fdiv(rows, w_arr, out=dispatch_a[i:end])
                    skip_to = end
                    if not mem_op:
                        continue
                    d = dispatch_a[i]
                else:
                    np_add(p_d, 1, out=p_d)
                    np_max(p_d, wret_rows[i], out=p_d)
                    if has_dep and depends_l[i]:
                        if mem_op:
                            if mem_i:
                                np_mul(l1_cmp[mem_i - 1], w_arr, out=tmp)
                                np_max(p_d, tmp, out=p_d)
                        elif prev_comp_l[i] >= 0:
                            np_add(dispatch_a[prev_comp_l[i]], 1, out=tmp)
                            np_mul(tmp, w_arr, out=tmp)
                            np_max(p_d, tmp, out=p_d)
                    d = dispatch_a[i]
                    np_fdiv(p_d, w_arr, out=d)
                    if not mem_op:
                        continue
                    if lsq_ub >= min_iw:
                        # Exact window check: count live entries, pop the
                        # earliest completion for full lanes (it is > d
                        # after the logical drain, so d simply becomes it
                        # and the popped entry goes stale by construction).
                        # All raw ufunc reductions — the
                        # np.count_nonzero/ndarray.min wrappers cost more
                        # than the scans themselves here.
                        np_le(lsq, d[:, None], out=stale_buf)
                        add_reduce(stale_buf, axis=1, dtype=i64, out=cnt_buf)
                        np.subtract(W, cnt_buf, out=cnt_buf)
                        np.greater_equal(cnt_buf, iw_arr, out=b2)
                        if np_cnz(b2):
                            np_copyto(lsq_buf, lsq)
                            np_copyto(lsq_buf, _HUGE, where=stale_buf)
                            min_reduce(lsq_buf, axis=1, out=m_buf)
                            np_copyto(d, m_buf, where=b2)
                            np_mul(m_buf, w_arr, out=tmp)
                            np_copyto(p_d, tmp, where=b2)
                        lsq_ub = int(max_reduce(cnt_buf))

            # --- execute (memory ops only) ------------------------------
            # t_port and c are this access's own record rows.
            c = l1_cmp[mem_i]
            if perfect:
                np_add(d, h1_arr, out=c)
                l1_hs[mem_i] = d
            else:
                addr = address_l[i]
                t_port = l1_hs[mem_i]
                # L1 port grant (replace-argmin == heapreplace).
                if single_port:
                    np.maximum(d, port_free0, out=t_port)
                    np.add(t_port, occ_arr, out=port_free0)
                elif two_port:
                    # The two columns are kept sorted (a one-port lane's
                    # pad is the larger), so the grant takes column 0 and
                    # its new free time is sorted back in.
                    np.maximum(d, port_free0, out=t_port)
                    np.add(t_port, occ_arr, out=tmp)
                    np.minimum(tmp, port_free1, out=port_free0)
                    np.maximum(tmp, port_free1, out=port_free1)
                else:
                    port_free.min(axis=1, out=tmp)
                    np.maximum(d, tmp, out=t_port)
                    am = port_free.argmin(axis=1)
                    np.add(t_port, occ_arr, out=tmp)
                    port_free[lane_idx, am] = tmp
                # Due L1 fills (only lanes with a pending fill).
                if fills_pending:
                    np.less_equal(next_fill, t_port, out=bdue)
                    if np.count_nonzero(bdue):
                        for ld in bdue.nonzero()[0].tolist():
                            npop, clock = drain(ld, int(t_port[ld]), clock)
                            fills_pending -= npop
                # L1 LRU probe.
                if homo_l1:
                    block0 = addr >> off0
                    si = block0 & smask0
                    tg = block0 >> sbits0
                    row_t = l1_tags[:, si]
                    np.equal(row_t, tg, out=eqbuf)
                else:
                    np.right_shift(addr, off_arr, out=blk_a)
                    np.bitwise_and(blk_a, smask_arr, out=si_a)
                    np.right_shift(blk_a, sbits_arr, out=tg_a)
                    row_t = l1_tags[lane_idx, si_a]
                    np.equal(row_t, tg_a[:, None], out=eqbuf)
                np.logical_or.reduce(eqbuf, axis=1, out=bhit)
                np_add(t_port, h1_arr, out=c)  # hit_end; misses overwrite
                n_hit = np_cnz(bhit)
                if n_hit:
                    # LRU promotion.  A tag sits in at most one way of its
                    # set, so eqbuf marks exactly the hit ways.
                    if homo_l1:
                        np_copyto(l1_age[:, si], clock, where=eqbuf)
                    else:
                        hidx = bhit.nonzero()[0]
                        way = eqbuf.argmax(axis=1)
                        l1_age[hidx, si_a[hidx], way[hidx]] = clock
                    clock += 1
                if n_hit != L:
                    np_not(bhit, out=b2)
                    midx = b2.nonzero()[0]
                    l1_miss[mem_i, midx] = True
                    # Per-miss results are collected in plain lists and
                    # written back with one fancy store per array —
                    # scalar ``arr[i, j] = v`` assignments inside the
                    # walk cost more than the walk's own dict/heap work.
                    hl = c.tolist()
                    dn_l: "list[int]" = []
                    sec_l: "list[int]" = []
                    prim_l: "list[int]" = []
                    prim_rows: "list[int]" = []
                    prim_nf: "list[int]" = []
                    for lm in midx.tolist():
                        he = hl[lm]
                        block = addr >> off_i[lm]
                        # L1 MSHR present, inline (in-order file):
                        # clamp to the never-rewinding clock, expire
                        # returned fills, coalesce or allocate.
                        out1 = l1outl[lm]
                        rel1 = l1rell[lm]
                        arr = he if he >= l1nowl[lm] else l1nowl[lm]
                        while rel1 and rel1[0][0] <= arr:
                            rb = heappop(rel1)[1]
                            f = out1.get(rb)
                            if f is not None and f <= arr:
                                del out1[rb]
                        fill = out1.get(block)
                        if fill is not None and fill > arr:
                            # Secondary miss: ride the pending fill.
                            l1msec[lm] += 1
                            done = fill if fill > he else he
                            sec_l.append(lm)
                        else:
                            grant = arr
                            if len(out1) >= l1capl[lm]:
                                e1 = rel1[0][0]
                                if e1 > grant:
                                    grant = e1
                                while rel1 and rel1[0][0] <= grant:
                                    rb = heappop(rel1)[1]
                                    f = out1.get(rb)
                                    if f is not None and f <= grant:
                                        del out1[rb]
                            l1nowl[lm] = grant
                            l1mprim[lm] += 1
                            l1mstall[lm] += grant - arr
                            # L2 request (in-order miss queue: clamp).
                            t_l2 = grant + l1tol2[lm]
                            if t_l2 < lastl2[lm]:
                                t_l2 = lastl2[lm]
                            lastl2[lm] = t_l2
                            # L2 bank grant, inline.
                            l2free = l2freel[lm]
                            bank = block & l2bmaskl[lm]
                            bfree = l2free[bank]
                            t_bank = t_l2 if t_l2 >= bfree else bfree
                            l2free[bank] = t_bank + l2occl[lm]
                            l2grants[lm] += 1
                            l2wait[lm] += t_bank - t_l2
                            # Due L2 fills, inline LRU insert.
                            l2fh = l2fheapl[lm]
                            l2sets = l2setsl[lm]
                            l2sb = l2sbitsl[lm]
                            l2sm = l2smaskl[lm]
                            l2ob = l2offl[lm]
                            while l2fh and l2fh[0][0] <= t_l2:
                                fb = heappop(l2fh)[1] >> l2ob
                                ft = fb >> l2sb
                                fi = fb & l2sm
                                fs = l2sets.get(fi)
                                if fs is None:
                                    l2sets[fi] = {ft: None}
                                elif ft in fs:
                                    del fs[ft]
                                    fs[ft] = None
                                else:
                                    if len(fs) >= l2assocl[lm]:
                                        del fs[next(iter(fs))]
                                    fs[ft] = None
                            # L2 LRU probe, inline.
                            (rl2hs, rl2he, rl2ms, rl2me, rl2miss,
                             rl2sec, rmemi, rmems, rmeme) = l2_rec[lm]
                            l2b = addr >> l2ob
                            l2t = l2b >> l2sb
                            s2 = l2sets.get(l2b & l2sm)
                            l2_row = len(rl2hs)
                            l2he_t = t_bank + h2l[lm]
                            rl2hs.append(t_bank)
                            rl2he.append(l2he_t)
                            if s2 is not None and l2t in s2:
                                del s2[l2t]
                                s2[l2t] = None
                                rl2ms.append(0)
                                rl2me.append(0)
                                rl2miss.append(False)
                                rl2sec.append(False)
                                rmemi.append(-1)
                                l2l3app[lm](-1)
                                data = l2he_t + l1tol2[lm]
                            elif not l2inl[lm]:
                                data = walkl[lm](
                                    addr, block, l2he_t,
                                    rl2ms, rl2me, rl2miss, rl2sec,
                                    rmemi, rmems, rmeme,
                                ) + l1tol2[lm]
                            else:
                                rl2miss.append(True)
                                # L2 MSHR present, inline (in-order).
                                out2 = l2outl[lm]
                                rel2 = l2rell[lm]
                                arr2 = (
                                    l2he_t if l2he_t >= l2nowl[lm]
                                    else l2nowl[lm]
                                )
                                while rel2 and rel2[0][0] <= arr2:
                                    rb2 = heappop(rel2)[1]
                                    f2 = out2.get(rb2)
                                    if f2 is not None and f2 <= arr2:
                                        del out2[rb2]
                                fill2 = out2.get(block)
                                if fill2 is not None and fill2 > arr2:
                                    l2msec[lm] += 1
                                    rl2sec.append(True)
                                    rmemi.append(-1)
                                    l2l3app[lm](-1)
                                    mem_ready = (
                                        fill2 if fill2 > l2he_t
                                        else l2he_t
                                    )
                                else:
                                    grant2 = arr2
                                    if len(out2) >= l2capl[lm]:
                                        e2 = rel2[0][0]
                                        if e2 > grant2:
                                            grant2 = e2
                                        while rel2 and rel2[0][0] <= grant2:
                                            rb2 = heappop(rel2)[1]
                                            f2 = out2.get(rb2)
                                            if f2 is not None and f2 <= grant2:
                                                del out2[rb2]
                                    l2nowl[lm] = grant2
                                    l2mprim[lm] += 1
                                    l2mstall[lm] += grant2 - arr2
                                    rl2sec.append(False)
                                    if hasl3[lm]:
                                        l3_row, mem_ready = accl3[lm](
                                            addr, block,
                                            grant2 + l2tol3[lm],
                                            rmems, rmeme,
                                        )
                                        rmemi.append(-1)
                                        l2l3app[lm](l3_row)
                                    else:
                                        t_mem = grant2 + l2tomem[lm]
                                        if t_mem < lastmem[lm]:
                                            t_mem = lastmem[lm]
                                        lastmem[lm] = t_mem
                                        dres = draml[lm](block, t_mem)
                                        rmemi.append(len(rmems))
                                        rmems.append(dres.service_start)
                                        rmeme.append(dres.service_end)
                                        mem_ready = (
                                            dres.data_ready + l2tomem[lm]
                                        )
                                        l2l3app[lm](-1)
                                    heappush(l2fh, (mem_ready, addr))
                                    out2[block] = mem_ready
                                    heappush(rel2, (mem_ready, block))
                                    occ2 = len(out2)
                                    if occ2 > l2mpeakl[lm]:
                                        l2mpeakl[lm] = occ2
                                rl2ms.append(l2he_t)
                                rl2me.append(
                                    mem_ready if mem_ready > l2he_t
                                    else l2he_t
                                )
                                data = mem_ready + l1tol2[lm]
                            prim_l.append(lm)
                            prim_rows.append(l2_row)
                            # L1 fill + MSHR completion, inline.
                            fh = fills[lm]
                            heappush(fh, (data, addr))
                            prim_nf.append(fh[0][0])
                            out1[block] = data
                            heappush(rel1, (data, block))
                            occ1 = len(out1)
                            if occ1 > l1mpeak[lm]:
                                l1mpeak[lm] = occ1
                            done = data if data > he else he
                        dn_l.append(done)
                    c[midx] = dn_l
                    l1_me[mem_i, midx] = dn_l
                    if sec_l:
                        l1_sec[mem_i, sec_l] = True
                    if prim_l:
                        l2_index[mem_i, prim_l] = prim_rows
                        next_fill[prim_l] = prim_nf
                        fills_pending += len(prim_l)
            # LSQ push.
            lsq[:, lu] = c
            lu += 1
            lsq_ub += 1
            if lu >= W:
                # Physical compaction: a descending sort packs live
                # entries to the left (order-free — only the live
                # count and minimum ever matter).
                lsq[:] = np.sort(lsq, axis=1)[:, ::-1]
                np.greater(lsq, d[:, None], out=stale_buf)
                lu = int(np.count_nonzero(stale_buf, axis=1).max())
            mem_i += 1

        self._l1_clock = clock
        if flushed < n:
            _flush_retire(flushed, min(n, flushed + B))
        if n_mem_total:
            # hit_end == hit_start + l1_hit_time on every row, and the miss
            # window starts exactly at hit_end (0 on hits) — derived in two
            # vector passes instead of per-instruction stores.
            np.add(l1_hs, h1_arr[None, :], out=l1_he)
            np.multiply(l1_he, l1_miss, out=l1_ms)

        # Fold the locally accumulated clocks and counters back into the
        # shared component objects so per-lane statistics match the
        # reference loop exactly.  Port wait is derived from the record
        # arrays (one vectorized pass) instead of being accumulated per
        # instruction.
        if not perfect:
            pw_all = (l1_hs - dispatch_a[trace.is_mem]).sum(axis=0).tolist()
        for lane in range(L):
            sim = lane_sims[lane]
            if not perfect:
                sim.l1_ports.grants += n_mem_total
                sim.l1_ports.total_wait += pw_all[lane]
                sim.l1_ports._free_times = sorted(
                    int(v) for v in port_free[lane, : self._n_ports[lane]]
                )
                l1m = sim.l1_mshrs
                l1m._now = l1nowl[lane]
                l1m.primary_misses += l1mprim[lane]
                l1m.secondary_misses += l1msec[lane]
                l1m.full_stall_cycles += l1mstall[lane]
                l1m.peak_occupancy = l1mpeak[lane]
                l2b = sim.l2_banks
                l2b.grants += l2grants[lane]
                l2b.total_wait += l2wait[lane]
                sim._last_l2_req = lastl2[lane]
                if l2inl[lane]:
                    l2m = sim.l2_mshrs
                    l2m._now = l2nowl[lane]
                    l2m.primary_misses += l2mprim[lane]
                    l2m.secondary_misses += l2msec[lane]
                    l2m.full_stall_cycles += l2mstall[lane]
                    l2m.peak_occupancy = l2mpeakl[lane]
                    if not hasl3[lane]:
                        sim._last_mem_req = lastmem[lane]

        results: "list[SimulationResult]" = []
        for lane in range(L):
            sim = lane_sims[lane]
            stats = {
                "l1_port_mean_wait": sim.l1_ports.mean_wait,
                "l2_bank_mean_wait": sim.l2_banks.mean_wait,
                "l1_mshr_coalescing": sim.l1_mshrs.coalescing_ratio,
                "l1_mshr_peak": sim.l1_mshrs.peak_occupancy,
                "l2_mshr_peak": sim.l2_mshrs.peak_occupancy,
                "dram_row_hit_rate": sim.dram.row_hit_rate,
                "dram_mean_bank_wait": sim.dram.mean_bank_wait,
            }
            (r_l2_hs, r_l2_he, r_l2_ms, r_l2_me, r_l2_miss, r_l2_sec,
             r_mem_index, r_mem_s, r_mem_e) = l2_rec[lane]
            results.append(build_simulation_result(
                config=lanes[lane],
                trace_name=trace.name,
                executed=n,
                dispatch=dispatch_a[:, lane],
                complete=complete_a[:, lane],
                retire=retire_a[:, lane],
                is_mem=trace.is_mem,
                l1_hit_start=l1_hs[:, lane],
                l1_hit_end=l1_he[:, lane],
                l1_miss_start=l1_ms[:, lane],
                l1_miss_end=l1_me[:, lane],
                l1_is_miss=l1_miss[:, lane],
                l1_is_secondary=l1_sec[:, lane],
                l1_complete=l1_cmp[:, lane],
                l2_index=l2_index[:, lane],
                l2_hit_start=r_l2_hs, l2_hit_end=r_l2_he,
                l2_miss_start=r_l2_ms, l2_miss_end=r_l2_me,
                l2_is_miss=r_l2_miss, l2_is_secondary=r_l2_sec,
                mem_index=r_mem_index, mem_start=r_mem_s, mem_end=r_mem_e,
                component_stats=stats,
                l3_index=sim._l2_l3_index if sim.l3_cache is not None else None,
                l3_records=sim._l3_rec,
            ))
        in_order: "list[SimulationResult]" = [None] * L  # type: ignore[list-item]
        for lane, j in enumerate(self._order):
            in_order[j] = results[lane]
        return in_order
