"""Functional set-associative cache model with pluggable replacement.

This is the *contents* model only — which blocks are resident and which
victim is chosen — used by the timing engine to classify accesses as hits
or misses.  All timing (ports, MSHRs, banks) lives in the engine.

Replacement policies:

``lru``
    True least-recently-used, O(1) per operation using the insertion order
    of a ``dict`` (hit = delete + reinsert at the tail; victim = head).
``fifo``
    Insertion order only; hits do not promote.
``random``
    Uniform random victim (seeded generator for reproducibility).
``plru``
    Tree pseudo-LRU for power-of-two associativity — the common hardware
    approximation; the tree bits steer to the pseudo-least-recent way.
"""

from __future__ import annotations

import numpy as np

from repro.sim.params import CacheGeometry
from repro.util.rng import make_rng

__all__ = ["FunctionalCache"]


class _TreePLRUSet:
    """One set's tree-PLRU state: ways stored in fixed slots, tree bits steer."""

    __slots__ = ("ways", "tags", "bits", "assoc")

    def __init__(self, assoc: int) -> None:
        self.assoc = assoc
        self.ways: list[int | None] = [None] * assoc
        self.tags: dict[int, int] = {}  # tag -> way index
        self.bits = [0] * max(assoc - 1, 1)  # internal tree nodes

    def _touch(self, way: int) -> None:
        # Walk root->leaf; at each node point the bit *away* from this way.
        node = 0
        lo, hi = 0, self.assoc
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if way < mid:
                self.bits[node] = 1  # pseudo-LRU is on the right
                node = 2 * node + 1
                hi = mid
            else:
                self.bits[node] = 0  # pseudo-LRU is on the left
                node = 2 * node + 2
                lo = mid

    def _victim_way(self) -> int:
        node = 0
        lo, hi = 0, self.assoc
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.bits[node]:
                node = 2 * node + 2
                lo = mid
            else:
                node = 2 * node + 1
                hi = mid
        return lo

    def lookup(self, tag: int) -> bool:
        way = self.tags.get(tag)
        if way is None:
            return False
        self._touch(way)
        return True

    def insert(self, tag: int) -> int | None:
        for way, resident in enumerate(self.ways):
            if resident is None:
                self.ways[way] = tag
                self.tags[tag] = way
                self._touch(way)
                return None
        way = self._victim_way()
        victim = self.ways[way]
        assert victim is not None
        del self.tags[victim]
        self.ways[way] = tag
        self.tags[tag] = way
        self._touch(way)
        return victim

    def evict(self, tag: int) -> bool:
        way = self.tags.pop(tag, None)
        if way is None:
            return False
        self.ways[way] = None
        return True

    def __contains__(self, tag: int) -> bool:
        return tag in self.tags

    def __len__(self) -> int:
        return len(self.tags)


class FunctionalCache:
    """Set-associative cache contents under a replacement policy.

    Addresses are byte addresses; the cache operates on block (line)
    granularity.  ``lookup`` both probes and applies the policy's hit
    promotion; ``insert`` fills a block and returns the evicted block
    address (or ``None``).
    """

    def __init__(self, geometry: CacheGeometry, *, seed: int | None = 0) -> None:
        self.geometry = geometry
        self._offset_bits = geometry.offset_bits
        self._set_mask = geometry.n_sets - 1
        self._set_bits = geometry.n_sets.bit_length() - 1
        self._assoc = geometry.associativity
        self._policy = geometry.replacement
        if self._policy == "plru":
            if self._assoc & (self._assoc - 1):
                raise ValueError("plru requires power-of-two associativity")
            self._plru_sets: dict[int, _TreePLRUSet] = {}
        else:
            # dict-of-dicts: set index -> {tag: None} preserving order
            self._sets: dict[int, dict[int, None]] = {}
        self._rng = make_rng(seed)
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- address helpers -------------------------------------------------
    def block_of(self, address: int) -> int:
        """Block (line) number of a byte address."""
        return address >> self._offset_bits

    def set_index_of(self, block: int) -> int:
        """Set index of a block number."""
        return block & self._set_mask

    def tag_of(self, block: int) -> int:
        """Tag of a block number."""
        return block >> self._set_bits

    # -- contents operations ---------------------------------------------
    def lookup(self, address: int) -> bool:
        """Probe the block containing *address*; True on hit.

        On a hit the replacement state is updated (LRU/PLRU promotion);
        on a miss nothing changes — the caller decides when the fill
        lands via :meth:`insert`.
        """
        block = address >> self._offset_bits
        set_idx = block & self._set_mask
        tag = block >> self._set_bits
        if self._policy == "plru":
            s = self._plru_sets.get(set_idx)
            hit = s.lookup(tag) if s is not None else False
        else:
            s = self._sets.get(set_idx)
            if s is not None and tag in s:
                if self._policy == "lru":
                    del s[tag]
                    s[tag] = None
                hit = True
            else:
                hit = False
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        return hit

    def contains(self, address: int) -> bool:
        """Probe without updating replacement state or counters."""
        block = address >> self._offset_bits
        set_idx = block & self._set_mask
        tag = block >> self._set_bits
        if self._policy == "plru":
            s = self._plru_sets.get(set_idx)
            return s is not None and tag in s
        s = self._sets.get(set_idx)
        return s is not None and tag in s

    def insert(self, address: int) -> int | None:
        """Fill the block containing *address*; return evicted block address.

        Filling a block that is already resident refreshes its replacement
        position and evicts nothing.
        """
        block = address >> self._offset_bits
        set_idx = block & self._set_mask
        tag = block >> self._set_bits
        if self._policy == "plru":
            s = self._plru_sets.get(set_idx)
            if s is None:
                s = self._plru_sets[set_idx] = _TreePLRUSet(self._assoc)
            if tag in s:
                s.lookup(tag)
                return None
            victim_tag = s.insert(tag)
            if victim_tag is None:
                return None
            self.evictions += 1
            return self._block_address(victim_tag, set_idx)

        s = self._sets.get(set_idx)
        if s is None:
            s = self._sets[set_idx] = {}
        if tag in s:
            if self._policy == "lru":
                del s[tag]
                s[tag] = None
            return None
        victim_tag: int | None = None
        if len(s) >= self._assoc:
            if self._policy == "random":
                keys = list(s.keys())
                victim_tag = keys[int(self._rng.integers(len(keys)))]
                del s[victim_tag]
            else:  # lru / fifo evict the head (oldest)
                victim_tag = next(iter(s))
                del s[victim_tag]
            self.evictions += 1
        s[tag] = None
        if victim_tag is None:
            return None
        return self._block_address(victim_tag, set_idx)

    def evict(self, address: int) -> bool:
        """Remove the block containing *address* if resident; True if removed."""
        block = address >> self._offset_bits
        set_idx = block & self._set_mask
        tag = block >> self._set_bits
        if self._policy == "plru":
            s = self._plru_sets.get(set_idx)
            return s.evict(tag) if s is not None else False
        s = self._sets.get(set_idx)
        if s is not None and tag in s:
            del s[tag]
            return True
        return False

    def _block_address(self, tag: int, set_idx: int) -> int:
        return ((tag << self._set_bits) | set_idx) << self._offset_bits

    @property
    def replacement(self) -> str:
        """The replacement policy this cache was built with."""
        return self._policy

    def lru_hot_state(self) -> "tuple[dict[int, dict[int, None]], int, int, int]":
        """Internal lookup state for the engine's inlined LRU probe.

        Returns ``(sets, set_mask, set_bits, offset_bits)``.  Only valid for
        the ``lru`` policy; the engine fast path (see
        :meth:`repro.sim.engine.HierarchySimulator._run_impl_fast`) binds
        these once per run so the per-access probe is two dict operations
        instead of a method call.  The dict is shared state, not a copy —
        mutations through it are mutations of the cache.
        """
        if self._policy != "lru":
            raise ValueError(f"lru_hot_state() needs policy 'lru', not {self._policy!r}")
        return self._sets, self._set_mask, self._set_bits, self._offset_bits

    # -- introspection -----------------------------------------------------
    def resident_blocks(self) -> int:
        """Total number of blocks currently resident."""
        if self._policy == "plru":
            return sum(len(s) for s in self._plru_sets.values())
        return sum(len(s) for s in self._sets.values())

    def set_occupancy(self, set_idx: int) -> int:
        """Number of resident ways in one set."""
        if self._policy == "plru":
            s = self._plru_sets.get(set_idx)
        else:
            s = self._sets.get(set_idx)
        return len(s) if s is not None else 0

    @property
    def miss_rate(self) -> float:
        """Observed lookup miss rate so far (0 before any lookup)."""
        total = self.hits + self.misses
        return self.misses / total if total else 0.0

    def reset_counters(self) -> None:
        """Zero the hit/miss/eviction counters, keeping contents."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def warm_lookup_array(self, addresses: np.ndarray) -> None:
        """Warm the cache by touching each address in order (no stats).

        Under ``lru`` the final state is computed directly: a set ends up
        holding the last ``associativity`` distinct blocks it saw, oldest
        use first, with the blocks already resident counting as a prefix
        of the stream.  The other policies replay the stream access by
        access, so ``random`` draws its victims exactly as a replay does.
        """
        if self._policy == "lru":
            self._warm_lru(np.asarray(addresses, dtype=np.int64))
            return
        saved = (self.hits, self.misses, self.evictions)
        for addr in addresses:
            a = int(addr)
            if not self.lookup(a):
                self.insert(a)
        self.hits, self.misses, self.evictions = saved

    def _warm_lru(self, addresses: np.ndarray) -> None:
        """The state an LRU replay of *addresses* leaves, without replaying.

        ``_sets`` and its per-set dicts are mutated in place (the engine
        holds them through :meth:`lru_hot_state`); sets keep their
        first-touch order, as a replay would insert them.
        """
        sets = self._sets
        blocks = addresses >> self._offset_bits
        if sets:
            resident = [
                (tag << self._set_bits) | set_idx
                for set_idx, s in sets.items() for tag in s
            ]
            blocks = np.concatenate((np.array(resident, dtype=np.int64), blocks))
        n = blocks.size
        if n == 0:
            return
        # First and last use of each distinct block.
        order = np.argsort(blocks)
        sorted_blocks = blocks[order]
        starts = np.flatnonzero(np.r_[True, sorted_blocks[1:] != sorted_blocks[:-1]])
        distinct = sorted_blocks[starts]
        first_use = np.minimum.reduceat(order, starts)
        last_use = np.maximum.reduceat(order, starts)
        # Grouped by set, newest first: a block survives when it is among
        # its set's `assoc` most recently used.
        set_of = distinct & self._set_mask
        by_set = np.lexsort((n - last_use, set_of))
        grouped = set_of[by_set]
        group_start = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
        group_len = np.diff(np.r_[group_start, by_set.size])
        rank = np.arange(by_set.size) - np.repeat(group_start, group_len)
        kept = by_set[rank < self._assoc]
        kept = kept[np.argsort(last_use[kept])]
        # New sets enter in the order the stream first touches them.
        set_first_use = np.minimum.reduceat(first_use[by_set], group_start)
        for set_idx in grouped[group_start][np.argsort(set_first_use)].tolist():
            s = sets.get(set_idx)
            if s is None:
                sets[set_idx] = {}
            else:
                s.clear()
        for set_idx, tag in zip(
            set_of[kept].tolist(), (distinct[kept] >> self._set_bits).tolist()
        ):
            sets[set_idx][tag] = None
