"""Functional set-associative LRU cache model.

This is the *contents* model only — which blocks are resident and which
victim is chosen — used by the timing engine to classify accesses as hits
or misses.  All timing (ports, MSHRs, banks) lives in the engine.

Replacement is true least-recently-used, O(1) per operation using the
insertion order of a ``dict`` (hit = delete + reinsert at the tail;
victim = head).  The paper names no replacement policy, and the
repository's locality profile and surrogate are LRU stack-distance
models, so LRU is the only policy.
"""

from __future__ import annotations

import numpy as np

from repro.sim.params import CacheGeometry

__all__ = ["FunctionalCache"]


class FunctionalCache:
    """Set-associative cache contents under LRU replacement.

    Addresses are byte addresses; the cache operates on block (line)
    granularity.  ``lookup`` both probes and promotes a hit; ``insert``
    fills a block, evicting the set's least-recently-used one when full.
    """

    def __init__(self, geometry: CacheGeometry) -> None:
        self._offset_bits = geometry.offset_bits
        self._set_mask = geometry.n_sets - 1
        self._set_bits = geometry.n_sets.bit_length() - 1
        self._assoc = geometry.associativity
        # dict-of-dicts: set index -> {tag: None} in LRU order, oldest first
        self._sets: dict[int, dict[int, None]] = {}

    # -- contents operations ---------------------------------------------
    def lookup(self, address: int) -> bool:
        """Probe the block containing *address*; True on hit.

        On a hit the block is promoted to most recently used; on a miss
        nothing changes — the caller decides when the fill lands via
        :meth:`insert`.
        """
        block = address >> self._offset_bits
        tag = block >> self._set_bits
        s = self._sets.get(block & self._set_mask)
        if s is not None and tag in s:
            del s[tag]
            s[tag] = None
            return True
        return False

    def contains(self, address: int) -> bool:
        """Probe without updating the LRU order."""
        block = address >> self._offset_bits
        s = self._sets.get(block & self._set_mask)
        return s is not None and block >> self._set_bits in s

    def insert(self, address: int) -> None:
        """Fill the block containing *address*.

        Filling a block that is already resident refreshes its LRU
        position and evicts nothing.
        """
        block = address >> self._offset_bits
        set_idx = block & self._set_mask
        tag = block >> self._set_bits
        s = self._sets.get(set_idx)
        if s is None:
            s = self._sets[set_idx] = {}
        elif tag in s:
            del s[tag]
        elif len(s) >= self._assoc:
            del s[next(iter(s))]  # evict the head (least recently used)
        s[tag] = None

    def lru_hot_state(self) -> "tuple[dict[int, dict[int, None]], int, int, int]":
        """Internal lookup state for the engine's inlined LRU probe.

        Returns ``(sets, set_mask, set_bits, offset_bits)``.  The engine
        fast path (see
        :meth:`repro.sim.engine.HierarchySimulator._run_impl_fast`) binds
        these once per run so the per-access probe is two dict operations
        instead of a method call.  The dict is shared state, not a copy —
        mutations through it are mutations of the cache.
        """
        return self._sets, self._set_mask, self._set_bits, self._offset_bits

    def warm_lookup_array(self, addresses: np.ndarray) -> None:
        """The state an LRU replay of *addresses* leaves, without replaying.

        A replay touches each address in order (probe, fill on a miss).  A
        set ends up holding the last ``associativity`` distinct blocks it
        saw, oldest use first, with the blocks already resident counting
        as a prefix of the stream.  ``_sets`` and its per-set dicts are
        mutated in place (the engine holds them through
        :meth:`lru_hot_state`); sets keep their first-touch order, as a
        replay would insert them.
        """
        sets = self._sets
        blocks = np.asarray(addresses, dtype=np.int64) >> self._offset_bits
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
