"""Main-memory timing model (DRAMSim2 substitute).

Models the two DRAM properties the LPM analysis is sensitive to:

* **variable access latency** through per-bank row buffers — a request to
  the open row pays CAS only; a closed bank adds RAS-to-CAS; a conflicting
  open row adds a precharge on top; and
* **bank-level parallelism** — requests to distinct banks proceed
  concurrently (feeding the memory layer's concurrency in C-AMAT terms),
  while same-bank requests serialize on the bank's busy window.

Address mapping: ``block -> (bank, row)`` with bank bits taken from the low
block-address bits (spreads sequential lines across banks) and the row from
the bits above, scaled to ``row_bytes``.  The channel adds a fixed ``t_bus``
each way.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.sim.params import DRAMTiming

__all__ = ["DRAMModel", "DRAMAccessResult"]


class DRAMAccessResult(NamedTuple):
    """Timing of one DRAM access.

    ``service_start``/``service_end`` delimit the bank's busy window (the
    memory layer's activity interval for the C-AMAT analyzer);
    ``data_ready`` adds the return bus hop.  A named tuple: the engines
    make one per memory access, and a tuple costs a fraction of a frozen
    dataclass to build.
    """

    bank: int
    row: int
    kind: str  # "hit" | "closed" | "conflict"
    service_start: int
    service_end: int
    data_ready: int


class DRAMModel:
    """Per-bank open-row state machine with next-free-time scheduling.

    ``access(block, request_time)`` returns the full timing for a read of
    one cache line.  Requests must arrive in non-decreasing ``request_time``
    order (the engine guarantees this).
    """

    def __init__(self, timing: DRAMTiming, line_bytes: int = 64) -> None:
        self.timing = timing
        self._bank_mask = timing.n_banks - 1
        self._bank_bits = timing.n_banks.bit_length() - 1
        blocks_per_row = max(timing.row_bytes // line_bytes, 1)
        self._row_shift = blocks_per_row.bit_length() - 1
        self._open_row: list[int | None] = [None] * timing.n_banks
        self._bank_free = [0] * timing.n_banks
        self.row_hits = 0
        self.row_closed = 0
        self.row_conflicts = 0
        self.total_wait = 0
        self.accesses = 0

    def map_address(self, block: int) -> tuple[int, int]:
        """``block -> (bank, row)`` under the interleaved mapping."""
        bank = block & self._bank_mask
        row = (block >> self._bank_bits) >> self._row_shift
        return bank, row

    def access(self, block: int, request_time: int) -> DRAMAccessResult:
        """Serve a line read; updates row-buffer and bank-busy state."""
        t = self.timing
        bank = block & self._bank_mask  # the map_address mapping, inline
        row = (block >> self._bank_bits) >> self._row_shift
        arrival = request_time + t.t_bus  # request hop on the channel
        free = self._bank_free[bank]
        start = arrival if arrival >= free else free

        open_row = self._open_row[bank]
        if open_row == row:
            kind = "hit"
            latency = t.row_hit_latency
            self.row_hits += 1
        elif open_row is None:
            kind = "closed"
            latency = t.row_closed_latency
            self.row_closed += 1
        else:
            kind = "conflict"
            latency = t.row_conflict_latency
            self.row_conflicts += 1

        service_end = start + latency + t.t_burst
        self._open_row[bank] = row
        self._bank_free[bank] = service_end
        data_ready = service_end + t.t_bus  # reply hop

        self.accesses += 1
        self.total_wait += start - arrival
        return DRAMAccessResult(bank, row, kind, start, service_end, data_ready)

    @property
    def row_hit_rate(self) -> float:
        """Fraction of accesses that hit an open row."""
        return self.row_hits / self.accesses if self.accesses else 0.0

    @property
    def mean_bank_wait(self) -> float:
        """Average cycles spent queueing behind a busy bank."""
        return self.total_wait / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        """Precharge all banks and zero statistics."""
        self._open_row = [None] * self.timing.n_banks
        self._bank_free = [0] * self.timing.n_banks
        self.row_hits = 0
        self.row_closed = 0
        self.row_conflicts = 0
        self.total_wait = 0
        self.accesses = 0
