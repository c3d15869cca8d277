"""Machine configuration for the memory-hierarchy timing simulator.

The paper's Case Study I explores six architecture parameters (Table I):
pipeline issue width, instruction-window (IW) size, ROB size, L1 cache port
number, MSHR count, and L2 cache interleaving.  Those six — plus the cache
geometries and latencies the paper holds fixed — make up
:class:`MachineConfig`.  The five Table I configurations are provided as
:data:`TABLE1_CONFIGS` presets.

Parameter semantics in this simulator:

``issue_width``
    Maximum instructions dispatched *and* retired per cycle.
``iw_size``
    Instruction-window capacity interpreted as the maximum number of
    in-flight memory requests the core sustains (load/store-queue bound);
    together with the L1 MSHRs it limits memory-level parallelism.
``rob_size``
    Maximum dispatched-but-not-retired instructions; instruction *i* cannot
    dispatch before instruction *i - rob_size* retires.
``l1_ports``
    Number of simultaneous L1 accesses that can begin; each access occupies
    a port for the full hit time (non-pipelined default) or for one cycle
    when ``l1_pipelined`` is set.
``mshr_count``
    Non-blocking-cache miss registers at L1, with primary/secondary miss
    coalescing per cache block.
``l2_banks``
    L2 interleaving: independently schedulable L2 banks (block-address
    interleaved).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Any

from repro.runtime.errors import ConfigError
from repro.util.validation import check_int, check_power_of_two

__all__ = [
    "CacheGeometry",
    "DRAMTiming",
    "CoreParams",
    "MachineConfig",
    "TABLE1_CONFIGS",
    "table1_config",
    "DEFAULT_MACHINE",
]


@dataclass(frozen=True)
class CacheGeometry:
    """Size/shape of one cache level.

    ``size_bytes`` must equal ``line_bytes * associativity * n_sets`` for a
    power-of-two number of sets (checked at construction).
    """

    size_bytes: int
    line_bytes: int = 64
    associativity: int = 8

    def __post_init__(self) -> None:
        check_power_of_two("size_bytes", self.size_bytes)
        check_power_of_two("line_bytes", self.line_bytes)
        check_int("associativity", self.associativity, minimum=1)
        if self.size_bytes < self.line_bytes * self.associativity:
            raise ValueError(
                f"cache of {self.size_bytes} B cannot hold {self.associativity} "
                f"ways of {self.line_bytes} B lines"
            )
        if self.n_sets * self.line_bytes * self.associativity != self.size_bytes:
            raise ValueError(
                "size_bytes must be line_bytes * associativity * (power-of-two sets); "
                f"got size={self.size_bytes}, line={self.line_bytes}, "
                f"assoc={self.associativity}"
            )

    @property
    def n_sets(self) -> int:
        """Number of sets (power of two by construction)."""
        return self.size_bytes // (self.line_bytes * self.associativity)

    @property
    def offset_bits(self) -> int:
        """log2 of the line size."""
        return self.line_bytes.bit_length() - 1


@dataclass(frozen=True)
class DRAMTiming:
    """Simplified DRAMSim2-style main-memory timing, in CPU cycles.

    Three access classes per bank: row-buffer *hit* (``t_cas``), row *closed*
    (``t_rcd + t_cas``), and row *conflict* (``t_rp + t_rcd + t_cas``).  Data
    occupies the bank for ``t_burst`` after the access latency; the request
    and reply each pay ``t_bus`` on the channel.
    """

    n_banks: int = 8
    t_cas: int = 20
    t_rcd: int = 14
    t_rp: int = 14
    t_burst: int = 4
    t_bus: int = 9
    row_bytes: int = 2048

    def __post_init__(self) -> None:
        check_power_of_two("n_banks", self.n_banks)
        check_int("t_cas", self.t_cas, minimum=1)
        check_int("t_rcd", self.t_rcd, minimum=0)
        check_int("t_rp", self.t_rp, minimum=0)
        check_int("t_burst", self.t_burst, minimum=1)
        check_int("t_bus", self.t_bus, minimum=0)
        check_power_of_two("row_bytes", self.row_bytes)

    @property
    def row_hit_latency(self) -> int:
        """Bank latency when the row buffer already holds the row."""
        return self.t_cas

    @property
    def row_closed_latency(self) -> int:
        """Bank latency when the bank is precharged (no open row)."""
        return self.t_rcd + self.t_cas

    @property
    def row_conflict_latency(self) -> int:
        """Bank latency when a different row is open (precharge first)."""
        return self.t_rp + self.t_rcd + self.t_cas


@dataclass(frozen=True)
class CoreParams:
    """Out-of-order core parameters (the CPU-side Table I knobs)."""

    issue_width: int = 4
    iw_size: int = 32
    rob_size: int = 32

    def __post_init__(self) -> None:
        check_int("issue_width", self.issue_width, minimum=1)
        check_int("iw_size", self.iw_size, minimum=1)
        check_int("rob_size", self.rob_size, minimum=1)


@dataclass(frozen=True)
class MachineConfig:
    """A complete simulated machine: core + two cache levels + DRAM.

    The six Case Study I knobs are ``core.issue_width``, ``core.iw_size``,
    ``core.rob_size``, ``l1_ports``, ``mshr_count`` and ``l2_banks``.
    """

    name: str = "default"
    core: CoreParams = field(default_factory=CoreParams)
    l1: CacheGeometry = field(default_factory=lambda: CacheGeometry(32 * 1024))
    #: The default LLC is deliberately small (256 KB): the whole model is
    #: scaled down so that 10^5-10^6-access traces exercise all three layers
    #: (L1, LLC, DRAM) the way the paper's 10^10-instruction SPEC samples
    #: exercised a 2 MB LLC.  See DESIGN.md ("Substitutions").
    l2: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(256 * 1024, associativity=16)
    )
    dram: DRAMTiming = field(default_factory=DRAMTiming)
    l1_hit_time: int = 3
    l2_hit_time: int = 8
    l1_ports: int = 1
    #: Non-pipelined by default: a port is occupied for the full hit time,
    #: so the L1 port count is a true supply-rate knob (the Table I walk's
    #: B->C jump comes from the second port unlocking L1 bandwidth).
    l1_pipelined: bool = False
    mshr_count: int = 4
    l2_mshr_count: int = 16
    l2_banks: int = 4
    l2_pipelined: bool = False
    l1_to_l2_delay: int = 1
    l2_to_mem_delay: int = 2
    #: Optional L1 stream/stride prefetcher (see repro.sim.prefetch); None
    #: disables prefetching (the paper's baseline machine).
    prefetch: "object | None" = None
    #: Optional selective-replacement stream bypass at the L1 (a
    #: repro.sim.prefetch.BypassConfig); the paper's "selective cache
    #: replacement" future-work mechanism.  None disables it.
    l1_bypass: "object | None" = None
    #: Optional third cache level between the L2 and main memory ("the
    #: extension to additional cache levels is straightforward", Sec. III).
    #: None keeps the paper's two-level hierarchy.
    l3: CacheGeometry | None = None
    l3_hit_time: int = 20
    l3_banks: int = 8
    l3_mshr_count: int = 32
    l3_pipelined: bool = False
    l2_to_l3_delay: int = 2

    def __post_init__(self) -> None:
        check_int("l1_hit_time", self.l1_hit_time, minimum=1)
        check_int("l2_hit_time", self.l2_hit_time, minimum=1)
        check_int("l1_ports", self.l1_ports, minimum=1)
        check_int("mshr_count", self.mshr_count, minimum=1)
        check_int("l2_mshr_count", self.l2_mshr_count, minimum=1)
        check_power_of_two("l2_banks", self.l2_banks)
        check_int("l1_to_l2_delay", self.l1_to_l2_delay, minimum=0)
        check_int("l2_to_mem_delay", self.l2_to_mem_delay, minimum=0)
        if self.l1.line_bytes != self.l2.line_bytes:
            raise ValueError("L1 and L2 must share a line size in this model")
        if self.l3 is not None:
            check_int("l3_hit_time", self.l3_hit_time, minimum=1)
            check_power_of_two("l3_banks", self.l3_banks)
            check_int("l3_mshr_count", self.l3_mshr_count, minimum=1)
            check_int("l2_to_l3_delay", self.l2_to_l3_delay, minimum=0)
            if self.l3.line_bytes != self.l1.line_bytes:
                raise ValueError("L3 must share the hierarchy's line size")

    def with_(self, **changes) -> "MachineConfig":
        """Copy with selected fields replaced (core fields via ``core=``)."""
        return replace(self, **changes)

    def with_knobs(
        self,
        *,
        issue_width: int | None = None,
        iw_size: int | None = None,
        rob_size: int | None = None,
        l1_ports: int | None = None,
        mshr_count: int | None = None,
        l2_banks: int | None = None,
        l1_size_bytes: int | None = None,
        name: str | None = None,
    ) -> "MachineConfig":
        """Copy with any of the Case Study knobs replaced."""
        core = CoreParams(
            issue_width=issue_width if issue_width is not None else self.core.issue_width,
            iw_size=iw_size if iw_size is not None else self.core.iw_size,
            rob_size=rob_size if rob_size is not None else self.core.rob_size,
        )
        l1 = self.l1
        if l1_size_bytes is not None:
            l1 = replace(self.l1, size_bytes=l1_size_bytes)
        return replace(
            self,
            name=name if name is not None else self.name,
            core=core,
            l1=l1,
            l1_ports=l1_ports if l1_ports is not None else self.l1_ports,
            mshr_count=mshr_count if mshr_count is not None else self.mshr_count,
            l2_banks=l2_banks if l2_banks is not None else self.l2_banks,
        )

    def knob_summary(self) -> dict[str, int]:
        """The six Table I knobs of this configuration."""
        return {
            "issue_width": self.core.issue_width,
            "iw_size": self.core.iw_size,
            "rob_size": self.core.rob_size,
            "l1_ports": self.l1_ports,
            "mshr_count": self.mshr_count,
            "l2_banks": self.l2_banks,
        }

    def cache_key(self) -> str:
        """Stable identity string over every timing-relevant parameter.

        Two configurations with equal keys simulate identically, regardless
        of their display ``name`` — this is what measurement caches and
        checkpoint journals must key on (keying on ``name`` lets two
        configurations sharing a label alias each other's results).

        The text is ``repr(sorted(asdict(self) minus name))``, built by
        :func:`_plain` without ``asdict``'s deepcopy and memoized in the
        instance ``__dict__``, outside the dataclass fields: ``==``,
        ``hash``, ``repr``, ``asdict`` and ``replace`` never see it, and
        :meth:`__getstate__` leaves it out of copies and pickles.
        """
        key = self.__dict__.get("_cache_key")
        if key is None:
            items = _plain(self)
            del items["name"]
            key = repr(sorted(items.items()))
            object.__setattr__(self, "_cache_key", key)
        return key

    def __getstate__(self) -> dict:
        """Pickle/copy state: the fields only, so every copy keys itself."""
        state = dict(self.__dict__)
        state.pop("_cache_key", None)
        return state


def _plain(obj: Any) -> dict:
    """``dataclasses.asdict(obj)`` for a tree of dataclasses over scalars.

    Recurses into every dataclass-valued field (``fields()`` lists them, so
    a new field cannot be left out) and keeps any other value as is, whose
    repr equals that of ``asdict``'s deepcopy.
    """
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        out[f.name] = _plain(value) if is_dataclass(value) else value
    return out


DEFAULT_MACHINE = MachineConfig()

# Table I of the paper: five configurations with incremental parallelism.
_TABLE1_KNOBS: dict[str, dict[str, int]] = {
    "A": dict(issue_width=4, iw_size=32, rob_size=32, l1_ports=1, mshr_count=4, l2_banks=4),
    "B": dict(issue_width=4, iw_size=64, rob_size=64, l1_ports=1, mshr_count=8, l2_banks=8),
    "C": dict(issue_width=6, iw_size=64, rob_size=64, l1_ports=2, mshr_count=16, l2_banks=8),
    "D": dict(issue_width=8, iw_size=128, rob_size=128, l1_ports=4, mshr_count=16, l2_banks=8),
    "E": dict(issue_width=8, iw_size=96, rob_size=96, l1_ports=4, mshr_count=16, l2_banks=8),
}


def table1_config(label: str, base: MachineConfig = DEFAULT_MACHINE) -> MachineConfig:
    """The Table I configuration *label* (``"A"`` .. ``"E"``)."""
    try:
        knobs = _TABLE1_KNOBS[label.upper()]
    except KeyError:
        raise ConfigError(f"unknown Table I configuration {label!r}; use A..E") from None
    return base.with_knobs(name=label.upper(), **knobs)


TABLE1_CONFIGS: dict[str, MachineConfig] = {
    label: table1_config(label) for label in _TABLE1_KNOBS
}
