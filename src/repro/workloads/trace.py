"""Instruction/memory trace container.

A :class:`Trace` is the simulator's input: a program-ordered sequence of
instructions, each either a compute op or a memory access with a byte
address.  Arrays are plain numpy (column layout) for cheap generation,
slicing and statistics, per the repository's vectorization guidelines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.util.rng import make_rng

__all__ = ["Trace"]


@dataclass
class Trace:
    """Program-ordered instruction trace.

    A trace from :meth:`repro.workloads.spec.BenchmarkProfile.trace` may
    arrive before its arrays exist: when this process already hashed a
    trace of the same recipe, it carries only its name, metadata and
    content digest, and generates the arrays on the first read of any of
    them.  Callers read the same arrays either way.

    Attributes
    ----------
    is_mem:
        Boolean per instruction — True for loads/stores.
    address:
        Byte address per instruction (ignored where ``is_mem`` is False).
    is_load:
        True for loads, False for stores (only meaningful where ``is_mem``).
    name:
        Workload label carried through to reports.
    """

    is_mem: np.ndarray
    address: np.ndarray
    is_load: np.ndarray
    name: str = "trace"
    metadata: dict = field(default_factory=dict)
    #: Optional per-instruction flag: a memory access with ``depends`` set
    #: cannot dispatch until the previous memory access's data returned
    #: (models pointer chasing / dependent loads, which bound memory-level
    #: parallelism regardless of hardware resources).
    depends: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.is_mem = np.asarray(self.is_mem, dtype=bool)
        self.address = np.asarray(self.address, dtype=np.int64)
        self.is_load = np.asarray(self.is_load, dtype=bool)
        n = self.is_mem.shape[0]
        if self.address.shape[0] != n or self.is_load.shape[0] != n:
            raise ValueError(
                "is_mem, address and is_load must have equal lengths: "
                f"{n}, {self.address.shape[0]}, {self.is_load.shape[0]}"
            )
        if self.depends is not None:
            self.depends = np.asarray(self.depends, dtype=bool)
            if self.depends.shape[0] != n:
                raise ValueError("depends must match the instruction count")
        if n and self.address[self.is_mem].size and np.any(self.address[self.is_mem] < 0):
            raise ValueError("addresses must be non-negative")

    # -- construction ------------------------------------------------------
    @classmethod
    def from_memory_addresses(
        cls,
        addresses: "np.ndarray | list[int]",
        *,
        compute_per_access: "np.ndarray | int" = 1,
        load_fraction: float = 1.0,
        name: str = "trace",
        seed: int | None = 0,
        depends: "np.ndarray | None" = None,
    ) -> "Trace":
        """Build a trace by interleaving compute ops between memory accesses.

        ``compute_per_access`` is either a scalar (uniform) or a per-access
        array of compute-instruction counts inserted *before* each access.
        ``load_fraction`` of the accesses are loads (chosen with *seed*).
        ``depends`` optionally marks which accesses depend on the previous
        memory access's result (per-access boolean array).
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        n_mem = addresses.shape[0]
        if np.isscalar(compute_per_access) or np.ndim(compute_per_access) == 0:
            gaps = np.full(n_mem, int(compute_per_access), dtype=np.int64)
        else:
            gaps = np.asarray(compute_per_access, dtype=np.int64)
            if gaps.shape[0] != n_mem:
                raise ValueError("compute_per_access must match the access count")
        if np.any(gaps < 0):
            raise ValueError("compute_per_access must be >= 0")
        if not 0.0 <= load_fraction <= 1.0:
            raise ValueError(f"load_fraction must be in [0, 1], got {load_fraction}")

        total = int(n_mem + gaps.sum())
        is_mem = np.zeros(total, dtype=bool)
        address = np.zeros(total, dtype=np.int64)
        # Memory instruction positions: after each gap of compute ops.
        mem_pos = np.cumsum(gaps + 1) - 1
        is_mem[mem_pos] = True
        address[mem_pos] = addresses
        rng = make_rng(seed)
        is_load = np.zeros(total, dtype=bool)
        if n_mem:
            is_load[mem_pos] = rng.random(n_mem) < load_fraction
        dep_full = None
        if depends is not None:
            depends = np.asarray(depends, dtype=bool)
            if depends.shape[0] != n_mem:
                raise ValueError("depends must match the access count")
            dep_full = np.zeros(total, dtype=bool)
            dep_full[mem_pos] = depends
        return cls(
            is_mem=is_mem, address=address, is_load=is_load, name=name, depends=dep_full
        )

    # -- basic statistics ----------------------------------------------------
    @property
    def n_instructions(self) -> int:
        """Total instruction count."""
        return int(self.is_mem.shape[0])

    @property
    def n_mem(self) -> int:
        """Number of memory instructions."""
        return int(np.count_nonzero(self.is_mem))

    @property
    def f_mem(self) -> float:
        """Fraction of instructions that access memory (the paper's f_mem)."""
        n = self.n_instructions
        return self.n_mem / n if n else 0.0

    @property
    def memory_addresses(self) -> np.ndarray:
        """Byte addresses of the memory instructions, in program order."""
        return self.address[self.is_mem]

    def footprint_bytes(self, line_bytes: int = 64) -> int:
        """Number of distinct cache lines touched, times the line size."""
        if self.n_mem == 0:
            return 0
        lines = np.unique(self.memory_addresses >> (line_bytes.bit_length() - 1))
        return int(lines.size) * line_bytes

    # -- manipulation ----------------------------------------------------
    def slice(self, start: int, stop: int) -> "Trace":
        """Sub-trace over instruction indices ``[start, stop)``."""
        return Trace(
            is_mem=self.is_mem[start:stop].copy(),
            address=self.address[start:stop].copy(),
            is_load=self.is_load[start:stop].copy(),
            name=f"{self.name}[{start}:{stop}]",
            metadata=dict(self.metadata),
            depends=self.depends[start:stop].copy() if self.depends is not None else None,
        )

    @classmethod
    def concatenate(cls, traces: "list[Trace]", name: str | None = None) -> "Trace":
        """Join traces back-to-back in program order."""
        if not traces:
            raise ValueError("need at least one trace")
        if any(t.depends is not None for t in traces):
            depends = np.concatenate(
                [
                    t.depends
                    if t.depends is not None
                    else np.zeros(t.n_instructions, dtype=bool)
                    for t in traces
                ]
            )
        else:
            depends = None
        return cls(
            is_mem=np.concatenate([t.is_mem for t in traces]),
            address=np.concatenate([t.address for t in traces]),
            is_load=np.concatenate([t.is_load for t in traces]),
            name=name if name is not None else "+".join(t.name for t in traces),
            depends=depends,
        )

    def __len__(self) -> int:
        return self.n_instructions

    # -- identity ----------------------------------------------------------
    def content_digest(self) -> str:
        """Hex SHA-256 of the trace *content* — the instruction arrays only.

        Two traces with identical ``is_mem``/``address``/``is_load``/
        ``depends`` columns share a digest regardless of ``name`` or
        ``metadata``; the digest is what the worker-resident trace store
        (:mod:`repro.runtime.trace_store`) and the persistent evaluation
        cache (:mod:`repro.runtime.evalcache`) key on.  Computed once and
        cached on the instance — traces are treated as immutable after
        construction; mutate the arrays and the cached digest goes stale.
        A profile trace served from its recipe already carries the digest,
        so this reads no array; the first call on a freshly generated one
        records recipe -> digest for the next request of that recipe.
        """
        cached = self.__dict__.get("_content_digest")
        if cached is not None:
            return cached
        import hashlib

        h = hashlib.sha256()
        h.update(b"trace-v1")
        for arr in (self.is_mem, self.address, self.is_load):
            h.update(np.ascontiguousarray(arr).tobytes())
        if self.depends is not None:
            h.update(b"|depends")
            h.update(np.ascontiguousarray(self.depends).tobytes())
        digest = h.hexdigest()
        self.__dict__["_content_digest"] = digest
        return digest

    # -- serialization -----------------------------------------------------
    def save(self, path: "str") -> None:
        """Write the trace to a compressed ``.npz`` file.

        Metadata values are stored as strings (json for non-strings), so a
        round trip preserves simple metadata; complex objects should be
        kept out of ``metadata`` if exact round-tripping matters.
        """
        import json

        meta_json = json.dumps(
            {k: v for k, v in self.metadata.items()}, default=str
        )
        arrays = dict(
            is_mem=self.is_mem,
            address=self.address,
            is_load=self.is_load,
            name=np.array(self.name),
            metadata=np.array(meta_json),
        )
        if self.depends is not None:
            arrays["depends"] = self.depends
        np.savez_compressed(path, **arrays)

    @classmethod
    def load(cls, path: "str") -> "Trace":
        """Read a trace written by :meth:`save`."""
        import json

        with np.load(path, allow_pickle=False) as data:
            metadata = json.loads(str(data["metadata"]))
            return cls(
                is_mem=data["is_mem"],
                address=data["address"],
                is_load=data["is_load"],
                name=str(data["name"]),
                metadata=metadata,
                depends=data["depends"] if "depends" in data.files else None,
            )

    def __repr__(self) -> str:
        return (
            f"Trace(name={self.name!r}, instructions={self.n_instructions}, "
            f"mem={self.n_mem}, f_mem={self.f_mem:.3f})"
        )
