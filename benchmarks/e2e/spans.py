"""Turn a JSONL span trace into the per-layer table.

The trace is read through :func:`repro.obs.trace.read_trace`, so a torn
tail (a process killed mid-write) is skipped.  Events carry counts
(``pool.job``, ``surrogate.escalate``); they take no time and are never
part of the time attribution.

**Parents.**  Span ids are drawn per process, and a forked worker inherits
the stack of spans open in its parent at fork time, so a ``parent_id`` is
resolved only within the span's own pid; an id with no span in that pid
leaves the span a root.  The tracer keeps one span stack per thread, so a
root span that lies inside another span of its pid ran on another thread
while that span waited for it (the service's dispatch loop hands each batch
to a thread).  Such a root is adopted by the innermost span that contains
it.

**Self time** is a span's duration minus the *union* of its children's
intervals (clipped to the span), not their sum: children that overlap
(concurrent threads or tasks) must not be subtracted twice.

**Layers** are named after the modules whose work the span times; the
engine spans are split by what the pass does (perfect-L1 pass, warm-up,
issue loop).  ``src/`` spans opened inside a bench-side engine wrapper take
the wrapper's layer.  Spans named ``bench.*`` are the benchmark's own glue:
their self time is the unattributed share of the wall.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from repro.obs.trace import read_trace

__all__ = [
    "Span",
    "load",
    "link",
    "union_length",
    "layer_table",
    "covered_s",
    "layer_metrics",
    "extras",
]

#: Layer of each span name whose layer does not depend on its attributes.
LAYERS = {
    "workloads.trace": "workloads.trace",
    "workloads.digest": "workloads.digest",
    "locality.profile": "workloads.locality",
    "surrogate.predict": "analysis.surrogate",
    "surrogate.predict_many": "analysis.surrogate",
    "engine.warm": "engine.warm",
    "batch.warm": "batch.warm",
    "analysis.measure": "sim.stats",
    "lpm.step": "core.algorithm",
    "sched.nuca_sa": "sched",
    "sched.evaluate": "sched",
    "sched.profile": "sched",
    "runtime.evaluate_many": "runtime.evaluate",
    "runtime.evaluate_batch": "runtime.evaluate",
    "evalcache.get": "runtime.evalcache",
    "evalcache.put": "runtime.evalcache",
    "journal.put": "runtime.journal",
    "pool.attempt": "runtime.pool",
    "service.batch": "service",
    "client.submit": "client",
    "client.wait": "client",
    "loadgen.idle": "loadgen",
    "hostspeed.kernel": "hostspeed",
}

#: Layers of the program above the engine (the orchestration the user's
#: request passes through before and after the simulation proper).
#: ``runtime.evaluate`` is left out: with pool workers its self time is
#: the wait for them, whose work shows in their own pids.
ORCHESTRATION = (
    "workloads.trace", "workloads.digest", "workloads.locality",
    "analysis.surrogate", "core.algorithm", "sched",
    "runtime.evalcache", "runtime.journal", "runtime.pool", "service",
)

PERFECT = ("engine.perfect", "batch.perfect")
WARM = ("engine.warm", "batch.warm")
ISSUE = ("engine.run", "engine.run.reference", "batch.run")


@dataclass
class Span:
    """One span record with its resolved tree links and self time."""

    name: str
    pid: int
    span_id: "int | None"
    parent_id: "int | None"
    start: float
    end: float
    attrs: dict = field(default_factory=dict)
    parent: "Span | None" = None
    children: "list[Span]" = field(default_factory=list)
    self_s: float = 0.0
    layer: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


def load(path, extra: "list[Span]" = ()) -> "tuple[list[Span], list[dict]]":
    """Read *path*; returns ``(spans, events)``, spans linked and classified.

    *extra* spans, recorded outside the trace file, are linked with them.
    """
    spans: "list[Span]" = list(extra)
    events: "list[dict]" = []
    for rec in read_trace(path):
        kind = rec.get("kind")
        if kind == "event":
            events.append(rec)
        elif kind == "span":
            start = float(rec["t_start_s"])
            spans.append(Span(
                name=str(rec["name"]), pid=int(rec.get("pid", 0)),
                span_id=rec.get("span_id"), parent_id=rec.get("parent_id"),
                start=start, end=start + float(rec["duration_s"]),
                attrs=rec.get("attrs") or {},
            ))
    link(spans)
    return spans, events


def union_length(intervals: "list[tuple[float, float]]") -> float:
    """Total length covered by *intervals* (overlaps counted once)."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def link(spans: "list[Span]") -> None:
    """Resolve parents within each pid, adopt cross-thread roots, and set
    every span's self time and layer."""
    by_pid: "dict[int, list[Span]]" = {}
    for sp in spans:
        by_pid.setdefault(sp.pid, []).append(sp)
    for group in by_pid.values():
        by_id = {sp.span_id: sp for sp in group if sp.span_id is not None}
        roots = []
        for sp in group:
            parent = by_id.get(sp.parent_id) if sp.parent_id is not None else None
            if parent is sp:
                parent = None
            sp.parent = parent
            if parent is None:
                roots.append(sp)
        for sp in roots:
            container = None
            for other in group:
                if (other is not sp and other.start <= sp.start and sp.end <= other.end
                        and other.duration > sp.duration
                        and (container is None or other.duration < container.duration)):
                    container = other
            sp.parent = container
        for sp in group:
            if sp.parent is not None:
                sp.parent.children.append(sp)
    for sp in spans:
        covered = union_length([
            (max(c.start, sp.start), min(c.end, sp.end))
            for c in sp.children if c.end > sp.start and c.start < sp.end
        ])
        sp.self_s = max(sp.duration - covered, 0.0)
    for sp in spans:
        sp.layer = _classify(sp)


def _classify(sp: Span) -> str:
    name = sp.name
    if name in ("sim.run", "sim.run_batch"):
        if sp.parent is not None and sp.parent.name in ("engine.call", "batch.call"):
            return _classify(sp.parent)
        name = "engine.call" if name == "sim.run" else "batch.call"
    if name == "engine.call":
        if sp.attrs.get("perfect"):
            return "engine.perfect"
        return "engine.run" if sp.attrs.get("fast", True) else "engine.run.reference"
    if name == "batch.call":
        return "batch.perfect" if sp.attrs.get("perfect") else "batch.run"
    if name.startswith("bench."):
        return "bench"
    return LAYERS.get(name, "other")


@dataclass
class LayerRow:
    """Self time and span count of one layer."""

    self_s: float = 0.0
    calls: int = 0


def layer_table(spans: "list[Span]") -> "dict[str, LayerRow]":
    """Self time and call count per layer, over every pid.

    A span nested directly in a span of its own layer (``sim.run`` inside
    the engine wrapper) adds self time but not a call.
    """
    table: "dict[str, LayerRow]" = {}
    for sp in spans:
        row = table.setdefault(sp.layer, LayerRow())
        row.self_s += sp.self_s
        if sp.parent is None or sp.parent.layer != sp.layer:
            row.calls += 1
    return table


def covered_s(spans: "list[Span]", pid: int) -> float:
    """Wall time of *pid* that some layer span (not bench glue) accounts for."""
    return union_length([
        (sp.start, sp.end) for sp in spans if sp.pid == pid and sp.layer != "bench"
    ])


def _redundant(keys: "list[str]") -> float:
    """Share of *keys* that repeat an earlier key (0 when empty)."""
    return 1.0 - len(set(keys)) / len(keys) if keys else 0.0


def layer_metrics(
    spans: "list[Span]",
    events: "list[dict]",
    *,
    pid: int,
    wall_s: float,
    rounds: int,
) -> "dict[str, float]":
    """The declared per-layer metrics, times and counts per round.

    *pid* is the benchmark's own process and *wall_s* its measured wall;
    ``unattributed_s`` is that wall minus what the layer spans of *pid*
    cover.  Dividing by *rounds* makes runs that completed a different
    number of rounds comparable.
    """
    table = layer_table(spans)

    def self_of(*layers: str) -> float:
        return sum(table[name].self_s for name in layers if name in table)

    def calls_of(*layers: str) -> int:
        return sum(table[name].calls for name in layers if name in table)

    def named(name: str, **match: object) -> "list[Span]":
        return [sp for sp in spans if sp.name == name
                and all(sp.attrs.get(k) == v for k, v in match.items())]

    perfect_scalar = named("engine.call", perfect=True)
    perfect_batch = named("batch.call", perfect=True)
    run_scalar = named("engine.call", perfect=False)
    run_batch = named("batch.call", perfect=False)
    warm_keys = [k for name in ("engine.warm", "batch.warm")
                 for sp in named(name) for k in sp.attrs.get("keys") or ()]
    perfect_keys = [sp.attrs.get("key") for sp in perfect_scalar] + [
        k for sp in perfect_batch for k in sp.attrs.get("keys") or ()]
    lanes = sum(int(sp.attrs.get("lanes", 0)) for sp in perfect_batch)
    run_lanes = sum(int(sp.attrs.get("lanes", 0)) for sp in run_batch)
    batch_runs = named("batch.call")
    gets = named("evalcache.get")
    hits = sum(1 for sp in gets if sp.attrs.get("hit"))
    jobs = [ev for ev in events if ev.get("name") == "pool.job"]
    escalations = [ev.get("attrs", {}) for ev in events
                   if ev.get("name") == "surrogate.escalate"]
    batches = named("service.batch")
    issue_s = self_of(*ISSUE)
    covered = min(covered_s(spans, pid), wall_s)

    per_round = {
        "engine.perfect.self_s": self_of(*PERFECT),
        "engine.warm.self_s": self_of(*WARM),
        "engine.run.self_s": issue_s,
        "analysis.measure.self_s": self_of("sim.stats"),
        "orchestration.self_s": self_of(*ORCHESTRATION),
        "unattributed_s": wall_s - covered,
        "wall_s": wall_s,
        "engine.perfect.calls": len(perfect_scalar) + lanes,
        "engine.warm.calls": len(warm_keys),
        "engine.run.calls": len(run_scalar) + run_lanes,
        "engine.run.reference_calls": len(named("engine.call", perfect=False, fast=False)),
        "batch.run.calls": len(batch_runs),
        "batch.run.single_lane_calls": sum(
            1 for sp in batch_runs if int(sp.attrs.get("lanes", 0)) == 1),
        "workloads.traces": calls_of("workloads.trace"),
        "surrogate.predicted": sum(int(sp.attrs.get("configs", 0))
                                   for sp in named("surrogate.predict_many")),
        "surrogate.escalated": sum(int(e.get("escalated", 0)) for e in escalations),
        "surrogate.pruned": sum(int(e.get("pruned", 0)) for e in escalations),
        "evalcache.hits": hits,
        "evalcache.misses": len(gets) - hits,
        "evalcache.bytes_read": sum(int(sp.attrs.get("bytes", 0)) for sp in gets),
        "evalcache.bytes_written": sum(int(sp.attrs.get("bytes", 0))
                                       for sp in named("evalcache.put")),
        "journal.puts": calls_of("runtime.journal"),
        "journal.hits": sum(int(sp.attrs.get("journal_hits", 0))
                            for sp in named("runtime.evaluate_many")),
        "pool.jobs": len(jobs),
        "pool.retries": sum(max(int(ev.get("attrs", {}).get("attempts", 1)) - 1, 0)
                            for ev in jobs),
        "pool.worker_restarts": sum(
            int(ev.get("attrs", {}).get("crashes", 0))
            + int(ev.get("attrs", {}).get("timeouts", 0)) for ev in jobs),
        "service.batches": len(batches),
        "lpm.steps": calls_of("core.algorithm"),
    }
    metrics = {name: value / rounds for name, value in per_round.items()}
    instructions = sum(int(sp.attrs.get("instructions", 0)) for sp in run_scalar + run_batch)
    metrics.update({
        "engine.run.instr_per_s": instructions / issue_s if issue_s else 0.0,
        "engine.perfect.redundant_frac": _redundant(perfect_keys),
        "engine.warm.redundant_frac": _redundant(warm_keys),
        "batch.perfect.redundant_lane_frac": (
            1.0 - sum(len(set(sp.attrs.get("keys") or ())) for sp in perfect_batch) / lanes
            if lanes else 0.0),
        "batch.run.lanes_per_call": (
            sum(int(sp.attrs.get("lanes", 0)) for sp in batch_runs) / len(batch_runs)
            if batch_runs else 0.0),
        "evalcache.hit_ratio": hits / len(gets) if gets else 0.0,
        "service.jobs_per_batch": (
            sum(int(sp.attrs.get("jobs", 0)) for sp in batches) / len(batches)
            if batches else 0.0),
        "coverage": covered / wall_s if wall_s else 0.0,
    })
    return metrics


def extras(spans: "list[Span]", *, wall_s: float) -> "dict[str, tuple[float, str, str]]":
    """Printed per-layer numbers, ``name -> (value, unit, better)``.

    Only layers present in the trace appear, so these are not declared
    metrics (a declared time must never read 0).  ``pool.busy_workers`` is
    the mean number of pool workers running an attempt while a supervised
    ``runtime.evaluate_*`` call waits for them (forked workers share their
    parent's clock, so their attempts are matched to the calls they fall
    in); divided by the worker count it is the pool's parallel efficiency.
    ``service.dispatch_busy_frac`` is the share of the wall the dispatcher
    spends in batches.
    """
    out: "dict[str, tuple[float, str, str]]" = {}
    for name, label in (("evalcache.get", "evalcache.get_s_p50"),
                        ("evalcache.put", "evalcache.put_s_p50"),
                        ("journal.put", "journal.put_s_p50")):
        durations = [sp.duration for sp in spans if sp.name == name]
        if durations:
            out[label] = (statistics.median(durations), "s", "lower")
    calls = [sp for sp in spans if sp.name.startswith("runtime.evaluate_")]
    attempts = [sp for sp in spans if sp.name == "pool.attempt"]
    busy = waited = 0.0
    for call in calls:
        inside = [a for a in attempts if a.pid != call.pid
                  and call.start <= a.start and a.end <= call.end]
        if inside:
            busy += sum(a.duration for a in inside)
            waited += call.duration
    if waited:
        out["pool.busy_workers"] = (busy / waited, "workers", "higher")
    batches = [sp.duration for sp in spans if sp.name == "service.batch"]
    if batches:
        out["service.dispatch_busy_frac"] = (sum(batches) / wall_s, "ratio", "lower")
    return out
