"""Mergeable metrics registry: counters, gauges, fixed-bucket histograms.

The registry is the aggregation half of ``repro.obs``: spans tell you
*when* something happened, metrics tell you *how often* and *how much*.
Three instrument kinds cover everything the stack needs:

* :class:`Counter` — monotone event counts (accesses, misses, retries);
* :class:`Gauge` — last-known level quantities (peak MSHR occupancy);
* :class:`Histogram` — fixed-bucket distributions (per-iteration LPMR).

**Merge semantics.**  Evaluation-pool workers run in separate processes;
each worker accumulates into its own (inherited) registry and ships a
:meth:`~MetricsRegistry.snapshot` back with its result, which the parent
folds in with :meth:`~MetricsRegistry.merge`.  For that to be correct
under retries, crashes and arbitrary arrival order, snapshot merge is a
commutative monoid (property-tested in ``tests/obs``):

* counters add, histogram bucket counts and sums add (conserving totals);
* gauges combine with ``max`` — order-independent, and the natural
  reading for the peak/watermark quantities gauges carry here;
* the empty snapshot is the identity.
"""

from __future__ import annotations

import bisect
import json

from repro.runtime.errors import ConfigError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "merge_snapshots",
    "EMPTY_SNAPSHOT",
    "get_registry",
    "metrics_enabled",
    "set_metrics_enabled",
    "format_metrics_text",
    "format_metrics_json",
]

#: Default histogram bucket upper bounds (values land in the first bucket
#: whose bound is >= the observation; the last bucket is +inf).  Spans two
#: orders of magnitude around 1.0 — right for ratio-like LPM quantities.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 25.0, 100.0,
)

#: The merge identity: what an untouched registry snapshots to.
EMPTY_SNAPSHOT: dict = {"counters": {}, "gauges": {}, "histograms": {}}


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add *n* (>= 0) events; counters never decrease."""
        if n < 0:
            raise ConfigError(f"counter increment must be >= 0, got {n}")
        self.value += n


class Gauge:
    """A last-known level; merges across processes by maximum."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current level."""
        self.value = float(value)

    def set_max(self, value: float) -> None:
        """Record a high-watermark (keep the larger of old and new)."""
        value = float(value)
        if value > self.value:
            self.value = value


class Histogram:
    """Fixed-bucket histogram; bucket *i* counts values <= ``bounds[i]``.

    The final implicit bucket is unbounded, so every observation lands
    somewhere and the total count is conserved under any merge order.
    """

    __slots__ = ("bounds", "counts", "total", "sum")

    def __init__(self, bounds: "tuple[float, ...]" = DEFAULT_BUCKETS) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ConfigError("histogram bounds must be non-empty and ascending")
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Count one observation of *value*."""
        value = float(value)
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.total += 1
        self.sum += value

    @property
    def mean(self) -> float:
        """Mean of all observations (0.0 when empty)."""
        return self.sum / self.total if self.total else 0.0


class MetricsRegistry:
    """Named instruments, created on first use, snapshot/merge-able."""

    def __init__(self) -> None:
        self._counters: "dict[str, Counter]" = {}
        self._gauges: "dict[str, Gauge]" = {}
        self._histograms: "dict[str, Histogram]" = {}

    # -- instrument access -------------------------------------------------
    def counter(self, name: str) -> Counter:
        """The counter called *name*, creating it at zero if needed."""
        inst = self._counters.get(name)
        if inst is None:
            inst = self._counters[name] = Counter()
        return inst

    def gauge(self, name: str) -> Gauge:
        """The gauge called *name*, creating it at zero if needed."""
        inst = self._gauges.get(name)
        if inst is None:
            inst = self._gauges[name] = Gauge()
        return inst

    def histogram(
        self, name: str, bounds: "tuple[float, ...]" = DEFAULT_BUCKETS
    ) -> Histogram:
        """The histogram called *name* (bounds fixed at first creation)."""
        inst = self._histograms.get(name)
        if inst is None:
            inst = self._histograms[name] = Histogram(bounds)
        return inst

    # -- snapshot / merge --------------------------------------------------
    def snapshot(self) -> dict:
        """A JSON-serializable, order-independent copy of all instruments."""
        return {
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
            "histograms": {
                k: {
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    "total": h.total,
                    "sum": h.sum,
                }
                for k, h in sorted(self._histograms.items())
            },
        }

    def merge(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` (e.g. from a pool worker) into this registry."""
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(int(value))
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set_max(value)
        for name, data in snapshot.get("histograms", {}).items():
            hist = self.histogram(name, tuple(data["bounds"]))
            if list(hist.bounds) != list(data["bounds"]):
                raise ConfigError(
                    f"histogram {name!r} bucket bounds differ between merge sides"
                )
            for i, count in enumerate(data["counts"]):
                hist.counts[i] += int(count)
            hist.total += int(data["total"])
            hist.sum += float(data["sum"])

    def reset(self) -> None:
        """Drop every instrument (back to the merge identity)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def snapshot_and_reset(self) -> dict:
        """Atomically snapshot then reset (worker hand-off helper)."""
        snap = self.snapshot()
        self.reset()
        return snap

    def is_empty(self) -> bool:
        """Whether no instrument was ever touched."""
        return not (self._counters or self._gauges or self._histograms)


def merge_snapshots(*snapshots: dict) -> dict:
    """Pure merge of snapshot dicts (associative, commutative, identity
    :data:`EMPTY_SNAPSHOT`) — the function the property suite exercises."""
    registry = MetricsRegistry()
    for snap in snapshots:
        registry.merge(snap)
    return registry.snapshot()


# -- module-level switchboard ----------------------------------------------

_REGISTRY = MetricsRegistry()
_enabled = False  # repro: noqa[RACE002] -- metrics are best-effort observational: fork workers inherit the flag, spawn workers default to off and simply ship no snapshots; results are unaffected either way


def get_registry() -> MetricsRegistry:
    """The process-global registry (inherited by forked pool workers)."""
    return _REGISTRY


def metrics_enabled() -> bool:
    """Whether instrumented call sites should record (fast-path guard)."""
    return _enabled


def set_metrics_enabled(enabled: bool) -> None:
    """Turn metric collection on or off globally."""
    global _enabled
    _enabled = bool(enabled)  # repro: noqa[RACE001] -- per-process switch: a pool worker sets only its own copy, mirroring the supervisor's value that every job message carries (pool._sync_metrics)


# -- reporters --------------------------------------------------------------

def format_metrics_text(snapshot: dict) -> str:
    """Human-readable registry dump (the CLI's ``--metrics text``)."""
    lines = ["== metrics =="]
    for name, value in snapshot.get("counters", {}).items():
        lines.append(f"counter   {name:<40s} {value}")
    for name, value in snapshot.get("gauges", {}).items():
        lines.append(f"gauge     {name:<40s} {value:g}")
    for name, data in snapshot.get("histograms", {}).items():
        mean = data["sum"] / data["total"] if data["total"] else 0.0
        lines.append(
            f"histogram {name:<40s} n={data['total']} mean={mean:.4g}"
        )
    if len(lines) == 1:
        lines.append("(no metrics recorded)")
    return "\n".join(lines)


def format_metrics_json(snapshot: dict) -> str:
    """Machine-readable registry dump (the CLI's ``--metrics json``)."""
    return json.dumps(snapshot, indent=2, sort_keys=True)
