"""``repro.obs`` — structured observability for the reproduction stack.

Three composable pieces (see ``docs/OBSERVABILITY.md``):

* **tracing** (:mod:`repro.obs.trace`) — nestable spans exported as JSONL,
  enough to reconstruct a full LPM algorithm walk offline;
* **metrics** (:mod:`repro.obs.metrics`) — a counter/gauge/histogram
  registry whose snapshots merge across pool workers as a commutative
  monoid;
* **profiling** (:mod:`repro.obs.profile`) — per-phase timings of the
  simulate-and-measure pipeline, read back from its spans.

Everything is disabled by default and instrumented call sites guard on
:func:`tracing_enabled` / :func:`metrics_enabled`, so the hot paths pay
one boolean check per *run* (never per instruction) when observability is
off.
"""

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    EMPTY_SNAPSHOT,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    format_metrics_json,
    format_metrics_text,
    get_registry,
    merge_snapshots,
    metrics_enabled,
    set_metrics_enabled,
)
from repro.obs.profile import (
    ProfileReport,
    format_profile_report,
    profile_run,
)
from repro.obs.trace import (
    NOOP_SPAN,
    Span,
    Tracer,
    configure_tracing,
    event,
    get_tracer,
    read_trace,
    span,
    tracing_enabled,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "EMPTY_SNAPSHOT",
    "merge_snapshots",
    "get_registry",
    "metrics_enabled",
    "set_metrics_enabled",
    "format_metrics_text",
    "format_metrics_json",
    "ProfileReport",
    "profile_run",
    "format_profile_report",
    "Span",
    "Tracer",
    "NOOP_SPAN",
    "configure_tracing",
    "get_tracer",
    "tracing_enabled",
    "span",
    "event",
    "read_trace",
]
