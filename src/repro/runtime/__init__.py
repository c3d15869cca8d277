"""Fault-tolerant evaluation runtime.

The measurement-driven loops of this library (the Fig. 3 algorithm, the
online controller, the Case Study I exploration, benchmark profiling) all
reduce to many independent ``simulate_and_measure`` evaluations.  This
package makes that evaluation path production-grade:

``repro.runtime.errors``
    The structured exception taxonomy (``ReproError`` → ``ConfigError`` /
    ``MeasurementError`` / ``EvaluationTimeout`` / ``WorkerCrashed``).
``repro.runtime.pool``
    Supervised worker-process pool: per-job timeouts, bounded retries with
    exponential backoff + jitter, worker-crash recovery.
``repro.runtime.journal``
    JSONL checkpoint journal so interrupted runs resume without
    re-simulating completed design points.
``repro.runtime.faults``
    Fault injection (NaN/inf stats, dropped intervals, truncated traces,
    spurious exceptions) to prove degradation is graceful.
``repro.runtime.guards``
    Measurement validation separating "safe to act on" from "reject".
``repro.runtime.trace_store``
    Process-resident traces keyed by content digest, so job payloads ship
    a digest string instead of pickled numpy arrays.
``repro.runtime.evalcache``
    Persistent content-addressed cache of measurements, shared across runs
    and invalidated by engine-version bumps; its key is also the journal's.
``repro.runtime.evaluate``
    :class:`EvaluationRuntime`, the façade composing all of the above.

The error taxonomy is imported eagerly (every layer raises it); the rest
of the package loads lazily so that low-level modules (``repro.sim``) can
import the errors without dragging the evaluation stack — which itself
builds on ``repro.sim`` — into their import graph.
"""

from __future__ import annotations

from repro.runtime.errors import (
    ConfigError,
    EvaluationTimeout,
    MeasurementError,
    ReproError,
    WorkerCrashed,
    is_retryable,
)

__all__ = [
    "ReproError",
    "ConfigError",
    "MeasurementError",
    "EvaluationTimeout",
    "WorkerCrashed",
    "is_retryable",
    "CheckpointJournal",
    "FaultConfig",
    "FaultInjector",
    "ensure_finite_stats",
    "ensure_finite_report",
    "checked_report",
    "RetryPolicy",
    "PoolConfig",
    "Job",
    "JobResult",
    "EvaluationPool",
    "EvaluationRequest",
    "EvaluationRuntime",
    "RuntimeCounters",
    "EvaluationCache",
    "evaluation_cache_key",
]

_LAZY = {
    "CheckpointJournal": "repro.runtime.journal",
    "FaultConfig": "repro.runtime.faults",
    "FaultInjector": "repro.runtime.faults",
    "ensure_finite_stats": "repro.runtime.guards",
    "ensure_finite_report": "repro.runtime.guards",
    "checked_report": "repro.runtime.guards",
    "RetryPolicy": "repro.runtime.pool",
    "PoolConfig": "repro.runtime.pool",
    "Job": "repro.runtime.pool",
    "JobResult": "repro.runtime.pool",
    "EvaluationPool": "repro.runtime.pool",
    "EvaluationRequest": "repro.runtime.evaluate",
    "EvaluationRuntime": "repro.runtime.evaluate",
    "RuntimeCounters": "repro.runtime.evaluate",
    "EvaluationCache": "repro.runtime.evalcache",
    "evaluation_cache_key": "repro.runtime.evalcache",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> "list[str]":
    return sorted(__all__)
