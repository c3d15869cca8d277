"""Bench-side spans around the public callables of each layer.

The traced run enables :mod:`repro.obs.trace`, so the spans ``src/``
already emits (``sim.run``, ``sim.run_batch``, ``lpm.step``,
``surrogate.predict``, ``runtime.evaluate_*``, ``pool.attempt``,
``service.batch``) are recorded as they are.  :func:`install` adds a span
around each layer entry point that has none, patched at the attribute its
caller looks up, so the layer table can attribute self time to every
layer without touching the program.  The wrappers check
:func:`~repro.obs.trace.tracing_enabled` first and cost one call frame when
tracing is off.

The engine wrappers (``run`` and ``warm_caches`` of both simulators) also
record the redundancy key of each perfect-L1 pass and warm-up (see
:mod:`spans`), so the traced run can say how much of that work a memo
keyed on what the pass reads would have skipped.

Install before any pool worker forks: forked workers inherit the patched
classes and the tracer, and their spans land in the same JSONL file.
"""

from __future__ import annotations

import functools
import hashlib
import os

from repro.obs import trace as obs_trace

__all__ = ["install", "record_span"]

_installed = False


def _short(*parts: object) -> str:
    """A 12-hex-digit key over *parts* (keys only need to be distinct)."""
    return hashlib.blake2b(repr(parts).encode(), digest_size=6).hexdigest()


def _wrap(owner: object, attr: str, name: str, attrs=None) -> None:
    """Replace ``owner.attr`` by a version that runs inside span *name*.

    *attrs*, if given, maps ``(args, kwargs, result)`` to span attributes.
    """
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if not obs_trace.tracing_enabled():
            return original(*args, **kwargs)
        with obs_trace.span(name) as sp:
            result = original(*args, **kwargs)
            if attrs is not None:
                sp.set(**attrs(args, kwargs, result))
            return result

    setattr(owner, attr, wrapper)


def install() -> None:
    """Patch every instrumented entry point (idempotent)."""
    global _installed
    if _installed:
        return
    _installed = True

    import repro.analysis.surrogate as surrogate
    import repro.sched as sched
    import repro.sim.stats as stats
    import repro.workloads.locality as locality
    from repro.runtime.evalcache import EvaluationCache
    from repro.runtime.journal import CheckpointJournal
    from repro.sim.batch import BatchHierarchySimulator
    from repro.sim.engine import HierarchySimulator
    from repro.workloads.spec import BenchmarkProfile
    from repro.workloads.trace import Trace

    digest = Trace.content_digest  # unwrapped: key computation is not a layer

    def perfect_key(trace, config) -> str:
        core = config.core
        return _short(digest(trace), core.issue_width, core.rob_size,
                      core.iw_size, config.l1_hit_time)

    def warm_key(trace, config) -> str:
        return _short(digest(trace), config.l1, config.l2, config.l3)

    _wrap(BenchmarkProfile, "trace", "workloads.trace")
    _wrap(Trace, "content_digest", "workloads.digest")
    _wrap(locality, "profile_trace", "locality.profile")
    _wrap(surrogate, "predict_many", "surrogate.predict_many",
          lambda a, k, r: {"configs": len(r)})
    _wrap(stats, "measure_hierarchy", "analysis.measure")
    _wrap(sched, "nuca_sa", "sched.nuca_sa")
    _wrap(sched, "evaluate_schedule", "sched.evaluate")
    _wrap(sched, "profile_benchmarks", "sched.profile")
    _wrap(CheckpointJournal, "put", "journal.put")

    def cache_get(self, key):
        if not obs_trace.tracing_enabled():
            return get(self, key)
        with obs_trace.span("evalcache.get") as sp:
            before = self.bytes_read
            result = get(self, key)
            sp.set(hit=result is not None, bytes=self.bytes_read - before)
            return result

    def cache_put(self, key, stats_dict):
        if not obs_trace.tracing_enabled():
            return put(self, key, stats_dict)
        with obs_trace.span("evalcache.put") as sp:
            before = self.bytes_written
            put(self, key, stats_dict)
            sp.set(bytes=self.bytes_written - before)

    get, put = EvaluationCache.get, EvaluationCache.put
    EvaluationCache.get = functools.wraps(get)(cache_get)
    EvaluationCache.put = functools.wraps(put)(cache_put)

    sim_run, sim_warm = HierarchySimulator.run, HierarchySimulator.warm_caches
    batch_run, batch_warm = BatchHierarchySimulator.run, BatchHierarchySimulator.warm_caches

    # Keys are computed before each span opens, so hashing the trace is
    # charged to the caller (unattributed), never to an engine layer.  An
    # engine="batch" scalar simulator delegates to the batch wrappers.
    def run(self, trace, **kwargs):
        if not obs_trace.tracing_enabled() or self.engine == "batch":
            return sim_run(self, trace, **kwargs)
        perfect = bool(kwargs.get("perfect", False))
        fast = self._use_fast_path()
        key = perfect_key(trace, self.config) if perfect else None
        with obs_trace.span("engine.call", perfect=perfect, fast=fast, key=key) as sp:
            result = sim_run(self, trace, **kwargs)
            sp.set(instructions=result.instructions_executed)
            return result

    def warm(self, trace):
        if not obs_trace.tracing_enabled() or self.engine == "batch":
            return sim_warm(self, trace)
        keys = [warm_key(trace, self.config)]
        with obs_trace.span("engine.warm", keys=keys):
            return sim_warm(self, trace)

    def run_batch(self, trace, **kwargs):
        if not obs_trace.tracing_enabled():
            return batch_run(self, trace, **kwargs)
        perfect = bool(kwargs.get("perfect", False))
        keys = [perfect_key(trace, c) for c in self.configs] if perfect else None
        with obs_trace.span("batch.call", perfect=perfect, lanes=self.n_lanes,
                            keys=keys) as sp:
            results = batch_run(self, trace, **kwargs)
            sp.set(instructions=sum(r.instructions_executed for r in results))
            return results

    def warm_batch(self, trace):
        if not obs_trace.tracing_enabled():
            return batch_warm(self, trace)
        keys = [warm_key(trace, c) for c in self.configs]
        with obs_trace.span("batch.warm", keys=keys):
            return batch_warm(self, trace)

    HierarchySimulator.run = functools.wraps(sim_run)(run)
    HierarchySimulator.warm_caches = functools.wraps(sim_warm)(warm)
    BatchHierarchySimulator.run = functools.wraps(batch_run)(run_batch)
    BatchHierarchySimulator.warm_caches = functools.wraps(batch_warm)(warm_batch)


def record_span(name: str, t0: float, t1: float, **attrs: object) -> None:
    """Emit one finished top-level span ``[t0, t1)`` of ``time.perf_counter``.

    For intervals a context manager cannot bracket: the span stack is per
    thread, so concurrent asyncio tasks would mis-parent each other's
    spans.
    """
    tracer = obs_trace.get_tracer()
    if tracer is None:
        return
    record = {
        "kind": "span", "name": name, "span_id": tracer._next_id(), "parent_id": None,
        "t_start_s": round(t0 - tracer.epoch, 9),
        "duration_s": round(t1 - t0, 9), "pid": os.getpid(),
    }
    if attrs:
        record["attrs"] = attrs
    tracer._emit(record)
