"""Supervised, checkpointed ``simulate_and_measure`` evaluation.

:class:`EvaluationRuntime` is the façade the rest of the library talks to:
it composes the worker pool (:mod:`repro.runtime.pool`), the JSONL
checkpoint journal (:mod:`repro.runtime.journal`), the fault-injection
layer (:mod:`repro.runtime.faults`) and the measurement guards
(:mod:`repro.runtime.guards`) behind one call::

    runtime = EvaluationRuntime(pool=PoolConfig(max_workers=4),
                                journal="explore.jsonl")
    outcomes = runtime.evaluate([EvaluationRequest(config, trace)])
    stats = outcomes[0].result()

Each request is keyed by content (:func:`~repro.runtime.evalcache.
evaluation_cache_key`: trace digest, config knobs, seed, warm, engine
version), so the journal and the evaluation cache share one key and two
distinct traces can never alias.  Every completed evaluation is
journaled, so an interrupted exploration or profiling run resumes without
re-simulating finished design points; the ``counters`` attribute reports
exactly how much work was real versus recovered.

Further layers keep repeated work cheap:

* **Worker-resident traces** — traces are registered once per process in
  :mod:`repro.runtime.trace_store` and job payloads carry the content
  digest, so per-job pickle size no longer scales with trace length.
* **Perfect-pass memo** — pool workers live as long as the runtime, and
  each keeps a :class:`~repro.sim.stats.PerfectPassMemo` for its lifetime
  (inline runs share one owned by the runtime), so a perfect-L1 CPI_exe
  pass an earlier job already ran is not run again.
* **Persistent evaluation cache** — an optional
  :class:`~repro.runtime.evalcache.EvaluationCache` (``cache=`` kwarg)
  recalls measurements across runs and processes.

:meth:`EvaluationRuntime.close` (or a ``with`` block) stops the workers;
an un-closed runtime stops them when it is garbage-collected.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime import trace_store
from repro.runtime.evalcache import EvaluationCache, evaluation_cache_key
from repro.runtime.faults import FaultConfig, FaultInjector
from repro.runtime.guards import ensure_finite_stats
from repro.runtime.journal import CheckpointJournal
from repro.runtime.pool import EvaluationPool, Job, PoolConfig
from repro.sim.stats import (
    HierarchyStats,
    PerfectPassMemo,
    simulate_and_measure,
    simulate_and_measure_batch,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Callable

    from repro.sim.params import MachineConfig
    from repro.workloads.trace import Trace

__all__ = [
    "EvaluationRequest",
    "EvalOutcome",
    "RuntimeCounters",
    "EvaluationRuntime",
]


@dataclass(frozen=True)
class EvaluationRequest:
    """One simulate-and-measure evaluation.

    The runtime keys it by content (trace digest, config knobs, seed,
    warm), so callers never build a key themselves.
    """

    config: "MachineConfig"
    trace: "Trace"
    seed: int = 0
    warm: bool = True


@dataclass
class EvalOutcome:
    """Per-request outcome of :meth:`EvaluationRuntime.evaluate`.

    ``key`` is the request's content key.  ``source`` records which layer
    produced the result (``"journal"``, ``"cache"`` or ``"simulated"``);
    the attempt counters are zero for journal/cache hits, which never
    touch the pool.
    """

    key: str
    stats: "HierarchyStats | None" = None
    error: "BaseException | None" = None
    source: str = "simulated"
    attempts: int = 0
    timeouts: int = 0
    crashes: int = 0
    waited_s: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether the evaluation produced usable statistics."""
        return self.error is None

    def result(self) -> "HierarchyStats":
        """The statistics, or raise the evaluation's terminal error."""
        if self.error is not None:
            raise self.error
        assert self.stats is not None
        return self.stats


@dataclass
class RuntimeCounters:
    """How much work a runtime instance actually performed."""

    simulations: int = 0
    journal_hits: int = 0
    cache_hits: int = 0
    retries: int = 0
    timeouts: int = 0
    worker_restarts: int = 0


def _simulate_job(
    config: "MachineConfig",
    trace: "Trace | str",
    seed: int,
    warm: bool,
    faults: "FaultConfig | None",
    _attempt: int = 1,
    _state: "PerfectPassMemo | None" = None,
) -> "HierarchyStats":
    """Worker-side job body: simulate, (optionally) inject faults, validate.

    Module-level so it pickles across process boundaries.  *trace* is
    normally a content digest resolved against the process-resident trace
    store (a full :class:`Trace` is still accepted for direct callers).
    The fault injector is seeded per ``(request, attempt)``: the request's
    content (trace digest, config knobs, simulator seed, warm-up), as
    :func:`repro.service.chaos.worker_fault` keys its draws, never the
    engine version.  A retry of a corrupted measurement draws fresh
    randomness while the clean measurement itself stays bit-identical (the
    simulator is deterministic under its seed).  *_state* is the pool's
    per-process perfect-pass memo.
    """
    if isinstance(trace, str):
        digest, trace = trace, trace_store.resolve(trace)
    else:
        digest = trace.content_digest()
    fn = simulate_and_measure
    if _state is not None:
        # Bound before fault injection, so a truncated trace is looked up
        # under its own digest.
        fn = partial(simulate_and_measure, memo=_state)
    if faults is not None and faults.total_rate > 0.0:
        injector = FaultInjector(faults, digest, config.cache_key(), seed, warm, _attempt)
        fn = injector.wrap_simulate(fn)
    _, stats = fn(config, trace, seed=seed, warm=warm)
    ensure_finite_stats(stats, expected_instructions=trace.n_instructions)
    return stats


def _simulate_batch_job(
    configs: "list[MachineConfig]",
    trace: "Trace | str",
    seed: int,
    warm: bool,
    _state: "PerfectPassMemo | None" = None,
) -> "list[HierarchyStats]":
    """Worker-side batch job body: one :func:`simulate_and_measure_batch`.

    Module-level so it pickles across process boundaries; *trace* and
    *_state* follow the :func:`_simulate_job` conventions.  The batch's
    dispatch plan decides kernel or scalar per config and shares the
    perfect-L1 pass, so the caller never has to split the batch itself.
    """
    if isinstance(trace, str):
        trace = trace_store.resolve(trace)
    pairs = simulate_and_measure_batch(configs, trace, seed=seed, warm=warm, memo=_state)
    stats_list = []
    for _, stats in pairs:
        ensure_finite_stats(stats, expected_instructions=trace.n_instructions)
        stats_list.append(stats)
    return stats_list


class EvaluationRuntime:
    """Pool + journal + faults composed into one evaluation service."""

    def __init__(
        self,
        *,
        pool: "PoolConfig | None" = None,
        journal: "CheckpointJournal | str | Path | None" = None,
        faults: "FaultConfig | None" = None,
        cache: "EvaluationCache | str | Path | None" = None,
        job_fn: "Callable | None" = None,
    ) -> None:
        self.pool_config = pool if pool is not None else PoolConfig()
        if isinstance(journal, (str, Path)):
            journal = CheckpointJournal(journal)
        self.journal = journal
        if isinstance(cache, (str, Path)):
            cache = EvaluationCache(cache)
        self.cache = cache
        self.faults = faults
        #: Replacement worker-side job body.  Must be picklable and accept
        #: the :func:`_simulate_job` signature (plus ``_attempt=``, which is
        #: always passed when a custom body is installed).  The service
        #: chaos layer uses this to wrap simulation with injected failures
        #: without touching the journal/cache layering above it.
        self.job_fn = job_fn
        self.counters = RuntimeCounters()
        self._pool = EvaluationPool(self.pool_config, worker_state=PerfectPassMemo)
        #: Trace digests already added to the pool's worker setup.
        self._shipped: "set[str]" = set()

    def close(self) -> None:
        """Stop the pool's workers (idempotent; a later call restarts them)."""
        self._pool.close()

    def __enter__(self) -> "EvaluationRuntime":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def evaluate(
        self, requests: "list[EvaluationRequest]", *, isolate: bool = False
    ) -> "list[EvalOutcome]":
        """Evaluate *requests*; one outcome per request, in input order.

        Lookup order per distinct content key: checkpoint journal (this
        run's file), then the persistent evaluation cache (cross-run), then
        a real simulation.  Cache hits are re-journaled and fresh results
        are journaled *and* cached as soon as their job completes, so a run
        killed mid-call resumes with zero duplicate evaluations.

        The misses dispatch as one batch job
        (:func:`~repro.sim.stats.simulate_and_measure_batch`, which shares
        the perfect-L1 pass) per ``(trace, seed, warm)`` group.  With
        *isolate*, or when the chaos layer (``faults`` or ``job_fn``) is
        installed, every miss is its own job with its own failure, timeout
        and retry budget.  Results are bit-identical either way.  Failures
        stay per-request: :meth:`EvalOutcome.result` raises them.
        """
        keys = [
            evaluation_cache_key(req.trace, req.config, req.seed, req.warm)
            for req in requests
        ]
        outcomes: "dict[str, EvalOutcome]" = {}
        todo: "dict[str, EvaluationRequest]" = {}
        with obs_trace.span("runtime.evaluate_many", requests=len(requests)) as span:
            for key, req in zip(keys, requests):
                if key in outcomes or key in todo:
                    continue  # duplicate request in one call
                stored, source = None, "journal"
                if self.journal is not None and key in self.journal:
                    stored = self.journal.get(key)
                elif self.cache is not None:
                    stored, source = self.cache.get(key), "cache"
                if stored is None:
                    todo[key] = req
                    continue
                outcomes[key] = EvalOutcome(
                    key=key, stats=HierarchyStats.from_dict(stored), source=source
                )
                if source == "cache" and self.journal is not None:
                    # Re-journal so later calls in this run hit the journal.
                    self.journal.put(key, stored)
            n_cache = sum(1 for o in outcomes.values() if o.source == "cache")
            n_journal = len(outcomes) - n_cache
            self.counters.journal_hits += n_journal
            self.counters.cache_hits += n_cache
            if obs_metrics.metrics_enabled():
                reg = obs_metrics.get_registry()
                reg.counter("runtime.requests").inc(len(requests))
                reg.counter("runtime.journal_hits").inc(n_journal)
                reg.counter("runtime.cache_hits").inc(n_cache)
            span.set(journal_hits=n_journal, cache_hits=n_cache, simulated=len(todo))
            if todo:
                self._simulate(todo, outcomes, isolate=isolate)
        return [outcomes[key] for key in keys]

    def _simulate(
        self,
        todo: "dict[str, EvaluationRequest]",
        outcomes: "dict[str, EvalOutcome]",
        *,
        isolate: bool,
    ) -> None:
        """Run the journal/cache misses in *todo* on the pool."""
        # Ship each distinct trace once per process, not once per job:
        # register parent-side (covers inline execution and workers forked
        # later, which inherit the store) and add it to the pool's worker
        # setup, which reaches each live worker once.
        traces = {req.trace.content_digest(): req.trace for req in todo.values()}
        for digest, trace in traces.items():
            trace_store.register(trace, digest)
            if digest not in self._shipped and self._pool.effective_start_method():
                self._pool.worker_setup.append((trace_store.register, (trace, digest)))
                self._shipped.add(digest)

        chaos = self.faults is not None or self.job_fn is not None
        jobs: "list[Job]" = []
        #: Job key -> the request keys it measures, in result order.
        members: "dict[str, list[str]]" = {}
        if isolate or chaos:
            for key, req in todo.items():
                jobs.append(Job(
                    key=key,
                    fn=self.job_fn if self.job_fn is not None else _simulate_job,
                    args=(req.config, req.trace.content_digest(), req.seed,
                          req.warm, self.faults),
                    pass_attempt=chaos,
                    pass_state=self.job_fn is None,
                ))
                members[key] = [key]
        else:
            groups: "dict[tuple[str, int, bool], list[str]]" = {}
            for key, req in todo.items():
                group = (req.trace.content_digest(), req.seed, req.warm)
                groups.setdefault(group, []).append(key)
            for (digest, seed, warm), group_keys in groups.items():
                job_key = f"batch|{digest}|seed={seed}|warm={warm}"
                jobs.append(Job(
                    key=job_key,
                    fn=_simulate_batch_job,
                    args=([todo[k].config for k in group_keys], digest, seed, warm),
                    pass_state=True,
                ))
                members[job_key] = group_keys

        def _values(result) -> list:
            # A per-request job returns one stats object, a batch job a list.
            return [result.value] if result.key in todo else result.value

        def _checkpoint(result) -> None:
            # Fires per terminal job result, *during* the call — a run
            # killed mid-call keeps everything finished so far.
            if not result.ok:
                return
            for key, stats in zip(members[result.key], _values(result)):
                self.counters.simulations += 1
                if obs_metrics.metrics_enabled():
                    obs_metrics.get_registry().counter("runtime.simulations").inc()
                stats_dict = stats.to_dict()
                if self.journal is not None:
                    self.journal.put(key, stats_dict)
                if self.cache is not None:
                    self.cache.put(key, stats_dict)

        pool = self._pool
        before = (pool.retries, pool.timeouts, pool.worker_restarts)
        results = pool.run(jobs, on_error="keep", on_result=_checkpoint)
        self.counters.retries += pool.retries - before[0]
        self.counters.timeouts += pool.timeouts - before[1]
        self.counters.worker_restarts += pool.worker_restarts - before[2]
        for job in jobs:
            result = results[job.key]
            values = _values(result) if result.ok else [None] * len(members[job.key])
            for key, stats in zip(members[job.key], values):
                outcomes[key] = EvalOutcome(
                    key=key, stats=stats, error=result.error,
                    attempts=result.attempts, timeouts=result.timeouts,
                    crashes=result.crashes, waited_s=result.waited_s,
                )
