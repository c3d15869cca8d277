"""Supervised, checkpointed ``simulate_and_measure`` evaluation.

:class:`EvaluationRuntime` is the façade the rest of the library talks to:
it composes the worker pool (:mod:`repro.runtime.pool`), the JSONL
checkpoint journal (:mod:`repro.runtime.journal`), the fault-injection
layer (:mod:`repro.runtime.faults`) and the measurement guards
(:mod:`repro.runtime.guards`) behind two calls::

    runtime = EvaluationRuntime(pool=PoolConfig(max_workers=4),
                                journal="explore.jsonl")
    stats = runtime.evaluate(EvaluationRequest(key, config, trace))
    many  = runtime.evaluate_many(requests)     # parallel, checkpointed

Every completed evaluation is journaled, so an interrupted exploration or
profiling run resumes without re-simulating finished design points; the
``counters`` attribute reports exactly how much work was real versus
recovered from the journal.

Two further layers keep repeated work cheap:

* **Worker-resident traces** — traces are registered once per process in
  :mod:`repro.runtime.trace_store` and job payloads carry the content
  digest, so per-job pickle size no longer scales with trace length.
* **Persistent evaluation cache** — an optional
  :class:`~repro.runtime.evalcache.EvaluationCache` (``cache=`` kwarg)
  recalls measurements across runs and processes, keyed by trace content,
  config knobs, seed/warm and the engine version.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime import trace_store
from repro.runtime.errors import ConfigError
from repro.runtime.evalcache import EvaluationCache, evaluation_cache_key
from repro.runtime.faults import FaultConfig, FaultInjector
from repro.runtime.guards import ensure_finite_stats
from repro.runtime.journal import CheckpointJournal
from repro.runtime.pool import EvaluationPool, Job, PoolConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Callable

    from repro.sim.params import MachineConfig
    from repro.sim.stats import HierarchyStats
    from repro.workloads.trace import Trace

__all__ = [
    "EvaluationRequest",
    "EvalOutcome",
    "RuntimeCounters",
    "EvaluationRuntime",
]


@dataclass(frozen=True)
class EvaluationRequest:
    """One simulate-and-measure evaluation, identified by a stable key.

    The key is what the checkpoint journal stores results under, so it must
    capture everything that determines the measurement — callers should
    build it from the trace identity plus the full configuration knob
    tuple (see :meth:`repro.sim.params.MachineConfig.cache_key`).
    """

    key: str
    config: "MachineConfig"
    trace: "Trace"
    seed: int = 0
    warm: bool = True


@dataclass
class EvalOutcome:
    """Per-request outcome of a detailed batch evaluation.

    ``source`` records which layer produced the result (``"journal"``,
    ``"cache"`` or ``"simulated"``); the attempt counters are zero for
    journal/cache hits, which never touch the pool.
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
    fault_label: str,
    _attempt: int = 1,
) -> "HierarchyStats":
    """Worker-side job body: simulate, (optionally) inject faults, validate.

    Module-level so it pickles across process boundaries.  *trace* is
    normally a content digest resolved against the process-resident trace
    store (a full :class:`Trace` is still accepted for direct callers).
    The fault injector is seeded per ``(job, attempt)``, so a retry of a
    corrupted measurement draws fresh randomness while the clean
    measurement itself stays bit-identical (the simulator is deterministic
    under its seed).
    """
    from repro.sim.stats import simulate_and_measure

    if isinstance(trace, str):
        trace = trace_store.resolve(trace)
    fn = simulate_and_measure
    if faults is not None and faults.total_rate > 0.0:
        fn = FaultInjector(faults, fault_label, _attempt).wrap_simulate(fn)
    _, stats = fn(config, trace, seed=seed, warm=warm)
    ensure_finite_stats(stats, expected_instructions=trace.n_instructions)
    return stats


def _simulate_batch_job(
    configs: "list[MachineConfig]",
    trace: "Trace | str",
    seed: int,
    warm: bool,
) -> "list[HierarchyStats]":
    """Worker-side batch job body: one :func:`simulate_and_measure_batch`.

    Module-level so it pickles across process boundaries; *trace* follows
    the :func:`_simulate_job` digest convention.  The batch's dispatch plan
    decides kernel or scalar per config and shares the perfect-L1 pass, so
    the caller never has to split the batch itself.
    """
    from repro.sim.stats import simulate_and_measure_batch

    if isinstance(trace, str):
        trace = trace_store.resolve(trace)
    pairs = simulate_and_measure_batch(configs, trace, seed=seed, warm=warm)
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
        #: Where each key of the most recent :meth:`evaluate_many` batch came
        #: from: ``"simulated"``, ``"journal"`` or ``"cache"``.
        self.last_sources: "dict[str, str]" = {}
        self._pool = EvaluationPool(self.pool_config)

    def evaluate(self, request: EvaluationRequest) -> "HierarchyStats":
        """Evaluate one request (journal-checkpointed, supervised)."""
        return self.evaluate_many([request])[request.key]

    def evaluate_many(
        self, requests: "list[EvaluationRequest]"
    ) -> "dict[str, HierarchyStats]":
        """Evaluate a batch; parallel across workers when the pool has any.

        Lookup order per request: checkpoint journal (this run's file),
        then the persistent evaluation cache (cross-run), then a real
        simulation.  Cache hits are re-journaled and fresh results are
        journaled *and* cached as soon as they complete, so a run killed
        mid-batch resumes with zero duplicate evaluations.
        ``last_sources`` records where each key came from.

        Raises the first failed request's error (in submission order); use
        :meth:`evaluate_many_detailed` to keep per-request failures.
        """
        outcomes = self.evaluate_many_detailed(requests)
        for req in requests:
            error = outcomes[req.key].error
            if error is not None:
                raise error
        return {key: outcome.stats for key, outcome in outcomes.items()}

    def _run_jobs(self, jobs: "list[Job]", on_result: "Callable") -> dict:
        """Run *jobs* on the pool, folding its retry counts into counters."""
        pool = self._pool
        before = (pool.retries, pool.timeouts, pool.worker_restarts)
        results = pool.run(jobs, on_error="keep", on_result=on_result)
        self.counters.retries += pool.retries - before[0]
        self.counters.timeouts += pool.timeouts - before[1]
        self.counters.worker_restarts += pool.worker_restarts - before[2]
        return results

    def evaluate_all(
        self, requests: "list[EvaluationRequest]", *, engine: str = "auto"
    ) -> "dict[str, HierarchyStats]":
        """Evaluate *requests* as batch jobs unless the chaos layer is on.

        ``engine="auto"`` dispatches one batch job per shared trace
        (:meth:`evaluate_batch`) and falls back to per-request scalar jobs
        (:meth:`evaluate_many`) when fault injection or a custom
        ``job_fn`` is installed, since those are scalar-path features.
        ``"scalar"`` always takes per-request jobs and ``"batch"`` always
        takes batch jobs, refusing the chaos layer loudly.  Results are
        bit-identical either way.
        """
        if engine not in ("auto", "batch", "scalar"):
            raise ConfigError(
                f"engine must be 'auto', 'batch' or 'scalar', got {engine!r}"
            )
        chaos = self.faults is not None or self.job_fn is not None
        if engine == "scalar" or (engine == "auto" and chaos):
            return self.evaluate_many(requests)
        return self.evaluate_batch(requests)

    def evaluate_batch(
        self, requests: "list[EvaluationRequest]"
    ) -> "dict[str, HierarchyStats]":
        """Like :meth:`evaluate_many`, but one *batch job* per shared trace.

        The journal/cache pre-pass is identical to :meth:`evaluate_many`
        (and cache keys are shared with the scalar path — the batch kernel
        is bit-identical, so a scalar result satisfies a batch request and
        vice versa).  The remaining misses are grouped by
        ``(trace, seed, warm)`` and each group dispatches **one** pool job
        (:func:`~repro.sim.stats.simulate_and_measure_batch`, which shares
        the perfect-L1 pass and steps wide groups in one kernel call)
        instead of N scalar jobs.  Fault injection and custom job bodies are a
        scalar-path feature; batch dispatch refuses them loudly.
        """
        from repro.sim.stats import HierarchyStats

        if self.faults is not None or self.job_fn is not None:
            raise ConfigError(
                "evaluate_batch() does not support fault injection or a "
                "custom job_fn; use evaluate_many() for the chaos layer"
            )
        results: "dict[str, HierarchyStats]" = {}
        todo: "list[EvaluationRequest]" = []
        self.last_sources = {}
        cache_keys: "dict[str, str]" = {}
        with obs_trace.span("runtime.evaluate_batch", requests=len(requests)):
            for req in requests:
                if req.key in results or any(t.key == req.key for t in todo):
                    continue
                if self.journal is not None and req.key in self.journal:
                    results[req.key] = HierarchyStats.from_dict(
                        self.journal.get(req.key)
                    )
                    self.counters.journal_hits += 1
                    self.last_sources[req.key] = "journal"
                    continue
                if self.cache is not None:
                    ckey = evaluation_cache_key(
                        req.trace, req.config, req.seed, req.warm
                    )
                    cache_keys[req.key] = ckey
                    cached = self.cache.get(ckey)
                    if cached is not None:
                        results[req.key] = HierarchyStats.from_dict(cached)
                        self.counters.cache_hits += 1
                        self.last_sources[req.key] = "cache"
                        if self.journal is not None:
                            self.journal.put(req.key, cached)
                        continue
                todo.append(req)
            if not todo:
                return results
            groups: "dict[tuple, list[EvaluationRequest]]" = {}
            setup: "list[tuple]" = []
            for req in todo:
                digest = req.trace.content_digest()
                group_key = (digest, req.seed, req.warm)
                if group_key not in groups:
                    trace_store.register(req.trace, digest)
                    setup.append((trace_store.register, (req.trace, digest)))
                groups.setdefault(group_key, []).append(req)
            self._pool.worker_setup = (
                setup if self._pool.effective_start_method() == "spawn" else []
            )
            jobs = [
                Job(
                    key=f"batch|{digest}|seed={seed}|warm={warm}",
                    fn=_simulate_batch_job,
                    args=([r.config for r in grp], digest, seed, warm),
                )
                for (digest, seed, warm), grp in groups.items()
            ]
            group_of = {job.key: grp for job, grp in zip(jobs, groups.values())}

            def _checkpoint(result) -> None:
                # Journal each group the moment its job finishes, so a run
                # killed mid-batch keeps every finished group.
                if not result.ok:
                    return
                for req, stats in zip(group_of[result.key], result.value):
                    results[req.key] = stats
                    self.counters.simulations += 1
                    self.last_sources[req.key] = "simulated"
                    stats_dict = stats.to_dict()
                    if self.journal is not None:
                        self.journal.put(req.key, stats_dict)
                    if self.cache is not None and req.key in cache_keys:
                        self.cache.put(cache_keys[req.key], stats_dict)

            pool_results = self._run_jobs(jobs, _checkpoint)
            for job in jobs:
                if not pool_results[job.key].ok:
                    raise pool_results[job.key].error
        return results

    def evaluate_many_detailed(
        self, requests: "list[EvaluationRequest]"
    ) -> "dict[str, EvalOutcome]":
        """Like :meth:`evaluate_many`, but failures stay per-request.

        Every request gets an :class:`EvalOutcome` — a failed one carries
        its terminal error instead of raising out of the whole batch, so a
        caller serving many independent clients (the evaluation service)
        can fail one job without poisoning its neighbours.
        """
        from repro.sim.stats import HierarchyStats

        outcomes: "dict[str, EvalOutcome]" = {}
        todo: "list[EvaluationRequest]" = []
        self.last_sources = {}
        cache_keys: "dict[str, str]" = {}
        batch_span = obs_trace.span("runtime.evaluate_many", requests=len(requests))
        batch_span.__enter__()
        for req in requests:
            if req.key in outcomes or any(t.key == req.key for t in todo):
                continue  # duplicate request in one batch
            if self.journal is not None and req.key in self.journal:
                outcomes[req.key] = EvalOutcome(
                    key=req.key,
                    stats=HierarchyStats.from_dict(self.journal.get(req.key)),
                    source="journal",
                )
                self.counters.journal_hits += 1
                self.last_sources[req.key] = "journal"
                continue
            if self.cache is not None:
                ckey = evaluation_cache_key(req.trace, req.config, req.seed, req.warm)
                cache_keys[req.key] = ckey
                cached = self.cache.get(ckey)
                if cached is not None:
                    outcomes[req.key] = EvalOutcome(
                        key=req.key,
                        stats=HierarchyStats.from_dict(cached),
                        source="cache",
                    )
                    self.counters.cache_hits += 1
                    self.last_sources[req.key] = "cache"
                    if self.journal is not None:
                        # Re-journal so later batches in this run hit the
                        # journal without re-deriving the cache key.
                        self.journal.put(req.key, cached)
                    continue
            todo.append(req)
        n_cache = sum(1 for s in self.last_sources.values() if s == "cache")
        if obs_metrics.metrics_enabled():
            reg = obs_metrics.get_registry()
            reg.counter("runtime.requests").inc(len(requests))
            reg.counter("runtime.journal_hits").inc(len(outcomes) - n_cache)
            reg.counter("runtime.cache_hits").inc(n_cache)
        try:
            if todo:
                # Ship each distinct trace once per process, not once per
                # job: register parent-side (covers inline execution and
                # fork workers, which inherit the store) and, under spawn,
                # once per worker via the pool's setup messages.
                seen_digests: "set[str]" = set()
                setup: "list[tuple]" = []
                for req in todo:
                    digest = req.trace.content_digest()
                    if digest not in seen_digests:
                        seen_digests.add(digest)
                        trace_store.register(req.trace, digest)
                        setup.append((trace_store.register, (req.trace, digest)))
                self._pool.worker_setup = (
                    setup
                    if self._pool.effective_start_method() == "spawn"
                    else []
                )
                jobs = [
                    Job(
                        key=req.key,
                        fn=self.job_fn if self.job_fn is not None else _simulate_job,
                        args=(req.config, req.trace.content_digest(), req.seed,
                              req.warm, self.faults, req.key),
                        pass_attempt=self.faults is not None or self.job_fn is not None,
                    )
                    for req in todo
                ]

                def _checkpoint(result) -> None:
                    # Fires per terminal job result, *during* the batch — a run
                    # killed mid-batch keeps everything finished so far.
                    if result.ok:
                        self.counters.simulations += 1
                        if obs_metrics.metrics_enabled():
                            obs_metrics.get_registry().counter(
                                "runtime.simulations"
                            ).inc()
                        stats_dict = result.value.to_dict()
                        if self.journal is not None:
                            self.journal.put(result.key, stats_dict)
                        if self.cache is not None and result.key in cache_keys:
                            self.cache.put(cache_keys[result.key], stats_dict)

                results = self._run_jobs(jobs, _checkpoint)
                for req in todo:
                    result = results[req.key]
                    outcomes[req.key] = EvalOutcome(
                        key=req.key,
                        stats=result.value if result.ok else None,
                        error=result.error,
                        source="simulated",
                        attempts=result.attempts,
                        timeouts=result.timeouts,
                        crashes=result.crashes,
                        waited_s=result.waited_s,
                    )
                    if result.ok:
                        self.last_sources[req.key] = "simulated"
        finally:
            batch_span.set(
                journal_hits=len(requests) - len(todo) - n_cache,
                cache_hits=n_cache,
                simulated=len(todo),
            )
            batch_span.__exit__(None, None, None)
        return outcomes
