"""The dispatch loop: admission → breaker → pool, one batch at a time.

The scheduler owns the job table and the single background task that moves
work from the admission queues into the
:class:`~repro.runtime.evaluate.EvaluationRuntime`.  Batches run in a
worker thread (the pool API is synchronous; the event loop must keep
serving clients while a batch simulates), with a service-level deadline as
a backstop over the pool's own per-job timeouts.

Jobs are keyed for the runtime by their *evaluation cache key* — trace
content, config knobs, seed, warm — never by the client-chosen job id.
Two clients submitting the same design point share one simulation, and a
restarted service resumes its journal regardless of what ids the new
clients picked.

Degradation policy, enforced here:

* every admitted job reaches a terminal status — success, a typed failure,
  or an explicit cancellation at drain; nothing is silently dropped;
* infrastructure failures (worker crashes, deadlines) feed the circuit
  breaker; job-fault failures (bad config, unretryable measurement) do
  not — one client's poison job cannot open the breaker on everyone else;
* while the breaker is open, queued jobs *stay queued* (bounded by
  admission) and the half-open probe dispatches exactly one job.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime.errors import is_retryable
from repro.service.admission import AdmissionConfig, AdmissionController
from repro.service.breaker import (
    BreakerConfig,
    CircuitBreaker,
    is_infrastructure_failure,
)
from repro.service.protocol import TERMINAL_STATUSES, JobStatus

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.evaluate import EvaluationRequest, EvaluationRuntime
    from repro.service.chaos import StoreChaos

__all__ = ["SchedulerConfig", "JobRecord", "JobScheduler"]


@dataclass(frozen=True)
class SchedulerConfig:
    """Batch sizing, deadlines, and the nested admission/breaker configs."""

    #: Jobs dispatched to the pool per batch (the fair dequeue spreads a
    #: batch across clients).
    max_batch: int = 4
    #: Backstop deadline over one whole batch.  The pool's per-job
    #: ``timeout_s`` (plus retries and backoff) is the primary deadline;
    #: this only fires if the pool itself wedges.
    batch_deadline_s: float = 300.0
    #: Idle wait between queue polls when nothing is runnable.
    idle_poll_s: float = 0.05
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    breaker: BreakerConfig = field(default_factory=BreakerConfig)


@dataclass
class JobRecord:
    """Supervisor-side state of one submitted job."""

    job_id: str
    client: str
    request: "EvaluationRequest"
    status: str = JobStatus.QUEUED
    #: Which layer produced the result (journal / cache / simulated).
    source: "str | None" = None
    attempts: int = 0
    stats_dict: "dict | None" = None
    error: "str | None" = None
    error_kind: "str | None" = None
    retryable: bool = False

    def public_view(self) -> dict:
        """The wire-facing status payload for this job."""
        view: dict = {"job_id": self.job_id, "status": self.status}
        if self.source is not None:
            view["source"] = self.source
        if self.attempts:
            view["attempts"] = self.attempts
        if self.status == JobStatus.DONE:
            view["stats"] = self.stats_dict
        elif self.error is not None:
            view["error"] = self.error
            view["error_kind"] = self.error_kind
            view["retryable"] = self.retryable
        return view


class JobScheduler:
    """Single-task dispatcher between admission and the evaluation runtime."""

    def __init__(
        self,
        runtime: "EvaluationRuntime",
        config: "SchedulerConfig | None" = None,
        *,
        store_chaos: "StoreChaos | None" = None,
    ) -> None:
        self.runtime = runtime
        self.config = config if config is not None else SchedulerConfig()
        self.admission = AdmissionController(self.config.admission)
        self.breaker = CircuitBreaker(self.config.breaker)
        self.store_chaos = store_chaos
        self.jobs: "dict[str, JobRecord]" = {}
        self._events: "dict[str, asyncio.Event]" = {}
        self._wake: "asyncio.Event | None" = None
        self._task: "asyncio.Task | None" = None
        self._draining = False
        self._inflight = 0
        self.batches = 0

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        """Start the dispatch loop on the running event loop."""
        self._wake = asyncio.Event()
        self._task = asyncio.get_running_loop().create_task(self._run())

    async def drain(self, timeout_s: float = 60.0) -> None:
        """Graceful shutdown: finish the in-flight batch, cancel the queue.

        Every job still queued gets a terminal ``cancelled`` status (its
        waiters wake), and anything already journaled stays journaled — a
        restarted service resumes from exactly the drained state.
        """
        self._draining = True
        if self._wake is not None:
            self._wake.set()
        if self._task is not None:
            try:
                await asyncio.wait_for(self._task, timeout=timeout_s)
            except TimeoutError:
                self._task.cancel()
            self._task = None

    @property
    def draining(self) -> bool:
        return self._draining

    # -- submission & queries ------------------------------------------------
    def submit(self, record: JobRecord) -> "tuple[str, float | None]":
        """Admit *record*; returns ``(status, retry_after_s)``.

        ``("queued", None)`` on admission.  A resubmitted job id returns
        the job's current status (idempotent — clients retry submissions
        after a disconnect without double-running anything).  Rejections
        return ``("rejected", hint)`` and record nothing.
        """
        existing = self.jobs.get(record.job_id)
        if existing is not None:
            return existing.status, None
        if self._draining:
            return JobStatus.REJECTED, None
        retry_after = self.admission.try_admit(record.client, record)
        if retry_after is not None:
            return JobStatus.REJECTED, retry_after
        self.jobs[record.job_id] = record
        self._events[record.job_id] = asyncio.Event()
        if self._wake is not None:
            self._wake.set()
        return JobStatus.QUEUED, None

    def status(self, job_id: str) -> "JobRecord | None":
        return self.jobs.get(job_id)

    async def wait_done(
        self, job_id: str, timeout_s: float
    ) -> "JobRecord | None":
        """Wait until *job_id* is terminal or the timeout passes."""
        record = self.jobs.get(job_id)
        if record is None:
            return None
        if record.status in TERMINAL_STATUSES:
            return record
        event = self._events[job_id]
        try:
            await asyncio.wait_for(event.wait(), timeout=timeout_s)
        except TimeoutError:
            pass  # caller sees the still-non-terminal status
        return record

    def stats(self) -> dict:
        """Service-level health and throughput counters."""
        by_status: "dict[str, int]" = {}
        for record in self.jobs.values():
            by_status[record.status] = by_status.get(record.status, 0) + 1
        counters = self.runtime.counters
        return {
            "jobs": by_status,
            "queued": self.admission.queued,
            "inflight": self._inflight,
            "batches": self.batches,
            "admission": {
                "admitted": self.admission.admitted,
                "rejected": self.admission.rejected,
            },
            "breaker": {"state": self.breaker.state, "trips": self.breaker.trips},
            "runtime": {
                "simulations": counters.simulations,
                "journal_hits": counters.journal_hits,
                "cache_hits": counters.cache_hits,
                "retries": counters.retries,
                "timeouts": counters.timeouts,
                "worker_restarts": counters.worker_restarts,
            },
            "draining": self._draining,
        }

    # -- dispatch loop -------------------------------------------------------
    async def _pause(self, delay_s: float) -> None:
        try:
            await asyncio.wait_for(self._wake.wait(), timeout=delay_s)
        except TimeoutError:
            return
        self._wake.clear()

    async def _run(self) -> None:
        while True:
            if self._draining:
                break
            if self.admission.queued == 0:
                await self._pause(self.config.idle_poll_s)
                continue
            # Work exists — consult the breaker only now, because a
            # half-open allow() consumes the probe slot.
            if not self.breaker.allow():
                await self._pause(
                    min(self.config.idle_poll_s, self.breaker.retry_after_s())
                    or self.config.idle_poll_s
                )
                continue
            limit = (
                1
                if self.breaker.state == CircuitBreaker.HALF_OPEN
                else self.config.max_batch
            )
            batch: "list[JobRecord]" = []
            while len(batch) < limit:
                item = self.admission.next()
                if item is None:
                    break
                batch.append(item)
            if not batch:
                continue
            if self.store_chaos is not None:
                # Chaos rounds tear cache shards and truncate the journal
                # on disk — synchronous IO that must not run on the event
                # loop (ASYNC001): a slow disk would stall every connected
                # client, not just this batch.
                await asyncio.to_thread(self.store_chaos.maybe_damage)
            await self._dispatch(batch)
        for item in self.admission.drain_all():
            record: JobRecord = item
            record.status = JobStatus.CANCELLED
            record.error = "service draining"
            record.error_kind = "Cancelled"
            record.retryable = True
            self._finish(record)

    async def _dispatch(self, batch: "list[JobRecord]") -> None:
        for record in batch:
            record.status = JobStatus.RUNNING
        self._inflight = len(batch)
        self.batches += 1
        requests = [record.request for record in batch]
        with obs_trace.span("service.batch", jobs=len(batch)) as span:
            try:
                outcomes = await asyncio.wait_for(
                    asyncio.to_thread(
                        self.runtime.evaluate, requests, isolate=True
                    ),
                    timeout=self.config.batch_deadline_s,
                )
            except TimeoutError:
                # The pool wedged past every per-job deadline.  The thread
                # cannot be cancelled, but the jobs must still terminate:
                # fail them all and charge the breaker once per job.
                for record in batch:
                    record.status = JobStatus.FAILED
                    record.error = (
                        f"batch exceeded the service deadline of "
                        f"{self.config.batch_deadline_s}s"
                    )
                    record.error_kind = "EvaluationTimeout"
                    record.retryable = True
                    self.breaker.record_failure()
                    self._finish(record)
                self._inflight = 0
                span.set(deadline_exceeded=True)
                return
            ok = 0
            for record, outcome in zip(batch, outcomes):
                record.attempts = outcome.attempts
                record.source = outcome.source
                if outcome.ok:
                    record.status = JobStatus.DONE
                    record.stats_dict = outcome.stats.to_dict()
                    self.breaker.record_success()
                    ok += 1
                else:
                    record.status = JobStatus.FAILED
                    record.error = str(outcome.error)
                    record.error_kind = type(outcome.error).__name__
                    record.retryable = is_retryable(outcome.error)
                    if is_infrastructure_failure(outcome.error):
                        self.breaker.record_failure()
                    else:
                        # The pool is healthy; the job itself was bad.
                        self.breaker.record_success()
                self._finish(record)
            span.set(ok=ok, failed=len(batch) - ok)
        self._inflight = 0

    def _finish(self, record: JobRecord) -> None:
        event = self._events.get(record.job_id)
        if event is not None:
            event.set()
        if obs_metrics.metrics_enabled():
            obs_metrics.get_registry().counter(
                f"service.jobs.{record.status}"
            ).inc()
