"""Scheduler behavior: terminal statuses, breaker integration, drain.

No pytest-asyncio in the toolchain — each test drives its own event loop
with ``asyncio.run``.
"""

import asyncio

from repro.runtime.errors import WorkerCrashed
from repro.runtime.evaluate import EvaluationRequest, EvaluationRuntime, _simulate_job
from repro.runtime.pool import PoolConfig, RetryPolicy
from repro.service.admission import AdmissionConfig
from repro.service.breaker import BreakerConfig, CircuitBreaker
from repro.service.protocol import TERMINAL_STATUSES, JobStatus
from repro.service.scheduler import JobRecord, JobScheduler, SchedulerConfig
from repro.sim.params import MachineConfig
from repro.workloads.generators import working_set_addresses
from repro.workloads.trace import Trace


def _trace(n=200, seed=7):
    return Trace.from_memory_addresses(
        working_set_addresses(n, footprint_bytes=32 * 1024, seed=seed),
        compute_per_access=1, name="sched", seed=seed,
    )


def _record(job_id, trace, *, client="c1", seed=0):
    config = MachineConfig()
    request = EvaluationRequest(config=config, trace=trace, seed=seed)
    return JobRecord(job_id=job_id, client=client, request=request)


def _crash_below_seed_3(config, trace, seed, warm, faults, _attempt=1):
    """Job body raising an infrastructure failure for seeds 0..2."""
    if seed < 3:
        raise WorkerCrashed(f"synthetic crash for seed {seed}")
    return _simulate_job(config, trace, seed, warm, faults, _attempt)


def _inline_runtime(**kwargs):
    return EvaluationRuntime(
        pool=PoolConfig(max_workers=0, retry=RetryPolicy(max_retries=0)),
        **kwargs,
    )


def _scheduler_config(**kwargs):
    defaults = dict(
        max_batch=2,
        idle_poll_s=0.01,
        admission=AdmissionConfig(max_queued_total=16, max_queued_per_client=16),
        breaker=BreakerConfig(failure_threshold=3, reset_timeout_s=0.05),
    )
    defaults.update(kwargs)
    return SchedulerConfig(**defaults)


async def _wait_all(scheduler, job_ids, timeout_s=30.0):
    for job_id in job_ids:
        record = await scheduler.wait_done(job_id, timeout_s)
        assert record is not None and record.status in TERMINAL_STATUSES, (
            job_id, None if record is None else record.status
        )


class TestTerminalStatuses:
    def test_every_submitted_job_terminates(self):
        async def main():
            trace = _trace()
            scheduler = JobScheduler(_inline_runtime(), _scheduler_config())
            scheduler.start()
            ids = []
            for i in range(5):
                record = _record(f"job-{i}", trace, seed=10 + i)
                status, retry = scheduler.submit(record)
                assert status == JobStatus.QUEUED and retry is None
                ids.append(record.job_id)
            await _wait_all(scheduler, ids)
            assert all(
                scheduler.status(j).status == JobStatus.DONE for j in ids
            )
            assert scheduler.status("job-0").stats_dict is not None
            await scheduler.drain()

        asyncio.run(main())

    def test_resubmit_same_id_is_idempotent(self):
        async def main():
            trace = _trace()
            scheduler = JobScheduler(_inline_runtime(), _scheduler_config())
            scheduler.start()
            record = _record("dup", trace, seed=10)
            assert scheduler.submit(record)[0] == JobStatus.QUEUED
            await _wait_all(scheduler, ["dup"])
            # Resubmitting after completion reports the terminal status and
            # runs nothing new.
            simulations = scheduler.runtime.counters.simulations
            status, _ = scheduler.submit(_record("dup", trace, seed=10))
            assert status == JobStatus.DONE
            await asyncio.sleep(0.05)
            assert scheduler.runtime.counters.simulations == simulations
            await scheduler.drain()

        asyncio.run(main())

    def test_identical_design_points_share_one_simulation(self):
        async def main():
            trace = _trace()
            scheduler = JobScheduler(_inline_runtime(), _scheduler_config())
            scheduler.start()
            a, b = _record("a", trace, seed=10), _record("b", trace, seed=10,
                                                         client="c2")
            scheduler.submit(a)
            scheduler.submit(b)
            await _wait_all(scheduler, ["a", "b"])
            assert a.status == b.status == JobStatus.DONE
            assert a.stats_dict == b.stats_dict
            await scheduler.drain()

        asyncio.run(main())


class TestBreakerIntegration:
    def test_consecutive_crashes_trip_then_probe_recovers(self):
        async def main():
            trace = _trace()
            runtime = _inline_runtime(job_fn=_crash_below_seed_3)
            scheduler = JobScheduler(
                runtime,
                _scheduler_config(
                    max_batch=1,
                    breaker=BreakerConfig(failure_threshold=3,
                                          reset_timeout_s=0.05),
                ),
            )
            scheduler.start()
            for i in range(3):  # seeds 0..2 crash
                scheduler.submit(_record(f"bad-{i}", trace, seed=i))
            await _wait_all(scheduler, [f"bad-{i}" for i in range(3)])
            assert scheduler.breaker.state == CircuitBreaker.OPEN
            assert scheduler.breaker.trips == 1
            for i in range(3):
                record = scheduler.status(f"bad-{i}")
                assert record.status == JobStatus.FAILED
                assert record.error_kind == "WorkerCrashed"
                assert record.retryable is True
            # A good job queued while open must still run once the breaker
            # half-opens; its success closes the breaker.
            good = _record("good", trace, seed=10)
            assert scheduler.submit(good)[0] == JobStatus.QUEUED
            await _wait_all(scheduler, ["good"])
            assert good.status == JobStatus.DONE
            assert scheduler.breaker.state == CircuitBreaker.CLOSED
            await scheduler.drain()

        asyncio.run(main())

    def test_job_fault_failures_do_not_trip(self):
        async def main():
            trace = _trace()
            # ConfigError-style failures: submit requests whose evaluation
            # raises a non-infrastructure error via a poisoned config.
            runtime = _inline_runtime(job_fn=_raise_measurement)
            scheduler = JobScheduler(
                runtime, _scheduler_config(max_batch=1)
            )
            scheduler.start()
            for i in range(4):
                scheduler.submit(_record(f"bad-{i}", trace, seed=i))
            await _wait_all(scheduler, [f"bad-{i}" for i in range(4)])
            assert scheduler.breaker.state == CircuitBreaker.CLOSED
            assert scheduler.breaker.trips == 0
            await scheduler.drain()

        asyncio.run(main())


def _raise_measurement(config, trace, seed, warm, faults, _attempt=1):
    from repro.runtime.errors import MeasurementError

    raise MeasurementError("synthetic unusable measurement")


def _slow_simulate(config, trace, seed, warm, faults, _attempt=1):
    import time

    time.sleep(0.25)
    return _simulate_job(config, trace, seed, warm, faults, _attempt)


class TestDrain:
    def test_drain_finishes_inflight_and_cancels_queued(self):
        async def main():
            trace = _trace()
            runtime = _inline_runtime(
                job_fn=_slow_simulate, journal=None
            )
            scheduler = JobScheduler(
                runtime, _scheduler_config(max_batch=1)
            )
            scheduler.start()
            ids = []
            for i in range(4):
                record = _record(f"job-{i}", trace, seed=10 + i)
                scheduler.submit(record)
                ids.append(record.job_id)
            await asyncio.sleep(0.1)  # let the first batch enter the pool
            await scheduler.drain(timeout_s=30.0)
            statuses = [scheduler.status(j).status for j in ids]
            # Everything is terminal; at least one ran to completion and at
            # least one was explicitly cancelled (not silently dropped).
            assert all(s in TERMINAL_STATUSES for s in statuses)
            assert JobStatus.DONE in statuses
            assert JobStatus.CANCELLED in statuses
            cancelled = [
                scheduler.status(j) for j in ids
                if scheduler.status(j).status == JobStatus.CANCELLED
            ]
            assert all(r.retryable for r in cancelled)
            # Post-drain submissions are refused.
            status, _ = scheduler.submit(_record("late", trace, seed=99))
            assert status == JobStatus.REJECTED

        asyncio.run(main())
