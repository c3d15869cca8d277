"""The service batch deadline (``SchedulerConfig.batch_deadline_s``).

When a batch outlives the deadline the scheduler fails its jobs and moves
on, while the thread running the batch cannot be cancelled and keeps the
pool's live worker busy.  The next batch therefore calls
``runtime.evaluate`` while the first still runs on the same pool: the one
place where two runs overlap.  The job body here blocks on a gate file for
seed 0 only, so the first batch wedges and every later one does not.
"""

import asyncio
import functools
import os
import time

from repro.runtime.evaluate import EvaluationRequest, EvaluationRuntime, _simulate_job
from repro.runtime.pool import PoolConfig, RetryPolicy
from repro.service.admission import AdmissionConfig
from repro.service.protocol import JobStatus
from repro.service.scheduler import JobRecord, JobScheduler, SchedulerConfig
from repro.sim.params import MachineConfig
from repro.workloads.generators import working_set_addresses
from repro.workloads.trace import Trace

DEADLINE_S = 2.0


def _trace(n=200, seed=9):
    return Trace.from_memory_addresses(
        working_set_addresses(n, footprint_bytes=32 * 1024, seed=seed),
        compute_per_access=1, name="deadline", seed=seed,
    )


def _gated_job(gate, config, trace, seed, warm, faults, _attempt=1):
    """Job body that waits for the file *gate* before measuring seed 0."""
    while seed == 0 and not os.path.exists(gate):
        time.sleep(0.01)
    return _simulate_job(config, trace, seed, warm, faults, _attempt)


def _record(job_id, trace, seed):
    request = EvaluationRequest(config=MachineConfig(), trace=trace, seed=seed)
    return JobRecord(job_id=job_id, client="c1", request=request)


async def _wait_terminal(scheduler, job_id, timeout_s=30.0):
    record = await scheduler.wait_done(job_id, timeout_s)
    assert record is not None
    return record


def test_deadline_fails_the_batch_and_the_next_batches_complete(tmp_path):
    gate = tmp_path / "gate"
    trace = _trace()
    runtime = EvaluationRuntime(
        pool=PoolConfig(max_workers=1, retry=RetryPolicy(max_retries=0)),
        job_fn=functools.partial(_gated_job, str(gate)),
    )
    config = SchedulerConfig(
        max_batch=1, idle_poll_s=0.01, batch_deadline_s=DEADLINE_S,
        admission=AdmissionConfig(max_queued_total=8, max_queued_per_client=8),
    )

    async def main():
        scheduler = JobScheduler(runtime, config)
        scheduler.start()
        try:
            scheduler.submit(_record("wedged", trace, seed=0))
            wedged = await _wait_terminal(scheduler, "wedged")
            # The first batch's thread still holds the pool's worker.
            assert not gate.exists()
            scheduler.submit(_record("beside", trace, seed=1))
            beside = await _wait_terminal(scheduler, "beside")
            gate.touch()
            scheduler.submit(_record("after", trace, seed=0))
            after = await _wait_terminal(scheduler, "after")
        finally:
            await scheduler.drain(timeout_s=30.0)
        return scheduler, wedged, beside, after

    scheduler, wedged, beside, after = asyncio.run(main())
    runtime.close()
    assert wedged.status == JobStatus.FAILED
    assert wedged.error_kind == "EvaluationTimeout"
    assert wedged.retryable
    for record in (beside, after):
        assert record.status == JobStatus.DONE, record.error
        [direct] = EvaluationRuntime().evaluate([record.request])
        assert record.stats_dict == direct.result().to_dict()
    assert scheduler.batches == 3
    assert runtime._pool.worker_restarts == 0
    assert runtime._pool._workers == []
