"""R2 — the evaluation service's degradation contract under chaos.

The service layer (docs/ROBUSTNESS.md, "Service layer") promises that
faults degrade *loudly and boundedly*: every admitted job reaches a
terminal status, completed results are bit-identical to direct
``sim.engine`` runs, overload and failure answer with explicit statuses
rather than silence, and a drained server's journal replays finished
work on restart.  This bench drives a deterministic fault x load matrix
— seeded worker crashes, worker stalls, torn evalcache shards, journal
tail truncation, client disconnects — through a real localhost server
and asserts that contract cell by cell.

``REPRO_SERVICE_SMOKE=1`` reduces the matrix to two fault classes for
the CI resilience-smoke job.
"""

import asyncio
import itertools
import os
import time
from dataclasses import replace

from repro.runtime.evaluate import EvaluationRequest, EvaluationRuntime
from repro.runtime.journal import CheckpointJournal
from repro.runtime.pool import PoolConfig, RetryPolicy
from repro.service import (
    AdmissionConfig,
    ChaosConfig,
    EvaluationServer,
    JobStatus,
    SchedulerConfig,
    ServerConfig,
    ServiceClient,
    StoreChaos,
    make_chaos_job_fn,
    worker_fault,
)
from repro.sim.params import table1_config
from repro.workloads.spec import get_benchmark

BENCH_ACCESSES = 6_000
SEED = 7
#: Two seeds per Table I label: 8 jobs per matrix cell.
POINTS = [(label, seed) for label in "ABCD" for seed in (0, 1)]
#: Per-job terminal-latency budget — the no-deadlock bound.  Generous on
#: purpose: it gates "finished promptly" vs "wedged", not throughput.
LATENCY_BUDGET_S = 60.0
#: The full fault matrix.  Rates are the service's default chaos levels,
#: and each cell injects the same damage every run.  Worker-side draws key
#: on each job's content, trace digest included, so the worker_crash and
#: worker_stall seeds are not pinned: :func:`_damaging_seed` derives them
#: from the trace, at whatever length the bench runs.
CELLS = [
    ("baseline", ChaosConfig(seed=1)),
    ("worker_crash", ChaosConfig(crash_rate=0.2)),
    ("worker_stall", ChaosConfig(stall_rate=0.2, stall_s=1.5)),
    # Store damage draws once per dispatch round and a short run has few
    # rounds (the first sees empty stores), so these cells run the injector
    # at full rate: every round with substrate to damage tears something.
    ("cache_corrupt", ChaosConfig(cache_corrupt_rate=1.0, seed=5)),
    ("journal_truncate", ChaosConfig(journal_truncate_rate=1.0, seed=7)),
    ("client_disconnect", ChaosConfig(disconnect_rate=1.0, seed=9)),
]
SMOKE_CELLS = ("baseline", "worker_crash")


def _damaging_seed(chaos, trace):
    """The first seed at which *chaos* crashes (or stalls) the first
    attempt of at least one job on *trace* — the damage its cell asserts."""
    fault = "crash" if chaos.crash_rate > 0 else "stall"
    digest = trace.content_digest()
    return next(
        seed for seed in itertools.count(1)
        if any(worker_fault(replace(chaos, seed=seed), digest, table1_config(label),
                            job_seed, True, 1) == fault
               for label, job_seed in POINTS)
    )


def _active_cells(trace):
    cells = CELLS
    if os.environ.get("REPRO_SERVICE_SMOKE"):
        cells = [cell for cell in CELLS if cell[0] in SMOKE_CELLS]
    return [
        (name, replace(chaos, seed=_damaging_seed(chaos, trace))
         if chaos.worker_rate > 0 else chaos)
        for name, chaos in cells
    ]


def _job_id(cell, label, seed):
    return f"{cell}:{label}:{seed}"


def _cell_runtime(name, chaos, tmp_path):
    # The stall cell needs the pool deadline below the stall duration so a
    # stalled worker times out and the job retries instead of serving the
    # full stall.
    stalls = chaos.stall_rate > 0
    return EvaluationRuntime(
        pool=PoolConfig(
            max_workers=2,
            timeout_s=0.5 if stalls else 120.0,
            retry=RetryPolicy(max_retries=4, backoff_base=0.01),
        ),
        journal=tmp_path / f"{name}.jsonl",
        cache=tmp_path / f"{name}.cache",
        job_fn=make_chaos_job_fn(chaos) if chaos.worker_rate > 0 else None,
    )


async def _run_cell(name, chaos, trace, tmp_path):
    runtime = _cell_runtime(name, chaos, tmp_path)
    store_chaos = StoreChaos(chaos, cache=runtime.cache, journal=runtime.journal)
    server = EvaluationServer(
        runtime,
        config=ServerConfig(scheduler=SchedulerConfig(
            max_batch=4, idle_poll_s=0.01,
            admission=AdmissionConfig(max_queued_total=32,
                                      max_queued_per_client=32),
        )),
        store_chaos=store_chaos,
    )
    latencies, statuses, stats_by_job = {}, {}, {}
    async with server:
        loop = asyncio.get_running_loop()
        client = ServiceClient("127.0.0.1", server.port,
                               client_id=f"bench-{name}",
                               timeout_s=LATENCY_BUDGET_S)
        await client.connect()
        digest = await client.register_trace(trace)
        submitted_at = {}
        for label, seed in POINTS:
            job_id = _job_id(name, label, seed)
            submitted_at[job_id] = loop.time()
            reply = await client.submit_with_retry(
                job_id, trace_digest=digest, config={"label": label},
                seed=seed,
            )
            assert reply.get("ok"), (name, job_id, reply)
        if chaos.disconnect_rate > 0:
            # The disconnect cell: the submitting client vanishes without a
            # goodbye (transport abort = RST, the chaos matrix's client
            # death) and an heir collects every result.
            client._writer.transport.abort()
            client._writer = client._reader = None
            client = ServiceClient("127.0.0.1", server.port,
                                   client_id=f"bench-{name}-heir",
                                   timeout_s=LATENCY_BUDGET_S)
            await client.connect()
        for label, seed in POINTS:
            job_id = _job_id(name, label, seed)
            reply = await client.wait(job_id, timeout_s=LATENCY_BUDGET_S)
            latencies[job_id] = loop.time() - submitted_at[job_id]
            statuses[job_id] = reply["status"]
            if reply["status"] == JobStatus.DONE:
                stats_by_job[job_id] = reply["stats"]
        await client.close()
    return {
        "name": name,
        "chaos": chaos,
        "runtime": runtime,
        "store_chaos": store_chaos,
        "latencies": latencies,
        "statuses": statuses,
        "stats": stats_by_job,
    }


def _check_resume(cell, trace, direct):
    """A restarted runtime over the cell's journal replays finished work."""
    runtime = cell["runtime"]
    reloaded = CheckpointJournal(runtime.journal.path)
    resumed = EvaluationRuntime(journal=reloaded)
    requests, points = [], []
    for (label, seed) in POINTS:
        if cell["statuses"][_job_id(cell["name"], label, seed)] != JobStatus.DONE:
            continue
        config = table1_config(label)
        requests.append(EvaluationRequest(config=config, trace=trace, seed=seed))
        points.append((label, seed))
    for outcome, point in zip(resumed.evaluate(requests), points):
        assert outcome.result().to_dict() == direct[point], (cell["name"], point)
    # Tail truncation may legally drop the final record (never more): the
    # resumed run recomputes at most one point per injected truncation.
    assert resumed.counters.simulations <= cell["store_chaos"].journal_truncations, (
        cell["name"], resumed.counters.simulations
    )
    assert reloaded.dropped_lines <= cell["store_chaos"].journal_truncations


def _check_cache_recovery(cell, trace, direct):
    """A fresh runtime over the torn cache quarantines and recomputes."""
    from repro.runtime.evalcache import EvaluationCache

    recovered = EvaluationRuntime(
        cache=EvaluationCache(cell["runtime"].cache.root)
    )
    outcomes = recovered.evaluate([
        EvaluationRequest(config=table1_config(label), trace=trace, seed=seed)
        for label, seed in POINTS
    ])
    assert recovered.cache.quarantined >= 1, cell["name"]
    # Exactly the torn shards recompute; intact ones are cache hits.
    assert recovered.counters.simulations == recovered.cache.quarantined
    for point, outcome in zip(POINTS, outcomes):
        assert outcome.result().to_dict() == direct[point], point


def _percentile(values, fraction):
    ordered = sorted(values)
    return ordered[int(fraction * (len(ordered) - 1))]


def run_matrix(trace, tmp_path):
    cells = [
        asyncio.run(_run_cell(name, chaos, trace, tmp_path))
        for name, chaos in _active_cells(trace)
    ]
    outcomes = EvaluationRuntime().evaluate([
        EvaluationRequest(config=table1_config(label), trace=trace, seed=seed)
        for label, seed in POINTS
    ])
    direct = {
        point: outcome.result().to_dict()
        for point, outcome in zip(POINTS, outcomes)
    }
    return cells, direct


def test_service_resilience_matrix(benchmark, artifact, tmp_path):
    trace = get_benchmark("410.bwaves").trace(BENCH_ACCESSES, seed=SEED)
    started = time.perf_counter()
    cells, direct = benchmark.pedantic(
        run_matrix, args=(trace, tmp_path), rounds=1, iterations=1
    )
    elapsed = time.perf_counter() - started

    terminal = {JobStatus.DONE, JobStatus.FAILED, JobStatus.CANCELLED}
    done = total = 0
    for cell in cells:
        name = cell["name"]
        # No silent drops: every submitted job answered with a terminal
        # status inside the latency budget (the no-deadlock bound).
        assert len(cell["statuses"]) == len(POINTS), name
        assert all(s in terminal for s in cell["statuses"].values()), name
        assert _percentile(cell["latencies"].values(), 0.99) < LATENCY_BUDGET_S
        total += len(cell["statuses"])
        done += sum(1 for s in cell["statuses"].values() if s == JobStatus.DONE)
        # Correctness under chaos: whatever completed matches the direct
        # engine bit for bit.
        for (label, seed) in POINTS:
            job_id = _job_id(name, label, seed)
            if job_id in cell["stats"]:
                assert cell["stats"][job_id] == direct[(label, seed)], job_id
        _check_resume(cell, trace, direct)
        # The injectors actually fired — a chaos run that injects nothing
        # proves nothing.
        chaos, runtime = cell["chaos"], cell["runtime"]
        if chaos.crash_rate > 0:
            assert runtime.counters.worker_restarts >= 1, name
        if chaos.stall_rate > 0:
            assert runtime.counters.timeouts >= 1, name
        if chaos.cache_corrupt_rate > 0:
            assert cell["store_chaos"].cache_corruptions >= 1, name
            _check_cache_recovery(cell, trace, direct)
        if chaos.journal_truncate_rate > 0:
            assert cell["store_chaos"].journal_truncations >= 1, name

    # The acceptance bar: >= 99% of admitted jobs succeed at the default
    # fault rates (the remainder must still be explicit terminal failures).
    success = done / total
    assert success >= 0.99, f"success rate {success:.1%} below 99%"

    lines = [
        f"{len(cells)}-cell fault matrix, {len(POINTS)} jobs/cell, "
        f"{BENCH_ACCESSES} accesses (410.bwaves, seed {SEED}); "
        f"{elapsed:.1f}s wall",
        "",
        f"{'cell':>18} {'done':>5} {'fail':>5} {'p50 ms':>8} {'p99 ms':>8} "
        f"{'restarts':>8} {'damage':>7}",
    ]
    for cell in cells:
        statuses = list(cell["statuses"].values())
        n_done = sum(1 for s in statuses if s == JobStatus.DONE)
        counters = cell["runtime"].counters
        damage = (cell["store_chaos"].cache_corruptions
                  + cell["store_chaos"].journal_truncations)
        lines.append(
            f"{cell['name']:>18} {n_done:>5} {len(statuses) - n_done:>5} "
            f"{_percentile(cell['latencies'].values(), 0.5) * 1e3:>8.1f} "
            f"{_percentile(cell['latencies'].values(), 0.99) * 1e3:>8.1f} "
            f"{counters.worker_restarts:>8} {damage:>7}"
        )
    lines += [
        "",
        f"{done}/{total} jobs done ({success:.1%}); all completed results "
        "bit-identical to direct engine runs; every journal resumable",
    ]
    artifact("R2_service_resilience", "\n".join(lines))
