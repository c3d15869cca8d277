"""Observability integration: pool/runtime counters under fault injection.

The acceptance property: metrics recorded *inside* workers (fault
injections fire injector-side) ship back with results and merge into the
parent registry so the totals match the runtime's own bookkeeping exactly
— inline and across worker processes, which must agree with each other
because the fault RNG is seeded per (job, attempt).  Fault-free cases run
once per job split (``isolate``), which must report the same counters
and span attributes.
"""

import pytest

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime.evalcache import evaluation_cache_key
from repro.runtime.evaluate import EvaluationRequest, EvaluationRuntime
from repro.runtime.faults import FaultConfig
from repro.runtime.pool import PoolConfig, RetryPolicy
from repro.sim.params import table1_config
from repro.workloads.spec import get_benchmark

FAULT_RATE = 0.6
FAULT_SEED = 1
FAST_RETRY = RetryPolicy(max_retries=6, backoff_base=0.001, backoff_jitter=0.0)
ISOLATE = (False, True)


@pytest.fixture(scope="module")
def trace():
    return get_benchmark("401.bzip2").trace(1200, seed=3)


@pytest.fixture(autouse=True)
def metrics_on():
    obs_metrics.get_registry().reset()
    obs_metrics.set_metrics_enabled(True)
    yield
    obs_metrics.set_metrics_enabled(False)
    obs_metrics.get_registry().reset()
    obs_trace.configure_tracing(None)


def _requests(trace, labels="ABC"):
    return [EvaluationRequest(config=table1_config(label), trace=trace)
            for label in labels]


def _faulty_runtime(workers=0):
    return EvaluationRuntime(
        pool=PoolConfig(max_workers=workers, retry=FAST_RETRY),
        faults=FaultConfig.uniform(FAULT_RATE, seed=FAULT_SEED),
    )


def _counters():
    return obs_metrics.get_registry().snapshot()["counters"]


class TestInlineFaultCounters:
    def test_retry_counter_matches_runtime_exactly(self, trace):
        rt = _faulty_runtime()
        rt.evaluate(_requests(trace))
        counters = _counters()
        assert rt.counters.retries > 0, "fault rate must actually trigger retries"
        assert counters["pool.retries"] == rt.counters.retries
        # Every attempt that failed was retried (jobs all succeed eventually).
        assert counters["pool.failed_attempts"] == rt.counters.retries
        assert counters["pool.jobs_ok"] == len(_requests(trace))
        assert "pool.jobs_failed" not in counters

    def test_fault_kind_counters_sum_to_total(self, trace):
        rt = _faulty_runtime()
        rt.evaluate(_requests(trace))
        counters = _counters()
        total = counters["runtime.faults_injected"]
        by_kind = sum(
            v for k, v in counters.items() if k.startswith("runtime.faults.")
        )
        assert total > 0
        assert by_kind == total
        # Each failed attempt was caused by at least one injected fault.
        assert total >= counters["pool.failed_attempts"]

    def test_request_accounting(self, trace, tmp_path):
        reqs = _requests(trace)
        n = len(reqs)
        # Retried attempts are not simulations: each request counts once.
        rt = _faulty_runtime()
        rt.evaluate(reqs)
        counters = _counters()
        assert rt.counters.retries > 0
        assert counters["runtime.requests"] == n
        assert counters["runtime.simulations"] == rt.counters.simulations == n
        assert counters["runtime.journal_hits"] == 0
        for isolate in ISOLATE:
            obs_metrics.get_registry().reset()
            path = tmp_path / f"spans-{isolate}.jsonl"
            obs_trace.configure_tracing(path)
            journal, cache = tmp_path / f"j-{isolate}.jsonl", tmp_path / f"c-{isolate}"
            rt = EvaluationRuntime(journal=journal, cache=cache)
            rt.evaluate(reqs, isolate=isolate)  # fills journal and cache
            rt.evaluate(reqs, isolate=isolate)  # journal hits
            recall = EvaluationRuntime(cache=cache)
            recall.evaluate(reqs + reqs[:1], isolate=isolate)  # cache hits
            obs_trace.configure_tracing(None)
            counters = _counters()
            assert counters["runtime.requests"] == 3 * n + 1
            assert counters["runtime.simulations"] == rt.counters.simulations == n
            assert counters["runtime.journal_hits"] == rt.counters.journal_hits == n
            assert counters["runtime.cache_hits"] == recall.counters.cache_hits == n
            spans = [r["attrs"] for r in obs_trace.read_trace(path)
                     if r["name"] == "runtime.evaluate_many"]
            assert [
                (s["requests"], s["simulated"], s["journal_hits"], s["cache_hits"])
                for s in spans
            ] == [(n, n, 0, 0), (n, 0, n, 0), (n + 1, 0, 0, n)]


class TestWorkerSnapshotMerge:
    def test_worker_counters_match_inline_exactly(self, trace):
        """Fault RNG is seeded per (job, attempt): worker-shipped snapshots
        must reproduce the inline totals bit-for-bit."""
        reqs = _requests(trace)
        inline_rt = _faulty_runtime(workers=0)
        inline_rt.evaluate(reqs)
        inline = _counters()

        obs_metrics.get_registry().reset()
        worker_rt = _faulty_runtime(workers=2)
        worker_rt.evaluate(reqs)
        merged = _counters()

        assert worker_rt.counters.retries == inline_rt.counters.retries
        for key in (
            "pool.retries", "pool.failed_attempts", "pool.jobs_ok",
            "runtime.faults_injected", "runtime.requests",
            "runtime.simulations",
        ):
            assert merged.get(key) == inline.get(key), key
        kinds = {k for k in (*merged, *inline) if k.startswith("runtime.faults.")}
        for key in kinds:
            assert merged.get(key) == inline.get(key), key

    def test_fault_free_pool_ships_sim_counters(self, trace):
        reqs = _requests(trace, "AB")
        for isolate in ISOLATE:
            obs_metrics.get_registry().reset()
            rt = EvaluationRuntime(pool=PoolConfig(max_workers=2, retry=FAST_RETRY))
            rt.evaluate(reqs, isolate=isolate)
            counters = _counters()
            # Simulation metrics are recorded worker-side; their arrival
            # proves the snapshot hand-off (engine runs in the children only).
            # A and B differ in their perfect projections, and each worker
            # starts with an empty memo: one perfect pass and one real run
            # per request, whichever split.
            assert counters["sim.runs"] == 2 * len(reqs)
            assert counters["sim.l1.accesses"] > 0
            assert counters["pool.jobs_ok"] == (len(reqs) if isolate else 1)
            assert counters["runtime.simulations"] == len(reqs)
            assert "pool.retries" not in counters

    def test_worker_spans_interleave_into_one_trace(self, trace, tmp_path):
        reqs = _requests(trace, "AB")
        for isolate in ISOLATE:
            path = tmp_path / f"pool-{isolate}.jsonl"
            obs_trace.configure_tracing(path)
            rt = EvaluationRuntime(pool=PoolConfig(max_workers=2, retry=FAST_RETRY))
            rt.evaluate(reqs, isolate=isolate)
            obs_trace.configure_tracing(None)
            records = list(obs_trace.read_trace(path))
            attempts = [r for r in records if r["name"] == "pool.attempt"]
            jobs = [r for r in records if r["name"] == "pool.job"]
            keys = {r["attrs"]["key"] for r in attempts}
            if isolate:
                assert keys == {evaluation_cache_key(r.trace, r.config, r.seed, r.warm)
                                for r in reqs}
            else:
                assert len(keys) == 1 and keys.pop().startswith("batch|")
            # No faults: one attempt per job.
            assert len(attempts) == len(jobs) == (len(reqs) if isolate else 1)
            parent_pid = next(
                r["pid"] for r in records if r["name"] == "runtime.evaluate_many"
            )
            # Attempts ran in forked children, supervision events in the parent.
            assert all(r["pid"] != parent_pid for r in attempts)
            assert all(r["pid"] == parent_pid for r in jobs)
