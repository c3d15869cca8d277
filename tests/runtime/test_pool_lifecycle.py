"""Worker lifetime: lazy start, reuse across runs, shutdown, concurrency.

Supervised workers start on the first ``run()`` and live as long as the
pool (and so as long as the ``EvaluationRuntime`` that owns it).  These
tests pin down what that must not change — crash and timeout replacement,
metrics hand-off — and what it adds: per-worker state that lives exactly as
long as its process, and no worker left alive after ``close()``, after the
service stops, or after an un-closed runtime is garbage-collected.
"""

import asyncio
import gc
import os
import sys
import threading
import time

import pytest

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime.evaluate import EvaluationRequest, EvaluationRuntime
from repro.runtime.pool import EvaluationPool, Job, PoolConfig, RetryPolicy
from repro.service.client import ServiceClient
from repro.service.scheduler import SchedulerConfig
from repro.service.server import EvaluationServer, ServerConfig
from repro.sim.params import table1_config
from repro.workloads.generators import working_set_addresses
from repro.workloads.trace import Trace

FAST_RETRY = RetryPolicy(max_retries=2, backoff_base=0.001, backoff_jitter=0.0)


def _trace(n=300, seed=4):
    return Trace.from_memory_addresses(
        working_set_addresses(n, footprint_bytes=32 * 1024, seed=seed),
        compute_per_access=1, name="life", seed=seed,
    )


def _pid():
    return os.getpid()


def _echo(*values):
    return values


def _tally(_state):
    """Append to the worker's state and report (pid, how many so far)."""
    _state.append(1)
    return os.getpid(), len(_state)


def _wait_for(gate, started=None):
    """Block until the file *gate* exists (touching *started* first)."""
    if started is not None:
        open(started, "w").close()
    while not os.path.exists(gate):
        time.sleep(0.01)
    return os.getpid()


def _procs(pool):
    return [w.proc for w in pool._workers]


def _eventually(predicate, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


@pytest.fixture
def metrics():
    obs_metrics.get_registry().reset()
    yield lambda: obs_metrics.get_registry().snapshot()["counters"]
    obs_metrics.set_metrics_enabled(False)
    obs_metrics.get_registry().reset()
    obs_trace.configure_tracing(None)


class TestLifetime:
    def test_workers_start_lazily_and_serve_every_later_run(self):
        with EvaluationPool(PoolConfig(max_workers=1)) as pool:
            assert pool._workers == [] and pool.worker_starts == 0
            pids = [pool.run([Job(f"j{i}", _pid)])[f"j{i}"].value for i in range(3)]
            assert len(set(pids)) == 1 and pids[0] != os.getpid()
            assert pool.worker_starts == 1 and pool.worker_restarts == 0

    def test_pool_grows_to_the_widest_call_and_keeps_its_workers(self):
        with EvaluationPool(PoolConfig(max_workers=2)) as pool:
            pool.run([Job("one", _pid)])
            assert len(pool._workers) == 1
            pool.run([Job(f"j{i}", _pid) for i in range(4)])
            pool.run([Job("again", _pid)])
            assert len(pool._workers) == 2 and pool.worker_starts == 2

    def test_close_stops_workers_and_a_later_run_restarts_them(self):
        pool = EvaluationPool(PoolConfig(max_workers=2))
        pool.run([Job(f"j{i}", _pid) for i in range(2)])
        procs = _procs(pool)
        pool.close()
        pool.close()  # idempotent
        assert procs and not any(p.is_alive() for p in procs)
        assert pool.run([Job("later", _pid)])["later"].ok
        assert pool.worker_starts == 3
        pool.close()

    def test_runtime_close_and_context_manager_stop_workers(self):
        reqs = [EvaluationRequest(config=table1_config(c), trace=_trace()) for c in "AB"]
        rt = EvaluationRuntime(pool=PoolConfig(max_workers=2))
        assert all(o.ok for o in rt.evaluate(reqs, isolate=True))
        procs = _procs(rt._pool)
        rt.close()
        assert len(procs) == 2 and not any(p.is_alive() for p in procs)
        with EvaluationRuntime(pool=PoolConfig(max_workers=1)) as rt:
            rt.evaluate(reqs[:1])
            procs = _procs(rt._pool)
        assert procs and not any(p.is_alive() for p in procs)

    def test_garbage_collected_runtime_stops_its_workers(self):
        rt = EvaluationRuntime(pool=PoolConfig(max_workers=2))
        rt.evaluate([EvaluationRequest(config=table1_config(c), trace=_trace())
                     for c in "AB"], isolate=True)
        procs = _procs(rt._pool)
        assert len(procs) == 2 and all(p.is_alive() for p in procs)
        del rt
        gc.collect()
        assert not any(p.is_alive() for p in procs)

    def test_server_stop_stops_the_runtime_workers(self):
        trace = _trace()
        runtime = EvaluationRuntime(pool=PoolConfig(max_workers=1, retry=FAST_RETRY))
        server = EvaluationServer(runtime, config=ServerConfig(
            scheduler=SchedulerConfig(idle_poll_s=0.01)))

        async def main():
            async with server:
                async with ServiceClient("127.0.0.1", server.port, client_id="c") as client:
                    digest = await client.register_trace(trace)
                    await client.submit_with_retry("j", trace_digest=digest,
                                                   config={"label": "A"})
                    reply = await client.wait("j", timeout_s=60)
                    assert reply["status"] == "done"
                    return _procs(runtime._pool)

        procs = asyncio.run(main())
        assert procs and not any(p.is_alive() for p in procs)


class TestWorkerState:
    def test_state_lives_exactly_as_long_as_its_worker(self):
        with EvaluationPool(PoolConfig(max_workers=1, retry=FAST_RETRY),
                            worker_state=list) as pool:
            tallies = [pool.run([Job(f"t{i}", _tally, pass_state=True)])[f"t{i}"].value
                       for i in range(3)]
            assert [n for _, n in tallies] == [1, 2, 3]
            # A crash replaces the worker; the replacement starts empty.
            crashed = pool.run([Job("crash", os._exit, (3,))], on_error="keep")
            assert not crashed["crash"].ok and pool.worker_restarts >= 1
            pid, n = pool.run([Job("after", _tally, pass_state=True)])["after"].value
            assert n == 1 and pid != tallies[0][0]

    def test_inline_state_lives_as_long_as_the_pool(self):
        pool = EvaluationPool(worker_state=list)
        counts = [pool.run([Job(f"t{i}", _tally, pass_state=True)])[f"t{i}"].value[1]
                  for i in range(2)]
        assert counts == [1, 2]
        fresh = EvaluationPool(worker_state=list)
        assert fresh.run([Job("t", _tally, pass_state=True)])["t"].value[1] == 1

    def test_idle_worker_death_is_replaced_without_charging_a_job(self):
        with EvaluationPool(PoolConfig(max_workers=1, retry=FAST_RETRY)) as pool:
            first = pool.run([Job("a", _pid)])["a"].value
            pool._workers[0].proc.kill()
            pool._workers[0].proc.join(timeout=10)
            result = pool.run([Job("b", _pid)])["b"]
            assert result.ok and result.attempts == 1 and result.crashes == 0
            assert result.value != first and pool.worker_restarts == 1


class TestCounters:
    def test_worker_starts_are_counted_apart_from_restarts(self, metrics, tmp_path):
        path = tmp_path / "spans.jsonl"
        obs_metrics.set_metrics_enabled(True)
        obs_trace.configure_tracing(path)
        with EvaluationPool(PoolConfig(max_workers=2, retry=FAST_RETRY)) as pool:
            pool.run([Job(f"j{i}", _pid) for i in range(2)])
            pool.run([Job("crash", os._exit, (3,))], on_error="keep")
            pool.run([Job(f"k{i}", _pid) for i in range(2)])
        obs_trace.configure_tracing(None)
        counters = metrics()
        assert counters["pool.worker_starts"] == pool.worker_starts == 2
        assert pool.worker_restarts == FAST_RETRY.max_retries + 1
        starts = [r for r in obs_trace.read_trace(path) if r["name"] == "pool.worker_start"]
        assert len(starts) == 2

    def test_worker_started_before_metrics_were_enabled_ships_counters(self, metrics):
        trace = _trace()
        with EvaluationRuntime(pool=PoolConfig(max_workers=1)) as rt:
            rt.evaluate([EvaluationRequest(config=table1_config("A"), trace=trace)])
            obs_metrics.set_metrics_enabled(True)
            rt.evaluate([EvaluationRequest(config=table1_config("A"), trace=trace, seed=1),
                         EvaluationRequest(config=table1_config("B"), trace=trace, seed=1)],
                        isolate=True)
            # And a worker that saw metrics on follows them back off.
            obs_metrics.set_metrics_enabled(False)
            rt.evaluate([EvaluationRequest(config=table1_config("C"), trace=trace)])
        counters = metrics()
        assert rt._pool.worker_starts == 1
        # The worker's memo holds A's perfect pass from the first call, so
        # two real runs and one perfect pass (B's) ran under metrics.
        assert counters["sim.runs"] == 3
        assert counters["sim.perfect_memo.hits"] == 1
        assert counters["sim.perfect_memo.misses"] == 1
        assert counters["pool.jobs_ok"] == 2


class TestConcurrentCallers:
    def test_a_second_caller_gets_its_own_workers(self, tmp_path):
        gate, started = str(tmp_path / "gate"), str(tmp_path / "started")
        pool = EvaluationPool(PoolConfig(max_workers=1))
        blocked: dict = {}
        first = threading.Thread(target=lambda: blocked.update(
            pool.run([Job("blocked", _wait_for, (gate, started))])))
        first.start()
        try:
            assert _eventually(lambda: os.path.exists(started))
            owned = _procs(pool)
            # The blocked call owns the live worker; this one must not wait.
            result = pool.run([Job("quick", _pid)])["quick"]
            assert result.ok and result.value != owned[0].pid
            assert first.is_alive() and "blocked" not in blocked
        finally:
            open(gate, "w").close()
            first.join(timeout=30)
        assert not first.is_alive()
        assert blocked["blocked"].value == owned[0].pid
        assert _procs(pool) == owned and pool.worker_starts == 2
        pool.close()

    def test_close_during_a_run_stops_workers_when_it_returns(self, tmp_path):
        gate, started = str(tmp_path / "gate"), str(tmp_path / "started")
        pool = EvaluationPool(PoolConfig(max_workers=1))
        first = threading.Thread(
            target=lambda: pool.run([Job("blocked", _wait_for, (gate, started))]))
        first.start()
        assert _eventually(lambda: os.path.exists(started))
        procs = _procs(pool)
        pool.close()
        assert procs[0].is_alive()
        open(gate, "w").close()
        first.join(timeout=30)
        assert not first.is_alive()
        assert pool._workers == [] and not procs[0].is_alive()

    def test_overlapping_callers_each_get_their_own_results(self):
        """More callers than cores hammer one pool; a result read by the
        wrong caller, or a worker shared by two runs, breaks an equality."""
        pool = EvaluationPool(PoolConfig(max_workers=1), worker_state=list)
        outcomes: "dict[int, list]" = {}

        def caller(n):
            outcomes[n] = [
                pool.run([Job(f"{n}-{r}-{j}", _echo, (n, r, j)) for j in range(2)])
                for r in range(3)
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(n,)) for n in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for n in range(4):
            for r, results in enumerate(outcomes[n]):
                assert {k: v.value for k, v in results.items()} == {
                    f"{n}-{r}-{j}": (n, r, j) for j in range(2)}
        assert len(pool._workers) <= 1 and pool.worker_restarts == 0
        pool.close()
