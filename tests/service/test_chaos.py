"""Deterministic chaos injection: worker death, store damage, recovery."""

import asyncio

from repro.runtime.errors import WorkerCrashed
from repro.runtime.evalcache import EvaluationCache
from repro.runtime.evaluate import EvaluationRequest, EvaluationRuntime
from repro.runtime.journal import CheckpointJournal
from repro.runtime.pool import PoolConfig, RetryPolicy
from repro.service.chaos import (
    ChaosConfig,
    StoreChaos,
    chaos_simulate_job,
    make_chaos_job_fn,
    worker_fault,
)
from repro.sim.params import MachineConfig, table1_config
from repro.workloads.generators import working_set_addresses
from repro.workloads.trace import Trace


def _trace(n=200, seed=17):
    return Trace.from_memory_addresses(
        working_set_addresses(n, footprint_bytes=32 * 1024, seed=seed),
        compute_per_access=1, name="chaos", seed=seed,
    )


def _requests(trace, n):
    return [
        EvaluationRequest(config=MachineConfig(), trace=trace, seed=i)
        for i in range(n)
    ]


def _dicts(runtime, requests):
    return [outcome.result().to_dict() for outcome in runtime.evaluate(requests)]


def _crashing_seed(requests, crash_rate):
    """The first chaos seed whose first attempts crash at least one request.

    A chaos test that injects nothing proves nothing, so the seed is chosen
    by the damage it causes rather than pinned.
    """
    return next(
        seed for seed in range(1, 1000)
        if any(worker_fault(ChaosConfig(crash_rate=crash_rate, seed=seed),
                            r.trace.content_digest(), r.config, r.seed, r.warm, 1)
               == "crash"
               for r in requests)
    )


class TestWorkerChaos:
    def test_zero_rates_are_bit_identical_to_clean(self):
        trace = _trace()
        chaotic = EvaluationRuntime(
            pool=PoolConfig(max_workers=0),
            job_fn=make_chaos_job_fn(ChaosConfig(seed=1)),
        )
        clean = EvaluationRuntime(pool=PoolConfig(max_workers=0))
        reqs = _requests(trace, 2)
        assert _dicts(chaotic, reqs) == _dicts(clean, reqs)

    def test_draws_do_not_depend_on_the_engine_version(self, monkeypatch):
        # The evaluation-cache key embeds ENGINE_VERSION; a version bump
        # must not re-roll which jobs stall.
        import repro.service.chaos as chaos_module
        import repro.sim.engine as engine

        stalled = []
        monkeypatch.setattr(chaos_module.time, "sleep", stalled.append)
        monkeypatch.setattr(chaos_module, "_simulate_job", lambda *args: None)
        reqs = _requests(_trace(), 8)
        chaos = ChaosConfig(stall_rate=0.5, stall_s=0.25, seed=1)

        def fates(version):
            monkeypatch.setattr(engine, "ENGINE_VERSION", version)
            out = []
            for r in reqs:
                before = len(stalled)
                chaos_simulate_job(
                    r.config, r.trace.content_digest(), r.seed, r.warm, None,
                    chaos=chaos,
                )
                out.append(len(stalled) > before)
            return out

        first = fates(engine.ENGINE_VERSION)
        assert any(first) and not all(first)
        assert fates(engine.ENGINE_VERSION + 1) == first

    def test_certain_crash_exhausts_retries_with_taxonomy(self):
        trace = _trace(120)
        runtime = EvaluationRuntime(
            pool=PoolConfig(max_workers=1, timeout_s=60,
                            retry=RetryPolicy(max_retries=1,
                                              backoff_base=0.01)),
            job_fn=make_chaos_job_fn(ChaosConfig(crash_rate=1.0, seed=3)),
        )
        (outcome,) = runtime.evaluate(_requests(trace, 1))
        assert not outcome.ok
        assert isinstance(outcome.error, WorkerCrashed)
        assert outcome.crashes == 2  # initial attempt + one retry
        assert runtime.counters.worker_restarts >= 2

    def test_partial_crash_rate_recovers_bit_identical(self):
        trace = _trace(150)
        reqs = _requests(trace, 4)
        chaos = ChaosConfig(crash_rate=0.4, seed=_crashing_seed(reqs, 0.4))
        chaotic = EvaluationRuntime(
            pool=PoolConfig(max_workers=2, timeout_s=60,
                            retry=RetryPolicy(max_retries=4,
                                              backoff_base=0.01)),
            job_fn=make_chaos_job_fn(chaos),
        )
        survived = _dicts(chaotic, reqs)
        # The seeded draws must actually kill at least one worker — a chaos
        # test that injects nothing proves nothing.
        assert chaotic.counters.worker_restarts >= 1
        clean = EvaluationRuntime(pool=PoolConfig(max_workers=0))
        assert survived == _dicts(clean, reqs)


class TestStoreChaos:
    def test_cache_corruption_quarantines_and_recomputes(self, tmp_path):
        trace = _trace()
        cache = EvaluationCache(tmp_path / "c")
        runtime = EvaluationRuntime(pool=PoolConfig(max_workers=0), cache=cache)
        reqs = _requests(trace, 2)
        baseline = _dicts(runtime, reqs)
        chaos = StoreChaos(
            ChaosConfig(cache_corrupt_rate=1.0, seed=5), cache=cache
        )
        chaos.maybe_damage()
        assert chaos.cache_corruptions == 1
        # A fresh runtime over the damaged cache must quarantine the torn
        # shard, recompute it, and agree with the baseline exactly.
        recovered_rt = EvaluationRuntime(
            pool=PoolConfig(max_workers=0), cache=EvaluationCache(tmp_path / "c")
        )
        recovered = _dicts(recovered_rt, reqs)
        assert recovered_rt.cache.quarantined == 1
        assert recovered_rt.counters.simulations == 1
        assert recovered_rt.counters.cache_hits == 1
        assert recovered == baseline

    def test_journal_truncation_drops_only_the_tail(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j.jsonl")
        for i in range(3):
            journal.put(f"k{i}", {"value": i})
        chaos = StoreChaos(
            ChaosConfig(journal_truncate_rate=1.0, seed=7), journal=journal
        )
        chaos.maybe_damage()
        assert chaos.journal_truncations == 1
        reloaded = CheckpointJournal(journal.path)
        assert reloaded.dropped_lines <= 1
        assert set(reloaded.keys()) >= {"k0", "k1"}
        # The damaged journal stays appendable (tail was re-synced).
        journal.put("k3", {"value": 3})
        again = CheckpointJournal(journal.path)
        assert again.get("k3") == {"value": 3}
        assert again.get("k0") == {"value": 0}

    def test_store_chaos_is_seed_deterministic(self, tmp_path):
        def run(seed, tag):
            journal = CheckpointJournal(tmp_path / f"j-{tag}-{seed}.jsonl")
            for i in range(4):
                journal.put(f"k{i}", {"value": i})
            chaos = StoreChaos(
                ChaosConfig(journal_truncate_rate=0.5, seed=seed),
                journal=journal,
            )
            for _ in range(6):
                chaos.maybe_damage()
            return chaos.journal_truncations, journal.path.read_bytes()

        first = run(11, "a")
        second = run(11, "b")
        assert first[0] == second[0]
        assert first[1] == second[1]


class TestServiceUnderWorkerChaos:
    def test_service_survives_crashing_workers_end_to_end(self):
        from repro.service.client import ServiceClient
        from repro.service.protocol import JobStatus
        from repro.service.scheduler import SchedulerConfig
        from repro.service.server import EvaluationServer, ServerConfig

        async def main():
            trace = _trace(150)
            points = [
                EvaluationRequest(config=table1_config("A"), trace=trace, seed=i)
                for i in range(4)
            ]
            chaos = ChaosConfig(crash_rate=0.3, seed=_crashing_seed(points, 0.3))
            runtime = EvaluationRuntime(
                pool=PoolConfig(max_workers=2, timeout_s=60,
                                retry=RetryPolicy(max_retries=4,
                                                  backoff_base=0.01)),
                job_fn=make_chaos_job_fn(chaos),
            )
            server = EvaluationServer(
                runtime,
                config=ServerConfig(
                    scheduler=SchedulerConfig(max_batch=4, idle_poll_s=0.01)
                ),
            )
            async with server:
                async with ServiceClient(
                    "127.0.0.1", server.port, client_id="c1",
                    timeout_s=120.0,
                ) as client:
                    digest = await client.register_trace(trace)
                    for i in range(4):
                        await client.submit_with_retry(
                            f"j-{i}", trace_digest=digest,
                            config={"label": "A"}, seed=i,
                        )
                    replies = [
                        await client.wait(f"j-{i}", timeout_s=120)
                        for i in range(4)
                    ]
            assert all(r["status"] == JobStatus.DONE for r in replies)
            assert runtime.counters.worker_restarts >= 1
            # Chaos survivors match a clean direct run bit for bit.
            for point, reply in zip(points, replies):
                assert [reply["stats"]] == _dicts(EvaluationRuntime(), [point])

        asyncio.run(main())
