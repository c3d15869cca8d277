"""Tests for the EvaluationRuntime façade (pool + journal + faults)."""

import json

import pytest

from repro.runtime.errors import ConfigError, MeasurementError
from repro.runtime.evaluate import EvaluationRequest, EvaluationRuntime, _simulate_job
from repro.runtime.faults import FaultConfig
from repro.runtime.journal import CheckpointJournal
from repro.runtime.pool import PoolConfig, RetryPolicy
from repro.sim.params import table1_config
from repro.sim.stats import HierarchyStats, simulate_and_measure
from repro.workloads.spec import get_benchmark


@pytest.fixture(scope="module")
def trace():
    return get_benchmark("401.bzip2").trace(1500, seed=3)


def _requests(trace, labels="AB"):
    return [
        EvaluationRequest(
            key=f"{label}|{table1_config(label).cache_key()}",
            config=table1_config(label), trace=trace,
        )
        for label in labels
    ]


class TestSerialization:
    def test_hierarchy_stats_round_trip(self, trace):
        _, stats = simulate_and_measure(table1_config("A"), trace, seed=0)
        clone = HierarchyStats.from_dict(json.loads(json.dumps(stats.to_dict())))
        assert clone == stats
        assert clone.lpmr1 == stats.lpmr1


class TestInlineEvaluate:
    def test_single_and_batch_agree(self, trace):
        rt = EvaluationRuntime()
        req = _requests(trace, "A")[0]
        single = rt.evaluate(req)
        batch = EvaluationRuntime().evaluate_many([req])[req.key]
        assert single.cpi == batch.cpi
        assert rt.counters.simulations == 1

    def test_matches_direct_call(self, trace):
        rt = EvaluationRuntime()
        req = _requests(trace, "A")[0]
        stats = rt.evaluate(req)
        _, direct = simulate_and_measure(req.config, trace, seed=0)
        assert stats == direct

    def test_duplicate_requests_deduplicated(self, trace):
        rt = EvaluationRuntime()
        req = _requests(trace, "A")[0]
        out = rt.evaluate_many([req, req])
        assert len(out) == 1 and rt.counters.simulations == 1


class TestJournaling:
    def test_resume_skips_completed_work(self, trace, tmp_path):
        path = tmp_path / "j.jsonl"
        first = EvaluationRuntime(journal=path)
        out1 = first.evaluate_many(_requests(trace))
        assert first.counters.simulations == 2

        second = EvaluationRuntime(journal=path)
        out2 = second.evaluate_many(_requests(trace))
        assert second.counters.simulations == 0
        assert second.counters.journal_hits == 2
        for key in out1:
            assert out2[key] == out1[key]

    def test_partial_journal_runs_only_missing(self, trace, tmp_path):
        path = tmp_path / "j.jsonl"
        EvaluationRuntime(journal=path).evaluate_many(_requests(trace, "A"))

        rt = EvaluationRuntime(journal=path)
        rt.evaluate_many(_requests(trace, "AB"))
        assert rt.counters.journal_hits == 1
        assert rt.counters.simulations == 1

    def test_checkpoints_during_batch_not_after(self, trace, tmp_path):
        # One successful job must reach the journal even when a later job in
        # the same batch exhausts its retries and fails the whole run.  The
        # injector draws per (job key, attempt), so scan for a fault seed
        # that spares the first key and dooms the second deterministically.
        from repro.runtime.errors import MeasurementError
        from repro.runtime.faults import FaultInjector

        def fires(cfg, key):
            try:
                FaultInjector(cfg, key, 1).maybe_fail()
                return False
            except MeasurementError:
                return True

        cfg = next(
            c for c in (FaultConfig(exception_rate=0.5, seed=s) for s in range(100))
            if not fires(c, "good") and fires(c, "doomed")
        )
        path = tmp_path / "j.jsonl"
        rt = EvaluationRuntime(
            pool=PoolConfig(retry=RetryPolicy(max_retries=0)),
            journal=path, faults=cfg,
        )
        with pytest.raises(MeasurementError):
            rt.evaluate_many([
                EvaluationRequest(key="good", config=table1_config("A"), trace=trace),
                EvaluationRequest(key="doomed", config=table1_config("B"), trace=trace),
            ])
        reloaded = CheckpointJournal(path)
        assert "good" in reloaded
        assert "doomed" not in reloaded

    def test_journal_accepts_existing_instance(self, trace, tmp_path):
        journal = CheckpointJournal(tmp_path / "j.jsonl")
        rt = EvaluationRuntime(journal=journal)
        rt.evaluate_many(_requests(trace, "A"))
        assert len(journal) == 1


class TestPooledEvaluate:
    def test_pooled_matches_inline_bit_for_bit(self, trace):
        inline = EvaluationRuntime().evaluate_many(_requests(trace))
        pooled = EvaluationRuntime(
            pool=PoolConfig(max_workers=2, timeout_s=120)
        ).evaluate_many(_requests(trace))
        assert pooled == inline


class TestBatchEvaluate:
    def test_matches_evaluate_many_bit_for_bit(self, trace):
        scalar = EvaluationRuntime().evaluate_many(_requests(trace, "ABC"))
        rt = EvaluationRuntime()
        batch = rt.evaluate_batch(_requests(trace, "ABC"))
        assert batch == scalar
        assert rt.counters.simulations == 3
        assert all(v == "simulated" for v in rt.last_sources.values())

    def test_groups_by_seed_and_warm(self, trace):
        # Mixed (seed, warm) groups dispatch as separate batch jobs but a
        # single call; every result must match its scalar counterpart.
        requests = [
            EvaluationRequest(
                key=f"{label}|s{seed}|w{warm}", config=table1_config(label),
                trace=trace, seed=seed, warm=warm,
            )
            for label in "AB" for seed, warm in [(0, True), (1, False)]
        ]
        out = EvaluationRuntime().evaluate_batch(requests)
        for req in requests:
            _, direct = simulate_and_measure(
                req.config, trace, seed=req.seed, warm=req.warm
            )
            assert out[req.key] == direct

    def test_journal_hits_skip_simulation(self, trace, tmp_path):
        path = tmp_path / "j.jsonl"
        EvaluationRuntime(journal=path).evaluate_batch(_requests(trace))

        rt = EvaluationRuntime(journal=path)
        rt.evaluate_batch(_requests(trace))
        assert rt.counters.simulations == 0
        assert rt.counters.journal_hits == 2
        assert all(v == "journal" for v in rt.last_sources.values())

    def test_cache_keys_shared_with_scalar_path(self, trace, tmp_path):
        # The batch kernel is bit-identical to the scalar engines, so both
        # paths share one persistent cache namespace: scalar fills, batch
        # recalls (and vice versa).
        cache = tmp_path / "cache"
        EvaluationRuntime(cache=cache).evaluate_many(_requests(trace))
        rt = EvaluationRuntime(cache=cache)
        rt.evaluate_batch(_requests(trace))
        assert rt.counters.simulations == 0
        assert rt.counters.cache_hits == 2

        EvaluationRuntime(cache=cache).evaluate_batch(_requests(trace, "C"))
        rt2 = EvaluationRuntime(cache=cache)
        rt2.evaluate_many(_requests(trace, "C"))
        assert rt2.counters.simulations == 0
        assert rt2.counters.cache_hits == 1

    def test_pooled_batch_matches_inline(self, trace):
        inline = EvaluationRuntime().evaluate_batch(_requests(trace))
        pooled = EvaluationRuntime(
            pool=PoolConfig(max_workers=2, timeout_s=240)
        ).evaluate_batch(_requests(trace))
        assert pooled == inline

    def test_refuses_chaos_layer(self, trace):
        from repro.runtime.errors import ConfigError

        rt = EvaluationRuntime(faults=FaultConfig.uniform(0.1, seed=1))
        with pytest.raises(ConfigError):
            rt.evaluate_batch(_requests(trace, "A"))
        rt = EvaluationRuntime(job_fn=lambda *a, **k: None)
        with pytest.raises(ConfigError):
            rt.evaluate_batch(_requests(trace, "A"))


def _record_job_keys(rt, monkeypatch):
    """Record the key of every pool job *rt* dispatches."""
    keys = []
    run = rt._pool.run

    def recording_run(jobs, **kwargs):
        keys.extend(job.key for job in jobs)
        return run(jobs, **kwargs)

    monkeypatch.setattr(rt._pool, "run", recording_run)
    return keys


class TestEvaluateAll:
    def test_batches_per_trace_without_chaos(self, trace, monkeypatch):
        rt = EvaluationRuntime()
        keys = _record_job_keys(rt, monkeypatch)
        out = rt.evaluate_all(_requests(trace, "ABC"))
        assert len(keys) == 1 and keys[0].startswith("batch|")
        assert out == EvaluationRuntime().evaluate_many(_requests(trace, "ABC"))

    @pytest.mark.parametrize("chaos", [
        dict(faults=FaultConfig()),
        dict(job_fn=_simulate_job),
    ])
    def test_chaos_layer_stays_on_scalar_jobs(self, trace, monkeypatch, chaos):
        rt = EvaluationRuntime(**chaos)
        keys = _record_job_keys(rt, monkeypatch)
        requests = _requests(trace, "AB")
        out = rt.evaluate_all(requests)
        assert keys == [req.key for req in requests]
        assert out == EvaluationRuntime().evaluate_batch(requests)
        with pytest.raises(ConfigError):
            rt.evaluate_all(requests, engine="batch")

    def test_scalar_engine_forces_per_request_jobs(self, trace, monkeypatch):
        rt = EvaluationRuntime()
        keys = _record_job_keys(rt, monkeypatch)
        rt.evaluate_all(_requests(trace, "AB"), engine="scalar")
        assert keys == [req.key for req in _requests(trace, "AB")]

    def test_profile_benchmarks_under_faults_uses_scalar_jobs(self, monkeypatch):
        from repro.sched.nuca import NUCAMachine, profile_benchmarks

        machine = NUCAMachine()
        benchmarks = [get_benchmark("429.mcf")]
        plain = profile_benchmarks(machine, benchmarks, n_mem=600, seed=1)
        for chaos, jobs in ((None, 1), (FaultConfig.uniform(0.2, seed=4), 4)):
            rt = EvaluationRuntime(faults=chaos)
            keys = _record_job_keys(rt, monkeypatch)
            db = profile_benchmarks(machine, benchmarks, n_mem=600, seed=1,
                                    runtime=rt)
            assert db.stats == plain.stats
            assert len(keys) == jobs
            assert all(k.startswith("batch|") == (chaos is None) for k in keys)


class TestBatchCheckpointing:
    def test_finished_groups_are_journaled_when_another_fails(
        self, trace, tmp_path, monkeypatch
    ):
        import repro.runtime.evaluate as evaluate

        other = get_benchmark("429.mcf").trace(600, seed=5)
        bad = other.content_digest()
        real_job = evaluate._simulate_batch_job

        def failing_job(configs, digest, seed, warm):
            if digest == bad:
                raise MeasurementError("injected group failure")
            return real_job(configs, digest, seed, warm)

        monkeypatch.setattr(evaluate, "_simulate_batch_job", failing_job)
        path = tmp_path / "j.jsonl"
        good = _requests(trace, "AB")
        doomed = [EvaluationRequest(key="mcf|A", config=table1_config("A"),
                                    trace=other)]
        rt = EvaluationRuntime(
            journal=path, pool=PoolConfig(retry=RetryPolicy(max_retries=0)),
        )
        with pytest.raises(MeasurementError):
            rt.evaluate_batch(doomed + good)
        journal = CheckpointJournal(path)
        assert all(req.key in journal for req in good)
        assert "mcf|A" not in journal


class TestFaultyEvaluate:
    def test_ten_percent_faults_converge_to_clean_results(self, trace):
        clean = EvaluationRuntime().evaluate_many(_requests(trace, "ABCDE"))
        faulty_rt = EvaluationRuntime(
            pool=PoolConfig(retry=RetryPolicy(max_retries=4, backoff_base=0.01)),
            faults=FaultConfig.uniform(0.10, seed=7),
        )
        faulty = faulty_rt.evaluate_many(_requests(trace, "ABCDE"))
        assert faulty == clean

    def test_retries_redraw_fault_randomness(self, trace):
        # With per-(job, attempt) injector seeding, a high fault rate still
        # converges given enough retries: attempts are independent draws.
        rt = EvaluationRuntime(
            pool=PoolConfig(retry=RetryPolicy(max_retries=10, backoff_base=0.001)),
            faults=FaultConfig.uniform(0.6, seed=3),
        )
        out = rt.evaluate_many(_requests(trace, "AB"))
        _, direct = simulate_and_measure(table1_config("A"), trace, seed=0)
        assert out[_requests(trace, "A")[0].key] == direct
        assert rt.counters.retries > 0
