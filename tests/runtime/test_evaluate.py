"""Tests for the EvaluationRuntime façade (pool + journal + faults).

Behaviour that must hold for both job splits — one batch job per
``(trace, seed, warm)`` group, or one isolated job per request — runs
once per value of ``isolate``.
"""

import json

import pytest

import repro.runtime.evaluate as evaluate
from repro.runtime.errors import MeasurementError
from repro.runtime.evalcache import evaluation_cache_key
from repro.runtime.evaluate import EvaluationRequest, EvaluationRuntime, _simulate_job
from repro.runtime.faults import FaultConfig, FaultInjector
from repro.runtime.journal import CheckpointJournal
from repro.runtime.pool import PoolConfig, RetryPolicy
from repro.sim.params import table1_config
from repro.sim.stats import HierarchyStats, simulate_and_measure
from repro.workloads.spec import get_benchmark

ISOLATE = (False, True)


@pytest.fixture(scope="module")
def trace():
    return get_benchmark("401.bzip2").trace(1500, seed=3)


def _requests(trace, labels="AB"):
    return [EvaluationRequest(config=table1_config(label), trace=trace)
            for label in labels]


def _stats(rt, requests, **kwargs):
    return [outcome.result() for outcome in rt.evaluate(requests, **kwargs)]


def _raising_faults(requests, rate):
    """The first ``FaultConfig.uniform(rate)`` seed whose first attempts
    raise for at least one request.

    A retry test whose faults never fire proves nothing, so the seed is
    chosen by the damage it causes rather than pinned.
    """
    def raises(faults, req):
        injector = FaultInjector(faults, req.trace.content_digest(),
                                 req.config.cache_key(), req.seed, req.warm, 1)
        try:
            injector.maybe_fail()
        except MeasurementError:
            return True
        return False

    return next(
        faults for faults in (FaultConfig.uniform(rate, seed=s) for s in range(1, 1000))
        if any(raises(faults, req) for req in requests)
    )


def _key(req):
    return evaluation_cache_key(req.trace, req.config, req.seed, req.warm)


def _record_job_keys(rt, monkeypatch):
    """Record the key of every pool job *rt* dispatches."""
    keys = []
    run = rt._pool.run

    def recording_run(jobs, **kwargs):
        keys.extend(job.key for job in jobs)
        return run(jobs, **kwargs)

    monkeypatch.setattr(rt._pool, "run", recording_run)
    return keys


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
        single = _stats(rt, [req])[0]
        batch = _stats(EvaluationRuntime(), _requests(trace, "AB"))[0]
        assert single == batch
        assert rt.counters.simulations == 1

    def test_matches_direct_call(self, trace):
        req = _requests(trace, "A")[0]
        _, direct = simulate_and_measure(req.config, trace, seed=0)
        for isolate in ISOLATE:
            [outcome] = EvaluationRuntime().evaluate([req], isolate=isolate)
            assert outcome.result() == direct
            assert outcome.source == "simulated"
            assert outcome.key == _key(req)

    def test_duplicate_requests_deduplicated(self, trace):
        req = _requests(trace, "A")[0]
        for isolate in ISOLATE:
            rt = EvaluationRuntime()
            outcomes = rt.evaluate([req, req], isolate=isolate)
            assert outcomes[1] is outcomes[0]
            assert rt.counters.simulations == 1


class TestJournaling:
    def test_resume_skips_completed_work(self, trace, tmp_path):
        path = tmp_path / "j.jsonl"
        first = EvaluationRuntime(journal=path)
        out1 = _stats(first, _requests(trace), isolate=True)
        assert first.counters.simulations == 2

        second = EvaluationRuntime(journal=path)
        out2 = _stats(second, _requests(trace), isolate=True)
        assert second.counters.simulations == 0
        assert second.counters.journal_hits == 2
        assert out2 == out1

    def test_partial_journal_runs_only_missing(self, trace, tmp_path):
        for isolate in ISOLATE:
            path = tmp_path / f"j-{isolate}.jsonl"
            EvaluationRuntime(journal=path).evaluate(
                _requests(trace, "A"), isolate=isolate
            )

            rt = EvaluationRuntime(journal=path)
            outcomes = rt.evaluate(_requests(trace, "AB"), isolate=isolate)
            assert rt.counters.journal_hits == 1
            assert rt.counters.simulations == 1
            assert [o.source for o in outcomes] == ["journal", "simulated"]

    def test_checkpoints_during_batch_not_after(self, trace, tmp_path, monkeypatch):
        # Finished jobs reach the journal even when another job in the same
        # call exhausts its retries: the failure stays on its own outcome.
        other = get_benchmark("429.mcf").trace(600, seed=5)
        bad = other.content_digest()
        real_job = evaluate._simulate_job

        def failing_job(config, digest, *args, **kwargs):
            if digest == bad:
                raise MeasurementError("injected job failure")
            return real_job(config, digest, *args, **kwargs)

        monkeypatch.setattr(evaluate, "_simulate_job", failing_job)
        doomed = EvaluationRequest(config=table1_config("A"), trace=other)
        good = _requests(trace)
        path = tmp_path / "j.jsonl"
        rt = EvaluationRuntime(
            journal=path, pool=PoolConfig(retry=RetryPolicy(max_retries=0)),
        )
        outcomes = rt.evaluate([doomed] + good, isolate=True)
        assert [o.ok for o in outcomes] == [False, True, True]
        with pytest.raises(MeasurementError):
            outcomes[0].result()
        journal = CheckpointJournal(path)
        assert all(_key(req) in journal for req in good)
        assert _key(doomed) not in journal

    def test_journal_accepts_existing_instance(self, trace, tmp_path):
        journal = CheckpointJournal(tmp_path / "j.jsonl")
        rt = EvaluationRuntime(journal=journal)
        rt.evaluate(_requests(trace, "A"))
        assert len(journal) == 1

    def test_distinct_traces_of_one_profile_never_alias(self, tmp_path):
        # Every trace of one SPEC profile carries the same name; the key is
        # the trace content, so a journal filled by a short trace must not
        # answer for a longer one.
        from repro.analysis.sweep import sweep_configs
        from repro.reconfig.explorer import LadderBackend

        gcc = get_benchmark("403.gcc")
        configs = [table1_config("A"), table1_config("B")]
        # The second round asks for the same two recipes, so both traces
        # come from the recipe -> digest map without their arrays.
        for round_ in ("generated", "recipe hit"):
            short, long = gcc.trace(500, seed=1), gcc.trace(900, seed=1)
            assert short.name == long.name
            if round_ == "recipe hit":
                assert "is_mem" not in vars(short) and "is_mem" not in vars(long)
            path = tmp_path / f"{round_}.jsonl"
            sweep_configs(configs, short, runtime=EvaluationRuntime(journal=path))
            rt = EvaluationRuntime(journal=path)
            swept = sweep_configs(configs, long, runtime=rt)
            assert rt.counters.simulations == 2 and swept.n_simulated == 2
            assert swept.stats == sweep_configs(configs, long).stats

            path = tmp_path / f"{round_} ladder.jsonl"
            LadderBackend(configs, short,
                          runtime=EvaluationRuntime(journal=path)).measure()
            backend = LadderBackend(configs, long,
                                    runtime=EvaluationRuntime(journal=path))
            report = backend.measure()
            assert backend.log.evaluations == 1 and backend.log.cached == 0
            assert report == LadderBackend(configs, long).measure()


class TestPooledEvaluate:
    def test_pooled_matches_inline_bit_for_bit(self, trace):
        inline = _stats(EvaluationRuntime(), _requests(trace), isolate=True)
        pooled = EvaluationRuntime(pool=PoolConfig(max_workers=2, timeout_s=120))
        assert _stats(pooled, _requests(trace), isolate=True) == inline


class TestBatchEvaluate:
    """The default split: one batch job per ``(trace, seed, warm)`` group."""

    def test_matches_evaluate_many_bit_for_bit(self, trace):
        isolated = _stats(EvaluationRuntime(), _requests(trace, "ABC"), isolate=True)
        rt = EvaluationRuntime()
        outcomes = rt.evaluate(_requests(trace, "ABC"))
        assert [o.result() for o in outcomes] == isolated
        assert rt.counters.simulations == 3
        assert all(o.source == "simulated" for o in outcomes)

    def test_groups_by_seed_and_warm(self, trace, monkeypatch):
        # Mixed (seed, warm) groups dispatch as separate batch jobs but a
        # single call; every result must match its scalar counterpart.
        requests = [
            EvaluationRequest(config=table1_config(label), trace=trace,
                              seed=seed, warm=warm)
            for label in "AB" for seed, warm in [(0, True), (1, False)]
        ]
        rt = EvaluationRuntime()
        keys = _record_job_keys(rt, monkeypatch)
        out = _stats(rt, requests)
        assert len(keys) == 2 and all(k.startswith("batch|") for k in keys)
        for req, stats in zip(requests, out):
            _, direct = simulate_and_measure(
                req.config, trace, seed=req.seed, warm=req.warm
            )
            assert stats == direct

    def test_journal_hits_skip_simulation(self, trace, tmp_path):
        path = tmp_path / "j.jsonl"
        EvaluationRuntime(journal=path).evaluate(_requests(trace))

        rt = EvaluationRuntime(journal=path)
        outcomes = rt.evaluate(_requests(trace))
        assert rt.counters.simulations == 0
        assert rt.counters.journal_hits == 2
        assert all(o.source == "journal" for o in outcomes)

    def test_cache_keys_shared_with_scalar_path(self, trace, tmp_path):
        # The batch kernel is bit-identical to the scalar engines, so both
        # splits share one persistent cache namespace: isolated jobs fill,
        # batch jobs recall (and vice versa).
        cache = tmp_path / "cache"
        EvaluationRuntime(cache=cache).evaluate(_requests(trace), isolate=True)
        rt = EvaluationRuntime(cache=cache)
        rt.evaluate(_requests(trace))
        assert rt.counters.simulations == 0
        assert rt.counters.cache_hits == 2

        EvaluationRuntime(cache=cache).evaluate(_requests(trace, "C"))
        rt2 = EvaluationRuntime(cache=cache)
        rt2.evaluate(_requests(trace, "C"), isolate=True)
        assert rt2.counters.simulations == 0
        assert rt2.counters.cache_hits == 1

    def test_pooled_batch_matches_inline(self, trace):
        inline = _stats(EvaluationRuntime(), _requests(trace))
        pooled = EvaluationRuntime(pool=PoolConfig(max_workers=2, timeout_s=240))
        assert _stats(pooled, _requests(trace)) == inline


class TestEvaluateAll:
    """Which split :meth:`EvaluationRuntime.evaluate` picks for its misses."""

    def test_batches_per_trace_without_chaos(self, trace, monkeypatch):
        rt = EvaluationRuntime()
        keys = _record_job_keys(rt, monkeypatch)
        out = _stats(rt, _requests(trace, "ABC"))
        assert len(keys) == 1 and keys[0].startswith("batch|")
        assert out == _stats(EvaluationRuntime(), _requests(trace, "ABC"),
                             isolate=True)

    @pytest.mark.parametrize("chaos", [
        dict(faults=FaultConfig()),
        dict(job_fn=_simulate_job),
    ])
    def test_chaos_layer_stays_on_scalar_jobs(self, trace, monkeypatch, chaos):
        rt = EvaluationRuntime(**chaos)
        keys = _record_job_keys(rt, monkeypatch)
        requests = _requests(trace, "AB")
        out = _stats(rt, requests)
        assert keys == [_key(req) for req in requests]
        assert out == _stats(EvaluationRuntime(), requests)

    def test_scalar_engine_forces_per_request_jobs(self, trace, monkeypatch):
        rt = EvaluationRuntime()
        keys = _record_job_keys(rt, monkeypatch)
        rt.evaluate(_requests(trace, "AB"), isolate=True)
        assert keys == [_key(req) for req in _requests(trace, "AB")]


class TestBatchCheckpointing:
    def test_finished_groups_are_journaled_when_another_fails(
        self, trace, tmp_path, monkeypatch
    ):
        other = get_benchmark("429.mcf").trace(600, seed=5)
        bad = other.content_digest()
        real_job = evaluate._simulate_batch_job

        def failing_job(configs, digest, *args, **kwargs):
            if digest == bad:
                raise MeasurementError("injected group failure")
            return real_job(configs, digest, *args, **kwargs)

        monkeypatch.setattr(evaluate, "_simulate_batch_job", failing_job)
        path = tmp_path / "j.jsonl"
        good = _requests(trace, "AB")
        doomed = EvaluationRequest(config=table1_config("A"), trace=other)
        rt = EvaluationRuntime(
            journal=path, pool=PoolConfig(retry=RetryPolicy(max_retries=0)),
        )
        outcomes = rt.evaluate([doomed] + good)
        assert [o.ok for o in outcomes] == [False, True, True]
        with pytest.raises(MeasurementError):
            outcomes[0].result()
        journal = CheckpointJournal(path)
        assert all(_key(req) in journal for req in good)
        assert _key(doomed) not in journal


class TestFaultyEvaluate:
    def test_ten_percent_faults_converge_to_clean_results(self, trace):
        clean = _stats(EvaluationRuntime(), _requests(trace, "ABCDE"))
        faulty_rt = EvaluationRuntime(
            pool=PoolConfig(retry=RetryPolicy(max_retries=4, backoff_base=0.01)),
            faults=FaultConfig.uniform(0.10, seed=7),
        )
        assert _stats(faulty_rt, _requests(trace, "ABCDE")) == clean

    def test_retries_redraw_fault_randomness(self, trace):
        # With per-(job, attempt) injector seeding, a high fault rate still
        # converges given enough retries: attempts are independent draws.
        requests = _requests(trace, "AB")
        rt = EvaluationRuntime(
            pool=PoolConfig(retry=RetryPolicy(max_retries=10, backoff_base=0.001)),
            faults=_raising_faults(requests, 0.6),
        )
        out = _stats(rt, requests)
        _, direct = simulate_and_measure(table1_config("A"), trace, seed=0)
        assert out[0] == direct
        assert rt.counters.retries > 0

    def test_fault_draws_do_not_depend_on_the_engine_version(self, trace, monkeypatch):
        # The evaluation-cache key embeds ENGINE_VERSION; a version bump
        # must not re-roll which attempts of which requests get corrupted.
        import repro.sim.engine as engine

        fired = []

        class RecordingInjector(evaluate.FaultInjector):
            def _fire(self, rate, kind):
                hit = super()._fire(rate, kind)
                fired.append((kind, hit))
                return hit

        monkeypatch.setattr(evaluate, "FaultInjector", RecordingInjector)

        def fates(version):
            monkeypatch.setattr(engine, "ENGINE_VERSION", version)
            fired.clear()
            rt = EvaluationRuntime(
                pool=PoolConfig(max_workers=0,
                                retry=RetryPolicy(max_retries=10, backoff_base=0.001)),
                faults=FaultConfig.uniform(0.5, seed=5),
            )
            _stats(rt, _requests(trace, "ABCD"))
            return list(fired)

        first = fates(engine.ENGINE_VERSION)
        assert any(hit for _, hit in first) and not all(hit for _, hit in first)
        assert fates(engine.ENGINE_VERSION + 1) == first

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
