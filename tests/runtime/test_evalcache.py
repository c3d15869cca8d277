"""Persistent evaluation cache: keys, storage, runtime and explorer reuse."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.evalcache import EvaluationCache, evaluation_cache_key
from repro.runtime.evaluate import EvaluationRequest, EvaluationRuntime
from repro.runtime.pool import PoolConfig
from repro.sim.params import MachineConfig
from repro.workloads.generators import working_set_addresses
from repro.workloads.trace import Trace


def _trace(n: int = 400, seed: int = 3, name: str = "t") -> Trace:
    return Trace.from_memory_addresses(
        working_set_addresses(n, footprint_bytes=64 * 1024, seed=seed),
        compute_per_access=1, name=name, seed=seed,
    )


def _one(rt: EvaluationRuntime, req: EvaluationRequest):
    """Evaluate one request and return its outcome."""
    [outcome] = rt.evaluate([req])
    return outcome


class TestKeyDerivation:
    def test_key_ignores_trace_name(self):
        cfg = MachineConfig()
        a = evaluation_cache_key(_trace(name="x"), cfg, 0, True)
        b = evaluation_cache_key(_trace(name="y"), cfg, 0, True)
        assert a == b

    @pytest.mark.parametrize("mutate", [
        lambda t, c, s, w: (_trace(seed=9), c, s, w),
        lambda t, c, s, w: (t, c.with_knobs(mshr_count=8), s, w),
        lambda t, c, s, w: (t, c, s + 1, w),
        lambda t, c, s, w: (t, c, s, not w),
    ])
    def test_key_sensitive_to_each_component(self, mutate):
        base = (_trace(), MachineConfig(), 0, True)
        assert evaluation_cache_key(*base) != evaluation_cache_key(*mutate(*base))

    def test_key_includes_engine_version(self, monkeypatch):
        import repro.sim.engine as engine

        base = evaluation_cache_key(_trace(), MachineConfig(), 0, True)
        monkeypatch.setattr(engine, "ENGINE_VERSION", engine.ENGINE_VERSION + 1)
        assert evaluation_cache_key(_trace(), MachineConfig(), 0, True) != base


class TestStorage:
    def test_roundtrip_and_counters(self, tmp_path):
        cache = EvaluationCache(tmp_path / "c")
        assert cache.get("ab" * 32) is None
        assert cache.misses == 1
        cache.put("ab" * 32, {"x": 1.5})
        assert ("ab" * 32) in cache
        assert cache.get("ab" * 32) == {"x": 1.5}
        assert cache.hits == 1
        assert cache.bytes_written > 0 and cache.bytes_read > 0
        assert len(cache) == 1

    def test_engine_version_bump_invalidates(self, tmp_path, monkeypatch):
        import repro.sim.engine as engine

        cache = EvaluationCache(tmp_path / "c")
        cache.put("cd" * 32, {"x": 1.0})
        monkeypatch.setattr(engine, "ENGINE_VERSION", engine.ENGINE_VERSION + 1)
        assert cache.get("cd" * 32) is None  # stale entry is a miss

    def test_torn_entry_is_a_miss(self, tmp_path):
        cache = EvaluationCache(tmp_path / "c")
        key = "ef" * 32
        cache.put(key, {"x": 1.0})
        cache._path(key).write_text('{"engine_version"')  # simulate torn write
        assert cache.get(key) is None

    def test_entries_record_version(self, tmp_path):
        from repro.sim.engine import ENGINE_VERSION

        cache = EvaluationCache(tmp_path / "c")
        key = "01" * 32
        cache.put(key, {"x": 2.0})
        entry = json.loads(cache._path(key).read_text())
        assert entry["engine_version"] == ENGINE_VERSION


class TestCorruptQuarantine:
    """Damaged shards are moved aside, counted, and never served."""

    def test_torn_shard_is_quarantined_to_corrupt_sibling(self, tmp_path):
        cache = EvaluationCache(tmp_path / "c")
        key = "ab" * 32
        cache.put(key, {"x": 1.0})
        path = cache._path(key)
        path.write_text('{"engine_version": 3, "stats"')  # truncated JSON
        assert cache.get(key) is None
        assert cache.quarantined == 1
        assert not path.exists()
        assert path.with_name(path.name + ".corrupt").exists()
        # The quarantined shard no longer counts as a stored entry.
        assert key not in cache and len(cache) == 0

    def test_digest_mismatch_is_quarantined(self, tmp_path):
        cache = EvaluationCache(tmp_path / "c")
        key = "cd" * 32
        cache.put(key, {"x": 1.0})
        path = cache._path(key)
        entry = json.loads(path.read_text())
        entry["stats"]["x"] = 2.0  # silent bit-flip: digest no longer matches
        path.write_text(json.dumps(entry))
        assert cache.get(key) is None
        assert cache.quarantined == 1
        assert path.with_name(path.name + ".corrupt").exists()

    def test_binary_garbage_is_quarantined(self, tmp_path):
        cache = EvaluationCache(tmp_path / "c")
        key = "ee" * 32
        cache.put(key, {"x": 1.0})
        cache._path(key).write_bytes(b"\xff\xfe\x00garbage")
        assert cache.get(key) is None
        assert cache.quarantined == 1

    def test_pre_digest_entries_still_served(self, tmp_path):
        """Backward compat: entries written before the sha field existed."""
        from repro.sim.engine import ENGINE_VERSION

        cache = EvaluationCache(tmp_path / "c")
        key = "fa" * 32
        path = cache._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"engine_version": ENGINE_VERSION, "stats": {"x": 3.0}}
        ))
        assert cache.get(key) == {"x": 3.0}
        assert cache.quarantined == 0

    def test_quarantine_counts_in_obs_registry(self, tmp_path):
        from repro.obs import metrics as obs_metrics

        cache = EvaluationCache(tmp_path / "c")
        key = "bb" * 32
        cache.put(key, {"x": 1.0})
        cache._path(key).write_text("{torn")
        obs_metrics.set_metrics_enabled(True)
        try:
            obs_metrics.get_registry().reset()
            assert cache.get(key) is None
            snap = obs_metrics.get_registry().snapshot_and_reset()
        finally:
            obs_metrics.set_metrics_enabled(False)
        assert snap["counters"]["evalcache.corrupt_quarantined"] == 1
        assert snap["counters"]["evalcache.corrupt.torn"] == 1

    def test_wrong_version_is_not_quarantined(self, tmp_path, monkeypatch):
        """Stale-but-intact entries stay on disk for auditing."""
        import repro.sim.engine as engine

        cache = EvaluationCache(tmp_path / "c")
        key = "dd" * 32
        cache.put(key, {"x": 1.0})
        monkeypatch.setattr(engine, "ENGINE_VERSION", engine.ENGINE_VERSION + 1)
        assert cache.get(key) is None
        assert cache.quarantined == 0
        assert cache._path(key).exists()

    def test_corruption_mid_run_recomputes_and_repairs(self, tmp_path):
        """End to end: a corrupted shard is re-simulated, re-cached, and the
        recomputed entry is bit-identical to the original measurement."""
        trace = _trace()
        req = EvaluationRequest(config=MachineConfig(), trace=trace)
        first = EvaluationRuntime(pool=PoolConfig(max_workers=0),
                                  cache=tmp_path / "c")
        first_outcome = _one(first, req)
        clean = first_outcome.result()
        shard = first.cache._path(first_outcome.key)
        shard.write_text('{"engine_')  # chaos: torn shard on disk

        second = EvaluationRuntime(pool=PoolConfig(max_workers=0),
                                   cache=tmp_path / "c")
        recomputed = _one(second, req).result()
        assert second.counters.simulations == 1  # treated as a miss
        assert second.cache.quarantined == 1
        assert recomputed.to_dict() == clean.to_dict()
        # The fresh result was re-cached; a third run hits again.
        third = EvaluationRuntime(pool=PoolConfig(max_workers=0),
                                  cache=tmp_path / "c")
        _one(third, req)
        assert third.counters.cache_hits == 1


@pytest.fixture(scope="module")
def measured_stats() -> dict:
    """One real ``HierarchyStats.to_dict()`` payload (about 1.3 KB)."""
    from repro.sim.stats import simulate_and_measure

    _, stats = simulate_and_measure(MachineConfig(), _trace(300), seed=0)
    return stats.to_dict()


def _quarantine_counters(cache: EvaluationCache, key: str) -> dict:
    """Counters of one ``get`` with metrics on; asserts it was a miss."""
    from repro.obs import metrics as obs_metrics

    obs_metrics.set_metrics_enabled(True)
    try:
        obs_metrics.get_registry().reset()
        assert cache.get(key) is None
        return obs_metrics.get_registry().snapshot_and_reset()["counters"]
    finally:
        obs_metrics.set_metrics_enabled(False)


class TestCanonicalRead:
    """The hit branch serves only byte-verified canonical entries; every
    other entry takes the general parse/quarantine/version path."""

    def test_put_writes_the_canonical_template(self, tmp_path, measured_stats):
        from repro.runtime.evalcache import _stats_digest
        from repro.sim.engine import ENGINE_VERSION

        cache = EvaluationCache(tmp_path / "c")
        key = "a1" * 32
        cache.put(key, measured_stats)
        raw = cache._path(key).read_bytes()
        canonical = json.dumps(measured_stats, separators=(",", ":"), sort_keys=True)
        sha = _stats_digest(measured_stats)
        assert raw == (f'{{"engine_version":{ENGINE_VERSION},"sha":"{sha}",'
                       f'"stats":{canonical}}}').encode()
        # Same fields and byte count as an insertion-order compact dump.
        legacy = json.dumps({"engine_version": ENGINE_VERSION, "sha": sha,
                             "stats": measured_stats}, separators=(",", ":"))
        assert len(raw) == len(legacy.encode()) == cache.bytes_written

    def test_hit_equals_put_and_rebuilds_identical_stats(self, tmp_path, measured_stats):
        from repro.sim.stats import HierarchyStats

        cache = EvaluationCache(tmp_path / "c")
        key = "a2" * 32
        cache.put(key, measured_stats)
        got = cache.get(key)
        assert got == measured_stats
        assert cache.hits == 1 and cache.bytes_read == cache.bytes_written
        rebuilt = HierarchyStats.from_dict(got)
        original = HierarchyStats.from_dict(measured_stats)
        assert rebuilt == original
        assert json.dumps(rebuilt.to_dict()) == json.dumps(original.to_dict())

    def test_bit_flip_in_stats_body_is_digest_mismatch(self, tmp_path, measured_stats):
        cache = EvaluationCache(tmp_path / "c")
        key = "a3" * 32
        cache.put(key, measured_stats)
        path = cache._path(key)
        raw = bytearray(path.read_bytes())
        # Flip one bit of the last digit of the CPI: still valid JSON.
        at = raw.index(b",", raw.index(b'"cpi":')) - 1
        assert chr(raw[at]).isdigit()
        raw[at] ^= 0x01
        path.write_bytes(bytes(raw))
        counters = _quarantine_counters(cache, key)
        assert counters["evalcache.corrupt.digest-mismatch"] == 1
        assert cache.quarantined == 1 and not path.exists()

    def test_tampered_sha_is_quarantined(self, tmp_path, measured_stats):
        cache = EvaluationCache(tmp_path / "c")
        key = "a4" * 32
        cache.put(key, measured_stats)
        path = cache._path(key)
        sha = json.loads(path.read_bytes())["sha"]
        bad = ("1" if sha[0] == "0" else "0") + sha[1:]
        path.write_bytes(path.read_bytes().replace(sha.encode(), bad.encode(), 1))
        counters = _quarantine_counters(cache, key)
        assert counters["evalcache.corrupt.digest-mismatch"] == 1
        assert cache.hits == 0

    @pytest.mark.parametrize("delta", [-1, 1, 10])
    def test_tampered_version_is_a_miss_not_a_hit(self, tmp_path, measured_stats, delta):
        from repro.sim.engine import ENGINE_VERSION

        cache = EvaluationCache(tmp_path / "c")
        key = "a5" * 32
        cache.put(key, measured_stats)
        path = cache._path(key)
        head = f'{{"engine_version":{ENGINE_VERSION},'.encode()
        path.write_bytes(path.read_bytes().replace(
            head, f'{{"engine_version":{ENGINE_VERSION + delta},'.encode(), 1))
        assert cache.get(key) is None
        assert (cache.hits, cache.misses, cache.quarantined) == (0, 1, 0)
        assert path.exists()

    @pytest.mark.parametrize("dumps", [
        # Today's earlier writer: insertion-order stats keys, compact.
        lambda entry: json.dumps(entry, separators=(",", ":")),
        # json.dumps default spacing.
        lambda entry: json.dumps(entry),
        # Canonical stats, but the entry's own keys in another order.
        lambda entry: json.dumps(dict(reversed(list(entry.items()))),
                                 separators=(",", ":")),
    ])
    def test_other_layouts_served_when_digest_verifies(self, tmp_path,
                                                      measured_stats, dumps):
        from repro.runtime.evalcache import _stats_digest
        from repro.sim.engine import ENGINE_VERSION

        assert list(measured_stats) != sorted(measured_stats)  # not canonical
        cache = EvaluationCache(tmp_path / "c")
        key = "a6" * 32
        path = cache._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        raw = dumps({"engine_version": ENGINE_VERSION,
                     "sha": _stats_digest(measured_stats),
                     "stats": measured_stats}).encode()
        path.write_bytes(raw)
        assert cache.get(key) == measured_stats
        assert (cache.hits, cache.quarantined, cache.bytes_read) == (1, 0, len(raw))

    def test_other_version_is_a_miss_not_quarantined(self, tmp_path, measured_stats,
                                                    monkeypatch):
        import repro.sim.engine as engine

        cache = EvaluationCache(tmp_path / "c")
        key = "a7" * 32
        monkeypatch.setattr(engine, "ENGINE_VERSION", engine.ENGINE_VERSION - 1)
        cache.put(key, measured_stats)
        monkeypatch.undo()
        assert cache.get(key) is None
        assert (cache.hits, cache.misses, cache.quarantined) == (0, 1, 0)
        assert cache._path(key).exists()

    @pytest.mark.parametrize("cut", [1, 2, 40])
    def test_truncated_entry_is_quarantined_as_torn(self, tmp_path, measured_stats, cut):
        cache = EvaluationCache(tmp_path / "c")
        key = "a8" * 32
        cache.put(key, measured_stats)
        path = cache._path(key)
        path.write_bytes(path.read_bytes()[:-cut])
        counters = _quarantine_counters(cache, key)
        assert counters["evalcache.corrupt.torn"] == 1

    def test_counters_mirror_into_obs(self, tmp_path, measured_stats):
        from repro.obs import metrics as obs_metrics

        cache = EvaluationCache(tmp_path / "c")
        key = "a9" * 32
        cache.put(key, measured_stats)
        obs_metrics.set_metrics_enabled(True)
        try:
            obs_metrics.get_registry().reset()
            assert cache.get(key) == measured_stats
            assert cache.get("b0" * 32) is None
            counters = obs_metrics.get_registry().snapshot_and_reset()["counters"]
        finally:
            obs_metrics.set_metrics_enabled(False)
        assert counters["evalcache.hits"] == 1 and counters["evalcache.misses"] == 1
        assert counters["evalcache.bytes_read"] == cache.bytes_read == cache.bytes_written


class TestRuntimeIntegration:
    def test_second_run_hits_cache_with_zero_simulations(self, tmp_path):
        # Both job splits share one cache namespace (the batch kernel is
        # bit-identical to the scalar engines): either split fills it and
        # either split recalls from it.
        trace = _trace()
        reqs = [
            EvaluationRequest(config=MachineConfig(), trace=trace, seed=i)
            for i in range(3)
        ]
        for fill, recall in [(False, True), (True, False)]:
            cache = tmp_path / f"c-{fill}"
            first = EvaluationRuntime(pool=PoolConfig(max_workers=0), cache=cache)
            out1 = first.evaluate(reqs, isolate=fill)
            assert first.counters.simulations == 3

            second = EvaluationRuntime(pool=PoolConfig(max_workers=0), cache=cache)
            out2 = second.evaluate(reqs, isolate=recall)
            assert second.counters.simulations == 0
            assert second.counters.cache_hits == 3
            assert [o.source for o in out2] == ["cache"] * 3
            for a, b in zip(out1, out2):
                assert a.result().to_dict() == b.result().to_dict()

    def test_cache_hits_are_rejournaled(self, tmp_path):
        trace = _trace()
        req = EvaluationRequest(config=MachineConfig(), trace=trace)
        _one(EvaluationRuntime(pool=PoolConfig(max_workers=0),
                               cache=tmp_path / "c"), req)
        rt = EvaluationRuntime(pool=PoolConfig(max_workers=0),
                               cache=tmp_path / "c",
                               journal=tmp_path / "j.jsonl")
        outcome = _one(rt, req)
        assert rt.counters.cache_hits == 1
        assert outcome.key in rt.journal  # cache hit landed in the journal
        assert _one(rt, req).source == "journal"
        assert rt.counters.journal_hits == 1

    def test_journal_takes_precedence_over_cache(self, tmp_path):
        trace = _trace()
        req = EvaluationRequest(config=MachineConfig(), trace=trace)
        rt = EvaluationRuntime(pool=PoolConfig(max_workers=0),
                               cache=tmp_path / "c",
                               journal=tmp_path / "j.jsonl")
        _one(rt, req)
        rt2 = EvaluationRuntime(pool=PoolConfig(max_workers=0),
                                cache=tmp_path / "c",
                                journal=tmp_path / "j.jsonl")
        assert _one(rt2, req).source == "journal"
        assert rt2.counters.journal_hits == 1
        assert rt2.counters.cache_hits == 0


class TestExplorerReuse:
    def test_repeat_exploration_spends_zero_simulations(self, tmp_path):
        from repro.reconfig.explorer import GreedyReconfigBackend
        from repro.reconfig.space import DesignSpace

        trace = _trace(800)
        space = DesignSpace()

        def explore(cache_dir):
            rt = EvaluationRuntime(pool=PoolConfig(max_workers=0),
                                   cache=cache_dir)
            backend = GreedyReconfigBackend(space, trace, seed=1, runtime=rt)
            backend.measure()
            backend.optimize(l1=True, l2=True)
            report = backend.measure()
            return backend, report

        first, report1 = explore(tmp_path / "c")
        assert first.log.evaluations > 0
        assert first.log.cached == 0

        second, report2 = explore(tmp_path / "c")
        assert second.log.evaluations == 0  # zero redundant simulations
        assert second.log.cached == first.log.evaluations
        assert report2.lpmr1 == report1.lpmr1


class TestHypothesisByteIdentical:
    @given(
        n=st.integers(min_value=50, max_value=300),
        seed=st.integers(min_value=0, max_value=2**16),
        mshr=st.sampled_from([2, 4, 8]),
        warm=st.booleans(),
    )
    @settings(max_examples=12, deadline=None)
    def test_cache_hit_returns_byte_identical_stats(self, tmp_path_factory,
                                                    n, seed, mshr, warm):
        trace = _trace(n, seed=seed)
        config = MachineConfig().with_knobs(mshr_count=mshr)
        cache_dir = tmp_path_factory.mktemp("evalcache")
        req = EvaluationRequest(config=config, trace=trace, seed=0, warm=warm)
        fresh = _one(EvaluationRuntime(pool=PoolConfig(max_workers=0),
                                       cache=cache_dir), req).result()
        recalled_rt = EvaluationRuntime(pool=PoolConfig(max_workers=0),
                                        cache=cache_dir)
        recalled = _one(recalled_rt, req).result()
        assert recalled_rt.counters.cache_hits == 1
        assert recalled.to_dict() == fresh.to_dict()
