"""Worker-resident trace store: digests, registration, payload scaling."""

import pickle

import numpy as np
import pytest

from repro.runtime import trace_store
from repro.runtime.evaluate import EvaluationRequest, EvaluationRuntime, _simulate_job
from repro.runtime.pool import PoolConfig
from repro.sim.params import MachineConfig
from repro.workloads.generators import working_set_addresses
from repro.workloads.trace import Trace


def _trace(n: int = 500, seed: int = 3, name: str = "t") -> Trace:
    return Trace.from_memory_addresses(
        working_set_addresses(n, footprint_bytes=64 * 1024, seed=seed),
        compute_per_access=1, name=name, seed=seed,
    )


@pytest.fixture(autouse=True)
def clean_store():
    trace_store.clear()
    yield
    trace_store.clear()


class TestContentDigest:
    def test_stable_and_cached(self):
        t = _trace()
        d1 = t.content_digest()
        assert d1 == t.content_digest()
        assert len(d1) == 64  # hex sha256

    def test_ignores_name_and_metadata(self):
        a = _trace(name="alpha")
        b = _trace(name="beta")
        b.metadata["note"] = "renamed"
        assert a.content_digest() == b.content_digest()

    def test_sensitive_to_content(self):
        a = _trace(seed=3)
        b = _trace(seed=4)
        assert a.content_digest() != b.content_digest()

    def test_depends_changes_digest(self):
        a = _trace()
        b = Trace(is_mem=a.is_mem.copy(), address=a.address.copy(),
                  is_load=a.is_load.copy(),
                  depends=np.zeros(a.n_instructions, dtype=bool))
        assert a.content_digest() != b.content_digest()


class TestStore:
    def test_register_resolve_roundtrip(self):
        t = _trace()
        digest = trace_store.register(t)
        assert trace_store.is_registered(digest)
        assert trace_store.resolve(digest) is t
        assert trace_store.size() == 1

    def test_resolve_unknown_diagnoses(self):
        with pytest.raises(KeyError, match="not registered"):
            trace_store.resolve("deadbeef" * 8)

    def test_clear(self):
        trace_store.register(_trace())
        trace_store.clear()
        assert trace_store.size() == 0

    def test_simulate_job_accepts_digest_and_trace(self):
        t = _trace()
        config = MachineConfig()
        digest = trace_store.register(t)
        by_digest = _simulate_job(config, digest, 0, True, None)
        by_trace = _simulate_job(config, t, 0, True, None)
        assert by_digest.to_dict() == by_trace.to_dict()


class TestPayloadScaling:
    def test_job_payload_does_not_scale_with_trace_length(self):
        config = MachineConfig()
        payloads = {}
        for n in (500, 8_000):
            t = _trace(n)
            digest_args = pickle.dumps((config, t.content_digest(), 0, True, None))
            full_args = pickle.dumps((config, t, 0, True, None))
            payloads[n] = (len(digest_args), len(full_args))
        # Digest payloads are constant-size; pickled traces grow ~linearly.
        assert payloads[500][0] == payloads[8_000][0]
        assert payloads[8_000][1] > 4 * payloads[500][1]
        assert payloads[8_000][0] < payloads[500][1]


class TestRuntimeIntegration:
    def test_inline_runtime_registers_parent_side(self):
        t = _trace()
        rt = EvaluationRuntime(pool=PoolConfig(max_workers=0))
        rt.evaluate([EvaluationRequest(config=MachineConfig(), trace=t)])
        assert trace_store.is_registered(t.content_digest())
        assert rt.counters.simulations == 1

    def test_fork_workers_inherit_registration(self):
        t = _trace()
        rt = EvaluationRuntime(pool=PoolConfig(max_workers=2))
        if rt._pool.effective_start_method() != "fork":
            pytest.skip("platform has no fork start method")
        reqs = [
            EvaluationRequest(config=MachineConfig(), trace=t, seed=i)
            for i in range(3)
        ]
        out = rt.evaluate(reqs)
        assert all(outcome.ok for outcome in out)
        assert rt.counters.simulations == 3
        # Workers forked after the registration inherit the parent store:
        # the setup entry exists but is never sent.
        assert len(rt._pool.worker_setup) == 1
        assert rt._pool.setup_sent == 0

    def test_fork_workers_started_earlier_receive_new_traces_once(self):
        rt = EvaluationRuntime(pool=PoolConfig(max_workers=2))
        if rt._pool.effective_start_method() != "fork":
            pytest.skip("platform has no fork start method")
        with rt:
            first = [EvaluationRequest(config=MachineConfig(), trace=_trace(), seed=i)
                     for i in range(2)]
            assert all(o.ok for o in rt.evaluate(first))
            assert rt._pool.setup_sent == 0
            # A trace registered after both workers started reaches each
            # of them once, however many jobs use it.
            later = _trace(300)
            for seeds in ((0, 1), (2, 3)):
                out = rt.evaluate([EvaluationRequest(config=MachineConfig(), trace=later,
                                                     seed=s) for s in seeds])
                assert all(o.ok for o in out)
            assert rt._pool.setup_sent == 2
            assert rt._pool.worker_starts == 2 and rt._pool.worker_restarts == 0

    def test_spawn_workers_receive_setup_messages(self):
        t = _trace(200)
        rt = EvaluationRuntime(
            pool=PoolConfig(max_workers=1, start_method="spawn")
        )
        [out] = rt.evaluate([EvaluationRequest(config=MachineConfig(), trace=t)])
        assert out.result().to_dict() == _simulate_job(
            MachineConfig(), t, 0, True, None, "k"
        ).to_dict()
        # The spawn path populated the setup list for worker construction.
        assert rt._pool.worker_setup
        fn, args = rt._pool.worker_setup[0]
        assert fn is trace_store.register
        assert args[1] == t.content_digest()
