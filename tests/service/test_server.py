"""End-to-end service tests over a real localhost socket.

Each test boots an :class:`EvaluationServer` on an ephemeral port inside
its own ``asyncio.run`` loop, talks the real wire protocol through
:class:`ServiceClient`, and asserts the degradation contract: results
bit-identical to direct engine runs, explicit backpressure under
saturation, client disconnects without job loss, graceful drain.
"""

import asyncio
import json
import threading

from repro.runtime.evaluate import EvaluationRequest, EvaluationRuntime, _simulate_job
from repro.runtime.pool import PoolConfig, RetryPolicy
from repro.service.admission import AdmissionConfig
from repro.service.client import ServiceClient
from repro.service.protocol import JobStatus, encode_message
from repro.service.scheduler import SchedulerConfig
from repro.service.server import EvaluationServer, ServerConfig
from repro.sim.params import table1_config
from repro.workloads.generators import working_set_addresses
from repro.workloads.trace import Trace


def _trace(n=250, seed=13):
    return Trace.from_memory_addresses(
        working_set_addresses(n, footprint_bytes=32 * 1024, seed=seed),
        compute_per_access=1, name="srv", seed=seed,
    )


def _server(journal=None, cache=None, job_fn=None, **scheduler_kwargs):
    defaults = dict(
        max_batch=2,
        idle_poll_s=0.01,
        admission=AdmissionConfig(max_queued_total=32, max_queued_per_client=32),
    )
    defaults.update(scheduler_kwargs)
    runtime = EvaluationRuntime(
        pool=PoolConfig(max_workers=0, retry=RetryPolicy(max_retries=0)),
        journal=journal, cache=cache, job_fn=job_fn,
    )
    return EvaluationServer(
        runtime,
        config=ServerConfig(scheduler=SchedulerConfig(**defaults)),
    )


class TestEndToEnd:
    def test_results_bit_identical_to_direct_engine(self):
        async def main():
            trace = _trace()
            async with _server() as server:
                async with ServiceClient(
                    "127.0.0.1", server.port, client_id="c1"
                ) as client:
                    digest = await client.register_trace(trace)
                    for i, label in enumerate(["A", "B", "C"]):
                        await client.submit_with_retry(
                            f"job-{label}", trace_digest=digest,
                            config={"label": label}, seed=i,
                        )
                    replies = {
                        label: await client.wait(f"job-{label}", timeout_s=60)
                        for label in ["A", "B", "C"]
                    }
            # Recompute directly through the runtime (same engine path the
            # server uses) and compare dictionaries exactly.
            for i, label in enumerate(["A", "B", "C"]):
                reply = replies[label]
                assert reply["status"] == JobStatus.DONE
                [direct] = EvaluationRuntime().evaluate([EvaluationRequest(
                    config=table1_config(label), trace=trace, seed=i,
                )])
                assert reply["stats"] == direct.result().to_dict(), label

        asyncio.run(main())

    def test_concurrent_clients_all_served(self):
        async def main():
            trace = _trace()
            async with _server() as server:
                async def one_client(name, n_jobs):
                    async with ServiceClient(
                        "127.0.0.1", server.port, client_id=name
                    ) as client:
                        digest = await client.register_trace(trace)
                        for i in range(n_jobs):
                            await client.submit_with_retry(
                                f"{name}-{i}", trace_digest=digest,
                                config={"label": "A"}, seed=hash(name) % 100 + i,
                            )
                        return [
                            (await client.wait(f"{name}-{i}", timeout_s=60))["status"]
                            for i in range(n_jobs)
                        ]

                outcomes = await asyncio.gather(
                    one_client("alpha", 3),
                    one_client("beta", 3),
                    one_client("gamma", 2),
                )
            assert all(
                status == JobStatus.DONE
                for statuses in outcomes for status in statuses
            )

        asyncio.run(main())

    def test_protocol_errors_answered_not_fatal(self):
        async def main():
            async with _server() as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b"this is not json\n")
                await writer.drain()
                reply = json.loads(await asyncio.wait_for(
                    reader.readline(), timeout=10))
                assert reply["ok"] is False and reply["code"] == "protocol"
                # The connection survives and still answers valid requests.
                writer.write(encode_message({"op": "ping"}))
                await writer.drain()
                reply = json.loads(await asyncio.wait_for(
                    reader.readline(), timeout=10))
                assert reply["ok"] is True
                writer.write(encode_message({"op": "warp"}))
                await writer.drain()
                reply = json.loads(await asyncio.wait_for(
                    reader.readline(), timeout=10))
                assert reply["ok"] is False and "unknown op" in reply["error"]
                writer.close()
                await writer.wait_closed()

        asyncio.run(main())

    def test_unknown_digest_and_unknown_job(self):
        async def main():
            async with _server() as server:
                async with ServiceClient(
                    "127.0.0.1", server.port, client_id="c1"
                ) as client:
                    reply = await client.submit(
                        "j1", trace_digest="ff" * 32, config={"label": "A"}
                    )
                    assert reply["ok"] is False and reply["code"] == "protocol"
                    reply = await client.status("ghost")
                    assert reply["ok"] is False
                    assert reply["code"] == "unknown_job"

        asyncio.run(main())


class _GatedJob:
    """Job body that holds every evaluation until the test opens the gate.

    Keeps the service saturated for as long as the test needs, so queue
    pressure does not depend on how fast this host simulates.
    """

    def __init__(self):
        self.gate = threading.Event()

    def __call__(self, *args, _attempt=1):
        if not self.gate.wait(timeout=60):
            raise RuntimeError("gate never opened")
        return _simulate_job(*args, _attempt=_attempt)


async def _when(predicate, timeout_s=30.0):
    """Poll until *predicate()* holds; fails the test after *timeout_s*."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout_s
    while not predicate():
        assert loop.time() < deadline, "condition not reached in time"
        await asyncio.sleep(0.01)


class TestBackpressure:
    def test_saturation_rejects_with_retry_after_then_recovers(self):
        async def main():
            trace = _trace()
            job = _GatedJob()
            async with _server(
                admission=AdmissionConfig(max_queued_total=2,
                                          max_queued_per_client=2),
                max_batch=1, job_fn=job,
            ) as server:
                async with ServiceClient(
                    "127.0.0.1", server.port, client_id="flood"
                ) as client:
                    digest = await client.register_trace(trace)
                    raw = [
                        await client.submit(
                            f"f-{i}", trace_digest=digest,
                            config={"label": "A"}, seed=i,
                        )
                        for i in range(8)
                    ]
                    rejected = [r for r in raw if not r["ok"]]
                    assert rejected, "flooding past the queue bound must reject"
                    assert all(r["code"] == "rejected" for r in rejected)
                    assert all(r["retry_after_s"] > 0 for r in rejected)
                    # With retry-after honored, the same jobs all complete.
                    # The gate holds the queue full until a retry has been
                    # rejected, then lets the jobs drain.
                    async def resubmit():
                        for i in range(8):
                            reply = await client.submit_with_retry(
                                f"f-{i}", trace_digest=digest,
                                config={"label": "A"}, seed=i,
                            )
                            assert reply["ok"], reply

                    retries = asyncio.create_task(resubmit())
                    await _when(lambda: client.rejections > 0 or retries.done())
                    job.gate.set()
                    await retries
                    for i in range(8):
                        done = await client.wait(f"f-{i}", timeout_s=60)
                        assert done["status"] == JobStatus.DONE
                    assert client.rejections > 0

        asyncio.run(main())


class TestDisconnectAndDrain:
    def test_client_disconnect_does_not_lose_the_job(self):
        async def main():
            trace = _trace()
            async with _server() as server:
                digest = trace.content_digest()
                first = ServiceClient("127.0.0.1", server.port,
                                      client_id="dropper")
                await first.connect()
                await first.register_trace(trace)
                reply = await first.submit(
                    "orphan", trace_digest=digest, config={"label": "B"},
                    seed=3,
                )
                assert reply["ok"]
                # Vanish without waiting — the chaos matrix's disconnect.
                first._writer.transport.abort()
                first._writer = first._reader = None

                async with ServiceClient(
                    "127.0.0.1", server.port, client_id="heir"
                ) as second:
                    reply = await second.wait("orphan", timeout_s=60)
                    assert reply["status"] == JobStatus.DONE
                    [direct] = EvaluationRuntime().evaluate([EvaluationRequest(
                        config=table1_config("B"), trace=trace, seed=3,
                    )])
                    assert reply["stats"] == direct.result().to_dict()

        asyncio.run(main())

    def test_drain_journals_survive_restart(self, tmp_path):
        async def main():
            trace = _trace()
            journal_path = tmp_path / "service.jsonl"
            async with _server(journal=journal_path) as server:
                async with ServiceClient(
                    "127.0.0.1", server.port, client_id="c1"
                ) as client:
                    digest = await client.register_trace(trace)
                    for i in range(3):
                        await client.submit_with_retry(
                            f"j-{i}", trace_digest=digest,
                            config={"label": "A"}, seed=i,
                        )
                    for i in range(3):
                        assert (await client.wait(
                            f"j-{i}", timeout_s=60))["status"] == JobStatus.DONE
            # Server drained and closed.  A restarted server with the same
            # journal replays every result without simulating.
            async with _server(journal=journal_path) as reborn:
                async with ServiceClient(
                    "127.0.0.1", reborn.port, client_id="c2"
                ) as client:
                    digest = await client.register_trace(trace)
                    for i in range(3):
                        await client.submit_with_retry(
                            f"again-{i}", trace_digest=digest,
                            config={"label": "A"}, seed=i,
                        )
                    for i in range(3):
                        reply = await client.wait(f"again-{i}", timeout_s=60)
                        assert reply["status"] == JobStatus.DONE
                        assert reply["source"] == "journal"
                assert reborn.runtime.counters.simulations == 0
                assert reborn.runtime.counters.journal_hits == 3

        asyncio.run(main())

    def test_draining_server_refuses_new_submissions(self):
        async def main():
            trace = _trace()
            server = _server()
            await server.start()
            try:
                async with ServiceClient(
                    "127.0.0.1", server.port, client_id="c1"
                ) as client:
                    digest = await client.register_trace(trace)
                    await server.scheduler.drain(timeout_s=10)
                    reply = await client.submit(
                        "late", trace_digest=digest, config={"label": "A"}
                    )
                    assert reply["ok"] is False
                    assert reply["code"] == "draining"
                    assert (await client.ping())["draining"] is True
            finally:
                await server.stop()

        asyncio.run(main())
