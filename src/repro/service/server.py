"""The asyncio evaluation server.

One :class:`EvaluationServer` owns a listening socket, a trace registry,
and a :class:`~repro.service.scheduler.JobScheduler` over one
:class:`~repro.runtime.evaluate.EvaluationRuntime`.  Connections speak the
line-delimited JSON protocol of :mod:`repro.service.protocol`; each
connection is served by one task, and every await in the handler carries a
timeout — an idle or half-dead peer can hold a socket, never the server.

Client disconnects are routine, not errors: a dropped connection releases
its handler task immediately, while any job the client submitted keeps
running to a terminal state (journaled like any other), so a reconnecting
client can poll the result by job id.

Shutdown is a drain: in-flight work finishes, queued jobs are cancelled
with explicit terminal statuses, waiting clients are answered, and only
then does the socket close.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime.errors import ConfigError
from repro.runtime.evaluate import EvaluationRequest, EvaluationRuntime
from repro.service.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    JobStatus,
    ProtocolError,
    decode_message,
    encode_message,
    parse_submit,
    trace_from_wire,
)
from repro.service.scheduler import JobRecord, JobScheduler, SchedulerConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.chaos import StoreChaos
    from repro.workloads.trace import Trace

__all__ = ["ServerConfig", "EvaluationServer"]


@dataclass(frozen=True)
class ServerConfig:
    """Socket binding and per-connection timeouts."""

    host: str = "127.0.0.1"
    #: Port 0 binds an ephemeral port; read it back from ``server.port``.
    port: int = 0
    #: Per-read timeout; a connection idle past it is closed.
    idle_timeout_s: float = 60.0
    #: Per-write timeout; a peer that stops reading is disconnected.
    write_timeout_s: float = 10.0
    #: Cap on one long-poll ``wait`` (clients re-issue to wait longer).
    max_wait_s: float = 30.0
    #: Budget for the drain phase of :meth:`EvaluationServer.stop`.
    drain_timeout_s: float = 60.0
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)

    def __post_init__(self) -> None:
        if self.idle_timeout_s <= 0 or self.write_timeout_s <= 0:
            raise ConfigError("connection timeouts must be > 0")
        if self.max_wait_s <= 0 or self.drain_timeout_s <= 0:
            raise ConfigError("max_wait_s and drain_timeout_s must be > 0")


class EvaluationServer:
    """Socket front-end over a scheduler over an evaluation runtime."""

    def __init__(
        self,
        runtime: "EvaluationRuntime | None" = None,
        *,
        config: "ServerConfig | None" = None,
        store_chaos: "StoreChaos | None" = None,
    ) -> None:
        self.config = config if config is not None else ServerConfig()
        self._store_chaos = store_chaos
        # A default runtime is materialized lazily in start(): constructing
        # one opens the journal and cache on disk, which must never happen
        # on the event loop (ASYNC001) — start() hops it through a thread.
        self.runtime = runtime
        self.scheduler = (
            JobScheduler(runtime, self.config.scheduler, store_chaos=store_chaos)
            if runtime is not None
            else None
        )
        self._traces: "dict[str, Trace]" = {}
        self._server: "asyncio.Server | None" = None
        self.port: "int | None" = None
        self.connections = 0
        self.disconnects = 0
        self.protocol_errors = 0

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> None:
        """Bind the socket and start the dispatch loop."""
        if self.runtime is None:
            self.runtime = await asyncio.to_thread(EvaluationRuntime)
        if self.scheduler is None:
            self.scheduler = JobScheduler(
                self.runtime, self.config.scheduler, store_chaos=self._store_chaos
            )
        self._server = await asyncio.start_server(
            self._handle,
            host=self.config.host,
            port=self.config.port,
            limit=MAX_LINE_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.scheduler.start()

    async def stop(self) -> None:
        """Drain the scheduler, stop the runtime's workers, close the socket."""
        if self.scheduler is None:  # never started
            return
        await self.scheduler.drain(timeout_s=self.config.drain_timeout_s)
        # Joining worker processes blocks; keep it off the event loop.
        await asyncio.to_thread(self.runtime.close)
        if self._server is not None:
            self._server.close()
            try:
                await asyncio.wait_for(
                    self._server.wait_closed(),
                    timeout=self.config.drain_timeout_s,
                )
            except TimeoutError:
                pass  # lingering handler tasks die with the loop
            self._server = None

    async def __aenter__(self) -> "EvaluationServer":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # -- connection handling -------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections += 1
        if obs_metrics.metrics_enabled():
            obs_metrics.get_registry().counter("service.connections").inc()
        try:
            while True:
                try:
                    line = await asyncio.wait_for(
                        reader.readline(), timeout=self.config.idle_timeout_s
                    )
                except TimeoutError:
                    break  # idle peer: reclaim the socket
                except ValueError:
                    # Frame past the stream limit; tell the peer and close.
                    self.protocol_errors += 1
                    writer.write(encode_message(
                        {"ok": False, "code": "protocol",
                         "error": "oversized frame"}
                    ))
                    break
                if not line:
                    break  # orderly EOF
                response = await self._respond(line)
                writer.write(encode_message(response))
                try:
                    await asyncio.wait_for(
                        writer.drain(), timeout=self.config.write_timeout_s
                    )
                except TimeoutError:
                    break  # peer stopped reading
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            # A vanished client is normal chaos, not a server fault; its
            # jobs keep running to terminal states.
            self.disconnects += 1
            if obs_metrics.metrics_enabled():
                obs_metrics.get_registry().counter("service.disconnects").inc()
        finally:
            writer.close()
            try:
                await asyncio.wait_for(
                    writer.wait_closed(), timeout=self.config.write_timeout_s
                )
            except (TimeoutError, ConnectionError, OSError):
                pass

    async def _respond(self, line: bytes) -> dict:
        """Route one framed request to its handler; always returns a reply."""
        try:
            msg = decode_message(line)
            op = msg.get("op")
            if obs_metrics.metrics_enabled():
                obs_metrics.get_registry().counter("service.requests").inc()
            if op == "ping":
                return {
                    "ok": True,
                    "protocol": PROTOCOL_VERSION,
                    "draining": self.scheduler.draining,
                }
            if op == "register_trace":
                return self._op_register_trace(msg)
            if op == "submit":
                return self._op_submit(msg)
            if op == "status":
                return self._op_status(msg)
            if op == "wait":
                return await self._op_wait(msg)
            if op == "stats":
                return {"ok": True, "stats": self.scheduler.stats()}
            raise ProtocolError(f"unknown op {op!r}")
        except ProtocolError as exc:
            self.protocol_errors += 1
            if obs_metrics.metrics_enabled():
                obs_metrics.get_registry().counter("service.protocol_errors").inc()
            return {"ok": False, "code": "protocol", "error": str(exc)}

    # -- ops -----------------------------------------------------------------
    def _op_register_trace(self, msg: dict) -> dict:
        trace = trace_from_wire(msg.get("trace"))
        digest = trace.content_digest()
        self._traces[digest] = trace
        obs_trace.event("service.trace_registered", digest=digest[:16],
                        instructions=trace.n_instructions)
        return {"ok": True, "digest": digest}

    def _op_submit(self, msg: dict) -> dict:
        spec = parse_submit(msg)
        if spec.trace is not None:
            trace = spec.trace
            self._traces[trace.content_digest()] = trace
        else:
            trace = self._traces.get(spec.trace_digest)
            if trace is None:
                raise ProtocolError(
                    f"unknown trace digest {spec.trace_digest!r}; "
                    "register_trace it first"
                )
        # The runtime keys on evaluation identity, not the client's id:
        # identical design points dedupe and survive restarts.
        request = EvaluationRequest(
            config=spec.config, trace=trace, seed=spec.seed, warm=spec.warm
        )
        record = JobRecord(
            job_id=spec.job_id, client=spec.client, request=request
        )
        status, retry_after = self.scheduler.submit(record)
        if status == JobStatus.REJECTED:
            reply = {
                "ok": False,
                "job_id": spec.job_id,
                "code": "draining" if self.scheduler.draining else "rejected",
                "error": (
                    "service is draining"
                    if self.scheduler.draining
                    else "admission queue full; retry later"
                ),
            }
            if retry_after is not None:
                reply["retry_after_s"] = round(retry_after, 6)
            return reply
        return {"ok": True, "job_id": spec.job_id, "status": status}

    def _op_status(self, msg: dict) -> dict:
        record = self.scheduler.status(str(msg.get("job_id")))
        if record is None:
            return {"ok": False, "code": "unknown_job",
                    "error": "no such job id"}
        return {"ok": True, **record.public_view()}

    async def _op_wait(self, msg: dict) -> dict:
        job_id = str(msg.get("job_id"))
        timeout_s = msg.get("timeout_s", self.config.max_wait_s)
        if not isinstance(timeout_s, (int, float)) or timeout_s <= 0:
            raise ProtocolError("timeout_s must be a positive number")
        record = await self.scheduler.wait_done(
            job_id, min(float(timeout_s), self.config.max_wait_s)
        )
        if record is None:
            return {"ok": False, "code": "unknown_job",
                    "error": "no such job id"}
        return {"ok": True, **record.public_view()}
