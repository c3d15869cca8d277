"""LPM evaluation as a service: concurrent clients, hardened seams.

The package turns the PR-4 evaluation stack — worker pool, checkpoint
journal, persistent evalcache — into a long-running server that concurrent
clients submit ``(trace, MachineConfig)`` jobs to over a line-delimited
JSON socket protocol.  Each seam is hardened and chaos-tested:

========================  ==================================================
module                    responsibility
========================  ==================================================
:mod:`.protocol`          wire format, job specs, config/trace codecs
:mod:`.admission`         bounded queues, per-client fairness, backpressure
:mod:`.breaker`           circuit breaker around the evaluation pool
:mod:`.scheduler`         dispatch loop, job table, deadlines, drain
:mod:`.server`            the asyncio socket front-end
:mod:`.client`            async client + synchronous batch convenience
:mod:`.chaos`             deterministic service-level fault injection
========================  ==================================================

The degradation contract, verified by ``benchmarks/bench_service_resilience``:
no admitted job is ever silently dropped (every one reaches a terminal
status), results are bit-identical to direct ``sim.engine`` runs, overload
is answered with explicit retry-after backpressure, and a drained or
crashed server resumes from its journal without recomputing finished work.
"""

from repro.service.admission import AdmissionConfig, AdmissionController
from repro.service.breaker import BreakerConfig, CircuitBreaker
from repro.service.chaos import ChaosConfig, StoreChaos, make_chaos_job_fn, worker_fault
from repro.service.client import ServiceClient, ServiceUnavailable, run_jobs
from repro.service.protocol import (
    JobStatus,
    ProtocolError,
    config_from_wire,
    config_to_wire,
    trace_from_wire,
    trace_to_wire,
)
from repro.service.scheduler import JobRecord, JobScheduler, SchedulerConfig
from repro.service.server import EvaluationServer, ServerConfig

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "BreakerConfig",
    "CircuitBreaker",
    "ChaosConfig",
    "StoreChaos",
    "make_chaos_job_fn",
    "worker_fault",
    "ServiceClient",
    "ServiceUnavailable",
    "run_jobs",
    "JobStatus",
    "ProtocolError",
    "config_from_wire",
    "config_to_wire",
    "trace_from_wire",
    "trace_to_wire",
    "JobRecord",
    "JobScheduler",
    "SchedulerConfig",
    "EvaluationServer",
    "ServerConfig",
]
