"""Deterministic service-level chaos: every failure mode on a seeded dial.

:mod:`repro.runtime.faults` corrupts *measurements*; this layer extends the
same philosophy to the service's infrastructure.  Five injectors cover the
ways a long-running evaluation server actually dies in practice:

``crash``
    The worker process SIGKILLs itself mid-job — the supervisor must charge
    a :class:`~repro.runtime.errors.WorkerCrashed` attempt, respawn, retry.
``stall``
    The worker sleeps past its deadline — the per-job timeout must fire and
    the attempt must be charged as an
    :class:`~repro.runtime.errors.EvaluationTimeout`.
``cache corruption``
    An evalcache shard on disk is overwritten with a torn prefix — the next
    read must quarantine it and recompute (see
    :mod:`repro.runtime.evalcache`).
``journal truncation``
    The checkpoint journal's tail is cut mid-byte — a restarted service
    must drop only the torn record and recompute it.
``client disconnect``
    A client vanishes mid-wait — the server must release the connection
    without leaking the job (it still runs to a terminal state).

Worker-side draws (:func:`worker_fault`) are seeded per ``(request,
attempt)`` through :func:`repro.util.rng.spawn`, so a chaos run replays
bit-identically and a retried job draws fresh chaos instead of dying
identically forever.  The request is named by its content, never by its
evaluation-cache key, so a change of ``ENGINE_VERSION`` leaves every draw
as it was (the measurement-fault injector in
:func:`repro.runtime.evaluate._simulate_job` is keyed the same way).  The
store-side injectors live in :class:`StoreChaos`, driven by the scheduler
between batches from its own derived stream.  Client disconnects are the
client's to inject (see the resilience benchmark) — the server only ever
observes them.
"""

from __future__ import annotations

import functools
import os
import signal
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.runtime.evaluate import _simulate_job
from repro.util.rng import spawn
from repro.util.validation import check_fraction

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Callable

    from repro.runtime.evalcache import EvaluationCache
    from repro.runtime.journal import CheckpointJournal
    from repro.sim.params import MachineConfig

__all__ = [
    "ChaosConfig",
    "chaos_simulate_job",
    "make_chaos_job_fn",
    "StoreChaos",
    "worker_fault",
]


@dataclass(frozen=True)
class ChaosConfig:
    """Per-injector rates (independent Bernoulli draws) plus the seed."""

    #: P[worker SIGKILLs itself] per job attempt.
    crash_rate: float = 0.0
    #: P[worker stalls past its deadline] per job attempt.
    stall_rate: float = 0.0
    #: How long a stalled worker sleeps; set it above the pool's
    #: ``timeout_s`` or the stall is a no-op.
    stall_s: float = 30.0
    #: P[one evalcache shard is torn on disk] per dispatch round.
    cache_corrupt_rate: float = 0.0
    #: P[the journal tail is truncated mid-byte] per dispatch round.
    journal_truncate_rate: float = 0.0
    #: P[a waiting client drops its connection] per wait — consumed by
    #: chaos-aware clients, carried here so one config seeds the whole
    #: fault matrix.
    disconnect_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_fraction("crash_rate", self.crash_rate)
        check_fraction("stall_rate", self.stall_rate)
        check_fraction("cache_corrupt_rate", self.cache_corrupt_rate)
        check_fraction("journal_truncate_rate", self.journal_truncate_rate)
        check_fraction("disconnect_rate", self.disconnect_rate)

    @property
    def worker_rate(self) -> float:
        """Combined worker-side rate (crash + stall)."""
        return self.crash_rate + self.stall_rate


def worker_fault(
    chaos: ChaosConfig,
    trace_digest: str,
    config: "MachineConfig",
    seed: int,
    warm: bool,
    attempt: int,
) -> "str | None":
    """What *chaos* does to *attempt* of one request: ``"crash"``, ``"stall"`` or None.

    The draw is keyed on the request's content (trace digest, config knobs,
    simulator seed, warm-up) and the attempt, so callers can predict the
    damage a seed causes, and an engine-version change cannot re-roll it.
    """
    draw = spawn(chaos.seed, "service-chaos", trace_digest, config.cache_key(),
                 seed, warm, attempt).random()
    if draw < chaos.crash_rate:
        return "crash"
    if draw < chaos.worker_rate:
        return "stall"
    return None


def chaos_simulate_job(
    config,
    trace,
    seed: int,
    warm: bool,
    faults,
    _attempt: int = 1,
    *,
    chaos: ChaosConfig,
):
    """Worker-side job body that may crash or stall before simulating.

    Drop-in for :func:`repro.runtime.evaluate._simulate_job` (installed via
    the runtime's ``job_fn`` hook); module-level and partial-applied so it
    pickles across the fork.  The chaos draw (:func:`worker_fault`) happens
    *before* the simulation, modelling infrastructure death independent of
    the measurement's own fault injection.
    """
    digest = trace if isinstance(trace, str) else trace.content_digest()
    fault = worker_fault(chaos, digest, config, seed, warm, _attempt)
    if fault == "crash":
        os.kill(os.getpid(), signal.SIGKILL)
    elif fault == "stall":
        time.sleep(chaos.stall_s)
    return _simulate_job(config, trace, seed, warm, faults, _attempt)


def make_chaos_job_fn(chaos: ChaosConfig) -> "Callable":
    """A picklable ``job_fn`` applying *chaos* (for ``EvaluationRuntime``)."""
    return functools.partial(chaos_simulate_job, chaos=chaos)


class StoreChaos:
    """Seeded damage to the persistent stores, applied between dispatches.

    The scheduler calls :meth:`maybe_damage` once per dispatch round; each
    call draws independently for the cache and the journal.  Damage is the
    *real* on-disk kind — a torn JSON prefix over a live shard, a mid-byte
    cut of the journal file — so recovery exercises exactly the code paths
    a power loss would.
    """

    def __init__(
        self,
        chaos: ChaosConfig,
        *,
        cache: "EvaluationCache | None" = None,
        journal: "CheckpointJournal | None" = None,
    ) -> None:
        self.chaos = chaos
        self.cache = cache
        self.journal = journal
        self._rng = spawn(chaos.seed, "service-chaos", "stores")
        self.cache_corruptions = 0
        self.journal_truncations = 0

    def maybe_damage(self) -> None:
        """One chaos round: possibly tear a shard, possibly cut the journal."""
        if (
            self.cache is not None
            and self.chaos.cache_corrupt_rate > 0.0
            and self._rng.random() < self.chaos.cache_corrupt_rate
        ):
            self._corrupt_one_shard()
        if (
            self.journal is not None
            and self.chaos.journal_truncate_rate > 0.0
            and self._rng.random() < self.chaos.journal_truncate_rate
        ):
            self._truncate_journal_tail()

    def _corrupt_one_shard(self) -> None:
        shards = sorted(self.cache.root.glob("*/*.json"))
        if not shards:
            return
        victim = shards[int(self._rng.integers(len(shards)))]
        original = victim.read_bytes()
        cut = int(self._rng.integers(1, max(2, len(original))))
        victim.write_bytes(original[:cut])
        self.cache_corruptions += 1

    def _truncate_journal_tail(self) -> None:
        path = self.journal.path
        if not path.exists():
            return
        data = path.read_bytes()
        if len(data) < 2:
            return
        # Cut strictly inside the final record — anywhere, including inside
        # a multi-byte character — leaving earlier records whole.
        last_line_start = data.rstrip(b"\n").rfind(b"\n") + 1
        if last_line_start >= len(data) - 1:
            return
        cut = int(self._rng.integers(last_line_start + 1, len(data)))
        with path.open("rb+") as fh:
            fh.truncate(cut)
        # The in-memory view keeps the entry (it was fully applied before
        # the damage); only a *restarted* journal sees the torn tail, which
        # is the crash semantics being modelled.  Re-sync so the next append
        # starts a fresh line rather than merging into the tear.
        self.journal.sync_tail()
        self.journal_truncations += 1
