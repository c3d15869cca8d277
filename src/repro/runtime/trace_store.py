"""Process-resident trace store keyed by content digest.

``EvaluationRuntime`` used to pickle the full numpy-backed :class:`Trace`
into every pool job, so a batch fan-out over N configurations shipped N
copies of the same 100k-access trace through the job pipes.  The store
breaks that scaling: traces are registered once per process under their
:meth:`~repro.workloads.trace.Trace.content_digest`, and job payloads carry
the digest string instead of the arrays.

How the store is populated depends on the pool mode:

* **inline** (``max_workers=0``) — jobs run in the registering process; the
  parent-side :func:`register` is all that is needed.
* **workers** — pool workers live as long as their pool, so a worker may
  have started before a trace was registered: parent-side registration
  alone does not reach it, fork or not.  The runtime therefore also adds
  each trace once to :attr:`EvaluationPool.worker_setup`, and the pool
  sends it to each live worker once, as a setup message that calls
  :func:`register` worker-side.  A worker forked after the entry was added
  inherits the parent's store and is sent nothing; a spawned one is sent
  every entry.

The store is deliberately module-level (plain dict, no locking): each
process has exactly one, worker processes are single-threaded, and the
parent only mutates it between batches.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workloads.trace import Trace

__all__ = ["register", "resolve", "is_registered", "clear", "size"]

_TRACES: "dict[str, Trace]" = {}  # repro: noqa[RACE002] -- per-process store by design: workers populate their own copy via worker_setup; supervisor-side clear() only runs between evaluations


def register(trace: "Trace", digest: "str | None" = None) -> str:
    """Register *trace* under its content digest; returns the digest.

    Passing a precomputed *digest* skips re-hashing (the setup message path
    ships the digest alongside the trace so workers don't pay for SHA-256
    on arrays the parent already hashed).
    """
    if digest is None:
        digest = trace.content_digest()
    _TRACES[digest] = trace  # repro: noqa[RACE001] -- single-threaded per process: each worker registers into its own _TRACES before its job loop starts
    return digest


def resolve(digest: str) -> "Trace":
    """The trace registered under *digest*.

    Raises :class:`KeyError` with a diagnosis when the digest is unknown —
    in a worker this means the registration setup message was lost, which
    the pool's retry machinery treats as a retryable failure.
    """
    try:
        return _TRACES[digest]
    except KeyError:
        raise KeyError(
            f"trace {digest[:12]}... not registered in this process "
            f"({len(_TRACES)} registered); worker setup may not have run"
        ) from None


def is_registered(digest: str) -> bool:
    """Whether *digest* is present in this process's store."""
    return digest in _TRACES


def clear() -> None:
    """Drop every registered trace (tests / long-lived parents)."""
    _TRACES.clear()


def size() -> int:
    """Number of traces currently registered in this process."""
    return len(_TRACES)
