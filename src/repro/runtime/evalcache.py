"""Persistent content-addressed cache of measured evaluations.

The paper's walks re-visit design points constantly: a guided LPM walk, a
greedy explorer frontier, an ``analysis/sweep`` grid and a CI run all
measure overlapping ``(trace, config, seed, warm)`` points — and the
checkpoint journal (:mod:`repro.runtime.journal`) only remembers them for
one journal file.  :class:`EvaluationCache` is the cross-run, cross-process
store: a directory of JSON entries keyed by content, so each measurement is
paid for exactly once per machine.

Key derivation
--------------
An entry's key is ``sha256`` over::

    (trace content digest, MachineConfig.cache_key(), seed, warm, ENGINE_VERSION)

* the *trace content digest* hashes the instruction arrays, not the trace
  name — renaming a workload cannot alias two different traces;
* ``MachineConfig.cache_key()`` covers every knob except the config's
  display name;
* :data:`repro.sim.engine.ENGINE_VERSION` is baked into the key, so a
  timing-model change invalidates every entry at once (stale entries are
  simply never looked up again); each entry also records the version so a
  stale store can be audited or pruned by hand.

When NOT to trust the cache: entries are only as good as the simulator
version discipline — a timing change that forgets to bump
``ENGINE_VERSION`` will keep serving pre-change measurements.  Delete the
cache directory (or pass a fresh ``--eval-cache`` path) when in doubt.

Storage layout is two-level (``root/ab/abcdef....json``) to keep directory
fan-out bounded; writes go through a temp file + ``os.replace`` so a killed
process never leaves a torn entry behind.

Entry layout and the two read branches
--------------------------------------
:meth:`EvaluationCache.put` serializes the stats once, in the canonical
form (sorted keys, compact separators), and writes exactly::

    {"engine_version":V,"sha":S,"stats":<canonical stats>}

where ``S`` is the first 16 hex digits of ``sha256`` over the canonical
stats bytes.  :meth:`EvaluationCache.get` has two branches:

* **hit branch** — the bytes are exactly that template for the current
  ``ENGINE_VERSION``, the stats slice hashes to ``S``, and it parses to a
  dict.  Only the stats slice is parsed; nothing is re-serialized.
* **general branch** — anything else: entries in another key order or
  spacing (older writers), entries with no ``sha``, other versions, torn
  files and bit flips.  The whole entry is parsed, the digest is checked
  over a canonical re-dump of ``stats``, and the version and quarantine
  rules below apply.

Corrupt-entry quarantine
------------------------
Even with atomic writes, a shard can rot under the store's feet: a crash
mid-``os.replace`` on some filesystems, a partial copy, bit rot, or an
injected chaos fault (:mod:`repro.service.chaos`) can leave truncated JSON
or a payload that no longer matches its recorded digest.  Reads treat any
such entry as a **miss**, move the damaged file to a ``.corrupt`` sibling
(so it can never be served again but stays available for forensics), and
bump the ``evalcache.corrupt_quarantined`` counter.  Corruption is
detected two ways:

* the file fails to parse as JSON (torn write), or lacks the entry shape;
* the entry's recorded ``sha`` — written by :meth:`EvaluationCache.put`
  over the canonical stats payload — does not match the payload
  (silent content corruption).  Entries written before the digest field
  existed carry no ``sha`` and are served as-is.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING

from repro.obs import metrics as obs_metrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.params import MachineConfig
    from repro.workloads.trace import Trace

__all__ = ["EvaluationCache", "evaluation_cache_key"]


def evaluation_cache_key(
    trace: "Trace", config: "MachineConfig", seed: int, warm: bool
) -> str:
    """Content-addressed key for one ``simulate_and_measure`` evaluation."""
    from repro.sim.engine import ENGINE_VERSION

    material = "|".join(
        (
            trace.content_digest(),
            config.cache_key(),
            f"seed={seed}",
            f"warm={warm}",
            f"engine_v{ENGINE_VERSION}",
        )
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def _canonical(stats_dict: dict) -> bytes:
    """The canonical form of one stats payload: sorted keys, compact."""
    return json.dumps(stats_dict, separators=(",", ":"), sort_keys=True).encode("utf-8")


def _sha(canonical: bytes) -> str:
    """Entry-integrity digest of one canonical stats payload."""
    return hashlib.sha256(canonical).hexdigest()[:16]


def _stats_digest(stats_dict: dict) -> str:
    """Content digest of one canonicalized stats payload (entry integrity)."""
    return _sha(_canonical(stats_dict))


def _head(engine_version: int) -> bytes:
    """Everything a canonical entry holds before its 16-hex-digit sha."""
    return b'{"engine_version":%d,"sha":"' % engine_version


#: What a canonical entry holds between its sha and its stats.
_MID = b'","stats":'


class EvaluationCache:
    """Directory-backed ``key -> measurement dict`` store.

    Values are the JSON dictionaries produced by
    ``HierarchyStats.to_dict()`` — exactly what the checkpoint journal
    stores — so a cache hit reconstructs byte-identical statistics.
    Hit/miss/byte counters are kept on the instance and mirrored into the
    ``obs`` metrics registry when metrics are enabled.
    """

    def __init__(self, root: "str | os.PathLike[str]") -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._root = str(self.root)
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        self.bytes_read = 0
        self.bytes_written = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))

    def get(self, key: str) -> "dict | None":
        """The cached measurement for *key*, or None on miss.

        Entries from another ``ENGINE_VERSION`` count as misses and are
        left on disk for auditing.  Torn files (unparseable JSON, wrong
        entry shape) and entries whose payload digest no longer matches
        are **quarantined**: moved to a ``.corrupt`` sibling, counted, and
        reported as a miss — corruption never raises out of the cache
        layer and can never be served twice.
        """
        from repro.sim.engine import ENGINE_VERSION

        try:
            with open(f"{self._root}/{key[:2]}/{key}.json", "rb") as fh:
                raw = fh.read()
        except OSError:
            self._record(hit=False)
            return None
        head = _head(ENGINE_VERSION)
        sha_end = len(head) + 16
        body = raw[sha_end + len(_MID):-1]
        if (
            raw.startswith(head)
            and raw.startswith(_MID, sha_end)
            and raw.endswith(b"}")
            and _sha(body).encode("ascii") == raw[len(head):sha_end]
        ):
            # A canonical entry whose stats bytes hash to its sha: the only
            # parse left is the stats themselves.
            try:
                stats = json.loads(body)
            except ValueError:
                stats = None
            if isinstance(stats, dict):
                self._record(hit=True, n_bytes=len(raw))
                return stats
        path = self._path(key)
        try:
            entry = json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError):
            self._quarantine(path, "torn")
            return None
        if not isinstance(entry, dict) or "stats" not in entry:
            self._quarantine(path, "malformed")
            return None
        if "sha" in entry and entry["sha"] != _stats_digest(entry["stats"]):
            self._quarantine(path, "digest-mismatch")
            return None
        if entry.get("engine_version") != ENGINE_VERSION:
            self._record(hit=False)
            return None
        self._record(hit=True, n_bytes=len(raw))
        return entry["stats"]

    def put(self, key: str, stats_dict: dict) -> None:
        """Store one measurement atomically (last writer wins)."""
        from repro.sim.engine import ENGINE_VERSION

        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        canonical = _canonical(stats_dict)
        payload = b"".join(
            (_head(ENGINE_VERSION), _sha(canonical).encode("ascii"), _MID, canonical, b"}")
        )
        tmp = path.with_suffix(".json.tmp")
        tmp.write_bytes(payload)
        os.replace(tmp, path)
        self.bytes_written += len(payload)
        if obs_metrics.metrics_enabled():
            obs_metrics.get_registry().counter("evalcache.bytes_written").inc(
                len(payload)
            )

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a damaged shard to its ``.corrupt`` sibling; count a miss."""
        target = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, target)
        except OSError:
            # Could not move it (e.g. racing reader already did); a miss is
            # still the right answer — the entry is never served.
            pass
        self.quarantined += 1
        if obs_metrics.metrics_enabled():
            reg = obs_metrics.get_registry()
            reg.counter("evalcache.corrupt_quarantined").inc()
            reg.counter(f"evalcache.corrupt.{reason}").inc()
        self._record(hit=False)

    def _record(self, *, hit: bool, n_bytes: int = 0) -> None:
        if hit:
            self.hits += 1
            self.bytes_read += n_bytes
        else:
            self.misses += 1
        if obs_metrics.metrics_enabled():
            reg = obs_metrics.get_registry()
            reg.counter("evalcache.hits" if hit else "evalcache.misses").inc()
            if n_bytes:
                reg.counter("evalcache.bytes_read").inc(n_bytes)

    def __repr__(self) -> str:
        return (
            f"EvaluationCache({str(self.root)!r}, hits={self.hits}, "
            f"misses={self.misses})"
        )
