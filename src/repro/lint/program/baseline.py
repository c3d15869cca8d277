"""Fingerprint baseline for graded adoption of the program rules.

Turning on a whole-program analyzer over a grown codebase produces a
burst of pre-existing findings.  The baseline file (checked in at the
repo root as ``lint-baseline.json``) records their fingerprints so that
CI fails only on *new* findings while the backlog is paid down; removing
entries ratchets the gate tighter.

Fingerprints hash the rule id, the normalized path, and the *stripped
source line text* — not the line number — so unrelated edits above a
finding do not invalidate the baseline.  Identical (rule, path, text)
triples are disambiguated by an occurrence ordinal.  SUP001 and the
ASYNC001-004 findings are never baselined: an unjustified suppression
must be fixed, not grandfathered (see
:class:`~repro.lint.program.rules.UnjustifiedSuppression`), and a call
that can stall the event loop — or deadlock it — stalls every connected
client, so the async tier starts, and stays, at zero.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath

from repro.lint.engine import Violation

__all__ = [
    "BaselineEntry",
    "Baseline",
    "fingerprint_violation",
    "load_baseline",
    "write_baseline",
]

#: Rules that may never be baselined (eager-failure semantics).
NEVER_BASELINED = frozenset({"SUP001", "ASYNC001", "ASYNC002", "ASYNC003", "ASYNC004"})

#: On-disk schema version, bumped if the fingerprint recipe changes.
_BASELINE_VERSION = 1


def _normalize_path(path: str) -> str:
    """Forward-slash, relative-looking path so fingerprints are portable."""
    return str(PurePosixPath(*Path(path).parts)).lstrip("/")


def fingerprint_violation(
    violation: Violation, line_text: str, occurrence: int = 0
) -> str:
    """The stable identity of one finding.

    ``line_text`` is the source line the violation anchors to (stripped
    before hashing); *occurrence* disambiguates repeated identical
    triples within one file.
    """
    basis = "\x1f".join(
        [
            violation.rule,
            _normalize_path(violation.path),
            line_text.strip(),
            str(occurrence),
        ]
    )
    return hashlib.sha256(basis.encode("utf-8")).hexdigest()[:20]


@dataclass(frozen=True)
class BaselineEntry:
    """One grandfathered finding, with human-readable context."""

    fingerprint: str
    rule: str
    path: str
    line: int
    message: str

    def to_dict(self) -> "dict[str, object]":
        """JSON form, key-sorted by the writer for stable diffs."""
        return {
            "fingerprint": self.fingerprint,
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }


@dataclass
class Baseline:
    """The set of grandfathered finding fingerprints."""

    entries: "dict[str, BaselineEntry]" = field(default_factory=dict)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self.entries

    def __len__(self) -> int:
        return len(self.entries)


def load_baseline(path: "str | Path") -> Baseline:
    """Read a baseline file; a missing file is an empty baseline."""
    file_path = Path(path)
    if not file_path.exists():
        return Baseline()
    payload = json.loads(file_path.read_text(encoding="utf-8"))
    if not isinstance(payload, dict) or "entries" not in payload:
        raise ValueError(f"{file_path}: not a lint baseline file")
    baseline = Baseline()
    for raw in payload["entries"]:
        entry = BaselineEntry(
            fingerprint=str(raw["fingerprint"]),
            rule=str(raw["rule"]),
            path=str(raw["path"]),
            line=int(raw["line"]),
            message=str(raw["message"]),
        )
        baseline.entries[entry.fingerprint] = entry
    return baseline


def write_baseline(path: "str | Path", entries: "list[BaselineEntry]") -> None:
    """Write *entries* as a baseline file (sorted, stable for diffs)."""
    ordered = sorted(entries, key=lambda e: (e.path, e.rule, e.line, e.fingerprint))
    payload = {
        "version": _BASELINE_VERSION,
        "comment": (
            "Grandfathered repro lint --program findings. Remove entries as "
            "the underlying findings are fixed; never add SUP001 entries."
        ),
        "entries": [entry.to_dict() for entry in ordered],
    }
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
