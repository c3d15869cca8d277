"""Render a :class:`~repro.lint.engine.LintResult` as text or JSON."""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from repro.lint.engine import RULES, LintResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.program.driver import ProgramLintResult

__all__ = ["format_text", "format_json", "format_program_text", "format_rule_listing"]


def format_text(result: LintResult) -> str:
    """Human-readable report: one line per violation plus a summary.

    The summary line renders exactly the fields of
    :meth:`~repro.lint.engine.LintResult.summary`, which is also what
    :func:`format_json` serializes — the two reporters cannot drift.
    """
    lines = [v.format() for v in result.violations]
    summary = result.summary()
    noun = "violation" if summary["violations"] == 1 else "violations"
    text = f"{summary['violations']} {noun} in {summary['files_checked']} files"
    if result.suppressed:
        text += (
            f" ({result.suppressed} suppressed by noqa: "
            f"{result.suppressed_justified} justified, "
            f"{result.suppressed_unjustified} unjustified)"
        )
    lines.append(text)
    return "\n".join(lines)


def format_json(result: LintResult) -> str:
    """Machine-readable report for CI annotation tooling.

    Carries the violation list plus every summary field the text reporter
    prints (same :meth:`~repro.lint.engine.LintResult.summary` source),
    including the justified/unjustified suppression split.
    """
    payload: dict = dict(result.summary())
    # ``summary()["violations"]`` is the count; the JSON report carries the
    # full list instead (the count is its length).
    payload["violations"] = [v.to_dict() for v in result.violations]
    return json.dumps(payload, indent=2, sort_keys=True)


def format_program_text(result: "ProgramLintResult") -> str:
    """Human-readable report of one ``--program`` run.

    Baselined (grandfathered) findings render with a ``[baselined]`` tag
    but do not gate; the summary line carries the same numbers
    :meth:`~repro.lint.program.driver.ProgramLintResult.summary`
    serializes into the JSON report.
    """
    lines = [v.format() for v in result.violations]
    lines.extend(f"{v.format()} [baselined]" for v in result.baselined)
    noun = "violation" if len(result.violations) == 1 else "violations"
    lines.append(
        f"program analysis: {len(result.violations)} {noun} "
        f"({len(result.baselined)} baselined) in {result.files_checked} files; "
        f"entry points: {len(result.entries.cli)} cli, "
        f"{len(result.entries.pool)} pool, {len(result.entries.engine)} engine; "
        f"{result.suppressed} suppressed "
        f"({result.suppressed_justified} justified, "
        f"{result.suppressed_unjustified} unjustified); "
        f"parses: {result.parses} (+{result.parse_reuses} reused)"
    )
    return "\n".join(lines)


def format_rule_listing() -> str:
    """The ``--list-rules`` output: every registered rule with its scope.

    Program rules (the whole-program RACE/PURE/ASYNC/SUP packs, run with
    ``--program``) are listed with the ``program`` scope marker.
    """
    from repro.lint.program.rules import PROGRAM_RULES

    lines = []
    for name in sorted(RULES):
        rule = RULES[name]
        scope = ",".join(rule.packages) if rule.packages else "all"
        lines.append(f"{name}  [{rule.severity.value:7s}] ({scope}) {rule.description}")
    for name in sorted(PROGRAM_RULES):
        program_rule = PROGRAM_RULES[name]
        lines.append(
            f"{name}  [{program_rule.severity.value:7s}] (program) "
            f"{program_rule.description}"
        )
    return "\n".join(lines)
