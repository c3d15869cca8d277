"""SARIF 2.1.0 output for lint results.

SARIF (Static Analysis Results Interchange Format) is what CI code
scanners ingest: emitting it lets the program-analysis findings surface
as first-class code-review annotations instead of log text.  Only the
subset of the format we populate is produced — one ``run`` by the
``repro-lint`` driver, one ``result`` per violation, with rule metadata
drawn from both the per-file and program rule registries.

:func:`validate_sarif` is a structural validator for that subset (the
golden tests run it offline; full JSON-schema validation against the
published schema is intentionally not attempted so the test suite needs
no network access).
"""

from __future__ import annotations

import json
from collections.abc import Sequence

from repro.lint.engine import RULES, Severity, Violation
from repro.lint.program.rules import PROGRAM_RULES

__all__ = ["SARIF_SCHEMA_URI", "SARIF_VERSION", "sarif_document", "format_sarif", "validate_sarif"]

SARIF_SCHEMA_URI = (
    "https://json.schemastore.org/sarif-2.1.0.json"
)
SARIF_VERSION = "2.1.0"

#: Reported as ``tool.driver.version``; bump alongside rule-set changes.
TOOL_VERSION = "1.4.0"


def _rule_metadata() -> "list[dict[str, object]]":
    """Every registered rule (per-file + program), sorted by id."""
    merged: "dict[str, tuple[str, Severity]]" = {}
    for name, rule in RULES.items():
        merged[name] = (rule.description, rule.severity)
    for name, program_rule in PROGRAM_RULES.items():
        merged[name] = (program_rule.description, program_rule.severity)
    # Findings synthesized by the drivers rather than a rule class.
    merged.setdefault("SYNTAX", ("file could not be parsed", Severity.ERROR))
    return [
        {
            "id": name,
            "shortDescription": {"text": merged[name][0]},
            "defaultConfiguration": {"level": merged[name][1].value},
        }
        for name in sorted(merged)
    ]


def _artifact_uri(path: str) -> str:
    """Forward-slash relative URI, as SARIF artifactLocation expects."""
    return path.replace("\\", "/").lstrip("/")


def sarif_document(
    violations: "Sequence[Violation]",
    *,
    baselined: "Sequence[Violation]" = (),
) -> "dict[str, object]":
    """Build the SARIF log for one lint run.

    Gating *violations* carry ``baselineState: "new"``; *baselined*
    findings are included with ``baselineState: "unchanged"`` so scanners
    show the full picture while only new findings gate.
    """
    rules_meta = _rule_metadata()
    rule_index = {str(meta["id"]): i for i, meta in enumerate(rules_meta)}

    def result(violation: Violation, state: str) -> "dict[str, object]":
        return {
            "ruleId": violation.rule,
            "ruleIndex": rule_index.get(violation.rule, -1),
            "level": violation.severity.value,
            "message": {"text": violation.message},
            "baselineState": state,
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": _artifact_uri(violation.path)},
                        "region": {
                            "startLine": max(violation.line, 1),
                            "startColumn": violation.col + 1,
                        },
                    }
                }
            ],
        }

    results = [result(v, "new") for v in violations]
    results.extend(result(v, "unchanged") for v in baselined)
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": "https://example.invalid/repro-lint",
                        "version": TOOL_VERSION,
                        "rules": rules_meta,
                    }
                },
                "columnKind": "utf16CodeUnits",
                "results": results,
            }
        ],
    }


def format_sarif(
    violations: "Sequence[Violation]",
    *,
    baselined: "Sequence[Violation]" = (),
) -> str:
    """The SARIF log serialized for ``--format sarif``."""
    return json.dumps(
        sarif_document(violations, baselined=baselined), indent=2, sort_keys=True
    )


def validate_sarif(doc: object) -> "list[str]":
    """Structural validation of the SARIF subset this module emits.

    Returns a list of problems (empty when the document is valid).  The
    checks mirror the required properties of the SARIF 2.1.0 schema for
    the populated subset: top-level version/runs, tool.driver.name, and
    per-result ruleId / message.text / physicalLocation shape.
    """
    problems: "list[str]" = []
    if not isinstance(doc, dict):
        return ["document: expected a JSON object"]
    if doc.get("version") != SARIF_VERSION:
        problems.append(f"version: expected {SARIF_VERSION!r}")
    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        problems.append("runs: expected a non-empty array")
        return problems
    for i, run in enumerate(runs):
        if not isinstance(run, dict):
            problems.append(f"runs[{i}]: expected an object")
            continue
        driver = run.get("tool", {}).get("driver", {}) if isinstance(run.get("tool"), dict) else {}
        if not isinstance(driver, dict) or not isinstance(driver.get("name"), str):
            problems.append(f"runs[{i}].tool.driver.name: expected a string")
        rules = driver.get("rules", []) if isinstance(driver, dict) else []
        rule_ids = set()
        if isinstance(rules, list):
            for j, meta in enumerate(rules):
                if not isinstance(meta, dict) or not isinstance(meta.get("id"), str):
                    problems.append(f"runs[{i}].tool.driver.rules[{j}].id: expected a string")
                else:
                    rule_ids.add(meta["id"])
        results = run.get("results")
        if not isinstance(results, list):
            problems.append(f"runs[{i}].results: expected an array")
            continue
        for j, res in enumerate(results):
            where = f"runs[{i}].results[{j}]"
            if not isinstance(res, dict):
                problems.append(f"{where}: expected an object")
                continue
            if not isinstance(res.get("ruleId"), str):
                problems.append(f"{where}.ruleId: expected a string")
            elif rule_ids and res["ruleId"] not in rule_ids:
                problems.append(f"{where}.ruleId: {res['ruleId']!r} not in driver rules")
            message = res.get("message")
            if not isinstance(message, dict) or not isinstance(message.get("text"), str):
                problems.append(f"{where}.message.text: expected a string")
            if res.get("level") not in ("none", "note", "warning", "error"):
                problems.append(f"{where}.level: invalid level")
            locations = res.get("locations")
            if not isinstance(locations, list) or not locations:
                problems.append(f"{where}.locations: expected a non-empty array")
                continue
            for k, loc in enumerate(locations):
                physical = loc.get("physicalLocation") if isinstance(loc, dict) else None
                if not isinstance(physical, dict):
                    problems.append(f"{where}.locations[{k}].physicalLocation: missing")
                    continue
                artifact = physical.get("artifactLocation")
                if not isinstance(artifact, dict) or not isinstance(artifact.get("uri"), str):
                    problems.append(
                        f"{where}.locations[{k}].physicalLocation.artifactLocation.uri: expected a string"
                    )
                region = physical.get("region")
                if not isinstance(region, dict) or not isinstance(region.get("startLine"), int):
                    problems.append(
                        f"{where}.locations[{k}].physicalLocation.region.startLine: expected an integer"
                    )
                elif region["startLine"] < 1:
                    problems.append(
                        f"{where}.locations[{k}].physicalLocation.region.startLine: must be >= 1"
                    )
    return problems
