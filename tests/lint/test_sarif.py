"""The SARIF reporter: document shape, validator, baseline states."""

import json
from pathlib import Path

from repro.lint.engine import Severity, Violation
from repro.lint.program import run_program_lint
from repro.lint.sarif import (
    SARIF_VERSION,
    format_sarif,
    sarif_document,
    validate_sarif,
)

TESTS_LINT = Path(__file__).resolve().parent
PROGRAM_FIXTURES = TESTS_LINT / "fixtures" / "program"


def sample_violation(**overrides):
    base = dict(
        path="src/repro/sim/engine.py",
        line=12,
        col=4,
        rule="RACE001",
        severity=Severity.ERROR,
        message="demo finding",
    )
    base.update(overrides)
    return Violation(**base)


class TestDocumentShape:
    def test_minimal_document_is_valid(self):
        doc = sarif_document([sample_violation()])
        assert validate_sarif(doc) == []
        assert doc["version"] == SARIF_VERSION

    def test_result_carries_location_and_rule_index(self):
        doc = sarif_document([sample_violation()])
        (run,) = doc["runs"]
        (result,) = run["results"]
        assert result["ruleId"] == "RACE001"
        rules = run["tool"]["driver"]["rules"]
        assert rules[result["ruleIndex"]]["id"] == "RACE001"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 12
        assert region["startColumn"] == 5  # 0-based col -> 1-based SARIF

    def test_rule_metadata_covers_both_registries(self):
        doc = sarif_document([])
        ids = {r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]}
        assert {"DET001", "RACE001", "PURE001", "ASYNC001", "SUP001", "SYNTAX"} <= ids

    def test_baselined_findings_are_marked_unchanged(self):
        doc = sarif_document(
            [sample_violation()], baselined=[sample_violation(line=40)]
        )
        states = [r["baselineState"] for r in doc["runs"][0]["results"]]
        assert states == ["new", "unchanged"]

    def test_format_sarif_round_trips_through_json(self):
        text = format_sarif([sample_violation()])
        assert validate_sarif(json.loads(text)) == []


class TestValidator:
    def test_rejects_wrong_version(self):
        doc = sarif_document([])
        doc["version"] = "2.0.0"
        assert any("version" in p for p in validate_sarif(doc))

    def test_rejects_result_without_message(self):
        doc = sarif_document([sample_violation()])
        del doc["runs"][0]["results"][0]["message"]
        assert any("message.text" in p for p in validate_sarif(doc))

    def test_rejects_unknown_rule_id(self):
        doc = sarif_document([sample_violation()])
        doc["runs"][0]["results"][0]["ruleId"] = "BOGUS9"
        assert any("not in driver rules" in p for p in validate_sarif(doc))

    def test_rejects_zero_start_line(self):
        doc = sarif_document([sample_violation()])
        region = doc["runs"][0]["results"][0]["locations"][0]["physicalLocation"]["region"]
        region["startLine"] = 0
        assert any("startLine" in p for p in validate_sarif(doc))

    def test_rejects_non_object(self):
        assert validate_sarif([]) == ["document: expected a JSON object"]


class TestEndToEnd:
    def test_program_findings_serialize_valid_sarif(self):
        result = run_program_lint([PROGRAM_FIXTURES / "race_bad"])
        doc = sarif_document(result.violations, baselined=result.baselined)
        assert validate_sarif(doc) == []
        rule_ids = {r["ruleId"] for r in doc["runs"][0]["results"]}
        assert rule_ids == {"RACE001", "RACE002"}
