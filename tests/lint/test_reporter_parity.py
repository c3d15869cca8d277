"""Text and JSON reporters must render the same summary numbers.

Both reporters draw from ``LintResult.summary()`` — these tests pin the
contract so a field added to one output cannot silently miss the other.
"""

import json
import textwrap

from repro.lint.engine import run_lint
from repro.lint.reporters import format_json, format_text


def seeded_tree(tmp_path):
    """A sim-scoped tree with one violation and both suppression kinds."""
    sim = tmp_path / "sim"
    sim.mkdir()
    (sim / "seeded.py").write_text(textwrap.dedent("""
        import random


        def bare():
            return random.random()


        def justified():
            return random.random()  # repro: noqa[DET001] -- parity fixture: justified

        def unjustified():
            return random.random()  # repro: noqa[DET001]
    """), encoding="utf-8")
    return tmp_path


def test_summary_fields_match_between_text_and_json(tmp_path):
    result = run_lint([seeded_tree(tmp_path)])
    summary = result.summary()
    assert summary["violations"] == 1
    assert summary["suppressed"] == 2
    assert summary["suppressed_justified"] == 1
    assert summary["suppressed_unjustified"] == 1

    payload = json.loads(format_json(result))
    # Every summary field appears in the JSON payload with the same value
    # (the violation count is carried as the list's length).
    for key, value in summary.items():
        if key == "violations":
            assert len(payload["violations"]) == value
        else:
            assert payload[key] == value

    text = format_text(result)
    assert "1 violation in" in text
    assert "2 suppressed by noqa: 1 justified, 1 unjustified" in text


def test_clean_run_parity(tmp_path):
    (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
    result = run_lint([tmp_path])
    payload = json.loads(format_json(result))
    assert payload["ok"] is True
    assert payload["violations"] == []
    assert payload["parses"] == result.summary()["parses"] == 1
    text = format_text(result)
    assert "0 violations in 1 files" in text
    assert "suppressed" not in text  # no parenthetical when nothing suppressed


def test_violation_lines_match_to_dict(tmp_path):
    result = run_lint([seeded_tree(tmp_path)])
    payload = json.loads(format_json(result))
    text_lines = format_text(result).splitlines()
    for raw, violation in zip(payload["violations"], result.violations):
        assert raw == violation.to_dict()
        assert violation.format() in text_lines
