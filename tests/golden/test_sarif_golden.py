"""Golden SARIF snapshots of ``lint --program`` runs over seeded fixtures.

Pins the exact SARIF 2.1.0 documents the CI pipeline uploads, so format
drift (rule metadata, location shape, baseline states) shows up as a
reviewable diff.  Refresh, like the CLI goldens, with::

    PYTHONPATH=src python -m pytest tests/golden --update-goldens
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint.sarif import validate_sarif

GOLDEN_DIR = Path(__file__).resolve().parent
REPO_ROOT = GOLDEN_DIR.parents[1]
FIXTURES = Path("tests") / "lint" / "fixtures"

#: name -> (fixture path, comma-joined rule selection).
CASES = {
    "lint_program_race_bad": (
        FIXTURES / "program" / "race_bad",
        "RACE001,RACE002",
    ),
    # The whole async fixture tree: every ASYNC rule plus RACE003 fires
    # once (the *_clean packages contribute nothing), pinning the async
    # tier's SARIF rendering end to end.
    "lint_program_async_bad": (
        FIXTURES / "async",
        "ASYNC001,ASYNC002,ASYNC003,ASYNC004,RACE003",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_program_sarif_golden(name, capsys, request, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)  # fixture paths and baseline are repo-relative
    fixture, rules = CASES[name]
    code = main([
        "lint", "--program", "--format", "sarif",
        "--rules", rules, str(fixture),
    ])
    out = capsys.readouterr().out
    assert code == 1  # the seeded fixtures must gate
    doc = json.loads(out)
    assert validate_sarif(doc) == []

    golden_path = GOLDEN_DIR / f"{name}.sarif.json"
    normalized = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if request.config.getoption("--update-goldens"):
        golden_path.write_text(normalized, encoding="utf-8")
        return
    assert golden_path.exists(), (
        f"missing golden {golden_path.name}; create it with "
        "pytest tests/golden --update-goldens"
    )
    expected = golden_path.read_text(encoding="utf-8")
    assert normalized == expected, (
        f"SARIF output drifted from {golden_path.name}; if the change is "
        "intended, refresh with pytest tests/golden --update-goldens"
    )
