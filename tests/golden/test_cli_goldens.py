"""Golden snapshots of the CLI's user-facing output.

Every case runs ``repro.cli.main`` in-process with fixed seeds, normalizes
the nondeterministic fragments (absolute paths, wall-clock timings) and
diffs against the committed snapshot in this directory.  A deliberate
output change is recorded with::

    PYTHONPATH=src python -m pytest tests/golden --update-goldens

and the rewritten ``.txt`` files reviewed in the diff like any other code.
"""

import re
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent

CASES = {
    "simulate_bwaves_A": [
        "simulate", "--benchmark", "410.bwaves", "--config", "A",
        "--accesses", "4000", "--seed", "7",
    ],
    "simulate_gcc_default_metrics_text": [
        "simulate", "--benchmark", "403.gcc", "--config", "default",
        "--accesses", "3000", "--seed", "7", "--metrics", "text",
    ],
    "walk_bwaves": [
        "walk", "--benchmark", "410.bwaves", "--accesses", "4000",
        "--seed", "7",
    ],
    "walk_bwaves_metrics_json": [
        "walk", "--benchmark", "410.bwaves", "--accesses", "4000",
        "--seed", "7", "--metrics", "json",
    ],
    "diagnose_mcf_A": [
        "diagnose", "--benchmark", "429.mcf", "--config", "A",
        "--accesses", "3000", "--seed", "7",
    ],
    "sweep_gcc_engine_auto": [
        "sweep", "--benchmark", "403.gcc", "--accesses", "3000",
        "--seed", "7", "--engine", "auto",
    ],
    "benchmarks_listing": ["benchmarks"],
    "lint_list_rules": ["lint", "--list-rules"],
}

#: (pattern, replacement) applied to captured and stored text alike, so
#: snapshots are stable across machines and runs.
_NORMALIZERS = (
    (re.compile(r"(/[\w.\-]+)+/(repo|tmp|pytest-[\w\-]+)[\w./\-]*"), "<PATH>"),
    (re.compile(r"\b\d+\.\d+ ?(s|ms|us|µs)\b"), "<TIME>"),
)


def _normalize(text: str) -> str:
    for pattern, replacement in _NORMALIZERS:
        text = pattern.sub(replacement, text)
    # Trailing-whitespace differences are invisible in review; strip them.
    return "\n".join(line.rstrip() for line in text.splitlines()) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_golden(name, capsys, request):
    code = main(CASES[name])
    out = _normalize(capsys.readouterr().out)
    assert code == 0
    golden_path = GOLDEN_DIR / f"{name}.txt"
    if request.config.getoption("--update-goldens"):
        golden_path.write_text(out, encoding="utf-8")
        return
    assert golden_path.exists(), (
        f"missing golden {golden_path.name}; create it with "
        "pytest tests/golden --update-goldens"
    )
    expected = _normalize(golden_path.read_text(encoding="utf-8"))
    assert out == expected, (
        f"CLI output drifted from {golden_path.name}; if the change is "
        "intended, refresh with pytest tests/golden --update-goldens"
    )


def test_goldens_have_no_orphans():
    """Every committed snapshot corresponds to a live case (and vice versa
    the parametrized test above guarantees every case has a snapshot)."""
    on_disk = {p.stem for p in GOLDEN_DIR.glob("*.txt")}
    assert on_disk == set(CASES), (
        f"orphaned goldens: {on_disk - set(CASES)}; "
        f"missing goldens: {set(CASES) - on_disk}"
    )
