"""The "Rule yield" table in docs/STATIC_ANALYSIS.md lists every registered rule, and no others."""

import re
from pathlib import Path

from repro.lint import RULES
from repro.lint.program import PROGRAM_RULES

DOC = Path(__file__).resolve().parents[2] / "docs" / "STATIC_ANALYSIS.md"

ROW = re.compile(r"^\| ([A-Z]+\d{3}) \| (per-file|program) \|")


def yield_table():
    """rule -> tier, for every row of the "Rule yield" table."""
    section = DOC.read_text(encoding="utf-8").split("## Rule yield", 1)[1]
    section = section.split("\n## ", 1)[0]
    return {m.group(1): m.group(2) for m in map(ROW.match, section.splitlines()) if m}


def test_yield_table_matches_the_registries():
    registered = {name: "per-file" for name in RULES}
    registered.update({name: "program" for name in PROGRAM_RULES})
    documented = yield_table()
    assert not registered.keys() - documented.keys(), "registered but not in the yield table"
    assert not documented.keys() - registered.keys(), "in the yield table but not registered"
    assert documented == registered, "a rule is listed under the wrong tier"
