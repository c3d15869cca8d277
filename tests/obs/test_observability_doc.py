"""docs/OBSERVABILITY.md names every span and event ``src/repro`` emits, and no others."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
DOC = ROOT / "docs" / "OBSERVABILITY.md"
SRC = ROOT / "src" / "repro"

ROW = re.compile(r"^\| `([^`]+)`( \(event\))? \|")


def emitted_names():
    """(name, kind) of every string-literal ``obs_trace.span/event`` call."""
    found = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("span", "event")
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "obs_trace"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                found.add((node.args[0].value, node.func.attr))
    return found


def documented_names():
    """(name, kind) of every row of the "Span and event names" table."""
    text = DOC.read_text(encoding="utf-8")
    section = text.split("### Span and event names", 1)[1].split("\n\n", 2)[1]
    rows = set()
    for line in section.splitlines():
        match = ROW.match(line)
        if match:
            rows.add((match.group(1), "event" if match.group(2) else "span"))
    return rows


def test_scanner_finds_the_engine_spans():
    names = {name for name, _ in emitted_names()}
    assert {"sim.run", "engine.warm", "analysis.measure", "pool.job"} <= names


def test_span_table_matches_the_code():
    emitted, documented = emitted_names(), documented_names()
    assert not emitted - documented, "emitted but not in docs/OBSERVABILITY.md"
    assert not documented - emitted, "in docs/OBSERVABILITY.md but never emitted"
