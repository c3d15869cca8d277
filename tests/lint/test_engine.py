"""Tests of the lint engine itself: suppression, scoping, drivers, reporters."""

import json

import pytest

from repro.lint.engine import (
    RULES,
    ModuleContext,
    Rule,
    Severity,
    Violation,
    lint_source,
    run_lint,
)
from repro.lint.reporters import format_json, format_rule_listing, format_text

SIM_PATH = "src/repro/sim/example.py"


class TestRegistry:
    def test_all_rule_packs_registered(self):
        assert {
            "DET001", "DET002", "NUM001", "NUM002",
            "ERR001", "ERR002", "CON003", "CTR001",
        } <= set(RULES)

    def test_every_rule_has_metadata(self):
        for name, rule in RULES.items():
            assert rule.name == name
            assert rule.description
            assert isinstance(rule.severity, Severity)

    def test_unknown_rule_selection_rejected(self):
        with pytest.raises(KeyError, match="NOPE999"):
            lint_source("x = 1\n", rules=["NOPE999"])


class TestScoping:
    def test_package_scoped_rule_skips_other_paths(self):
        source = "import random\n\ndef f():\n    return random.random()\n"
        assert lint_source(source, "src/repro/cli.py", rules=["DET001"]) == []
        assert len(lint_source(source, SIM_PATH, rules=["DET001"])) == 1

    def test_unscoped_rule_applies_everywhere(self):
        source = "def f(x, accesses):\n    return x / accesses\n"
        assert len(lint_source(source, "scripts/anything.py", rules=["NUM001"])) == 1


class TestSuppression:
    SOURCE = (
        "import random\n"
        "\n"
        "def f():\n"
        "    return random.random()  # repro: noqa[DET001] -- test seed source\n"
    )

    def test_noqa_suppresses_named_rule(self):
        assert lint_source(self.SOURCE, SIM_PATH, rules=["DET001"]) == []

    def test_noqa_is_rule_specific(self):
        other = self.SOURCE.replace("noqa[DET001]", "noqa[NUM001]")
        assert len(lint_source(other, SIM_PATH, rules=["DET001"])) == 1

    def test_multiple_rules_in_one_noqa(self):
        source = (
            "import random\n"
            "def f(n):\n"
            "    return random.random() / n  # repro: noqa[DET001, NUM001]\n"
        )
        assert lint_source(source, SIM_PATH, rules=["DET001", "NUM001"]) == []

    def test_run_lint_counts_suppressions(self, tmp_path):
        target = tmp_path / "sim" / "mod.py"
        target.parent.mkdir()
        target.write_text(self.SOURCE)
        result = run_lint([tmp_path])
        assert result.ok
        assert result.suppressed == 1
        assert result.files_checked == 1


class TestDrivers:
    def test_violations_sorted_and_deterministic(self, tmp_path):
        (tmp_path / "b.py").write_text("def f(n):\n    return 1 / n\n")
        (tmp_path / "a.py").write_text(
            "def g(total, count):\n    return total / count + 1 / total\n"
        )
        first = run_lint([tmp_path], rules=["NUM001"])
        second = run_lint([tmp_path], rules=["NUM001"])
        assert [v.path for v in first.violations] == sorted(
            v.path for v in first.violations
        )
        assert first.violations == second.violations
        assert not first.ok

    def test_syntax_error_reported_not_raised(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        result = run_lint([tmp_path])
        assert len(result.violations) == 1
        assert result.violations[0].rule == "SYNTAX"

    def test_violation_format_is_clickable(self):
        v = Violation(
            path="x.py", line=3, col=7, rule="NUM001",
            severity=Severity.ERROR, message="boom",
        )
        assert v.format() == "x.py:3:7: NUM001 [error] boom"


class TestModuleContext:
    def test_import_alias_resolution(self):
        import ast

        source = "import numpy as np\nx = np.random.rand\n"
        ctx = ModuleContext("m.py", source, ast.parse(source))
        attr = ctx.tree.body[1].value
        assert ctx.resolve_call_chain(attr) == ["numpy", "random", "rand"]

    def test_from_import_resolution(self):
        import ast

        source = "from time import time as now\nx = now\n"
        ctx = ModuleContext("m.py", source, ast.parse(source))
        name = ctx.tree.body[1].value
        assert ctx.resolve_call_chain(name) == ["time", "time"]


class TestReporters:
    def _result(self, source, path=SIM_PATH):
        from repro.lint.engine import LintResult

        return LintResult(lint_source(source, path), files_checked=1)

    def test_text_report_has_summary_line(self):
        report = format_text(self._result("x = 1\n"))
        assert report.endswith("0 violations in 1 files")

    def test_json_report_round_trips(self):
        result = self._result("import random\ndef f():\n    return random.random()\n")
        payload = json.loads(format_json(result))
        assert payload["ok"] is False
        assert payload["violations"][0]["rule"] == "DET001"
        assert payload["violations"][0]["line"] == 3

    def test_rule_listing_covers_registry(self):
        listing = format_rule_listing()
        for name in RULES:
            assert name in listing


class TestRuleBase:
    def test_register_rejects_anonymous_rules(self):
        from repro.lint.engine import register

        with pytest.raises(ValueError, match="must set a name"):
            @register
            class Nameless(Rule):
                pass

    def test_register_rejects_duplicates(self):
        from repro.lint.engine import register

        with pytest.raises(ValueError, match="duplicate"):
            @register
            class Clash(Rule):
                name = "DET001"
