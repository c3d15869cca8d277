"""CLI exit codes on the seeded fixtures, and the repo-clean gate itself."""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.lint.engine import run_lint

TESTS_LINT = Path(__file__).resolve().parent
FIXTURES = TESTS_LINT / "fixtures"
REPO_ROOT = TESTS_LINT.parents[1]


def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *args],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT,
    )


class TestCLIExitCodes:
    def test_seeded_violations_exit_nonzero(self):
        proc = run_cli(str(FIXTURES / "sim"))
        assert proc.returncode == 1
        assert "DET001" in proc.stdout
        assert "NUM001" in proc.stdout

    def test_taxonomy_fixture_exit_nonzero(self):
        proc = run_cli(str(FIXTURES / "runtime"))
        assert proc.returncode == 1
        assert "ERR001" in proc.stdout
        assert "ERR002" in proc.stdout

    def test_obs_fixture_exit_nonzero(self):
        proc = run_cli(str(FIXTURES / "obs"))
        assert proc.returncode == 1
        assert "OBS001" in proc.stdout
        assert "OBS002" in proc.stdout

    def test_service_fixture_exit_nonzero(self):
        proc = run_cli(str(FIXTURES / "service"))
        assert proc.returncode == 1
        assert "CON003" in proc.stdout
        assert "OBS002" in proc.stdout

    def test_clean_fixture_exits_zero(self):
        proc = run_cli(str(FIXTURES / "clean"))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 violations" in proc.stdout

    def test_json_output_parses(self):
        proc = run_cli("--json", str(FIXTURES / "sim"))
        payload = json.loads(proc.stdout)
        assert payload["ok"] is False
        assert {v["rule"] for v in payload["violations"]} >= {
            "DET001", "DET002", "NUM001", "NUM002",
        }

    def test_rule_selection_narrows_the_run(self):
        proc = run_cli("--rules", "NUM002", str(FIXTURES / "sim"))
        assert proc.returncode == 1
        assert "NUM002" in proc.stdout
        assert "DET001" not in proc.stdout

    def test_list_rules(self):
        proc = run_cli("--list-rules")
        assert proc.returncode == 0
        assert "DET001" in proc.stdout and "CTR001" in proc.stdout


class TestSeededFixtureCoverage:
    def test_every_seeded_rule_fires(self):
        result = run_lint([
            FIXTURES / "sim", FIXTURES / "runtime", FIXTURES / "obs",
            FIXTURES / "service",
        ])
        fired = {v.rule for v in result.violations}
        assert fired >= {
            "DET001", "DET002", "NUM001", "NUM002", "CON003",
            "ERR001", "ERR002", "OBS001", "OBS002", "PERF001",
        }


class TestRepoIsClean:
    def test_package_lints_clean(self):
        """The acceptance gate: the shipped package has zero violations."""
        package_dir = Path(repro.__file__).parent
        result = run_lint([package_dir])
        assert result.files_checked > 50
        details = "\n".join(v.format() for v in result.violations)
        assert result.ok, f"repo must lint clean:\n{details}"

    def test_suppressions_carry_justifications(self):
        """Every real ``# repro: noqa[RULE]`` must say why (`` -- reason``)."""
        from repro.lint.engine import _NOQA_RE

        package_dir = Path(repro.__file__).parent
        bad = []
        for path in sorted(package_dir.rglob("*.py")):
            for lineno, line in enumerate(path.read_text().splitlines(), start=1):
                if _NOQA_RE.search(line) and " -- " not in line:
                    bad.append(f"{path}:{lineno}")
        assert not bad, f"noqa without justification: {bad}"

    def test_package_passes_program_analysis(self):
        """The whole-program gate: zero non-baselined RACE/PURE/ASYNC/SUP
        findings over the shipped package, with the checked-in baseline."""
        from repro.lint.program import load_baseline, run_program_lint

        package_dir = Path(repro.__file__).parent
        baseline = load_baseline(REPO_ROOT / "lint-baseline.json")
        result = run_program_lint([package_dir], baseline=baseline)
        details = "\n".join(v.format() for v in result.violations)
        assert result.ok, f"program analysis must pass:\n{details}"
        # The analysis actually saw the program: all three root kinds exist.
        assert result.entries.cli and result.entries.pool and result.entries.engine
        assert result.suppressed_unjustified == 0


PROGRAM_FIXTURES = FIXTURES / "program"


class TestProgramCLI:
    def test_program_flag_gates_on_seeded_fixture(self):
        proc = run_cli(
            "--program", "--rules", "RACE001,RACE002",
            str(PROGRAM_FIXTURES / "race_bad"),
        )
        assert proc.returncode == 1
        assert "RACE001" in proc.stdout and "RACE002" in proc.stdout

    def test_program_flag_passes_on_clean_fixture(self):
        proc = run_cli(
            "--program", "--rules", "RACE001,RACE002",
            str(PROGRAM_FIXTURES / "race_clean"),
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "program analysis: 0 violations" in proc.stdout

    def test_program_rules_without_flag_is_an_error(self):
        proc = run_cli("--rules", "RACE001", str(PROGRAM_FIXTURES / "race_clean"))
        assert proc.returncode == 2
        assert "--program" in proc.stderr + proc.stdout

    def test_program_json_report_carries_program_section(self):
        proc = run_cli(
            "--program", "--format", "json", "--rules", "RACE001",
            str(PROGRAM_FIXTURES / "race_bad"),
        )
        payload = json.loads(proc.stdout)
        assert payload["program"]["ok"] is False
        assert {v["rule"] for v in payload["program"]["violations"]} == {"RACE001"}
        assert payload["program"]["entry_points"]["pool"] >= 1

    def test_sarif_output_validates(self):
        from repro.lint.sarif import validate_sarif

        proc = run_cli(
            "--program", "--format", "sarif", "--rules", "RACE001",
            str(PROGRAM_FIXTURES / "race_bad"),
        )
        assert proc.returncode == 1
        doc = json.loads(proc.stdout)
        assert validate_sarif(doc) == []

    def test_update_baseline_then_rerun_passes(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        first = run_cli(
            "--program", "--rules", "RACE001,RACE002",
            "--baseline", str(baseline), "--update-baseline",
            str(PROGRAM_FIXTURES / "race_bad"),
        )
        assert first.returncode == 0, first.stdout + first.stderr
        assert baseline.exists()
        second = run_cli(
            "--program", "--rules", "RACE001,RACE002",
            "--baseline", str(baseline),
            str(PROGRAM_FIXTURES / "race_bad"),
        )
        assert second.returncode == 0, second.stdout + second.stderr
        assert "[baselined]" in second.stdout

    def test_output_flag_writes_the_report(self, tmp_path):
        out = tmp_path / "report.sarif"
        proc = run_cli(
            "--program", "--format", "sarif", "--rules", "RACE001",
            "--output", str(out), str(PROGRAM_FIXTURES / "race_clean"),
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert json.loads(out.read_text())["version"] == "2.1.0"
