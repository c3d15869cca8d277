"""The program rule packs against the seeded and clean fixtures."""

import textwrap
from pathlib import Path

from repro.lint.program import (
    load_baseline,
    run_program_lint,
    write_baseline,
)
from repro.lint.program.baseline import Baseline, fingerprint_violation

TESTS_LINT = Path(__file__).resolve().parent
PROGRAM_FIXTURES = TESTS_LINT / "fixtures" / "program"


def lint_fixture(name, **kwargs):
    return run_program_lint([PROGRAM_FIXTURES / name], **kwargs)


def write_tree(tmp_path, files):
    for rel, src in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(src), encoding="utf-8")
    return tmp_path


class TestRaceRules:
    def test_seeded_race_fixture_fires_both_rules(self):
        result = lint_fixture("race_bad")
        rules = sorted(v.rule for v in result.violations)
        assert rules == ["RACE001", "RACE002"]
        race1 = next(v for v in result.violations if v.rule == "RACE001")
        assert race1.path.endswith("race_bad/state.py")
        assert "_JOBS" in race1.message
        race2 = next(v for v in result.violations if v.rule == "RACE002")
        assert "_MODE" in race2.message
        assert "current_mode" in race2.message and "set_mode" in race2.message

    def test_lock_guarded_store_is_clean(self):
        result = lint_fixture("race_clean")
        assert result.ok, [v.format() for v in result.violations]


class TestPureRules:
    def test_seeded_purity_fixture_fires(self):
        result = lint_fixture("pure_bad")
        rules = {v.rule for v in result.violations}
        assert rules == {"PURE001", "PURE002"}
        impure = [v for v in result.violations if v.rule == "PURE001"]
        assert any("measure" in v.message for v in impure)
        hidden = [v for v in result.violations if v.rule == "PURE002"]
        assert any(
            "calibrated" in v.message and "_FACTORS" in v.message for v in hidden
        )

    def test_contained_state_is_clean(self):
        result = lint_fixture("pure_clean")
        assert result.ok, [v.format() for v in result.violations]

    def test_surrogate_predictor_is_a_measurement_producer(self):
        # analysis.surrogate public functions are held to the purity
        # contract even without a @satisfies decorator.
        result = lint_fixture("surrogate_bad")
        impure = [v for v in result.violations if v.rule == "PURE001"]
        assert any(
            "predict" in v.message
            and v.path.endswith("surrogate_bad/analysis/surrogate/predictor.py")
            for v in impure
        ), [v.format() for v in result.violations]

    def test_satisfies_decorated_function_is_held_to_purity(self, tmp_path):
        root = write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/contracts.py": """
                def satisfies(*names):
                    def deco(fn):
                        return fn
                    return deco
            """,
            "pkg/anywhere.py": """
                from pkg.contracts import satisfies

                _LOG = []

                @satisfies("camat_layer")
                def produce(x):
                    _LOG.append(x)
                    return x
            """,
        })
        result = run_program_lint([root])
        assert any(
            v.rule == "PURE001" and "produce" in v.message
            for v in result.violations
        )


class TestSuppressions:
    def test_unjustified_noqa_is_ignored_and_flagged(self):
        result = lint_fixture("sup_bad")
        rules = sorted(v.rule for v in result.violations)
        assert rules == ["RACE001", "SUP001"]  # suppression did NOT apply
        assert result.suppressed == 0
        assert result.suppressed_unjustified == 1

    def test_justified_noqa_suppresses(self, tmp_path):
        root = write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/state.py": """
                _JOBS = {}

                def record(key, value):
                    _JOBS[key] = value  # repro: noqa[RACE001] -- worker-local store by design
                    return key
            """,
            "pkg/dispatch.py": """
                from pkg.state import record

                class Job:
                    def __init__(self, fn):
                        self.fn = fn

                def submit():
                    return Job(fn=record)
            """,
        })
        result = run_program_lint([root])
        assert result.ok, [v.format() for v in result.violations]
        assert result.suppressed == 1
        assert result.suppressed_justified == 1


class TestBaselineWorkflow:
    def test_baselined_findings_do_not_gate(self, tmp_path):
        first = lint_fixture("race_bad")
        assert not first.ok
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, first.baseline_entries)

        second = lint_fixture("race_bad", baseline=load_baseline(baseline_path))
        assert second.ok
        assert sorted(v.rule for v in second.baselined) == ["RACE001", "RACE002"]

    def test_baseline_round_trip_preserves_fingerprints(self, tmp_path):
        result = lint_fixture("race_bad")
        path = tmp_path / "baseline.json"
        write_baseline(path, result.baseline_entries)
        loaded = load_baseline(path)
        assert len(loaded) == len(result.baseline_entries)
        for entry in result.baseline_entries:
            assert entry.fingerprint in loaded

    def test_missing_baseline_is_empty(self, tmp_path):
        assert len(load_baseline(tmp_path / "nope.json")) == 0

    def test_sup001_is_never_baselined(self, tmp_path):
        result = lint_fixture("sup_bad")
        assert all(e.rule != "SUP001" for e in result.baseline_entries)
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, result.baseline_entries)
        rerun = lint_fixture("sup_bad", baseline=load_baseline(baseline_path))
        assert [v.rule for v in rerun.violations] == ["SUP001"]

    def test_fingerprint_is_line_number_independent(self):
        result = lint_fixture("race_bad")
        violation = result.violations[0]
        a = fingerprint_violation(violation, "  _JOBS[key] = value  ", 0)
        b = fingerprint_violation(violation, "_JOBS[key] = value", 0)
        assert a == b  # whitespace/line position does not shift the identity
        assert a != fingerprint_violation(violation, "_JOBS[key] = value", 1)


class TestSharedCacheAndSelection:
    def test_rule_selection(self):
        result = lint_fixture("race_bad", rules=["RACE002"])
        assert [v.rule for v in result.violations] == ["RACE002"]

    def test_unknown_rule_raises(self):
        try:
            lint_fixture("race_bad", rules=["NOPE999"])
        except KeyError as exc:
            assert "NOPE999" in str(exc)
        else:
            raise AssertionError("expected KeyError")

    def test_shared_cache_parses_each_file_once(self):
        from repro.lint.engine import ASTCache, run_lint

        cache = ASTCache()
        target = PROGRAM_FIXTURES / "race_bad"
        file_result = run_lint([target], cache=cache)
        program_result = run_program_lint([target], cache=cache)
        assert file_result.parses == 3  # __init__, dispatch, state
        assert program_result.parses == 0
        assert program_result.parse_reuses == 3
        empty = Baseline()
        assert len(empty) == 0
