"""Profiling as a view over spans: phase spans, profile_run, ``repro profile``."""

import json

import pytest

from repro.cli import main
from repro.obs import trace as obs_trace
from repro.obs.profile import ProfileReport, format_profile_report, profile_run
from repro.sim.engine import HierarchySimulator
from repro.sim.params import DEFAULT_MACHINE, table1_config
from repro.sim.stats import simulate_and_measure
from repro.workloads.spec import get_benchmark

PHASES = ("warmup", "cpi_exe", "issue_loop", "analysis")
PHASE_SPANS = ("sim.run", "engine.warm", "analysis.measure")


@pytest.fixture(scope="module")
def trace():
    return get_benchmark("403.gcc").trace(2000, seed=7)


def _phase_spans(path):
    """(name, perfect) of each phase span in *path*, in start order."""
    records = sorted(
        (r for r in obs_trace.read_trace(path)
         if r["kind"] == "span" and r["name"] in PHASE_SPANS),
        key=lambda r: r["t_start_s"],
    )
    return [(r["name"], (r.get("attrs") or {}).get("perfect")) for r in records]


class TestPhaseSpans:
    def test_simulate_and_measure_emits_each_phase_once_in_order(self, trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        obs_trace.configure_tracing(path)
        simulate_and_measure(table1_config("A"), trace, seed=0)
        obs_trace.configure_tracing(None)
        assert _phase_spans(path) == [
            ("sim.run", True),
            ("engine.warm", None),
            ("sim.run", False),
            ("analysis.measure", None),
        ]

    def test_no_warm_span_without_warm(self, trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        obs_trace.configure_tracing(path)
        simulate_and_measure(table1_config("A"), trace, seed=0, warm=False)
        obs_trace.configure_tracing(None)
        assert [name for name, _ in _phase_spans(path)] == [
            "sim.run", "sim.run", "analysis.measure",
        ]

    @pytest.mark.parametrize("engine", ["auto", "reference"])
    def test_no_result_carries_phase_stats(self, trace, tmp_path, engine):
        obs_trace.configure_tracing(tmp_path / "trace.jsonl")
        sim = HierarchySimulator(table1_config("A"), seed=0, engine=engine)
        sim.warm_caches(trace)
        result = sim.run(trace)
        obs_trace.configure_tracing(None)
        assert not [k for k in result.component_stats if k.startswith("phase_")]


class TestProfileRun:
    def test_stats_match_untimed_pipeline(self, trace):
        config = table1_config("A")
        stats, report = profile_run(config, trace, seed=0)
        _, direct = simulate_and_measure(config, trace, seed=0)
        assert stats == direct  # timing must not perturb the measurement
        assert report.n_instructions == trace.n_instructions

    def test_all_phases_timed(self, trace):
        _, report = profile_run(table1_config("A"), trace, seed=0)
        assert set(report.phases) == set(PHASES)
        assert all(t > 0.0 for t in report.phases.values())
        assert report.total_s == pytest.approx(sum(report.phases.values()))
        assert report.us_per_instruction > 0.0
        assert sum(report.phase_share(p) for p in PHASES) == pytest.approx(1.0)

    def test_unwarmed_run_reports_zero_warmup(self, trace, tmp_path):
        # The installed trace already holds a warmed profile's spans; only
        # the spans of this call may count.
        obs_trace.configure_tracing(tmp_path / "trace.jsonl")
        profile_run(table1_config("A"), trace, seed=0)
        _, report = profile_run(table1_config("A"), trace, seed=0, warm=False)
        assert report.phases["warmup"] == 0.0
        assert report.phases["issue_loop"] > 0.0

    def test_rounds_keep_minimum(self, trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        obs_trace.configure_tracing(path)
        _, report = profile_run(table1_config("A"), trace, seed=0, rounds=3)
        obs_trace.configure_tracing(None)
        assert report.rounds == 3
        real_runs = [
            r["duration_s"] for r in obs_trace.read_trace(path)
            if r["name"] == "sim.run" and not r["attrs"]["perfect"]
        ]
        assert len(real_runs) == 3
        assert report.phases["issue_loop"] == min(real_runs)

    def test_rejects_zero_rounds(self, trace):
        with pytest.raises(ValueError):
            profile_run(table1_config("A"), trace, rounds=0)

    def test_tracing_state_restored(self, trace, tmp_path):
        assert obs_trace.get_tracer() is None
        profile_run(table1_config("A"), trace, seed=0)
        assert obs_trace.get_tracer() is None
        installed = obs_trace.configure_tracing(tmp_path / "trace.jsonl")
        profile_run(table1_config("A"), trace, seed=0)
        assert obs_trace.get_tracer() is installed


class TestReport:
    def test_to_dict_json_round_trips(self, trace):
        _, report = profile_run(table1_config("A"), trace, seed=0)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["trace_name"] == report.trace_name
        assert payload["phases_s"].keys() == report.phases.keys()
        assert payload["us_per_instruction"] == pytest.approx(
            report.us_per_instruction
        )

    def test_format_lists_every_phase(self, trace):
        _, report = profile_run(table1_config("A"), trace, seed=0)
        text = format_profile_report(report)
        for phase in PHASES:
            assert phase in text
        assert "us/instruction" in text

    def test_empty_report_degrades_gracefully(self):
        report = ProfileReport("t", "c", n_instructions=0, n_accesses=0)
        assert report.total_s == 0.0
        assert report.us_per_instruction == 0.0
        assert report.instructions_per_s == 0.0
        assert report.phase_share("issue_loop") == 0.0


class TestProfileCommand:
    ARGS = ["profile", "--accesses", "2000", "--rounds", "1"]

    def test_json_reports_the_four_phases_with_pipeline_stats(self, capsys, monkeypatch):
        import repro.obs

        captured = []

        def spy(*args, **kwargs):
            stats, report = profile_run(*args, **kwargs)
            captured.append(stats)
            return stats, report

        monkeypatch.setattr(repro.obs, "profile_run", spy)
        assert main(self.ARGS + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload["phases_s"]) == sorted(PHASES)
        trace = get_benchmark("403.gcc").trace(2000, seed=7)
        _, direct = simulate_and_measure(DEFAULT_MACHINE, trace, seed=0)
        assert captured == [direct]
        assert payload["n_instructions"] == direct.n_instructions

    def test_trace_keeps_the_profile_spans(self, capsys, tmp_path):
        path = tmp_path / "profile.jsonl"
        assert main(self.ARGS + ["--trace", str(path)]) == 0
        assert "issue_loop" in capsys.readouterr().out
        names = [r["name"] for r in obs_trace.read_trace(path)]
        assert names.count("profile.run") == 1
        assert names.count("sim.run") == 2
        assert names.count("engine.warm") == 1
        assert names.count("analysis.measure") == 1

    def test_zero_rounds_exits_2(self, capsys):
        assert main(["profile", "--accesses", "2000", "--rounds", "0"]) == 2
        assert "rounds" in capsys.readouterr().err
