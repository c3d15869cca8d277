"""Tests for sweep helpers and paper-layout table rendering."""

import pytest

from repro.analysis.sweep import sweep_configs, sweep_l1_sizes
from repro.analysis.tables import apc_sweep_text, hsp_text, stall_walk_text, table1_text
from repro.core.report import render_table
from repro.sim.params import DEFAULT_MACHINE, table1_config
from repro.workloads.spec import get_benchmark

KB = 1024


@pytest.fixture(scope="module")
def trace():
    return get_benchmark("401.bzip2").trace(3000, seed=1)


class TestSweeps:
    def test_sweep_configs(self, trace):
        configs = [table1_config("A"), table1_config("B")]
        result = sweep_configs(configs, trace, seed=1)
        assert result.labels == ["A", "B"]
        assert len(result) == 2
        assert all(v >= 0 for v in result.series("lpmr1"))

    def test_sweep_l1_sizes(self, trace):
        result = sweep_l1_sizes(DEFAULT_MACHINE, trace, [4 * KB, 64 * KB], seed=1)
        assert result.labels == ["L1-4KB", "L1-64KB"]
        apc1 = result.series("apc1")
        assert len(apc1) == 2

    def test_layer_series(self, trace):
        result = sweep_l1_sizes(DEFAULT_MACHINE, trace, [4 * KB], seed=1)
        mr = result.layer_series("l1", "miss_rate")
        assert 0.0 <= mr[0] <= 1.0


class TestSweepEngines:
    """The engine knob changes how a sweep runs, never what it measures."""

    def test_all_engines_agree(self, trace):
        configs = [table1_config("A"), table1_config("C")]
        per_engine = {
            engine: sweep_configs(configs, trace, seed=1, engine=engine)
            for engine in ("auto", "scalar")
        }
        assert per_engine["auto"].labels == per_engine["scalar"].labels
        assert per_engine["auto"].stats == per_engine["scalar"].stats

    def test_unknown_engine_rejected(self, trace):
        for engine in ("turbo", "batch"):
            with pytest.raises(ValueError):
                sweep_configs([table1_config("A")], trace, engine=engine)

    def test_engine_batch_rejects_ineligible(self, trace):
        import dataclasses

        from repro.runtime.errors import ConfigError
        from repro.sim.batch import BatchHierarchySimulator
        from repro.sim.prefetch import PrefetchConfig

        bad = dataclasses.replace(
            DEFAULT_MACHINE, prefetch=PrefetchConfig(), name="prefetching"
        )
        with pytest.raises(ConfigError, match="prefetching"):
            BatchHierarchySimulator([table1_config("A"), bad])
        # "auto" degrades that lane to the scalar path instead.
        result = sweep_configs([table1_config("A"), bad], trace, seed=1)
        assert result.labels == ["A", "prefetching"]

    def test_runtime_sweep_uses_batch_path(self, trace):
        from repro.runtime.evaluate import EvaluationRuntime

        rt = EvaluationRuntime()
        configs = [table1_config("A"), table1_config("C")]
        via_runtime = sweep_configs(configs, trace, seed=1, runtime=rt)
        assert rt.counters.simulations == 2
        inline = sweep_configs(configs, trace, seed=1)
        assert via_runtime.stats == inline.stats


class TestRenderTable:
    def test_basic_layout(self):
        text = render_table(["a", "bb"], [[1, 2.5], [3, 4.25]])
        lines = text.splitlines()
        assert "a" in lines[0] and "bb" in lines[0]
        assert "-+-" in lines[1]
        assert len(lines) == 4

    def test_title(self):
        text = render_table(["x"], [[1]], title="T")
        assert text.splitlines()[0] == "T"

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [[1]])

    def test_empty_rows_ok(self):
        text = render_table(["a"], [])
        assert "a" in text


class TestExperimentTables:
    def test_table1_text(self, trace):
        configs = [table1_config("A"), table1_config("B")]
        result = sweep_configs(configs, trace, seed=1)
        text = table1_text(configs, result.stats)
        assert "Pipeline issue width" in text
        assert "LPMR1" in text and "LPMR3" in text
        assert " A " in text.splitlines()[0]

    def test_table1_text_mismatch(self, trace):
        with pytest.raises(ValueError):
            table1_text([table1_config("A")], [])

    def test_apc_sweep_text(self):
        values = {("x", 4): 0.5, ("x", 16): 0.6}
        text = apc_sweep_text("APC1", ["x"], [4, 16], values)
        assert "APC1" in text
        assert "4 KB" in text and "16 KB" in text
        assert "0.5" in text

    def test_hsp_text(self):
        text = hsp_text({"Random": 0.7986, "NUCA-SA (fg)": 0.9106})
        assert "Random" in text
        assert "0.7986" in text

    def test_stall_walk_text(self, trace):
        result = sweep_configs([table1_config("A")], trace, seed=1)
        text = stall_walk_text(result)
        assert "stall % of CPI_exe" in text


class TestCsvExport:
    def test_sweep_to_csv_roundtrip(self, trace):
        import csv
        import io

        from repro.analysis.export import stats_fieldnames, sweep_to_csv

        result = sweep_l1_sizes(DEFAULT_MACHINE, trace, [4 * KB, 64 * KB], seed=1)
        text = sweep_to_csv(result)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 2
        assert rows[0]["label"] == "L1-4KB"
        assert set(rows[0]) == set(stats_fieldnames())
        assert float(rows[0]["l1_camat"]) > 0

    def test_write_sweep_csv(self, trace, tmp_path):
        from repro.analysis.export import write_sweep_csv

        result = sweep_l1_sizes(DEFAULT_MACHINE, trace, [4 * KB], seed=1)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(result, str(path))
        content = path.read_text()
        assert content.startswith("label,")
        assert "L1-4KB" in content

    def test_rows_to_csv(self):
        from repro.analysis.export import rows_to_csv

        text = rows_to_csv(["a", "b"], [[1, 2], [3, 4]])
        assert text.splitlines()[0] == "a,b"
        assert text.splitlines()[2] == "3,4"
