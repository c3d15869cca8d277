"""Smoke-run every workload at reduced size, untraced and traced.

Checks the result against ``BENCHMARK.json`` and ``workload_metrics.json``:
every declared metric is reported with its unit, and the traced run's
layer spans account for at least 90% of the measured wall time.
"""

import json

import pytest

import run

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOAD_METRICS = json.loads((run.HERE / "workload_metrics.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_workload_reports_every_declared_metric(workload, traced, tmp_path):
    record = run.run_workload(workload, 3, 0.1, traced=traced, scale=0.1, work=tmp_path)
    kind = "per_layer" if traced else "end_to_end"
    assert record["metrics"] == {
        m["name"]: {"value": record["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in DECLARED[kind]
    }
    own = [m for m in WORKLOAD_METRICS if m["workload"] == workload]
    assert own
    for m in own:
        assert record["detail"][m["name"]]["unit"] == m["unit"]
        assert record["detail"][m["name"]]["value"] > 0
    assert record["attempted"] >= 1
    assert record["failed"] == 0
    if traced:
        assert record["metrics"]["coverage"]["value"] >= 0.9
        assert record["metrics"]["engine.run.self_s"]["value"] > 0
    else:
        assert all(item["value"] > 0 for item in record["metrics"].values())
