"""Tests for ``run.py compare`` on synthetic records."""

import json

import pytest

import compare

DECLARED = {
    "end_to_end": [
        {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
    ],
    "per_layer": [{"name": "engine.run.self_s", "unit": "s", "better": "lower"}],
}
WORKLOAD_METRICS = [
    {"workload": "sweep", "name": "sweep.core_axis_configs_per_s", "unit": "configs/s",
     "better": "higher", "bound": 0.1},
]


def _records(values, *, metric="latency_p50_ms", unit="ms", digest="d0",
             workload="simulate", correct=True):
    return [
        {"workload": workload, "seed": seed, "seconds": 10, "correct": correct,
         "digest": digest, "metrics": {metric: {"value": v, "unit": unit}},
         "detail": {}}
        for seed, v in enumerate(values)
    ]


def _verdict(lines, metric="latency_p50_ms"):
    row = next(line for line in lines if f" {metric} " in line)
    return row.split()[-1]


@pytest.mark.parametrize("a, b, expected", [
    # Within the bound and within the parent's own spread.
    ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
     [101, 100, 102, 99, 101, 100, 100, 102, 99, 101], "unchanged"),
    # Every pair improves by more than the parent's spread.
    ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
     [90, 91, 89, 90, 92, 88, 90, 91, 89, 90], "better"),
    # The median regresses by more than the 10% bound.
    ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
     [115, 116, 114, 115, 117, 113, 115, 116, 114, 115], "worse"),
    # The spread exceeds the bound and the runs overlap.
    ([100, 130, 80, 100, 125, 75, 100, 130, 80, 100],
     [105, 135, 85, 105, 130, 80, 105, 135, 85, 105], "unresolved"),
])
def test_verdicts(a, b, expected):
    lines, ok = compare.compare(_records(a), _records(b), DECLARED)
    assert _verdict(lines) == expected
    assert ok == (expected != "worse")


def test_direction_follows_the_declared_metric():
    a = _records([100, 101, 99, 100], metric="throughput_per_s", unit="1/s")
    b = _records([80, 81, 79, 80], metric="throughput_per_s", unit="1/s")
    lines, ok = compare.compare(a, b, DECLARED)
    assert _verdict(lines, "throughput_per_s") == "worse"
    assert not ok


def test_unbounded_metrics_never_fail():
    a = _records([1.0, 1.01, 0.99, 1.0], metric="engine.run.self_s", unit="s")
    b = _records([2.0, 2.01, 1.99, 2.0], metric="engine.run.self_s", unit="s")
    lines, ok = compare.compare(a, b, DECLARED)
    assert _verdict(lines, "engine.run.self_s") == "worse"
    assert ok


def _detail_records(values, workload):
    return [
        {"workload": workload, "seed": seed, "seconds": 10, "correct": True, "digest": "d0",
         "metrics": {}, "detail": {"sweep.core_axis_configs_per_s": {
             "value": v, "unit": "configs/s", "better": "higher"}}}
        for seed, v in enumerate(values)
    ]


def test_a_workload_metric_beyond_its_bound_fails():
    a = _detail_records([50, 51, 49, 50], "sweep")
    b = _detail_records([40, 41, 39, 40], "sweep")
    lines, ok = compare.compare(a, b, DECLARED, WORKLOAD_METRICS)
    assert _verdict(lines, "sweep.core_axis_configs_per_s") == "worse"
    assert not ok
    # The bound belongs to the workload that declares the metric.
    a, b = _detail_records([50, 51], "explore"), _detail_records([40, 41], "explore")
    _, ok = compare.compare(a, b, DECLARED, WORKLOAD_METRICS)
    assert ok


def test_a_failed_operation_fails():
    b = _records([100, 100])
    b[1].update(failed=1, attempted=50)
    lines, ok = compare.compare(_records([100, 100]), b, DECLARED)
    assert not ok
    assert any("1 of 50 operations failed" in line for line in lines)


def test_a_digest_change_fails():
    lines, ok = compare.compare(_records([100, 100]), _records([100, 100], digest="d1"),
                                DECLARED)
    assert not ok
    assert any("digests differ" in line for line in lines)


def test_a_failed_check_fails():
    _, ok = compare.compare(_records([100, 100]), _records([100, 100], correct=False),
                            DECLARED)
    assert not ok


def test_main_reads_json_lines(tmp_path, capsys):
    for name, values in (("a.jsonl", [100, 101]), ("b.jsonl", [100, 99])):
        (tmp_path / name).write_text(
            "".join(json.dumps(r) + "\n" for r in _records(values)))
    assert compare.main([str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")]) == 0
    assert capsys.readouterr().out.strip().endswith("PASS")
