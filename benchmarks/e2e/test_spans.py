"""Tests for the layer table built from a span trace (``spans.py``).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

import json

import pytest

import spans


def _span(name, span_id, start, duration, *, parent=None, pid=1, **attrs):
    record = {"kind": "span", "name": name, "span_id": span_id, "parent_id": parent,
              "t_start_s": start, "duration_s": duration, "pid": pid}
    if attrs:
        record["attrs"] = attrs
    return record


def _load(tmp_path, records, tail=""):
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records) + tail)
    return spans.load(path)


def _by_name(found):
    return {sp.name: sp for sp in found}


def test_nested_self_time_subtracts_children(tmp_path):
    found, _ = _load(tmp_path, [
        _span("bench.request", 1, 0.0, 10.0),
        _span("analysis.measure", 2, 1.0, 3.0, parent=1),
        _span("workloads.trace", 3, 5.0, 2.0, parent=1),
        _span("workloads.digest", 4, 5.5, 1.0, parent=3),
    ])
    by = _by_name(found)
    assert by["bench.request"].self_s == pytest.approx(5.0)
    assert by["workloads.trace"].self_s == pytest.approx(1.0)
    assert by["workloads.digest"].self_s == pytest.approx(1.0)
    table = spans.layer_table(found)
    assert table["sim.stats"].self_s == pytest.approx(3.0)
    assert table["bench"].self_s == pytest.approx(5.0)


def test_overlapping_siblings_count_once(tmp_path):
    found, _ = _load(tmp_path, [
        _span("client.wait", 1, 0.0, 10.0),
        _span("journal.put", 2, 1.0, 4.0, parent=1),
        _span("journal.put", 3, 3.0, 4.0, parent=1),
        _span("journal.put", 4, 12.0, 1.0, parent=1),  # outside the parent
    ])
    # Children cover [1, 7) once (not 8 s) and the stray one is clipped.
    assert _by_name(found)["client.wait"].self_s == pytest.approx(4.0)
    assert spans.union_length([(1.0, 5.0), (3.0, 7.0), (9.0, 10.0)]) == pytest.approx(7.0)


def test_parents_link_within_a_pid_only(tmp_path):
    found, _ = _load(tmp_path, [
        _span("runtime.evaluate_many", 7, 0.0, 10.0, pid=1),
        # A forked worker inherits id 7 on its stack; in its own pid that
        # id names no span, so its attempt is a root, not a child.
        _span("pool.attempt", 8, 1.0, 5.0, parent=7, pid=2),
        _span("pool.attempt", 8, 2.0, 3.0, parent=7, pid=3),
    ])
    evaluate = next(sp for sp in found if sp.pid == 1)
    assert evaluate.self_s == pytest.approx(10.0)
    assert all(sp.parent is None for sp in found if sp.pid != 1)
    assert spans.layer_table(found)["runtime.pool"].calls == 2


def test_cross_thread_root_is_adopted_by_its_container(tmp_path):
    found, _ = _load(tmp_path, [
        _span("service.batch", 1, 0.0, 4.0),
        # Ran on the dispatch thread's worker: parentless, inside the batch.
        _span("runtime.evaluate_many", 2, 0.5, 3.0),
    ])
    by = _by_name(found)
    assert by["runtime.evaluate_many"].parent is by["service.batch"]
    assert by["service.batch"].self_s == pytest.approx(1.0)


def test_torn_tail_is_skipped(tmp_path):
    found, _ = _load(tmp_path, [_span("analysis.measure", 1, 0.0, 2.0)],
                     tail='{"kind": "span", "name": "analysis.mea')
    assert [sp.name for sp in found] == ["analysis.measure"]


def test_events_take_no_time_but_carry_counts(tmp_path):
    records = [
        _span("bench.request", 1, 0.0, 4.0),
        _span("runtime.evaluate_many", 2, 0.0, 4.0, parent=1),
        {"kind": "event", "name": "pool.job", "span_id": 3, "parent_id": 2,
         "t_start_s": 1.0, "duration_s": 0.0, "pid": 1,
         "attrs": {"attempts": 3, "crashes": 1, "timeouts": 0}},
    ]
    found, events = _load(tmp_path, records)
    assert _by_name(found)["runtime.evaluate_many"].self_s == pytest.approx(4.0)
    metrics = spans.layer_metrics(found, events, pid=1, wall_s=4.0, rounds=1)
    assert metrics["pool.jobs"] == 1
    assert metrics["pool.retries"] == 2
    assert metrics["pool.worker_restarts"] == 1


def test_engine_spans_take_the_wrapper_layer_and_keys(tmp_path):
    found, events = _load(tmp_path, [
        _span("bench.request", 1, 0.0, 10.0),
        _span("engine.call", 2, 0.0, 2.0, parent=1, perfect=True, fast=True, key="k1"),
        _span("sim.run", 3, 0.0, 2.0, parent=2, perfect=True),
        _span("engine.call", 4, 2.0, 2.0, parent=1, perfect=True, fast=True, key="k1"),
        _span("engine.call", 5, 4.0, 3.0, parent=1, perfect=False, fast=False,
              instructions=300),
        _span("sim.run", 6, 4.0, 3.0, parent=5, perfect=False),
        _span("batch.call", 7, 7.0, 1.0, parent=1, perfect=True, lanes=3,
              keys=["a", "a", "b"]),
    ])
    table = spans.layer_table(found)
    assert table["engine.perfect"].self_s == pytest.approx(4.0)
    assert table["engine.perfect"].calls == 2
    assert table["engine.run.reference"].self_s == pytest.approx(3.0)
    metrics = spans.layer_metrics(found, events, pid=1, wall_s=10.0, rounds=2)
    assert metrics["engine.perfect.calls"] == pytest.approx(5 / 2)
    assert metrics["engine.run.reference_calls"] == pytest.approx(1 / 2)
    assert metrics["engine.perfect.redundant_frac"] == pytest.approx(1 - 3 / 5)
    assert metrics["batch.perfect.redundant_lane_frac"] == pytest.approx(1 - 2 / 3)
    assert metrics["engine.run.instr_per_s"] == pytest.approx(100.0)
    assert metrics["unattributed_s"] == pytest.approx(1.0)
    assert metrics["coverage"] == pytest.approx(0.8)
