"""Compare two sets of benchmark runs, metric by metric.

Each input is a file of result records, one JSON object per line, as
``run.py --json OUT`` appends them: typically the parent commit (A) and a
change (B), each run several times.  For every (workload, metric) the
report gives each side's median and quartiles, the change of B's median
against A's in the metric's worse direction, the bound (from
``BENCHMARK.json`` for the metrics every workload reports, from
``workload_metrics.json`` for each workload's own) and a verdict:

* ``unresolved`` -- either side's spread (quartile distance over median)
  exceeds the bound, unless every run of B beats every run of A
  (``better``) or loses to it (``worse``);
* ``worse`` -- B's median is worse than A's by more than the bound;
* ``better`` -- B wins at least nine tenths of the paired runs (ties count
  for neither) and the medians differ by more than A's own spread;
* ``unchanged`` -- otherwise.

Metrics without a bound (per-layer metrics and the numbers a workload
reports for information) get the same verdict but never fail the
comparison.  The comparison fails on a bounded metric judged ``worse``, on
a record whose checks failed or that counted a failed operation, and on
any change in a digest of the simulated outputs between runs of the same
workload, seed and length.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def load_records(path: "str | Path") -> "list[dict]":
    """The records of one JSON-lines file."""
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def summary(values: "list[float]") -> "tuple[float, float, float]":
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def _worse_by(a: float, b: float, better: str) -> float:
    """How much worse *b* is than *a*, as a share of *a* (negative: better)."""
    if a == 0:
        if b == 0:
            return 0.0
        worse = b < 0 if better == "higher" else b > 0
        return float("inf") if worse else float("-inf")
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def verdict(a: "list[float]", b: "list[float]", better: str,
            bound: "float | None") -> "tuple[str, float]":
    """The verdict for one metric and B's change against A."""
    med_a, q1_a, q3_a = summary(a)
    med_b, q1_b, q3_b = summary(b)
    change = _worse_by(med_a, med_b, better)
    spread_a = (q3_a - q1_a) / abs(med_a) if med_a else 0.0
    spread_b = (q3_b - q1_b) / abs(med_b) if med_b else 0.0

    def beats(x: float, y: float) -> bool:
        return x > y if better == "higher" else x < y

    if med_a == med_b and spread_a == spread_b == 0.0:
        return "unchanged", change
    if bound is not None and max(spread_a, spread_b) > bound:
        if all(beats(y, x) for x in a for y in b):
            return "better", change
        if all(beats(x, y) for x in a for y in b):
            return "worse", change
        return "unresolved", change
    if bound is not None and change > bound:
        return "worse", change
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if beats(y, x))
    losses = sum(1 for x, y in pairs if beats(x, y))
    if pairs and -change > spread_a and wins >= 0.9 * len(pairs):
        return "better", change
    if bound is None and pairs and change > spread_a and losses >= 0.9 * len(pairs):
        return "worse", change
    return "unchanged", change


def compare(a_records: "list[dict]", b_records: "list[dict]", declared: dict,
            workload_metrics: "list[dict]" = ()) -> "tuple[list[str], bool]":
    """Report lines and whether B passes against A.

    *declared* is ``BENCHMARK.json``; *workload_metrics* the entries of
    ``workload_metrics.json``.
    """
    directions = {m["name"]: (m["better"], m.get("bound"))
                  for kind in ("end_to_end", "per_layer") for m in declared[kind]}
    own = {(m["workload"], m["name"]): (m["better"], m["bound"]) for m in workload_metrics}
    lines = [f"{'workload':<10s} {'metric':<36s} {'A median [q1, q3]':>34s} "
             f"{'B median [q1, q3]':>34s} {'change':>8s} {'bound':>6s}  verdict"]
    ok = True
    problems = []
    for rec in a_records + b_records:
        if not rec.get("correct", False):
            ok = False
            problems.append(f"{rec['workload']} seed {rec['seed']}: checks failed "
                            f"{rec.get('failures')}")
        if rec.get("failed", 0):
            ok = False
            problems.append(f"{rec['workload']} seed {rec['seed']}: {rec['failed']} of "
                            f"{rec['attempted']} operations failed")
    digests: "dict[tuple, dict[str, set]]" = {}
    for side, records in (("A", a_records), ("B", b_records)):
        for rec in records:
            key = (rec["workload"], rec["seed"], rec["seconds"])
            digests.setdefault(key, {"A": set(), "B": set()})[side].add(rec["digest"])
    for key, sides in sorted(digests.items()):
        seen = sides["A"] | sides["B"]
        if len(seen) > 1:
            ok = False
            problems.append(f"{key[0]} seed {key[1]}: output digests differ "
                            f"(A {sorted(sides['A'])}, B {sorted(sides['B'])})")

    def series(records: "list[dict]", workload: str) -> "dict[str, tuple]":
        out: "dict[str, tuple]" = {}
        ordered = sorted((r for r in records if r["workload"] == workload),
                         key=lambda r: r["seed"])
        for rec in ordered:
            for name, item in rec.get("metrics", {}).items():
                better, bound = directions.get(name, ("lower", None))
                out.setdefault(name, (item["unit"], better, bound, []))[3].append(item["value"])
            for name, item in rec.get("detail", {}).items():
                better, bound = own.get((workload, name), (item["better"], None))
                out.setdefault(name, (item["unit"], better, bound, []))[3].append(
                    item["value"])
        return out

    workloads = sorted({r["workload"] for r in a_records} & {r["workload"] for r in b_records})
    for workload in workloads:
        a_series, b_series = series(a_records, workload), series(b_records, workload)
        for name in [n for n in a_series if n in b_series]:
            unit, better, bound, a_vals = a_series[name]
            b_vals = b_series[name][3]
            result, change = verdict(a_vals, b_vals, better, bound)
            if bound is not None and result == "worse":
                ok = False
            med_a, q1_a, q3_a = summary(a_vals)
            med_b, q1_b, q3_b = summary(b_vals)
            lines.append(
                f"{workload:<10s} {name:<36s} "
                f"{f'{med_a:.4g} [{q1_a:.4g}, {q3_a:.4g}] {unit}':>34s} "
                f"{f'{med_b:.4g} [{q1_b:.4g}, {q3_b:.4g}] {unit}':>34s} "
                f"{change:+8.1%} {'-' if bound is None else f'{bound:.0%}':>6s}  {result}")
    lines.extend(problems)
    lines.append("PASS" if ok else "FAIL")
    return lines, ok


def main(argv: "list[str]") -> int:
    if len(argv) != 2:
        print("usage: run.py compare A.jsonl B.jsonl", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload_metrics = json.loads((HERE / "workload_metrics.json").read_text())
    lines, ok = compare(load_records(argv[0]), load_records(argv[1]), declared,
                        workload_metrics)
    print("\n".join(lines))
    return 0 if ok else 1
