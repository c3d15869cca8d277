"""End-to-end benchmark of the LPM reproduction (catalogue: README.md).

Run one workload from the root of a checkout::

    python3 benchmarks/e2e/run.py --workload simulate --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
work with spans on and prints the per-layer metrics (the span file stays
in ``benchmarks/e2e/.work/``).  Times are in reference seconds: wall time
scaled by the speed of the host around it (:mod:`hostspeed`); the wall
times are printed too.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines above it name every metric with its unit, the workload's own
metrics (``workload_metrics.json``) included.  ``--json OUT`` also appends
the full record (workload metrics, output digest, check failures) to
*OUT*.  The exit code is 1 when a correctness check fails.

Compare two files of such records (run-to-run medians and quartiles
against each metric's bound)::

    python3 benchmarks/e2e/run.py compare A.jsonl B.jsonl
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Temporary files and span traces (ignored by git).
WORK = HERE / ".work"
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Per-round counts only some workloads produce; the others report 0.
OPTIONAL_COUNTS = ("explorer.evaluations", "explorer.cached", "service.rejections")

_IMPORT = "import importlib, sys\nfor name in sys.argv[1:]:\n    importlib.import_module(name)\n"


def _fresh_import(src: Path, modules: "tuple[str, ...]") -> None:
    """Start a fresh interpreter that imports *modules*, and wait for it."""
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", _IMPORT, *modules], env=env,
                   capture_output=True, timeout=120, check=True)


def parse_args(argv: "list[str]") -> argparse.Namespace:
    import workloads

    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="minimum measured time; whole rounds only")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: trace the run and report the per-layer metrics")
    parser.add_argument("--json", type=Path, default=None, metavar="OUT",
                        help="append the full result record to OUT")
    return parser.parse_args(argv)


def run_workload(name: str, seed: int, seconds: float, *, traced: bool,
                 scale: float = 1.0, work: Path = WORK) -> dict:
    """One run; returns the full record (``metrics`` as declared).

    Temporary files and the span trace go under *work*; *scale* shrinks
    every input (the smoke test runs below 1.0).
    """
    import instrument
    import spans
    import workloads
    from hostspeed import HostSpeed
    from repro.obs import trace as obs_trace

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    own = {m["name"]: m for m in json.loads((HERE / "workload_metrics.json").read_text())
           if m["workload"] == name}
    work.mkdir(parents=True, exist_ok=True)
    trace_path = work / f"{name}-seed{seed}.jsonl" if traced else None
    if traced:
        trace_path.unlink(missing_ok=True)
        instrument.install()
    host = HostSpeed()
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        workload = workloads.WORKLOADS[name](seed, Path(tmp), host, scale=scale,
                                             trace_path=trace_path)
        setups = []
        try:
            host.start()
            try:
                samples = 1 if traced else SETUP_SAMPLES
                for k in range(samples):
                    t0 = perf_counter()
                    if not traced:
                        _fresh_import(ROOT / "src", workload.modules)
                    workload.setup()
                    setups.append((t0, perf_counter()))
                    if k < samples - 1:
                        workload.close()
                if traced:
                    obs_trace.configure_tracing(trace_path)
                    epoch = obs_trace.get_tracer().epoch
                try:
                    m = workload.measure(seconds)
                finally:
                    if traced:
                        obs_trace.configure_tracing(None)
            finally:
                host.stop()
            failures = workload.check()
        finally:
            workload.close()

    wrong = [n for n, metric in own.items()
             if n not in m.detail or m.detail[n][1] != metric["unit"]]
    if wrong:
        raise RuntimeError(f"{name} does not report {wrong} as workload_metrics.json "
                           "declares them")
    setup = [host.normalized(t0, t1) for t0, t1 in setups]
    wall_throughput, wall_p50, wall_p90 = m.wall_end_to_end()
    m.detail.update({
        "host.slowdown": (host.slowdown(), "ratio", "lower"),
        "wall.throughput_per_s": (wall_throughput, "1/s", "higher"),
        "wall.latency_p50_ms": (wall_p50 * 1e3, "ms", "lower"),
        "wall.latency_p90_ms": (wall_p90 * 1e3, "ms", "lower"),
        "wall.setup_s": (statistics.median(t1 - t0 for t0, t1 in setups), "s", "lower"),
    })
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "correct": not failures, "attempted": m.attempted, "failed": m.failed,
        "rounds": m.rounds, "wall_s": m.wall_s,
        "requests": [[kind, t1 - t0, s, items]
                     for (kind, t0, t1, items), s in zip(m.requests, m.seconds)],
        "setup_samples_s": setup, "failures": failures,
        "digest": workloads.output_digest(m.outputs),
        "detail": {k: {"value": v, "unit": u, "better": b}
                   for k, (v, u, b) in m.detail.items()},
    }
    if traced:
        # The reference kernel interrupts whatever span is open: as spans
        # of their own its runs are subtracted from that span's self time.
        probes = [spans.Span("hostspeed.kernel", os.getpid(), None, None,
                             t0 - epoch, t1 - epoch)
                  for t0, t1, _ in host.samples if t0 >= epoch]
        found, events = spans.load(trace_path, extra=probes)
        values = spans.layer_metrics(found, events, pid=os.getpid(),
                                     wall_s=m.wall_s, rounds=m.rounds)
        values.update({k: 0.0 for k in OPTIONAL_COUNTS})
        values.update(m.counts)
        values["traced_throughput_per_s"] = m.end_to_end()[0]
        record["detail"].update({
            key: {"value": v, "unit": u, "better": b}
            for key, (v, u, b) in spans.extras(found, wall_s=m.wall_s).items()
        })
        record["layers"] = {
            layer: {"self_s": row.self_s / m.rounds, "calls": row.calls / m.rounds}
            for layer, row in sorted(spans.layer_table(found).items())
        }
        kind = "per_layer"
    else:
        throughput, p50, p90 = m.end_to_end()
        values = {
            "setup_s": statistics.median(setup),
            "throughput_per_s": throughput,
            "latency_p50_ms": p50 * 1e3,
            "latency_p90_ms": p90 * 1e3,
        }
        kind = "end_to_end"
    names = [metric["name"] for metric in declared[kind]]
    if sorted(values) != sorted(names):
        raise RuntimeError(f"measured {sorted(values)} but BENCHMARK.json "
                           f"declares {sorted(names)}")
    record["metrics"] = {metric["name"]: {"value": values[metric["name"]],
                                          "unit": metric["unit"]}
                         for metric in declared[kind]}
    return record


def report(record: dict) -> None:
    """Print the human-readable lines (every metric with its unit)."""
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"rounds {record['rounds']}  wall {record['wall_s']:.2f} s  "
          f"requests {len(record['requests'])}  attempted {record['attempted']}  "
          f"failed {record['failed']}")
    print("setup samples: " + " ".join(f"{s:.3f}" for s in record["setup_samples_s"]) + " s")
    for layer, row in record.get("layers", {}).items():
        share = row["self_s"] / (record["wall_s"] / record["rounds"])
        print(f"layer {layer:<22s} {row['self_s']:10.4f} s/round {share:7.1%} "
              f"{row['calls']:9.1f} calls/round")
    for name, item in {**record["detail"], **record["metrics"]}.items():
        print(f"{name:<40s} {item['value']:.6g} {item['unit']}")
    print(f"digest {record['digest']}")
    for failure in record["failures"]:
        print(f"CHECK FAILED: {failure}")


def main(argv: "list[str] | None" = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        import compare

        return compare.main(argv[1:])
    # A terminated run still stops the processes it started (finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    args = parse_args(argv)
    record = run_workload(args.workload, args.seed, args.seconds, traced=bool(args.trace))
    report(record)
    if args.json is not None:
        with args.json.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({key: record[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
