"""Command-line interface: ``python -m repro <command>``.

Thin wrappers over the library so the core workflows run without writing
Python:

``python -m repro simulate --benchmark 410.bwaves --config D``
    Simulate one benchmark on one configuration and print the per-layer
    C-AMAT decomposition plus the LPM snapshot.

``python -m repro walk --benchmark 410.bwaves --delta 140``
    Run the LPM algorithm over the Table I ladder and print the walk.

``python -m repro sweep --benchmark 403.gcc``
    APC1/APC2 across private L1 sizes (one row of Figs. 6/7).
    ``--fidelity surrogate|multi`` ranks with the tier-0 analytical
    surrogate instead of (or before) the engine.

``python -m repro surrogate validate``
    Calibration report: tier-0 predictions vs the cycle-accurate engine
    across the SPEC profile set (docs/PERFORMANCE.md, "Multi-fidelity").

``python -m repro schedule``
    The Fig. 8 experiment: profile the 16 benchmarks on the NUCA machine
    and compare Random / Round-Robin / NUCA-SA.

``python -m repro diagnose --benchmark 429.mcf --config A``
    Measure, then print the bottleneck diagnosis and the recommended
    techniques from the paper's "technique pool".

``python -m repro serve --port 0 --workers 2``
    Run the evaluation service (docs/ROBUSTNESS.md, "Service layer"):
    concurrent clients submit (trace, config) jobs over a line-delimited
    JSON socket and share one journal/evalcache-backed runtime.

``python -m repro submit --port 4000 --benchmark 403.gcc --configs A,B,C``
    Submit a batch of design points to a running ``serve`` instance and
    print the terminal replies as JSON.

``python -m repro benchmarks``
    List the available benchmark profiles.

``python -m repro lint``
    Run the repo's model-aware static analyzer (docs/STATIC_ANALYSIS.md);
    exit 1 on any violation.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from contextlib import nullcontext

__all__ = ["main", "build_parser"]

KB = 1024


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="LPM (ICPP'15) reproduction — simulate, measure, optimize.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Observability flags shared by every measurement-producing command.
    obs = argparse.ArgumentParser(add_help=False)
    obs.add_argument("--trace", default=None, metavar="PATH", dest="trace_path",
                     help="append a JSONL span trace to PATH "
                          "(schema: docs/OBSERVABILITY.md)")
    obs.add_argument("--metrics", default=None, choices=("text", "json"),
                     help="collect the repro.obs metrics registry and print "
                          "it after the command")

    # Persistent evaluation cache, shared by the measurement-loop commands.
    cache_p = argparse.ArgumentParser(add_help=False)
    cache_p.add_argument("--eval-cache", default=None, metavar="PATH",
                         dest="eval_cache",
                         help="persistent evaluation-cache directory; "
                              "repeated runs recall identical measurements "
                              "instead of re-simulating "
                              "(keyed on trace content + config + seed + "
                              "engine version)")

    # Multi-fidelity knobs shared by the exploration commands.
    fid_p = argparse.ArgumentParser(add_help=False)
    fid_p.add_argument("--fidelity", choices=("engine", "surrogate", "multi"),
                       default="engine",
                       help="'engine' simulates everything; 'surrogate' "
                            "predicts everything with the tier-0 model; "
                            "'multi' ranks with the surrogate and escalates "
                            "only the top-K/margin frontier to the engine")
    fid_p.add_argument("--top-k", type=int, default=8, dest="top_k",
                       help="tie classes escalated under --fidelity multi")
    fid_p.add_argument("--margin", type=float, default=0.05,
                       help="also escalate every class within this fraction "
                            "of the best prediction (error-margin awareness)")

    sim = sub.add_parser("simulate", parents=[obs],
                         help="simulate one benchmark on one configuration")
    sim.add_argument("--benchmark", default="410.bwaves",
                     help="profile name, e.g. 410.bwaves or just bwaves")
    sim.add_argument("--config", default="A",
                     help="Table I configuration label A..E, or 'default'")
    sim.add_argument("--accesses", type=int, default=30_000,
                     help="memory accesses to generate")
    sim.add_argument("--seed", type=int, default=7)

    walk = sub.add_parser("walk", parents=[obs, cache_p, fid_p],
                          help="run the LPM algorithm over the A..E ladder")
    walk.add_argument("--benchmark", default="410.bwaves")
    walk.add_argument("--delta", type=float, default=140.0,
                      help="stall target as %% of CPI_exe (substrate-scaled)")
    walk.add_argument("--accesses", type=int, default=30_000)
    walk.add_argument("--seed", type=int, default=7)
    walk.add_argument("--no-trim", action="store_true",
                      help="disable the Case III over-provision trim")
    walk.add_argument("--fault-rate", type=float, default=0.0,
                      help="inject measurement faults at this overall rate "
                           "(spread over NaN/drop/truncate/exception kinds)")
    walk.add_argument("--fault-seed", type=int, default=0,
                      help="seed for the fault-injection RNG")

    sweep = sub.add_parser("sweep", parents=[obs, cache_p, fid_p],
                           help="APC1/APC2 across private L1 sizes")
    sweep.add_argument("--benchmark", default="403.gcc")
    sweep.add_argument("--accesses", type=int, default=20_000)
    sweep.add_argument("--seed", type=int, default=3)
    sweep.add_argument("--sizes", default="4,16,32,64",
                       help="comma-separated L1 sizes in KB")
    sweep.add_argument("--engine", choices=("auto", "scalar"),
                       default="auto",
                       help="'auto' runs a wide group of batch-eligible "
                            "configs in one kernel call and a narrow one on "
                            "the scalar path, 'scalar' forces per-config runs "
                            "(both bit-identical)")

    sched = sub.add_parser("schedule", parents=[obs, cache_p],
                           help="the Fig. 8 scheduling comparison")
    sched.add_argument("--accesses", type=int, default=12_000,
                       help="profiling accesses per (benchmark, L1 size)")
    sched.add_argument("--seed", type=int, default=3)
    sched.add_argument("--random-seeds", type=int, default=5)
    sched.add_argument("--workers", type=int, default=0,
                       help="profile on this many worker processes "
                            "(0 = in-process)")
    sched.add_argument("--journal", default=None, metavar="PATH",
                       help="JSONL checkpoint journal; an interrupted "
                            "profiling run resumes from it")

    prof = sub.add_parser(
        "profile", parents=[obs],
        help="per-phase timing profile of the simulate-and-measure pipeline, "
             "read from its trace spans",
    )
    prof.add_argument("--benchmark", default="403.gcc")
    prof.add_argument("--config", default="default",
                      help="Table I configuration label A..E, or 'default'")
    prof.add_argument("--accesses", type=int, default=30_000)
    prof.add_argument("--seed", type=int, default=7)
    prof.add_argument("--rounds", type=int, default=3,
                      help="repetitions; each phase keeps its best time")
    prof.add_argument("--json", action="store_true", dest="as_json",
                      help="emit the structured report as JSON")

    diag = sub.add_parser("diagnose",
                          help="bottleneck diagnosis + technique recommendations")
    diag.add_argument("--benchmark", default="410.bwaves")
    diag.add_argument("--config", default="A")
    diag.add_argument("--accesses", type=int, default=20_000)
    diag.add_argument("--seed", type=int, default=7)

    serve = sub.add_parser(
        "serve", parents=[obs, cache_p],
        help="run the evaluation service (line-delimited JSON over TCP)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port; 0 binds an ephemeral port and prints "
                            "the bound one (default: 0)")
    serve.add_argument("--workers", type=int, default=0,
                       help="evaluation worker processes (0 = in-process)")
    serve.add_argument("--journal", default=None, metavar="PATH",
                       help="JSONL checkpoint journal; a restarted server "
                            "replays finished jobs from it")
    serve.add_argument("--max-batch", type=int, default=4,
                       help="jobs dispatched to the pool per batch")
    serve.add_argument("--max-queued", type=int, default=64,
                       help="global admission bound; past it submissions "
                            "are rejected with a retry-after hint")
    serve.add_argument("--max-queued-per-client", type=int, default=16,
                       help="per-client admission bound")

    smt = sub.add_parser(
        "submit", parents=[obs],
        help="submit a batch of design points to a running `serve` instance",
    )
    smt.add_argument("--host", default="127.0.0.1")
    smt.add_argument("--port", type=int, required=True)
    smt.add_argument("--benchmark", default="410.bwaves")
    smt.add_argument("--configs", default="A",
                     help="comma-separated Table I labels to evaluate")
    smt.add_argument("--accesses", type=int, default=20_000)
    smt.add_argument("--seed", type=int, default=7)
    smt.add_argument("--client-id", default="cli")
    smt.add_argument("--timeout", type=float, default=120.0, dest="timeout_s",
                     help="overall budget for submit + wait, seconds")

    sub.add_parser("benchmarks", help="list available benchmark profiles")

    surr = sub.add_parser(
        "surrogate",
        help="tier-0 analytical surrogate tooling (validate)",
    )
    surr_sub = surr.add_subparsers(dest="surrogate_command", required=True)
    sval = surr_sub.add_parser(
        "validate", parents=[obs],
        help="calibrate the tier-0 predictor against the cycle-accurate "
             "engine across the SPEC profile set",
    )
    sval.add_argument("--benchmarks", default=None,
                      help="comma-separated profile names "
                           "(default: the selected 16)")
    sval.add_argument("--config", default="default",
                      help="Table I configuration label A..E, or 'default'")
    sval.add_argument("--accesses", type=int, default=20_000)
    sval.add_argument("--seed", type=int, default=3)
    sval.add_argument("--json", action="store_true", dest="as_json",
                      help="emit the structured report as JSON")

    lint = sub.add_parser(
        "lint",
        help="run the repo's AST static-analysis suite (determinism, "
             "numerical safety, taxonomy, concurrency, contracts)",
    )
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files/directories to lint (default: the "
                           "installed repro package source)")
    lint.add_argument("--json", action="store_true", dest="as_json",
                      help="emit a machine-readable JSON report "
                           "(alias for --format json)")
    lint.add_argument("--format", default=None, dest="lint_format",
                      choices=("text", "json", "sarif"),
                      help="report format (default: text)")
    lint.add_argument("--rules", default=None,
                      help="comma-separated rule names to run "
                           "(default: all registered rules)")
    lint.add_argument("--list-rules", action="store_true",
                      help="list registered rules and exit")
    lint.add_argument("--program", action="store_true",
                      help="also run the whole-program analysis "
                           "(call graph, purity, fork safety, event-loop "
                           "discipline: RACE/PURE/ASYNC/SUP rules)")
    lint.add_argument("--baseline", default=None, metavar="PATH",
                      dest="lint_baseline",
                      help="baseline file of grandfathered program "
                           "findings (default: lint-baseline.json beside "
                           "the linted tree, when present)")
    lint.add_argument("--update-baseline", action="store_true",
                      help="rewrite the baseline file with the current "
                           "program findings instead of failing on them")
    lint.add_argument("--output", default=None, metavar="PATH",
                      dest="lint_output",
                      help="also write the report to PATH")
    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.core import format_layer_measurement, format_lpmr_report
    from repro.sim import DEFAULT_MACHINE, simulate_and_measure, table1_config
    from repro.workloads import get_benchmark

    config = (
        DEFAULT_MACHINE if args.config.lower() == "default"
        else table1_config(args.config)
    )
    trace = get_benchmark(args.benchmark).trace(args.accesses, seed=args.seed)
    print(f"workload: {trace}")
    print(f"machine:  {config.name} {config.knob_summary()}\n")
    _, stats = simulate_and_measure(config, trace, seed=0)
    print(format_layer_measurement("L1", stats.l1))
    print()
    print(format_layer_measurement("L2 (LLC)", stats.l2))
    print()
    if stats.mem.accesses:
        print(format_layer_measurement("Main memory", stats.mem))
        print()
    print(format_lpmr_report(stats.lpmr_report()))
    return 0


def _cmd_walk(args: argparse.Namespace) -> int:
    from repro.core import LPMAlgorithm, format_run_result
    from repro.reconfig import LadderBackend
    from repro.sim import table1_config
    from repro.workloads import get_benchmark

    trace = get_benchmark(args.benchmark).trace(args.accesses, seed=args.seed)
    runtime = None
    if args.fault_rate > 0.0 or args.eval_cache is not None:
        from repro.runtime import EvaluationRuntime, FaultConfig

        faults = (
            FaultConfig.uniform(args.fault_rate, seed=args.fault_seed)
            if args.fault_rate > 0.0 else None
        )
        runtime = EvaluationRuntime(faults=faults, cache=args.eval_cache)
    backend = LadderBackend(
        [table1_config(c) for c in "ABCD"], trace,
        deprovision_configs=[table1_config("E")],
        runtime=runtime,
        fidelity=args.fidelity, top_k=args.top_k, margin=args.margin,
    )
    algo = LPMAlgorithm(delta_percent=args.delta, delta_slack_fraction=0.5,
                        max_steps=10)
    with runtime or nullcontext():
        result = algo.run(backend, allow_deprovision=not args.no_trim)
    print(format_run_result(result))
    print(f"\nsimulations spent: {backend.log.evaluations}")
    if backend.log.predicted:
        print(f"pruned by tier-0 surrogate: {backend.log.predicted}")
    if args.eval_cache is not None:
        print(f"recalled from cache/journal: {backend.log.cached}")
    if runtime is not None and args.fault_rate > 0.0:
        print(f"measurement retries under {args.fault_rate:.0%} fault "
              f"injection: {runtime.counters.retries}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis import sweep_configs
    from repro.core import render_table
    from repro.sched import NUCAMachine
    from repro.sim.stats import dispatch_plan
    from repro.workloads import get_benchmark

    sizes_kb = [int(s) for s in args.sizes.split(",") if s]
    trace = get_benchmark(args.benchmark).trace(args.accesses, seed=args.seed)
    base = NUCAMachine().base_config
    configs = [
        base.with_knobs(l1_size_bytes=kb * KB, name=f"L1-{kb}KB")
        for kb in sizes_kb
    ]
    runtime = None
    if args.eval_cache is not None:
        from repro.runtime import EvaluationRuntime

        runtime = EvaluationRuntime(cache=args.eval_cache)
    if args.fidelity == "surrogate":
        print(f"fidelity: surrogate ({len(configs)} tier-0 predictions, "
              "no simulation)")
    elif args.engine == "scalar":
        print(f"engine: scalar ({len(configs)} per-config simulations)")
    else:
        plan = dispatch_plan(configs)
        print(f"engine: {args.engine} ({len(configs)} configs: "
              f"{len(plan.kernel)} kernel lanes, {len(plan.scalar)} scalar, "
              f"{len(plan.ineligible)} ineligible)")
    with runtime or nullcontext():
        result = sweep_configs(configs, trace, seed=0, runtime=runtime,
                               engine=args.engine, fidelity=args.fidelity,
                               top_k=args.top_k, margin=args.margin)
    rows = [
        (label, st.apc1, st.apc2, st.mr1_conventional, st.ipc)
        for label, st in zip(result.labels, result.stats)
    ]
    print(render_table(
        ["L1 size", "APC1", "APC2", "MR1", "IPC"], rows, float_fmt="{:.4f}",
        title=f"{args.benchmark}: L1-size sweep (Figs. 6/7 quantities)",
    ))
    if result.n_predicted:
        print(f"\nfidelity {args.fidelity}: {result.n_simulated} simulated, "
              f"{result.n_predicted} predicted by the tier-0 surrogate")
    if runtime is not None:
        print(f"\nevaluations: {runtime.counters.simulations} simulated, "
              f"{runtime.counters.cache_hits} recalled from cache")
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.analysis import hsp_text
    from repro.sched import (
        NUCAMachine,
        evaluate_schedule,
        nuca_sa,
        profile_benchmarks,
        random_schedule,
        round_robin_schedule,
    )
    from repro.workloads import SELECTED_16, get_benchmark

    machine = NUCAMachine()
    print(f"profiling {len(SELECTED_16)} benchmarks x "
          f"{len(machine.distinct_l1_sizes)} L1 sizes...")
    runtime = None
    if args.workers > 0 or args.journal is not None or args.eval_cache is not None:
        from repro.runtime import EvaluationRuntime, PoolConfig

        runtime = EvaluationRuntime(
            pool=PoolConfig(max_workers=args.workers), journal=args.journal,
            cache=args.eval_cache,
        )
    with runtime or nullcontext():
        db = profile_benchmarks(
            machine, [get_benchmark(n) for n in SELECTED_16],
            n_mem=args.accesses, seed=args.seed, runtime=runtime,
        )
    if runtime is not None and runtime.counters.journal_hits:
        print(f"resumed {runtime.counters.journal_hits} profiles from "
              f"{args.journal} ({runtime.counters.simulations} simulated)")
    if runtime is not None and runtime.counters.cache_hits:
        print(f"recalled {runtime.counters.cache_hits} profiles from "
              f"{args.eval_cache} ({runtime.counters.simulations} simulated)")
    apps = list(SELECTED_16)
    results = {
        f"Random (avg of {args.random_seeds})": float(np.mean([
            evaluate_schedule(random_schedule(apps, machine, seed=s), db, machine).hsp
            for s in range(args.random_seeds)
        ])),
        "Round Robin": evaluate_schedule(
            round_robin_schedule(apps, machine), db, machine
        ).hsp,
        "NUCA-SA (cg)": evaluate_schedule(
            nuca_sa(apps, machine, db, grain="coarse"), db, machine
        ).hsp,
        "NUCA-SA (fg)": evaluate_schedule(
            nuca_sa(apps, machine, db, grain="fine"), db, machine
        ).hsp,
    }
    print()
    print(hsp_text(results))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import json

    from repro.obs import format_profile_report, profile_run
    from repro.sim import DEFAULT_MACHINE, table1_config
    from repro.workloads import get_benchmark

    config = (
        DEFAULT_MACHINE if args.config.lower() == "default"
        else table1_config(args.config)
    )
    trace = get_benchmark(args.benchmark).trace(args.accesses, seed=args.seed)
    _, report = profile_run(config, trace, seed=0, rounds=args.rounds)
    if args.as_json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(format_profile_report(report))
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    from repro.core.diagnosis import render_diagnosis
    from repro.sim import DEFAULT_MACHINE, simulate_and_measure, table1_config
    from repro.workloads import get_benchmark

    config = (
        DEFAULT_MACHINE if args.config.lower() == "default"
        else table1_config(args.config)
    )
    trace = get_benchmark(args.benchmark).trace(args.accesses, seed=args.seed)
    _, stats = simulate_and_measure(config, trace, seed=0)
    print(f"workload: {trace}")
    print(f"machine:  {config.name} {config.knob_summary()}\n")
    print(render_diagnosis(stats, config))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    import repro
    from repro.lint import (
        ASTCache,
        format_json,
        format_rule_listing,
        format_text,
        run_lint,
    )

    if args.list_rules:
        print(format_rule_listing())
        return 0
    fmt = args.lint_format or ("json" if args.as_json else "text")
    paths = args.paths or [Path(repro.__file__).parent]
    requested = (
        [r.strip() for r in args.rules.split(",") if r.strip()] if args.rules else None
    )
    file_rules = program_rules = None
    if requested is not None:
        from repro.lint import RULES
        from repro.lint.program import PROGRAM_RULES

        file_rules = [r for r in requested if r in RULES]
        program_rules = [r for r in requested if r in PROGRAM_RULES]
        unknown = sorted(set(requested) - set(file_rules) - set(program_rules))
        if unknown:
            known = ", ".join(sorted([*RULES, *PROGRAM_RULES]))
            raise KeyError(
                f"unknown lint rule(s) {', '.join(unknown)} (known rules: {known})"
            )
        if program_rules and not args.program:
            raise ValueError(
                f"rule(s) {', '.join(program_rules)} are whole-program rules; "
                "add --program to run them"
            )

    # One shared AST cache: the per-file engine and the program analyzer
    # parse each file exactly once between them.
    cache = ASTCache()
    result = run_lint(paths, rules=file_rules, cache=cache)
    program_result = None
    if args.program:
        from repro.lint.program import load_baseline, run_program_lint, write_baseline

        baseline_path = Path(args.lint_baseline or "lint-baseline.json")
        baseline = load_baseline(baseline_path)
        program_result = run_program_lint(
            paths, rules=program_rules, cache=cache, baseline=baseline
        )
        if args.update_baseline:
            write_baseline(baseline_path, program_result.baseline_entries)
            print(
                f"wrote {baseline_path} "
                f"({len(program_result.baseline_entries)} entries)"
            )
            return 0

    if fmt == "sarif":
        from repro.lint.sarif import format_sarif

        violations = list(result.violations)
        baselined = []
        if program_result is not None:
            violations.extend(program_result.violations)
            baselined = program_result.baselined
        text = format_sarif(sorted(violations), baselined=baselined)
    elif fmt == "json":
        payload = json.loads(format_json(result))
        if program_result is not None:
            program_payload = dict(program_result.summary())
            program_payload["violations"] = [
                v.to_dict() for v in program_result.violations
            ]
            program_payload["baselined_violations"] = [
                v.to_dict() for v in program_result.baselined
            ]
            payload["program"] = program_payload
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
        from repro.lint.reporters import format_program_text

        parts = [format_text(result)]
        if program_result is not None:
            parts.append(format_program_text(program_result))
        text = "\n".join(parts)
    print(text)
    if args.lint_output:
        Path(args.lint_output).write_text(text + "\n", encoding="utf-8")
    ok = result.ok and (program_result is None or program_result.ok)
    return 0 if ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.runtime import EvaluationRuntime, PoolConfig
    from repro.service import (
        AdmissionConfig,
        EvaluationServer,
        SchedulerConfig,
        ServerConfig,
    )

    runtime = EvaluationRuntime(
        pool=PoolConfig(max_workers=args.workers),
        journal=args.journal,
        cache=args.eval_cache,
    )
    config = ServerConfig(
        host=args.host,
        port=args.port,
        scheduler=SchedulerConfig(
            max_batch=args.max_batch,
            admission=AdmissionConfig(
                max_queued_total=args.max_queued,
                max_queued_per_client=args.max_queued_per_client,
            ),
        ),
    )

    async def serve() -> None:
        server = EvaluationServer(runtime, config=config)
        await server.start()
        # Scripts read this line to learn the ephemeral port.
        print(f"serving on {config.host}:{server.port}", flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop.set)
        try:
            await stop.wait()
        finally:
            for sig in (signal.SIGINT, signal.SIGTERM):
                loop.remove_signal_handler(sig)
            print("draining...", file=sys.stderr, flush=True)
            await server.stop()
            stats = server.scheduler.stats()
            by_status = ", ".join(
                f"{n} {status}" for status, n in sorted(stats["jobs"].items())
            ) or "0"
            print(
                f"drained: {by_status} "
                f"({stats['runtime']['simulations']} simulated), "
                f"{server.connections} connections",
                file=sys.stderr,
            )

    with runtime:
        asyncio.run(serve())
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    from repro.service import JobStatus, run_jobs
    from repro.workloads import get_benchmark

    labels = [c.strip() for c in args.configs.split(",") if c.strip()]
    if not labels:
        raise ValueError("--configs must name at least one configuration")
    profile = get_benchmark(args.benchmark)
    trace = profile.trace(args.accesses, seed=args.seed)
    specs = [
        {
            "job_id": f"{profile.name}:{label}:{args.seed}",
            "config": {"label": label},
            "seed": 0,
            "warm": True,
        }
        for label in labels
    ]
    results = run_jobs(
        args.host, args.port, trace, specs,
        client_id=args.client_id, timeout_s=args.timeout_s,
    )
    print(json.dumps(results, indent=2, sort_keys=True))
    ok = all(r.get("status") == JobStatus.DONE for r in results.values())
    return 0 if ok else 2


def _cmd_surrogate(args: argparse.Namespace) -> int:
    import json

    from repro.analysis import format_validation_report, validate_benchmarks
    from repro.sim import DEFAULT_MACHINE, table1_config
    from repro.workloads import SELECTED_16

    config = (
        DEFAULT_MACHINE if args.config.lower() == "default"
        else table1_config(args.config)
    )
    names = (
        [n.strip() for n in args.benchmarks.split(",") if n.strip()]
        if args.benchmarks else list(SELECTED_16)
    )
    report = validate_benchmarks(
        names, config, n_accesses=args.accesses, seed=args.seed
    )
    if args.as_json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(format_validation_report(report))
    return 0


def _cmd_benchmarks(_args: argparse.Namespace) -> int:
    from repro.workloads import BENCHMARKS

    for name in sorted(BENCHMARKS):
        p = BENCHMARKS[name]
        print(f"{name:18s} [{p.suite:3s}] f_mem={p.f_mem:.2f}  {p.description}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "diagnose": _cmd_diagnose,
    "walk": _cmd_walk,
    "sweep": _cmd_sweep,
    "schedule": _cmd_schedule,
    "profile": _cmd_profile,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "surrogate": _cmd_surrogate,
    "benchmarks": _cmd_benchmarks,
    "lint": _cmd_lint,
}


def main(argv: "Sequence[str] | None" = None) -> int:
    """CLI entry point; returns the process exit code.

    Exit codes: 0 on success, 2 on any anticipated error (unknown
    benchmark/configuration, invalid parameter, failed measurement), 130 on
    interrupt — so shell scripts and CI can branch on the failure class
    instead of parsing tracebacks.
    """
    from repro.runtime.errors import ReproError

    args = build_parser().parse_args(argv)
    trace_path = getattr(args, "trace_path", None)
    metrics_format = getattr(args, "metrics", None)
    if trace_path is not None:
        from repro.obs import configure_tracing

        configure_tracing(trace_path)
    if metrics_format is not None:
        from repro.obs import set_metrics_enabled

        set_metrics_enabled(True)
    try:
        code = _COMMANDS[args.command](args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except (ReproError, KeyError, ValueError) as exc:
        # KeyError reprs its argument; unwrap for a clean one-line message.
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    finally:
        if trace_path is not None:
            from repro.obs import configure_tracing

            configure_tracing(None)  # flush + close the JSONL exporter
    if metrics_format is not None:
        from repro.obs import (
            format_metrics_json,
            format_metrics_text,
            get_registry,
            set_metrics_enabled,
        )

        # Snapshot-and-reset so in-process callers (tests, notebooks) can
        # invoke main() repeatedly without metrics bleeding across runs.
        snapshot = get_registry().snapshot_and_reset()
        set_metrics_enabled(False)
        fmt = format_metrics_json if metrics_format == "json" else format_metrics_text
        print()
        print(fmt(snapshot))
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
