"""The four end-to-end workloads: what each runs, times and checks.

Every workload runs warm (``warm=True``): statistics are collected after
the modelled caches fill.  Its inputs derive from ``--seed`` alone; the
load comes from one process with at most two workers or connections
(the host has two cores).  A closed-loop workload repeats a fixed *round*
of work while another round fits in ``--seconds``, so per-round
quantities compare across runs that completed a different number of
rounds.

A workload records every user-visible request with its kind, wall
interval and work items, its per-workload metrics (declared with their
bounds in ``workload_metrics.json``), the outputs of its first round
(digested into the result record) and extra per-layer counts that no span
carries.  Times are reported in reference seconds (:mod:`hostspeed`): each
interval scaled by how fast the host ran a fixed kernel around it.
:meth:`Workload.check` runs after the timed region.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import select
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro.obs import trace as obs_trace
from repro.util.rng import derive_seed, make_rng

import instrument
from hostspeed import HostSpeed

__all__ = ["Measurement", "Workload", "WORKLOADS", "output_digest", "quantile"]

HERE = Path(__file__).resolve().parent
KB = 1024


@dataclass
class Measurement:
    """What one timed run of a workload produced."""

    #: ``(kind, start, end, items)`` per user-visible request: its wall
    #: interval on ``time.perf_counter`` and its work items.  The work item
    #: depends on the workload: simulated instruction, configuration,
    #: answered evaluation, job.
    requests: "list[tuple[str, float, float, float]]"
    host: HostSpeed
    rounds: int
    wall_s: float
    attempted: int
    failed: int = 0
    #: ``(start, end, jobs)`` of the interval in which an open loop drained
    #: a saturating burst; ``None`` for a closed loop, whose throughput
    #: follows from its requests.
    burst: "tuple[float, float, int] | None" = None
    #: ``name -> (value, unit, better)``: the per-workload metrics and a few
    #: numbers reported for information.
    detail: "dict[str, tuple[float, str, str]]" = field(default_factory=dict)
    #: JSON-able outputs of the first round, digested into the record.
    outputs: list = field(default_factory=list)
    #: Per-round counts no span carries, merged into the per-layer metrics.
    counts: "dict[str, float]" = field(default_factory=dict)

    def __post_init__(self) -> None:
        #: Reference seconds of each request (:mod:`hostspeed`).
        self.seconds = [self.host.normalized(t0, t1) for _, t0, t1, _ in self.requests]

    def rate(self, kind_prefix: str = "") -> float:
        """Work items per reference second of the requests whose kind
        starts with *kind_prefix*, over the time those requests took."""
        chosen = [(s, req[3]) for s, req in zip(self.seconds, self.requests)
                  if req[0].startswith(kind_prefix)]
        return sum(i for _, i in chosen) / sum(s for s, _ in chosen)

    def end_to_end(self) -> "tuple[float, float, float]":
        """(throughput per second, median and 90th-percentile latency in s),
        in reference seconds.

        The percentiles are over every request as it was observed.  The
        throughput is the open loop's burst drain rate, or a closed loop's
        work items over the time of its requests.
        """
        if self.burst is not None:
            start, end, jobs = self.burst
            throughput = jobs / self.host.normalized(start, end)
        else:
            throughput = self.rate()
        return throughput, statistics.median(self.seconds), quantile(self.seconds, 90)

    def wall_end_to_end(self) -> "tuple[float, float, float]":
        """:meth:`end_to_end` in wall seconds, not scaled to the host."""
        lat = [t1 - t0 for _, t0, t1, _ in self.requests]
        if self.burst is not None:
            start, end, jobs = self.burst
            throughput = jobs / (end - start)
        else:
            throughput = sum(req[3] for req in self.requests) / sum(lat)
        return throughput, statistics.median(lat), quantile(lat, 90)


class Workload:
    """Base: set-up, a timed measurement, correctness checks, teardown."""

    name = ""
    #: Modules the set-up import probe loads in a fresh interpreter.
    modules: "tuple[str, ...]" = ("repro.sim.stats",)

    def __init__(self, seed: int, work_dir: Path, host: HostSpeed, *, scale: float = 1.0,
                 trace_path: "Path | None" = None) -> None:
        self.seed = seed
        self.work_dir = work_dir
        #: The running host-speed reference the measurement scales by.
        self.host = host
        self.scale = scale
        #: Where the traced run's spans go; processes the workload starts
        #: trace there too.
        self.trace_path = trace_path

    def n(self, accesses: int) -> int:
        """*accesses* at this workload's scale (tests run below 1.0)."""
        return max(int(accesses * self.scale), 500)

    def rng_seed(self, *labels: object) -> int:
        """A 31-bit input seed derived from ``--seed`` and *labels*."""
        return derive_seed(self.seed, self.name, *labels) % (2**31)

    def setup(self) -> None:
        """Build inputs and start what the timed region needs."""

    def measure(self, seconds: float) -> Measurement:
        raise NotImplementedError

    def check(self) -> "list[str]":
        """Correctness failures found after the timed region (empty: ok)."""
        return []

    def close(self) -> None:
        """Stop what :meth:`setup` started."""


def _request(label: str):
    """A bench span around one request (its self time is bench glue)."""
    return obs_trace.span("bench.request", label=label)


def _repeat(seconds: float, run_round) -> "tuple[int, float]":
    """Run ``run_round(r)`` while a round of the mean length so far still
    ends within *seconds* (at least once); returns (rounds, wall)."""
    rounds, wall = 0, 0.0
    while rounds == 0 or wall + wall / rounds <= seconds:
        t0 = perf_counter()
        run_round(rounds)
        wall += perf_counter() - t0
        rounds += 1
    return rounds, wall


def quantile(values: "list[float]", q: int) -> float:
    """The *q*-th percentile, *q* a multiple of 10 (inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def _stats_output(stats) -> dict:
    """A comparable, JSON-able form of one measured or predicted row."""
    if hasattr(stats, "to_dict"):
        return stats.to_dict()
    return dataclasses.asdict(stats)


# -- simulate ---------------------------------------------------------------

PROFILES = ("403.gcc", "444.namd", "410.bwaves", "429.mcf")


class Simulate(Workload):
    """``simulate_and_measure`` once per (profile, trace seed).

    The per-config pipeline everything else builds on.  No (trace, config)
    pair repeats, so memoisation and batching have nothing to exploit: the
    bypass workload for those changes.  One call in four runs a
    stream-prefetch config, whose reference issue loop runs beside the
    fast path.
    """

    name = "simulate"
    #: A round visits every profile four times; each profile's prefetch
    #: call falls on a different visit.
    CALLS_PER_ROUND = 16
    ACCESSES = 30_000

    def setup(self) -> None:
        from repro.sim.params import DEFAULT_MACHINE
        from repro.sim.prefetch import PrefetchConfig

        self.plain = DEFAULT_MACHINE
        self.prefetch = DEFAULT_MACHINE.with_(
            prefetch=PrefetchConfig(degree=4, distance=2), name="default+prefetch"
        )

    def _call(self, i: int):
        """The (profile, trace seed, config) of call *i*."""
        visit = i // len(PROFILES)
        profile = PROFILES[i % len(PROFILES)]
        config = self.prefetch if visit % 4 == i % len(PROFILES) else self.plain
        return profile, self.rng_seed(profile, visit), config

    def measure(self, seconds: float) -> Measurement:
        from repro.sim.stats import simulate_and_measure
        from repro.workloads.spec import get_benchmark

        requests: "list[tuple[str, float, float, float]]" = []
        self.first: "list[tuple[str, int, object, dict]]" = []

        def run_round(r: int) -> None:
            for j in range(self.CALLS_PER_ROUND):
                profile, trace_seed, config = self._call(r * self.CALLS_PER_ROUND + j)
                kind = f"{'plain' if config is self.plain else 'prefetch'}|{profile}"
                t0 = perf_counter()
                with _request(kind):
                    trace = get_benchmark(profile).trace(self.n(self.ACCESSES),
                                                         seed=trace_seed)
                    _, stats = simulate_and_measure(config, trace, seed=0, warm=True)
                requests.append((kind, t0, perf_counter(), stats.n_instructions))
                if r == 0:
                    self.first.append((profile, trace_seed, config, stats.to_dict()))

        rounds, wall = _repeat(seconds, run_round)
        m = Measurement(requests, self.host, rounds, wall, attempted=len(requests),
                        outputs=[stats for *_, stats in self.first])
        m.detail = {
            f"simulate.{part}instr_per_s": (m.rate(prefix), "sim-instr/s", "higher")
            for part, prefix in (("", ""), ("plain.", "plain"), ("prefetch.", "prefetch"))
        }
        return m

    def check(self) -> "list[str]":
        """The fast path is bit-identical to the reference loop (one trace
        per profile)."""
        from repro.sim.engine import HierarchySimulator
        from repro.sim.stats import measure_hierarchy
        from repro.workloads.spec import get_benchmark

        failures = []
        seen = set()
        for profile, trace_seed, config, measured in self.first:
            if config is not self.plain or profile in seen:
                continue
            seen.add(profile)
            trace = get_benchmark(profile).trace(self.n(self.ACCESSES), seed=trace_seed)
            perfect = HierarchySimulator(config, seed=0, engine="reference").run(
                trace, perfect=True)
            sim = HierarchySimulator(config, seed=0, engine="reference")
            sim.warm_caches(trace)
            reference = measure_hierarchy(sim.run(trace), cpi_exe=perfect.cpi)
            if reference.to_dict() != measured:
                failures.append(f"simulate: fast path differs from reference on {profile}")
        if len(seen) != len(PROFILES):
            failures.append("simulate: a profile had no fast-path call to check")
        return failures


# -- sweep -------------------------------------------------------------------

def _core_slice(base) -> list:
    """The Table I slice: issue width x IW size x ROB size (64 points)."""
    return [
        base.with_knobs(issue_width=w, iw_size=iw, rob_size=rob,
                        name=f"c{w}-{iw}-{rob}")
        for w in (2, 4, 6, 8) for iw in (32, 64, 96, 128) for rob in (48, 96, 128, 192)
    ]


class Sweep(Workload):
    """``sweep_configs(engine="auto")`` along three axes.

    On the cache axis (Fig. 6/7 L1 sizes) the perfect-L1 pass is
    config-invariant; on the core axis (the Table I slice) the warm-up is.
    Each axis exercises one memo and bypasses the other; the multi-fidelity
    part exercises the surrogate.
    """

    name = "sweep"
    CACHE_PROFILES = ("403.gcc", "444.namd", "410.bwaves")
    CORE_PROFILES = ("444.namd", "403.gcc")
    L1_KB = (4, 8, 16, 32, 64, 128)
    CACHE_ACCESSES = 30_000
    CORE_ACCESSES = 10_000
    modules = ("repro.analysis.sweep", "repro.sim.batch", "repro.analysis.surrogate")

    def setup(self) -> None:
        from repro.sim.params import DEFAULT_MACHINE

        self.cache_axis = [
            DEFAULT_MACHINE.with_knobs(l1_size_bytes=kb * KB, name=f"L1-{kb}KB")
            for kb in self.L1_KB
        ]
        self.core_axis = _core_slice(DEFAULT_MACHINE)

    def _plan(self) -> list:
        """One round's calls: (part, profile, accesses, configs, fidelity)."""
        cache = {p: ("cache", p, self.CACHE_ACCESSES, self.cache_axis, "engine")
                 for p in self.CACHE_PROFILES}
        core = {p: ("core", p, self.CORE_ACCESSES, self.core_axis, "engine")
                for p in self.CORE_PROFILES}
        multi = [("multi", p, self.CORE_ACCESSES, self.core_axis, "multi")
                 for p in self.CORE_PROFILES]
        return [cache["403.gcc"], core["444.namd"], cache["444.namd"],
                core["403.gcc"], cache["410.bwaves"], *multi]

    def measure(self, seconds: float) -> Measurement:
        from repro.analysis.sweep import sweep_configs
        from repro.workloads.spec import get_benchmark

        requests: "list[tuple[str, float, float, float]]" = []
        self.first: "list[tuple[str, str, object, object]]" = []

        def run_round(r: int) -> None:
            for part, profile, accesses, configs, fidelity in self._plan():
                t0 = perf_counter()
                with _request(f"{part}|{profile}"):
                    trace = get_benchmark(profile).trace(
                        self.n(accesses), seed=self.rng_seed(profile, accesses, r))
                    result = sweep_configs(configs, trace, engine="auto",
                                           fidelity=fidelity, warm=True)
                requests.append((f"{part}|{profile}", t0, perf_counter(), len(configs)))
                if r == 0:
                    self.first.append((part, profile, trace, result))

        rounds, wall = _repeat(seconds, run_round)
        m = Measurement(
            requests, self.host, rounds, wall, attempted=int(sum(i for *_, i in requests)),
            outputs=[
                [part, profile, list(res.sources), [_stats_output(s) for s in res.stats]]
                for part, profile, _, res in self.first
            ],
        )
        m.detail = {
            name: (m.rate(part), "configs/s", "higher")
            for name, part in (("sweep.cache_axis_configs_per_s", "cache"),
                               ("sweep.core_axis_configs_per_s", "core"),
                               ("sweep.multi_configs_per_s", "multi"))
        }
        return m

    def check(self) -> "list[str]":
        """Batch equals scalar on the cache axis; the multi-fidelity frontier
        attains the engine-only optimum of the core axis."""
        from repro.analysis.sweep import sweep_configs

        failures = []
        engine_best = {}
        for part, profile, trace, result in self.first:
            if part == "cache":
                scalar = sweep_configs(self.cache_axis, trace, engine="scalar", warm=True)
                if [s.to_dict() for s in scalar.stats] != [s.to_dict() for s in result.stats]:
                    failures.append(f"sweep: batch and scalar differ on {profile}")
            elif part == "core":
                engine_best[profile] = min(s.cpi for s in result.stats)
        for part, profile, _, result in self.first:
            if part != "multi":
                continue
            escalated = [s.cpi for s, src in zip(result.stats, result.sources)
                         if src != "predicted"]
            if not escalated or min(escalated) != engine_best[profile]:
                failures.append(f"sweep: multi frontier misses the optimum on {profile}")
        return failures


# -- explore -----------------------------------------------------------------

#: The Fig. 3 walk's input: the trace on which the paper's narrative (the
#: fine walk passes D in Case III and trims to E) holds at 30k accesses.
#: A walk's trajectory, and so its work, changes with the trace, so both
#: walks run on fixed traces; Case II takes its inputs from ``--seed``.
WALK_TRACE_SEED = 7
#: The greedy walk's input: two steps and six evaluations, the median work
#: over trace seeds 1-12 (which take one to eleven evaluations).
GREEDY_TRACE_SEED = 12


class Explore(Workload):
    """The paper's two exploration algorithms, cold then warm.

    Cold: the fine Fig. 3 ladder walk, the greedy design-space walk and
    Case II profiling (two pool workers) with NUCA-SA, all through one
    fresh evaluation cache.  Warm: everything again, :attr:`WARM_PASSES`
    times, against the populated cache.  Exercises walk-step batching,
    pool fan-out and the evaluation cache, with writes in the cold pass
    and reads in the warm one.  A request is one pass, so the median and
    the 90th percentile over every request fall inside the warm passes.
    """

    name = "explore"
    WARM_PASSES = 16
    WALK_ACCESSES = 30_000
    GREEDY_ACCESSES = 20_000
    CASE2_ACCESSES = 8_000
    modules = ("repro.reconfig", "repro.runtime", "repro.sched", "repro.core")

    def setup(self) -> None:
        from repro.runtime import PoolConfig
        from repro.sched import NUCAMachine
        from repro.sim.params import table1_config
        from repro.workloads.spec import SELECTED_16, get_benchmark

        self.ladder = [table1_config(c) for c in "ABCD"]
        self.trim = [table1_config("E")]
        self.machine = NUCAMachine()
        self.profiles = [get_benchmark(n) for n in SELECTED_16]
        self.pool = PoolConfig(max_workers=2)
        self.cache_dir = Path(tempfile.mkdtemp(prefix="explore-", dir=self.work_dir))

    def _pass(self, r: int, cache, queries: list, temp: str) -> dict:
        """One pass over the three queries; returns their comparable outputs.

        Each query is recorded in *queries* as ``(query|temp, start, end,
        evaluations answered)``.
        """
        from repro import sched
        from repro.core import LPMAlgorithm
        from repro.reconfig import DesignSpace, GreedyReconfigBackend, LadderBackend
        from repro.runtime import EvaluationRuntime
        from repro.workloads.spec import get_benchmark

        out: dict = {}
        bwaves = get_benchmark("410.bwaves")
        t0 = perf_counter()
        with _request(f"walk|{temp}"):
            trace = bwaves.trace(self.n(self.WALK_ACCESSES), seed=WALK_TRACE_SEED)
            backend = LadderBackend(self.ladder, trace, deprovision_configs=self.trim,
                                    runtime=EvaluationRuntime(cache=cache))
            walk = LPMAlgorithm(delta_percent=140.0, delta_slack_fraction=0.5,
                                max_steps=10).run(backend, allow_deprovision=True)
        queries.append((f"walk|{temp}", t0, perf_counter(),
                         backend.log.evaluations + backend.log.cached))
        out["walk"] = {
            "status": walk.status.value,
            "steps": [[s.config_label, s.case.value, s.report.lpmr1, s.report.lpmr2]
                      for s in walk.steps],
        }
        out["walk_log"] = [backend.log.evaluations, backend.log.cached]

        t0 = perf_counter()
        with _request(f"greedy|{temp}"):
            trace = bwaves.trace(self.n(self.GREEDY_ACCESSES), seed=GREEDY_TRACE_SEED)
            greedy_backend = GreedyReconfigBackend(
                DesignSpace(), trace, delta_percent=155.0,
                runtime=EvaluationRuntime(cache=cache))
            greedy = LPMAlgorithm(delta_percent=155.0, delta_slack_fraction=0.5,
                                  max_steps=12).run(greedy_backend, allow_deprovision=False)
        queries.append((f"greedy|{temp}", t0, perf_counter(),
                         greedy_backend.log.evaluations + greedy_backend.log.cached))
        out["greedy"] = {
            "status": greedy.status.value, "point": greedy_backend.describe(),
            "lpmr1": [s.report.lpmr1 for s in greedy.steps],
        }
        out["greedy_log"] = [greedy_backend.log.evaluations, greedy_backend.log.cached]

        t0 = perf_counter()
        with _request(f"schedule|{temp}"):
            runtime = EvaluationRuntime(pool=self.pool, cache=cache)
            db = sched.profile_benchmarks(
                self.machine, self.profiles, n_mem=self.n(self.CASE2_ACCESSES),
                seed=self.rng_seed("case2", r), runtime=runtime)
            apps = [p.name for p in self.profiles]
            hsp = {grain: sched.evaluate_schedule(
                       sched.nuca_sa(apps, self.machine, db, grain=grain),
                       db, self.machine).hsp
                   for grain in ("coarse", "fine")}
        queries.append((f"schedule|{temp}", t0, perf_counter(), len(db.stats)))
        out["case2"] = {
            "hsp": hsp,
            "profiles": {f"{b}|{size}": st.to_dict() for (b, size), st in sorted(db.stats.items())},
        }
        out["case2_simulated"] = runtime.counters.simulations
        return out

    def measure(self, seconds: float) -> Measurement:
        from repro.runtime.evalcache import EvaluationCache

        #: One request per pass, ``(cold|warm, start, end, evaluations)``.
        requests: "list[tuple[str, float, float, float]]" = []
        #: The same per query, ``(query|temp, start, end, evaluations)``.
        queries: "list[tuple[str, float, float, float]]" = []
        #: Per round: (cold pass outputs, [warm pass outputs]).
        self.passes: "list[tuple[dict, list[dict]]]" = []

        def one_pass(r: int, cache, temp: str) -> dict:
            first = len(queries)
            out = self._pass(r, cache, queries, temp)
            mine = queries[first:]
            requests.append((temp, mine[0][1], mine[-1][2], sum(q[3] for q in mine)))
            return out

        def run_round(r: int) -> None:
            cache = EvaluationCache(self.cache_dir / f"round-{r}")
            cold = one_pass(r, cache, "cold")
            warm = [one_pass(r, cache, "warm") for _ in range(self.WARM_PASSES)]
            self.passes.append((cold, warm))

        rounds, wall = _repeat(seconds, run_round)
        logs = [out[log] for cold, warm in self.passes for out in [cold, *warm]
                for log in ("walk_log", "greedy_log")]
        cold = self.passes[0][0]
        m = Measurement(
            requests, self.host, rounds, wall, attempted=int(sum(i for *_, i in requests)),
            outputs=[{part: cold[part] for part in ("walk", "greedy", "case2")}],
            counts={"explorer.evaluations": sum(log[0] for log in logs) / rounds,
                    "explorer.cached": sum(log[1] for log in logs) / rounds},
        )
        m.detail = {
            f"explore.{query}_s": (
                statistics.median(self.host.normalized(t0, t1)
                                  for kind, t0, t1, _ in queries if kind == f"{query}|cold"),
                "s", "lower")
            for query in ("walk", "greedy", "schedule")
        }
        m.detail["explore.warm_s"] = (
            statistics.median(s for s, req in zip(m.seconds, requests) if req[0] == "warm"),
            "s", "lower")
        return m

    def check(self) -> "list[str]":
        """The fine walk passes (D, III) and ends matched at E; the greedy
        walk ends matched; every warm pass simulates nothing and repeats the
        cold pass bit for bit, Case II Hsp included."""
        failures = []
        for cold, warm_passes in self.passes:
            steps = [(label, case) for label, case, *_ in cold["walk"]["steps"]]
            if cold["walk"]["status"] != "matched" or ("D", "III") not in steps \
                    or steps[-1] != ("E", "IV"):
                failures.append(f"explore: fine walk trajectory {steps}")
            if cold["greedy"]["status"] != "matched":
                failures.append("explore: greedy walk did not end matched")
            for warm in warm_passes:
                if warm["walk_log"][0] or warm["greedy_log"][0] or warm["case2_simulated"]:
                    failures.append("explore: a warm pass ran simulations")
                for part in ("walk", "greedy", "case2"):
                    if warm[part] != cold[part]:
                        failures.append(f"explore: warm {part} differs from cold")
        return failures


# -- service -----------------------------------------------------------------

#: Open-loop phases (name, jobs per second, share of ``--seconds``): 20 s
#: at the low rate and 10 s at the high one in a 30 s run.
PHASES = (("low", 5.0, 2 / 3), ("high", 12.0, 1 / 3))
BURST_JOBS = 128
#: Knob grid the job configs are drawn from.
GRID = {
    "issue_width": (2, 4, 6, 8),
    "iw_size": (16, 32, 64, 128),
    "rob_size": (32, 64, 128, 192),
    "mshr_count": (4, 8, 16),
    "l1_size_bytes": (16 * KB, 32 * KB, 64 * KB),
}
#: Every this many open-loop submissions, one repeats an earlier point.
REPEAT_EVERY = 4
#: A repeat only names a point submitted at least this long before.
REPEAT_AGE_S = 1.0
#: How long the server may take to print its port.
SERVER_START_S = 60.0


@dataclass
class Job:
    """One planned submission of the open-loop client."""

    job_id: str
    phase: str
    due_s: float
    trace: str
    knobs: dict
    sim_seed: int
    client: str
    repeat: bool = False
    sent: float = 0.0
    done: float = 0.0
    reply: "dict | None" = None


class Service(Workload):
    """``repro serve`` with one worker, driven by an open loop.

    Two connections: one submits on schedule, one waits for each job in
    submission order.  Fresh points carry a unique simulation seed; every
    fourth open-loop submission repeats an earlier point, which the
    journal serves.  Phases: a low rate, a high rate, then a
    burst of fresh jobs whose drain time gives the capacity.  Latency is
    timed from each job's due time, so a stalled generator shows.
    """

    name = "service"
    ACCESSES = 4_000
    modules = ("repro.service", "repro.sim.stats")

    def setup(self) -> None:
        from repro.service import ServiceClient
        from repro.workloads.spec import get_benchmark

        self.traces = {name: get_benchmark(name).trace(self.n(self.ACCESSES),
                                                       seed=self.rng_seed(name))
                       for name in ("403.gcc", "444.namd")}
        tmp = Path(tempfile.mkdtemp(prefix="service-", dir=self.work_dir))
        argv = [sys.executable, str(HERE / "serve.py"), "serve", "--workers", "1",
                "--journal", str(tmp / "journal.jsonl"), "--eval-cache", str(tmp / "cache"),
                "--max-queued", "128", "--max-queued-per-client", "64"]
        if self.trace_path is not None:
            argv += ["--trace", str(self.trace_path)]
        src = str(Path(sys.modules["repro"].__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]))
        self.server = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                       stderr=subprocess.DEVNULL, text=True, env=env)
        ready, _, _ = select.select([self.server.stdout], [], [], SERVER_START_S)
        line = self.server.stdout.readline() if ready else ""
        if not line.startswith("serving on "):
            self.close()
            raise RuntimeError(f"server did not start: {line!r}")
        port = int(line.strip().rsplit(":", 1)[1])

        self.submit = ServiceClient("127.0.0.1", port, client_id="open", timeout_s=60.0)
        self.wait = ServiceClient("127.0.0.1", port, client_id="wait", timeout_s=60.0)

        async def connect():
            await self.submit.connect()
            await self.wait.connect()
            return {name: await self.submit.register_trace(trace)
                    for name, trace in self.traces.items()}

        self.loop = asyncio.new_event_loop()
        self.digests = self.loop.run_until_complete(connect())

    def _plan(self, seconds: float) -> "list[Job]":
        """Every submission of the run, with due times relative to its start.

        The mix is fixed by position, so every seed offers the same load:
        traces alternate and every fourth open-loop job repeats a point due
        at least ``REPEAT_AGE_S`` earlier.  The seed picks the knobs, the
        simulation seeds and which point a repeat names.  Each knob's values
        are drawn as consecutive seeded permutations of its grid, so every
        seed draws each value equally often (within one).
        """
        rng = make_rng(self.rng_seed("plan"))
        names = sorted(self.traces)
        jobs: "list[Job]" = []

        def balanced(values: tuple):
            while True:
                for i in rng.permutation(len(values)):
                    yield int(values[int(i)])

        draws = {k: balanced(v) for k, v in GRID.items()}

        def fresh_job(phase: str, due: float, client: str) -> Job:
            knobs = {k: next(draw) for k, draw in draws.items()}
            return Job(f"{phase}-{len(jobs)}", phase, due,
                       names[len(jobs) % len(names)], knobs,
                       self.rng_seed("sim", len(jobs)), client)

        due = 0.0
        for phase, rate, share in PHASES:
            end = due + seconds * share
            while due < end:
                older = [j for j in jobs if not j.repeat and j.due_s <= due - REPEAT_AGE_S]
                if older and len(jobs) % REPEAT_EVERY == REPEAT_EVERY - 1:
                    base = older[int(rng.integers(len(older)))]
                    jobs.append(dataclasses.replace(
                        base, job_id=f"{phase}-{len(jobs)}", phase=phase, due_s=due,
                        repeat=True))
                else:
                    jobs.append(fresh_job(phase, due, "open"))
                due += 1.0 / rate
        for i in range(max(int(BURST_JOBS * self.scale), 4)):
            # Two client ids keep the burst inside the per-client bound.
            jobs.append(fresh_job("burst", due, f"burst-{i % 2}"))
        return jobs

    async def _drive(self, jobs: "list[Job]") -> "tuple[float, int]":
        """Run the plan; returns (burst start, rejections)."""
        queue: asyncio.Queue = asyncio.Queue()
        drained = asyncio.Event()
        rejections = 0
        traced = obs_trace.tracing_enabled()

        def record(name: str, t0: float, t1: float) -> None:
            if traced:
                instrument.record_span(name, t0, t1)

        async def send(job: Job) -> None:
            nonlocal rejections
            job.sent = perf_counter()
            reply = await self.submit.call({
                "op": "submit", "job_id": job.job_id, "client": job.client,
                "config": {"knobs": job.knobs}, "trace_digest": self.digests[job.trace],
                "seed": job.sim_seed, "warm": True,
            })
            record("client.submit", job.sent, perf_counter())
            if reply.get("ok"):
                await queue.put(job)
            else:
                rejections += 1
                job.reply = reply

        async def waiter() -> None:
            while True:
                job = await queue.get()
                if job is None:
                    return
                if job == "drained":
                    drained.set()
                    continue
                t0 = perf_counter()
                job.reply = await self.wait.wait(job.job_id, timeout_s=60.0)
                job.done = perf_counter()
                record("client.wait", t0, job.done)

        waiting = asyncio.ensure_future(waiter())
        start = perf_counter()
        for job in jobs:
            if job.phase == "burst":
                break
            job.due_s += start
            delay = job.due_s - perf_counter()
            if delay > 0:
                t0 = perf_counter()
                await asyncio.sleep(delay)
                record("loadgen.idle", t0, perf_counter())
            await send(job)
        await queue.put("drained")
        t0 = perf_counter()
        await asyncio.wait_for(drained.wait(), timeout=120.0)
        record("loadgen.idle", t0, perf_counter())
        burst_start = perf_counter()
        for job in jobs:
            if job.phase == "burst":
                job.due_s = burst_start
                await send(job)
        await queue.put(None)
        await asyncio.wait_for(waiting, timeout=120.0)
        return burst_start, rejections

    def measure(self, seconds: float) -> Measurement:
        jobs = self.jobs = self._plan(seconds)
        t0 = perf_counter()
        burst_start, rejections = self.loop.run_until_complete(self._drive(jobs))
        wall = perf_counter() - t0
        done = [j for j in jobs if (j.reply or {}).get("status") == "done"]
        burst = [j for j in jobs if j.phase == "burst"]
        open_loop = [j for j in jobs if j.phase != "burst"]
        fresh = sorted((j for j in jobs if not j.repeat), key=lambda j: j.job_id)
        m = Measurement(
            [(f"{j.phase}|{j.trace}|{'repeat' if j.repeat else 'fresh'}",
              j.due_s, j.done, 1) for j in open_loop],
            self.host, rounds=1, wall_s=wall, attempted=len(jobs),
            failed=len(jobs) - len(done),
            burst=(burst_start, max(j.done for j in burst), len(burst)),
            outputs=[[j.job_id, (j.reply or {}).get("stats")] for j in fresh],
            counts={"service.rejections": rejections},
        )
        m.detail = {"service.capacity_jobs_per_s": (m.end_to_end()[0], "jobs/s", "higher"),
                    "service.generator_lag_s": (max(j.sent - j.due_s for j in open_loop),
                                                "s", "lower")}
        for phase, *_ in PHASES:
            lat = [s for s, j in zip(m.seconds, open_loop) if j.phase == phase]
            m.detail[f"service.{phase}.p50_s"] = (statistics.median(lat), "s", "lower")
            m.detail[f"service.{phase}.p90_s"] = (quantile(lat, 90), "s", "lower")
        return m

    def check(self) -> "list[str]":
        """Every admitted job is done; eight sampled jobs equal a direct
        ``simulate_and_measure``."""
        from repro.service.protocol import config_from_wire
        from repro.sim.stats import simulate_and_measure

        failures = [f"service: job {j.job_id} ended {(j.reply or {}).get('status')}"
                    for j in self.jobs if (j.reply or {}).get("status") != "done"]
        rng = make_rng(self.rng_seed("sample"))
        for i in sorted(int(p) for p in rng.choice(len(self.jobs), size=8, replace=False)):
            job = self.jobs[i]
            _, stats = simulate_and_measure(
                config_from_wire({"knobs": job.knobs}), self.traces[job.trace],
                seed=job.sim_seed, warm=True)
            if (job.reply or {}).get("stats") != stats.to_dict():
                failures.append(f"service: job {job.job_id} differs from a direct run")
        return failures

    def close(self) -> None:
        loop, self.loop = getattr(self, "loop", None), None
        server, self.server = getattr(self, "server", None), None
        try:
            if loop is not None:
                async def disconnect():
                    await self.submit.close()
                    await self.wait.close()

                loop.run_until_complete(disconnect())
                loop.close()
        finally:
            if server is not None:
                server.terminate()  # graceful drain on SIGTERM
                try:
                    server.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    server.kill()
                    server.wait(timeout=10)
                server.stdout.close()


WORKLOADS = {w.name: w for w in (Simulate, Sweep, Explore, Service)}


def output_digest(outputs: list) -> str:
    """SHA-256 over the JSON form of a workload's first-round outputs."""
    import hashlib

    blob = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
