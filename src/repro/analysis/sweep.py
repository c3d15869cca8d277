"""Parameter-sweep helpers shared by the benchmark harness and examples.

Sweeps run at one of three fidelities:

* ``"engine"`` — every configuration is simulated (scalar or batch
  kernel, optionally through the supervised runtime).  The default, and
  the only mode that existed before the tier-0 surrogate.
* ``"surrogate"`` — every configuration is *predicted* by
  :mod:`repro.analysis.surrogate`; no simulation at all.  Rows are
  :class:`~repro.analysis.surrogate.SurrogatePrediction` objects, which
  duck-type the ranking-facing quantities of
  :class:`~repro.sim.stats.HierarchyStats` (``cpi``/``ipc``/``lpmr1``/
  ``apc1``/``mr1_conventional``/...), not its per-layer internals.
* ``"multi"`` — the full space is ranked by the surrogate and only the
  top-K / error-margin frontier (:func:`~repro.analysis.surrogate.
  select_frontier`) is escalated to the engine; pruned rows keep their
  predictions.  ``SweepResult.sources`` records per-row provenance and
  the ``surrogate.predict`` / ``surrogate.escalated`` /
  ``surrogate.pruned`` counters and spans make every pruning decision
  reconstructable from the obs trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.sim.params import MachineConfig
from repro.sim.stats import (
    HierarchyStats,
    simulate_and_measure,
    simulate_and_measure_batch,
)
from repro.workloads.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.surrogate import SurrogatePrediction
    from repro.runtime.evaluate import EvaluationRuntime
    from repro.workloads.locality import LocalityProfile

__all__ = ["SweepResult", "sweep_configs", "sweep_l1_sizes"]

FIDELITIES = ("engine", "surrogate", "multi")


@dataclass
class SweepResult:
    """Labelled measurement series from a one-dimensional sweep.

    ``stats`` rows are :class:`HierarchyStats` for engine-measured points
    and :class:`~repro.analysis.surrogate.SurrogatePrediction` for tier-0
    points; ``sources`` tags each row ``"simulated"``, ``"cached"`` or
    ``"predicted"`` so summaries never conflate a prediction with a real
    engine run.
    """

    labels: list[str] = field(default_factory=list)
    stats: "list[HierarchyStats | SurrogatePrediction]" = field(default_factory=list)
    sources: list[str] = field(default_factory=list)

    def add(
        self,
        label: str,
        stats: "HierarchyStats | SurrogatePrediction",
        source: str = "simulated",
    ) -> None:
        """Append one sweep point with its provenance."""
        self.labels.append(label)
        self.stats.append(stats)
        self.sources.append(source)

    def series(self, attribute: str) -> list[float]:
        """Extract one quantity across the sweep (e.g. ``"lpmr1"``)."""
        return [float(getattr(s, attribute)) for s in self.stats]

    def layer_series(self, layer: str, attribute: str) -> list[float]:
        """Extract a per-layer quantity (e.g. ``("l1", "pure_miss_rate")``).

        Only engine rows carry per-layer measurements; a surrogate row
        raises ``AttributeError`` here.
        """
        return [float(getattr(getattr(s, layer), attribute)) for s in self.stats]

    @property
    def n_simulated(self) -> int:
        """Rows produced by a fresh engine run."""
        return sum(1 for s in self.sources if s == "simulated")

    @property
    def n_cached(self) -> int:
        """Rows recalled from a journal or the evaluation cache."""
        return sum(1 for s in self.sources if s == "cached")

    @property
    def n_predicted(self) -> int:
        """Rows carrying a tier-0 prediction instead of a measurement."""
        return sum(1 for s in self.sources if s == "predicted")

    def __len__(self) -> int:
        return len(self.labels)


def _measure_engine(
    configs: "list[MachineConfig]",
    trace: Trace,
    *,
    seed: int,
    warm: bool,
    runtime: "EvaluationRuntime | None",
    engine: str,
) -> "list[tuple[HierarchyStats, str]]":
    """Engine-fidelity measurement of *configs*, with per-row provenance."""
    if runtime is not None:
        from repro.runtime.evaluate import EvaluationRequest

        outcomes = runtime.evaluate(
            [EvaluationRequest(config=config, trace=trace, seed=seed, warm=warm)
             for config in configs],
            isolate=engine == "scalar",
        )
        return [
            (outcome.result(),
             "simulated" if outcome.source == "simulated" else "cached")
            for outcome in outcomes
        ]
    if engine == "scalar":
        out = []
        for config in configs:
            _, stats = simulate_and_measure(config, trace, seed=seed, warm=warm)
            out.append((stats, "simulated"))
        return out
    pairs = simulate_and_measure_batch(configs, trace, seed=seed, warm=warm)
    return [(stats, "simulated") for _, stats in pairs]


def sweep_configs(
    configs: "list[MachineConfig]",
    trace: Trace,
    *,
    seed: int = 0,
    warm: bool = True,
    runtime: "EvaluationRuntime | None" = None,
    engine: str = "auto",
    fidelity: str = "engine",
    top_k: int = 8,
    margin: float = 0.05,
    profile: "LocalityProfile | None" = None,
) -> SweepResult:
    """Measure one trace across several machine configurations.

    With a *runtime*, engine-fidelity points are evaluated through the
    supervised pool (:meth:`EvaluationRuntime.evaluate`): under
    ``engine="auto"`` its pending configs dispatch as **one** batch job
    per trace, under ``"scalar"`` as one isolated job per config.  Without
    a runtime, ``"auto"`` measures through
    :func:`~repro.sim.stats.simulate_and_measure_batch`, whose dispatch
    plan runs wide groups of batch-eligible configs in one kernel call
    and the rest on the scalar path, and ``"scalar"`` forces one full
    scalar evaluation per config.  Both engines are bit-identical.

    *fidelity* selects what "measure" means (see the module docstring);
    *top_k*/*margin* shape the ``"multi"`` escalation frontier and
    *profile* supplies a precomputed locality profile (e.g. one shared
    across sweeps of the same trace) so the one-pass profiling cost is
    not repaid per sweep.
    """
    if engine not in ("auto", "scalar"):
        raise ValueError(f"engine must be 'auto' or 'scalar', got {engine!r}")
    if fidelity not in FIDELITIES:
        raise ValueError(
            f"fidelity must be one of {FIDELITIES}, got {fidelity!r}"
        )
    result = SweepResult()
    if fidelity == "engine":
        for config, (stats, source) in zip(
            configs,
            _measure_engine(configs, trace, seed=seed, warm=warm,
                            runtime=runtime, engine=engine),
        ):
            result.add(config.name, stats, source)
        return result

    from repro.analysis.surrogate import predict_many, select_frontier
    from repro.workloads.locality import profile_trace

    if not configs:
        return result
    if profile is None:
        profile = profile_trace(
            trace, line_bytes=configs[0].l1.line_bytes, warm=warm
        )
    if obs_trace.tracing_enabled():
        with obs_trace.span("surrogate.predict", n_configs=len(configs),
                            trace=trace.name, fidelity=fidelity):
            predictions = predict_many(profile, configs)
    else:
        predictions = predict_many(profile, configs)
    if obs_metrics.metrics_enabled():
        obs_metrics.get_registry().counter("surrogate.predict").inc(len(configs))

    if fidelity == "surrogate":
        for config, prediction in zip(configs, predictions):
            result.add(config.name, prediction, "predicted")
        return result

    frontier = set(select_frontier(predictions, top_k=top_k, margin=margin))
    escalated = [i for i in range(len(configs)) if i in frontier]
    if obs_metrics.metrics_enabled():
        registry = obs_metrics.get_registry()
        registry.counter("surrogate.escalated").inc(len(escalated))
        registry.counter("surrogate.pruned").inc(len(configs) - len(escalated))
    if obs_trace.tracing_enabled():
        obs_trace.event(
            "surrogate.escalate", trace=trace.name,
            escalated=len(escalated), pruned=len(configs) - len(escalated),
            top_k=top_k, margin=margin,
        )
    measured = _measure_engine(
        [configs[i] for i in escalated], trace,
        seed=seed, warm=warm, runtime=runtime, engine=engine,
    )
    by_index = dict(zip(escalated, measured))
    for i, (config, prediction) in enumerate(zip(configs, predictions)):
        if i in by_index:
            stats, source = by_index[i]
            result.add(config.name, stats, source)
        else:
            result.add(config.name, prediction, "predicted")
    return result


def sweep_l1_sizes(
    base: MachineConfig,
    trace: Trace,
    l1_sizes: "list[int]",
    *,
    seed: int = 0,
    warm: bool = True,
    runtime: "EvaluationRuntime | None" = None,
    engine: str = "auto",
    fidelity: str = "engine",
    top_k: int = 8,
    margin: float = 0.05,
) -> SweepResult:
    """Measure one trace across private L1 sizes (the Fig. 6/7 sweep)."""
    configs = [
        base.with_knobs(l1_size_bytes=size, name=f"L1-{size // 1024}KB")
        for size in l1_sizes
    ]
    return sweep_configs(configs, trace, seed=seed, warm=warm,
                         runtime=runtime, engine=engine, fidelity=fidelity,
                         top_k=top_k, margin=margin)
