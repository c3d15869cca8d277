"""LPM-guided design-space exploration (Case Study I).

Two :class:`~repro.core.algorithm.MatchingBackend` implementations drive the
Fig. 3 algorithm over architecture configurations:

* :class:`LadderBackend` walks a preset configuration sequence (the Table I
  A->E walk): every "optimize" takes the next rung, every "deprovision"
  steps back towards cheaper rungs.  This reproduces the paper's narrated
  exploration exactly.
* :class:`GreedyReconfigBackend` searches the full six-knob design space:
  each "optimize" simulates the single-knob upgrades allowed for the
  requested layer(s) and keeps the one that reduces LPMR1 the most; each
  "deprovision" tries the cheapest-savings downgrade that keeps the
  configuration matched.  This realizes the paper's claim that LPM turns an
  intractable 10^6-point exploration into a short guided walk.

Both backends measure with the same trace and re-use
:func:`repro.sim.stats.simulate_and_measure_batch`, so each step is a full
simulation + C-AMAT analysis of the running application — the "online
measurement" of the paper scaled to trace-driven simulation.  The
candidates of one step are measured together: they share the perfect-L1
pass per distinct core projection, and a step wide enough to beat the
scalar fast path runs in one batch kernel call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.lpm import LPMRReport
from repro.reconfig.space import L1_KNOBS, L2_KNOBS, DesignPoint, DesignSpace
from repro.sim.params import MachineConfig
from repro.sim.stats import HierarchyStats
from repro.workloads.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.evaluate import EvaluationRuntime

__all__ = ["LadderBackend", "GreedyReconfigBackend", "ExplorationLog"]


@dataclass
class ExplorationLog:
    """Evaluation bookkeeping: how many simulations the search spent.

    ``evaluations`` counts only *fresh* simulations — the paper's "search
    cost" currency.  Design points recalled from the checkpoint journal or
    the persistent evaluation cache are tallied under ``cached``, and
    candidates ranked by the tier-0 surrogate without ever reaching the
    engine under ``predicted`` — three disjoint sources, so a summary
    never passes off a prediction (or a recalled result) as fresh engine
    work.
    """

    evaluations: int = 0
    cached: int = 0
    predicted: int = 0
    visited: list[str] = field(default_factory=list)

    def record(self, label: str) -> None:
        """Count one full simulate-and-measure evaluation."""
        self.evaluations += 1
        self.visited.append(label)

    def record_cached(self, label: str) -> None:
        """Count one evaluation recalled from a journal or cache."""
        self.cached += 1

    def record_predicted(self, label: str) -> None:
        """Count one candidate settled by a tier-0 prediction alone."""
        self.predicted += 1


class _SimulatingBackend:
    """Shared measurement plumbing for the two concrete backends.

    Measurements are cached on :meth:`MachineConfig.cache_key` — the full
    knob tuple, never the display ``name`` — so two differently-tuned
    configurations that happen to share a label cannot alias each other's
    results.  An optional :class:`~repro.runtime.evaluate.EvaluationRuntime`
    routes fresh measurements through the supervised pool (parallel workers,
    timeouts, retries) and its checkpoint journal; the exploration log then
    counts only evaluations that actually ran a simulation, so a resumed
    exploration reports zero duplicate work.
    """

    def __init__(
        self,
        trace: Trace,
        *,
        seed: int = 0,
        warm: bool = True,
        runtime: "EvaluationRuntime | None" = None,
        fidelity: str = "engine",
        top_k: int = 8,
        margin: float = 0.05,
    ) -> None:
        if fidelity not in ("engine", "multi"):
            raise ValueError(
                f"fidelity must be 'engine' or 'multi', got {fidelity!r}"
            )
        self.trace = trace
        self.seed = seed
        self.warm = warm
        self.runtime = runtime
        self.fidelity = fidelity
        self.top_k = top_k
        self.margin = margin
        self.log = ExplorationLog()
        self._cache: dict[str, HierarchyStats] = {}
        self._profiles: dict[int, object] = {}

    def _locality_profile(self, line_bytes: int):
        """The trace's locality profile, computed once per line size."""
        profile = self._profiles.get(line_bytes)
        if profile is None:
            from repro.workloads.locality import profile_trace

            profile = profile_trace(self.trace, line_bytes=line_bytes,
                                    warm=self.warm)
            self._profiles[line_bytes] = profile
        return profile

    def _prune_candidates(
        self, configs: "list[MachineConfig]", objective: str = "lpmr1"
    ) -> "list[MachineConfig]":
        """Tier-0 ranking of a candidate batch; keeps the escalation frontier.

        Engine fidelity (or a batch already within ``top_k``) keeps every
        candidate.  In ``"multi"`` mode the candidates the surrogate rules
        out are tallied as ``predicted`` in the log — they cost arithmetic,
        not simulations.  Already-measured candidates always survive (they
        are free — served from the in-memory cache).
        """
        if self.fidelity != "multi" or len(configs) <= self.top_k:
            return configs
        from repro.analysis.surrogate import predict_many, select_frontier
        from repro.obs import metrics as obs_metrics

        profile = self._locality_profile(configs[0].l1.line_bytes)
        predictions = predict_many(profile, configs)
        keep = set(select_frontier(predictions, top_k=self.top_k,
                                   margin=self.margin, objective=objective))
        keep.update(
            i for i, config in enumerate(configs)
            if config.cache_key() in self._cache
        )
        if obs_metrics.metrics_enabled():
            registry = obs_metrics.get_registry()
            registry.counter("surrogate.predict").inc(len(configs))
            registry.counter("surrogate.escalated").inc(len(keep))
            registry.counter("surrogate.pruned").inc(len(configs) - len(keep))
        for i, config in enumerate(configs):
            if i not in keep:
                self.log.record_predicted(config.name)
        return [config for i, config in enumerate(configs) if i in keep]

    def _measure_config(self, config: MachineConfig) -> HierarchyStats:
        return self._measure_many([config])[0]

    def _measure_many(self, configs: "list[MachineConfig]") -> "list[HierarchyStats]":
        """Measure a batch of configurations, deduplicated by knob identity."""
        fresh: dict[str, MachineConfig] = {}
        for config in configs:
            key = config.cache_key()
            if key not in self._cache and key not in fresh:
                fresh[key] = config
        if fresh and self.runtime is not None:
            from repro.runtime.evaluate import EvaluationRequest

            outcomes = self.runtime.evaluate([
                EvaluationRequest(config=config, trace=self.trace,
                                  seed=self.seed, warm=self.warm)
                for config in fresh.values()
            ])
            for (key, config), outcome in zip(fresh.items(), outcomes):
                self._cache[key] = outcome.result()
                if outcome.source == "simulated":
                    self.log.record(config.name)
                else:
                    self.log.record_cached(config.name)
        elif fresh:
            from repro.sim.stats import simulate_and_measure_batch

            fresh_configs = list(fresh.values())
            pairs = simulate_and_measure_batch(
                fresh_configs, self.trace, seed=self.seed, warm=self.warm
            )
            for key, config, (_, stats) in zip(fresh, fresh_configs, pairs):
                self._cache[key] = stats
                self.log.record(config.name)
        return [self._cache[config.cache_key()] for config in configs]


class LadderBackend(_SimulatingBackend):
    """Walk a preset ladder of configurations (Table I's A..E).

    ``position`` starts at 0 (the weakest rung).  ``optimize`` advances one
    rung regardless of which layers were requested (each rung of the paper's
    ladder upgrades a bundle of knobs); ``deprovision`` moves to the next
    rung in ``deprovision_order`` if any remain.
    """

    def __init__(
        self,
        configs: "list[MachineConfig]",
        trace: Trace,
        *,
        deprovision_configs: "list[MachineConfig] | None" = None,
        seed: int = 0,
        warm: bool = True,
        runtime: "EvaluationRuntime | None" = None,
        fidelity: str = "engine",
        top_k: int = 8,
        margin: float = 0.05,
    ) -> None:
        super().__init__(trace, seed=seed, warm=warm, runtime=runtime,
                         fidelity=fidelity, top_k=top_k, margin=margin)
        if not configs:
            raise ValueError("need at least one configuration")
        self.configs = list(configs)
        self.deprovision_configs = list(deprovision_configs or [])
        self.position = 0
        self._deprovision_pos = 0
        self._current = self.configs[0]

    @property
    def current(self) -> MachineConfig:
        """The configuration the next measurement runs on."""
        return self._current

    def measure(self) -> LPMRReport:
        return self._measure_config(self._current).lpmr_report()

    def stats(self) -> HierarchyStats:
        """Full analyzer output for the current configuration."""
        return self._measure_config(self._current)

    def optimize(self, l1: bool, l2: bool) -> bool:
        if self.position + 1 >= len(self.configs):
            return False
        self.position += 1
        self._current = self.configs[self.position]
        return True

    def deprovision(self) -> bool:
        if self._deprovision_pos >= len(self.deprovision_configs):
            return False
        self._current = self.deprovision_configs[self._deprovision_pos]
        self._deprovision_pos += 1
        return True

    def describe(self) -> str:
        return self._current.name


class GreedyReconfigBackend(_SimulatingBackend):
    """Greedy single-knob search over the full design space.

    ``optimize(l1, l2)`` evaluates each allowed single-knob upgrade and
    commits to the one with the lowest resulting LPMR1 (requiring strict
    improvement).  ``deprovision()`` tries downgrades in decreasing
    cost-savings order and commits to the first whose LPMR1 stays under the
    matched threshold recorded at the last ``measure()``.
    """

    def __init__(
        self,
        space: DesignSpace,
        trace: Trace,
        *,
        start: DesignPoint | None = None,
        seed: int = 0,
        warm: bool = True,
        delta_percent: float = 10.0,
        runtime: "EvaluationRuntime | None" = None,
        fidelity: str = "engine",
        top_k: int = 8,
        margin: float = 0.05,
    ) -> None:
        super().__init__(trace, seed=seed, warm=warm, runtime=runtime,
                         fidelity=fidelity, top_k=top_k, margin=margin)
        self.space = space
        self.point = start if start is not None else space.minimum_point()
        space.validate(self.point)
        self.delta_percent = delta_percent
        self._last_threshold_t1: float | None = None

    def _stats_for(self, point: DesignPoint) -> HierarchyStats:
        return self._measure_config(self.space.to_machine(point))

    def measure(self) -> LPMRReport:
        stats = self._stats_for(self.point)
        report = stats.lpmr_report()
        self._last_threshold_t1 = report.thresholds(self.delta_percent).t1
        return report

    def stats(self) -> HierarchyStats:
        """Full analyzer output for the current design point."""
        return self._stats_for(self.point)

    def _allowed_knobs(self, l1: bool, l2: bool) -> tuple[str, ...]:
        knobs: tuple[str, ...] = ()
        if l1:
            knobs += L1_KNOBS
        if l2:
            knobs += L2_KNOBS
        return knobs

    def optimize(self, l1: bool, l2: bool) -> bool:
        candidates = self.space.upgrade_candidates(self.point, self._allowed_knobs(l1, l2))
        if not candidates:
            return False
        configs = [self.space.to_machine(candidate) for _, candidate in candidates]
        kept_keys = {
            config.cache_key() for config in self._prune_candidates(configs)
        }
        survivors = [
            (candidate, config)
            for (_, candidate), config in zip(candidates, configs)
            if config.cache_key() in kept_keys
        ]
        # One batch covering the incumbent and every surviving candidate:
        # with a pooled runtime attached the simulations run in parallel.
        measured = self._measure_many(
            [self.space.to_machine(self.point)]
            + [config for _, config in survivors]
        )
        current_lpmr1 = measured[0].lpmr1
        best: tuple[float, DesignPoint] | None = None
        for (candidate, _), stats in zip(survivors, measured[1:]):
            if best is None or stats.lpmr1 < best[0]:
                best = (stats.lpmr1, candidate)
        if best is None or best[0] >= current_lpmr1:
            return False
        self.point = best[1]
        return True

    def deprovision(self) -> bool:
        threshold = self._last_threshold_t1
        if threshold is None:
            return False
        for _, candidate in self.space.downgrade_candidates(self.point):
            stats = self._stats_for(candidate)
            if stats.lpmr1 <= threshold:
                self.point = candidate
                return True
        return False

    def describe(self) -> str:
        return self.point.label()
