"""``repro profile``: the simulate-and-measure pipeline, read from its spans.

:func:`profile_run` runs :func:`repro.sim.stats.simulate_and_measure`
under a tracer and reads back the spans the pipeline already emits
(``docs/OBSERVABILITY.md``), so the profile and the trace are one
instrument.  Each phase is one span:

``warmup``
    ``engine.warm`` — functional cache warming.
``cpi_exe``
    ``sim.run`` with ``perfect=True`` — the perfect-L1 pass that measures
    pure compute capability.
``issue_loop``
    ``sim.run`` of the real run — the per-instruction issue loop plus the
    assembly of its access and instruction records.
``analysis``
    ``analysis.measure`` — the vectorized C-AMAT analyzer pass.

With a tracer already installed (``--trace PATH``) the spans land in its
file as usual; otherwise a temporary one is installed for the call.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.obs import trace as obs_trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.params import MachineConfig
    from repro.sim.stats import HierarchyStats
    from repro.workloads.trace import Trace

__all__ = [
    "ProfileReport",
    "profile_run",
    "format_profile_report",
]

_PHASES = ("warmup", "cpi_exe", "issue_loop", "analysis")


@dataclass
class ProfileReport:
    """Structured timing profile of one simulate-and-measure pipeline."""

    trace_name: str
    config_name: str
    n_instructions: int
    n_accesses: int
    #: Phase name -> best (minimum over rounds) wall seconds.
    phases: "dict[str, float]" = field(default_factory=dict)
    rounds: int = 1

    @property
    def total_s(self) -> float:
        """Sum of all phase times."""
        return sum(self.phases.values())

    @property
    def us_per_instruction(self) -> float:
        """Issue-loop cost per simulated instruction, in microseconds."""
        if not self.n_instructions:
            return 0.0
        return self.phases.get("issue_loop", 0.0) / self.n_instructions * 1e6

    @property
    def instructions_per_s(self) -> float:
        """Issue-loop throughput in simulated instructions per wall second."""
        seconds = self.phases.get("issue_loop", 0.0)
        return self.n_instructions / seconds if seconds > 0 else 0.0

    def phase_share(self, name: str) -> float:
        """Phase time as a fraction of the total pipeline time."""
        total = self.total_s
        return self.phases.get(name, 0.0) / total if total > 0 else 0.0

    def to_dict(self) -> dict:
        """JSON-serializable form (the structured report artifact)."""
        return {
            "trace_name": self.trace_name,
            "config_name": self.config_name,
            "n_instructions": self.n_instructions,
            "n_accesses": self.n_accesses,
            "rounds": self.rounds,
            "phases_s": dict(self.phases),
            "total_s": self.total_s,
            "us_per_instruction": self.us_per_instruction,
            "instructions_per_s": self.instructions_per_s,
        }


@contextmanager
def _installed_tracer() -> Iterator[obs_trace.Tracer]:
    """The installed tracer, or a temporary one for the block."""
    tracer = obs_trace.get_tracer()
    if tracer is not None:
        yield tracer
        return
    with tempfile.TemporaryDirectory(prefix="repro-profile-") as tmp:
        tracer = obs_trace.configure_tracing(os.path.join(tmp, "profile.jsonl"))
        assert tracer is not None
        try:
            yield tracer
        finally:
            obs_trace.configure_tracing(None)


def _phase(record: dict) -> "str | None":
    """The profile phase a span record times, if any."""
    name = record["name"]
    if name == "sim.run":
        return "cpi_exe" if (record.get("attrs") or {}).get("perfect") else "issue_loop"
    return {"engine.warm": "warmup", "analysis.measure": "analysis"}.get(name)


def _spans_since(path: str, offset: int) -> "list[dict]":
    """Span records written to *path* after byte *offset*."""
    with open(path, encoding="utf-8") as fh:
        fh.seek(offset)
        records = [json.loads(line) for line in fh if line.strip()]
    return [r for r in records if r["kind"] == "span"]


def profile_run(
    config: "MachineConfig",
    trace: "Trace",
    *,
    seed: int = 0,
    warm: bool = True,
    rounds: int = 1,
) -> "tuple[HierarchyStats, ProfileReport]":
    """Run ``simulate_and_measure`` *rounds* times; time it from its spans.

    The stats are those of :func:`~repro.sim.stats.simulate_and_measure`
    itself.  With ``rounds > 1`` every phase keeps its *minimum* span
    duration — the standard way to strip scheduler noise from a
    single-threaded measurement.
    """
    from repro.sim.stats import simulate_and_measure

    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    with _installed_tracer() as tracer:
        offset = os.path.getsize(tracer.path) if os.path.exists(tracer.path) else 0
        with obs_trace.span(
            "profile.run", trace=trace.name, config=config.name, rounds=rounds
        ):
            for _ in range(rounds):
                result, stats = simulate_and_measure(config, trace, seed=seed, warm=warm)
        records = _spans_since(tracer.path, offset)
    durations: "dict[str, list[float]]" = {phase: [] for phase in _PHASES}
    for record in records:
        phase = _phase(record)
        if phase is not None:
            durations[phase].append(float(record["duration_s"]))
    report = ProfileReport(
        trace_name=trace.name,
        config_name=config.name,
        n_instructions=result.instructions.n_instructions,
        n_accesses=result.accesses.n_accesses,
        phases={phase: min(d, default=0.0) for phase, d in durations.items()},
        rounds=rounds,
    )
    return stats, report


def format_profile_report(report: ProfileReport) -> str:
    """Text rendering of a profile — the PERFORMANCE.md measured table."""
    lines = [
        f"profile: {report.trace_name} on {report.config_name} "
        f"({report.n_instructions} instructions, {report.n_accesses} accesses, "
        f"best of {report.rounds} round{'s' if report.rounds != 1 else ''})",
        f"{'phase':<12s} {'seconds':>10s} {'share':>7s}",
    ]
    for phase in _PHASES:
        seconds = report.phases.get(phase, 0.0)
        lines.append(
            f"{phase:<12s} {seconds:>10.4f} {report.phase_share(phase):>6.1%}"
        )
    lines.append(f"{'total':<12s} {report.total_s:>10.4f} {1:>6.0%}")
    lines.append(
        f"engine: {report.us_per_instruction:.2f} us/instruction "
        f"({report.instructions_per_s:,.0f} instructions/s)"
    )
    return "\n".join(lines)
