"""Tier-0 analytical surrogate: predict LPM quantities without simulating.

* :mod:`~repro.analysis.surrogate.predictor` — locality profile +
  :class:`~repro.sim.params.MachineConfig` -> predicted MR/C-AMAT/LPMR/CPI
  in microseconds, plus frontier selection for multi-fidelity escalation.
* :mod:`~repro.analysis.surrogate.validate` — error quantification vs the
  cycle-accurate engine (``repro surrogate validate``).

The profiling pass itself lives in :mod:`repro.workloads.locality`.
Everything in this package is pure (registered as a measurement-producer
package with the program linter).
"""

from repro.analysis.surrogate.predictor import (
    SurrogatePrediction,
    predict,
    predict_many,
    select_frontier,
)
from repro.analysis.surrogate.validate import (
    ValidationReport,
    ValidationRow,
    format_validation_report,
    validate_benchmarks,
    validate_trace,
)

__all__ = [
    "SurrogatePrediction",
    "predict",
    "predict_many",
    "select_frontier",
    "ValidationReport",
    "ValidationRow",
    "format_validation_report",
    "validate_benchmarks",
    "validate_trace",
]
