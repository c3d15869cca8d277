"""``repro.lint.program`` — whole-program static analysis.

The per-file rule packs in :mod:`repro.lint` see one module at a time, so
they cannot know which module-level state the evaluation pool's workers
actually reach, or whether a measurement producer is pure through every
callee.  This package sees the program:

* a **cross-module symbol table and import graph**
  (:mod:`~repro.lint.program.symbols`) built from one shared
  :class:`~repro.lint.engine.ASTCache` parse per file;
* a **coroutine-aware call graph** (:mod:`~repro.lint.program.callgraph`)
  rooted at the CLI commands, the evaluation-pool job paths and the
  simulation engine entry points, with kinded edges (call / await /
  spawn / executor) and a loop/thread/worker execution-context
  classification;
* a transitive **side-effect (purity + may-block) inference**
  (:mod:`~repro.lint.program.dataflow`);
* a **lock discovery and acquisition-order graph**
  (:mod:`~repro.lint.program.locks`) with cycle detection;
* the **RACE / PURE / ASYNC rule packs**
  (:mod:`~repro.lint.program.rules`) plus SUP001, the eager rejection of
  unjustified suppressions, and the baseline workflow
  (:mod:`~repro.lint.program.baseline`) for graded adoption (the ASYNC
  rules are never baselined).

Numeric safety is left to the per-file NUM rules.

Run it with ``python -m repro lint --program``; see
``docs/STATIC_ANALYSIS.md`` for the architecture and rule reference.
"""

from repro.lint.program.baseline import (
    Baseline,
    fingerprint_violation,
    load_baseline,
    write_baseline,
)
from repro.lint.program.callgraph import (
    CallGraph,
    EntryPoints,
    ExecutionContexts,
    classify_contexts,
    find_entry_points,
)
from repro.lint.program.dataflow import EffectAnalysis, FunctionEffects
from repro.lint.program.driver import ProgramLintResult, run_program_lint
from repro.lint.program.locks import LockAnalysis
from repro.lint.program.rules import PROGRAM_RULES, ProgramRule
from repro.lint.program.symbols import (
    FunctionInfo,
    GlobalVar,
    ModuleInfo,
    ProgramModel,
    build_program,
)

__all__ = [
    "ProgramModel",
    "ModuleInfo",
    "FunctionInfo",
    "GlobalVar",
    "build_program",
    "CallGraph",
    "EntryPoints",
    "ExecutionContexts",
    "classify_contexts",
    "find_entry_points",
    "LockAnalysis",
    "EffectAnalysis",
    "FunctionEffects",
    "PROGRAM_RULES",
    "ProgramRule",
    "Baseline",
    "fingerprint_violation",
    "load_baseline",
    "write_baseline",
    "ProgramLintResult",
    "run_program_lint",
]
