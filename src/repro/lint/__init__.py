"""``repro.lint`` — AST static analysis + model-invariant contracts.

Two complementary halves:

* the **lint engine** (:mod:`repro.lint.engine`) with repo-specific rule
  packs — determinism (DET*), numerical safety (NUM*), error-taxonomy
  discipline (ERR*), concurrency/fork safety (CON*), observability
  discipline (OBS*), hot-path performance (PERF*), and contract
  declaration (CTR*).  Run it with ``python -m repro lint``;
* the **contract checker** (:mod:`repro.lint.contracts`): the paper's
  C-AMAT/LPMR identities (Eqs. 2-4, 9-11) as a typed table, declared at
  report-producing sites via :func:`~repro.lint.contracts.satisfies` and
  enforceable at runtime under
  :func:`~repro.lint.contracts.runtime_checks`;
* the **whole-program analyzer** (:mod:`repro.lint.program`): call graph,
  effect inference and lock graph behind the RACE/PURE/ASYNC rule packs.
  Run it with ``python -m repro lint --program``.

Suppress a single finding with an inline justification comment::

    value = a / accesses  # repro: noqa[NUM001] -- accesses checked by caller
"""

from repro.lint import (  # noqa: F401  (imported for rule registration)
    rules_concurrency,
    rules_contracts,
    rules_determinism,
    rules_numeric,
    rules_obs,
    rules_perf,
    rules_taxonomy,
)
from repro.lint.contracts import (
    CONTRACTS,
    Contract,
    ContractViolation,
    check_layer,
    check_report,
    check_stats,
    runtime_checks,
    satisfies,
    verify,
)
from repro.lint.engine import (
    RULES,
    ASTCache,
    LintResult,
    Rule,
    Severity,
    Violation,
    lint_source,
    run_lint,
)
from repro.lint.reporters import format_json, format_rule_listing, format_text

__all__ = [
    "RULES",
    "ASTCache",
    "LintResult",
    "Rule",
    "Severity",
    "Violation",
    "lint_source",
    "run_lint",
    "format_text",
    "format_json",
    "format_rule_listing",
    "CONTRACTS",
    "Contract",
    "ContractViolation",
    "satisfies",
    "verify",
    "check_layer",
    "check_stats",
    "check_report",
    "runtime_checks",
]
