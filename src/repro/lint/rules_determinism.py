"""Determinism rules: measurement paths must be reproducible from one seed.

Every stochastic draw in the simulator and the model core must route
through :mod:`repro.util.rng` (``make_rng`` / ``spawn`` / ``derive_seed``)
so that an experiment is bit-identical under its seed.  Wall-clock reads,
the process-global ``random`` / legacy ``numpy.random`` state and a
``Generator`` built by hand break that guarantee silently; iterating a
``set`` does too, because string
hashing is salted per process (``PYTHONHASHSEED``), which reorders floats
accumulated in iteration order.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.engine import ModuleContext, Rule, Severity, Violation, register

__all__ = ["BannedNondeterministicCall", "SetIterationOrder"]

#: module -> banned terminal attribute names (``None`` bans every call).
_BANNED_CALLS: dict[str, "frozenset[str] | None"] = {
    "random": None,  # the process-global stdlib RNG, in its entirety
    "time": frozenset({"time", "time_ns"}),
    "uuid": frozenset({"uuid1", "uuid4"}),
    "os": frozenset({"urandom", "getrandom"}),
    "secrets": None,
}

#: ``datetime.datetime.<x>`` / ``datetime.date.<x>`` wall-clock reads.
_BANNED_DATETIME = frozenset({"now", "utcnow", "today"})

#: ``numpy.random.<x>`` that is allowed: seeding plumbing, not generators.
_ALLOWED_NUMPY_RANDOM = frozenset({"SeedSequence", "PCG64"})

#: Seeded-API constructors that only ``repro.util.rng`` may call, so every
#: generator's seed is traceable to ``make_rng`` / ``spawn``.
_GENERATOR_CONSTRUCTORS = frozenset({"default_rng", "Generator"})


@register
class BannedNondeterministicCall(Rule):
    """DET001: unseeded randomness or wall-clock reads in measurement code."""

    name = "DET001"
    severity = Severity.ERROR
    description = (
        "unseeded/global randomness or wall-clock call in a measurement path; "
        "route randomness through repro.util.rng"
    )
    packages = ("sim", "core", "workloads")

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        imported_roots = {
            module.split(".")[0]
            for module in (*ctx.import_aliases.values(), *ctx.from_imports.values())
        }
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = ctx.resolve_call_chain(node.func)
            if not chain or len(chain) < 2 or chain[0] not in imported_roots:
                continue
            message = self._classify(chain)
            if message is not None:
                yield self.violation(ctx, node, message)

    @staticmethod
    def _classify(chain: list[str]) -> "str | None":
        root, terminal = chain[0], chain[-1]
        dotted = ".".join(chain)
        if root in _BANNED_CALLS:
            banned = _BANNED_CALLS[root]
            if banned is None or terminal in banned:
                return (
                    f"call to {dotted}() is not reproducible from a seed; "
                    "use repro.util.rng (make_rng/spawn/derive_seed)"
                )
        if root == "datetime" and terminal in _BANNED_DATETIME:
            return f"wall-clock read {dotted}() in a measurement path"
        if root == "numpy" and len(chain) >= 3 and chain[1] == "random":
            if terminal in _GENERATOR_CONSTRUCTORS:
                return (
                    f"{dotted}() builds a generator outside repro.util.rng; "
                    "use repro.util.rng.make_rng(seed) so the seed is tracked"
                )
            if terminal not in _ALLOWED_NUMPY_RANDOM:
                return (
                    f"legacy global-state API {dotted}(); use the seeded "
                    "Generator API via repro.util.rng.make_rng"
                )
        return None


def _is_set_expression(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"set", "frozenset"}
    return False


@register
class SetIterationOrder(Rule):
    """DET002: hash-order iteration over a set in a measurement path."""

    name = "DET002"
    severity = Severity.ERROR
    description = (
        "iteration over a set depends on hash order (salted per process); "
        "wrap in sorted(...) to fix the order"
    )
    packages = ("sim", "core", "workloads")

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            iters: list[ast.AST] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if _is_set_expression(it):
                    yield self.violation(
                        ctx, it,
                        "iterating a set in hash order; use sorted(...) for a "
                        "deterministic order",
                    )
