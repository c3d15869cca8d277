"""Deadline discipline for the asyncio service.

CON003: inside :mod:`repro.service` every await on a raw socket/stream/
queue transport primitive must carry a deadline — wrapped in
``asyncio.wait_for`` (or an ``asyncio.timeout`` block) or passing a
``timeout=``/``deadline=`` argument — because one half-dead peer
otherwise parks the coroutine, and with it a connection handler or the
dispatch loop, forever.  Higher-level blocking shapes (``join``,
``wait``, sync disk IO on the loop) belong to the whole-program ASYNC
tier (``repro lint --program``), which sees the call graph this per-file
rule cannot.

Fork safety of the evaluation pool is whole-program work too: RACE001
and RACE002 (:mod:`repro.lint.program.rules`) check the module-level
state that pool jobs really reach.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.engine import ModuleContext, Rule, Severity, Violation, register

__all__ = ["UnboundedServiceAwait"]

#: Await targets that block on a peer, a pipe, or a queue — the *raw
#: transport primitives* that hang forever when the other side dies.
#: ``asyncio.wait_for`` itself is deliberately absent: it is the fix, not
#: the hazard.  Generic method names (``join``, ``wait``) are also absent
#: — their blocking forms are the whole-program ASYNC001 tier's scope
#: (rescoped in PR 7 so no line is ever reported by both tiers).
_BLOCKING_AWAITS = frozenset({
    "accept", "connect", "drain", "get", "open_connection",
    "put", "read", "readexactly", "readline", "readuntil", "recv",
    "recv_into", "send", "sendall", "wait_closed",
})


def _has_deadline_kwarg(call: ast.Call) -> bool:
    return any(
        kw.arg is not None and ("timeout" in kw.arg or "deadline" in kw.arg)
        for kw in call.keywords
    )


@register
class UnboundedServiceAwait(Rule):
    """CON003: unbounded await on a socket/stream/queue primitive."""

    name = "CON003"
    severity = Severity.ERROR
    description = (
        "await on a raw socket/stream/queue transport primitive in "
        "repro.service without a deadline; wrap it in asyncio.wait_for "
        "(or an asyncio.timeout block) or pass a timeout=/deadline= "
        "argument so one half-dead peer cannot park the coroutine forever"
    )
    packages = ("service",)

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Await):
                continue
            call = node.value
            if not isinstance(call, ast.Call):
                continue
            name = (
                call.func.attr if isinstance(call.func, ast.Attribute)
                else call.func.id if isinstance(call.func, ast.Name)
                else None
            )
            if name not in _BLOCKING_AWAITS:
                continue
            if _has_deadline_kwarg(call):
                continue
            if self._inside_timeout_block(ctx, node):
                continue
            yield self.violation(
                ctx, node,
                f"await {name}(...) has no deadline; wrap it in "
                "asyncio.wait_for(...) or pass a timeout=/deadline= "
                "argument",
            )

    @staticmethod
    def _inside_timeout_block(ctx: ModuleContext, node: ast.AST) -> bool:
        """Whether an ``async with asyncio.timeout(...)`` bounds *node*."""
        for anc in ctx.ancestors(node):
            if isinstance(anc, (ast.With, ast.AsyncWith)):
                for item in anc.items:
                    expr = item.context_expr
                    if not isinstance(expr, ast.Call):
                        continue
                    chain = ctx.resolve_call_chain(expr.func)
                    if chain and chain[0] == "asyncio" and chain[-1] in (
                        "timeout", "timeout_at",
                    ):
                        return True
            elif isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                break  # a timeout block outside the coroutine bounds nothing
        return False
