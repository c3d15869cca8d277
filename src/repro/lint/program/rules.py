"""The whole-program rule packs: RACE, PURE, ASYNC, SUP.

Each rule receives a :class:`ProgramContext` — the symbol table, call
graph, entry points and effect analysis built once by the driver — and
yields ordinary :class:`~repro.lint.engine.Violation`\\ s, so the
reporters and suppression machinery are shared with the per-file engine.

The analyses are *under*-approximate on call resolution (dynamic dispatch
contributes no edge) and *over*-approximate on pool roots (anything that
escapes a pool dispatcher is worker-side reachable); each rule below
documents which direction its errors lean.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.lint.engine import Severity, Violation
from repro.lint.program.callgraph import (
    CallGraph,
    EntryPoints,
    ExecutionContexts,
    _module_has_segments,
    _resolve_callee,
    classify_contexts,
)
from repro.lint.program.dataflow import EffectAnalysis
from repro.lint.program.locks import LockAnalysis
from repro.lint.program.symbols import FunctionInfo, ModuleInfo, ProgramModel

__all__ = ["ProgramContext", "ProgramRule", "PROGRAM_RULES", "register_program"]


@dataclass
class ProgramContext:
    """Everything a whole-program rule needs, built once per run."""

    model: ProgramModel
    graph: CallGraph
    entries: EntryPoints
    effects: EffectAnalysis
    #: Functions transitively reachable from the pool job paths.
    pool_reachable: "set[str]" = field(default_factory=set)
    #: Loop/thread/worker classification (built lazily if the driver
    #: didn't; the lazy path keeps hand-built test contexts working).
    contexts: "ExecutionContexts | None" = None
    #: Lock discovery and order graph (same lazy contract).
    locks: "LockAnalysis | None" = None

    def module_for(self, func: FunctionInfo) -> ModuleInfo:
        """The module that defines *func*."""
        return self.model.modules[func.module]

    def pool_path(self, ref: str) -> "list[str]":
        """A shortest pool-root -> *ref* call chain (empty if direct root)."""
        return self.graph.path(self.entries.pool, ref) or [ref]

    def async_contexts(self) -> ExecutionContexts:
        """The execution-context classification, built on first use."""
        if self.contexts is None:
            self.contexts = classify_contexts(
                self.model, self.graph, pool_reachable=self.pool_reachable
            )
        return self.contexts

    def lock_analysis(self) -> LockAnalysis:
        """The lock discovery + order graph, built on first use."""
        if self.locks is None:
            self.locks = LockAnalysis(self.model, self.graph)
        return self.locks


def _chain_text(refs: "list[str]") -> str:
    """Human-readable call chain: bare qualnames joined with arrows."""
    return " -> ".join(ref.partition(":")[2] or ref for ref in refs)


class ProgramRule:
    """Base class for whole-program rules (mirrors the per-file Rule)."""

    name: str = ""
    severity: Severity = Severity.ERROR
    description: str = ""

    def check(self, pctx: ProgramContext) -> Iterator[Violation]:
        """Yield violations over the whole program; overridden per rule."""
        raise NotImplementedError

    def violation(
        self, info: ModuleInfo, node: ast.AST, message: str
    ) -> Violation:
        """Build a violation anchored at *node* in *info*'s file."""
        return Violation(
            path=info.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.name,
            severity=self.severity,
            message=message,
        )


#: The program-rule registry: rule name -> singleton instance.
PROGRAM_RULES: "dict[str, ProgramRule]" = {}


def register_program(cls: "type[ProgramRule]") -> "type[ProgramRule]":
    """Class decorator adding one instance of *cls* to the registry."""
    if not cls.name:
        raise ValueError(f"program rule class {cls.__name__} must set a name")
    if cls.name in PROGRAM_RULES:
        raise ValueError(f"duplicate program rule name {cls.name!r}")
    PROGRAM_RULES[cls.name] = cls()
    return cls


# ---------------------------------------------------------------------------
# RACE — escape analysis over the fork boundary
# ---------------------------------------------------------------------------

@register_program
class UnguardedWorkerWrite(ProgramRule):
    """RACE001: a pool-worker path mutates module-level state with no lock.

    Walks every function reachable from the pool roots (worker loops,
    ``Job(fn=...)`` payloads, ``worker_setup`` callables) and flags direct
    writes — rebinds, subscript/attribute stores, mutating method calls —
    to module-level globals that are not under a ``with <...lock...>:``
    guard.  Roots are over-approximated (escaped function values), so a
    finding here may be worker-side *or* supervisor-side in practice; the
    justification convention exists for exactly the sanctioned cases
    (e.g. the fork-snapshot trace store).
    """

    name = "RACE001"
    severity = Severity.ERROR
    description = (
        "module-level state mutated on an evaluation-pool worker path "
        "without a lock guard"
    )

    def check(self, pctx: ProgramContext) -> Iterator[Violation]:
        for ref in sorted(pctx.pool_reachable):
            func = pctx.model.function(ref)
            if func is None:
                continue
            info = pctx.module_for(func)
            for effect in pctx.effects.effects_of(ref).effects:
                if effect.kind != "global-write" or effect.target is None:
                    continue
                if effect.lock_guarded:
                    continue
                chain = _chain_text(pctx.pool_path(ref))
                yield self.violation(
                    info,
                    effect.node,
                    f"{effect.detail} on a pool-worker path ({chain}); "
                    "guard with a lock, make it worker-local, or justify "
                    "the fork-snapshot design with a noqa",
                )


@register_program
class ForkSnapshotDivergence(ProgramRule):
    """RACE002: state read by workers but (re)written by the supervisor.

    Under the fork start method a worker inherits a *snapshot* of module
    state; under spawn it gets a fresh import.  A global that worker-side
    code reads while supervisor-side code mutates it therefore diverges
    silently between start methods.  Flagged at the global's definition,
    naming one reader and one writer.  Import-time-frozen constants are
    exempt: only globals some function mutates at runtime participate.
    """

    name = "RACE002"
    severity = Severity.ERROR
    description = (
        "module-level state read on worker paths but mutated by "
        "supervisor-side code (fork-snapshot divergence)"
    )

    def check(self, pctx: ProgramContext) -> Iterator[Violation]:
        readers: "dict[str, list[str]]" = {}
        writers: "dict[str, list[str]]" = {}
        for func in pctx.model.functions():
            fe = pctx.effects.effects_of(func.ref)
            worker_side = func.ref in pctx.pool_reachable
            for gvar, _node in fe.global_reads:
                if worker_side:
                    readers.setdefault(gvar.ref, []).append(func.ref)
            for effect in fe.effects:
                if effect.kind == "global-write" and effect.target is not None:
                    if not worker_side:
                        writers.setdefault(effect.target.ref, []).append(func.ref)
        for gref in sorted(set(readers) & set(writers)):
            module, _, name = gref.partition(":")
            info = pctx.model.modules.get(module)
            gvar = info.globals.get(name) if info is not None else None
            if info is None or gvar is None:
                continue
            reader = sorted(readers[gref])[0]
            writer = sorted(writers[gref])[0]
            yield self.violation(
                info,
                gvar.node,
                f"{module}.{name} is read on a pool-worker path "
                f"(e.g. {_chain_text([reader])}) but mutated supervisor-side "
                f"(e.g. {_chain_text([writer])}); fork and spawn workers "
                "will observe different values — pass it through "
                "worker_setup or justify the design with a noqa",
            )


# ---------------------------------------------------------------------------
# PURE — transitive purity of measurement producers
# ---------------------------------------------------------------------------

#: Modules whose effects are sanctioned inside measurement code: the
#: observability layer (gated, commutative, observational), the contract
#: decorators themselves, and raise-only validation helpers.
_PURITY_SANCTIONED = (("obs",), ("lint", "contracts"), ("util", "validation"))

#: Modules whose public functions are measurement producers.
_MEASUREMENT_MODULES = (
    ("core", "camat"),
    ("core", "lpm"),
    ("core", "stall"),
    ("sim", "stats"),
    ("analysis", "surrogate"),
)


def _is_sanctioned_module(name: str) -> bool:
    return _module_has_segments(name, _PURITY_SANCTIONED)


def _measurement_producers(model: ProgramModel) -> "Iterator[FunctionInfo]":
    """Functions held to the purity contract, deterministically ordered.

    The union of (a) everything decorated ``@satisfies(...)`` anywhere in
    the program and (b) public top-level functions of the measurement
    modules — so a producer cannot escape the contract by dropping the
    decorator.
    """
    for func in model.functions():
        decorated = any(ref.split(".")[-1] == "satisfies" for ref in func.decorators)
        in_measurement = (
            _module_has_segments(func.module, _MEASUREMENT_MODULES)
            and func.class_name is None
            and not func.name.startswith("_")
        )
        if decorated or in_measurement:
            yield func


@register_program
class ImpureMeasurementProducer(ProgramRule):
    """PURE001: a measurement producer transitively performs side effects.

    Producers are the ``@satisfies``-decorated functions plus the public
    surface of ``core.camat`` / ``core.lpm`` / ``core.stall`` /
    ``sim.stats``.  A producer may mutate its own arguments and locals
    (contained state) but must not — directly or through any statically
    reachable callee — write module globals, reseed ambient RNG state,
    touch the filesystem/environment, or print.  Calls into the
    observability layer, the contract decorators, and raise-only
    validators are sanctioned.  Unresolved calls are assumed pure
    (under-approximate).
    """

    name = "PURE001"
    severity = Severity.ERROR
    description = (
        "measurement producer transitively performs side effects "
        "(global writes, I/O, ambient RNG mutation)"
    )

    def check(self, pctx: ProgramContext) -> Iterator[Violation]:
        for func in _measurement_producers(pctx.model):
            # "blocking" is the event-loop tier's effect kind (ASYNC001);
            # purity keeps its original four kinds so verdicts don't shift.
            found = pctx.effects.first_effect_path(
                func.ref,
                sanctioned=_is_sanctioned_module,
                include=lambda e: e.kind != "blocking",
            )
            if found is None:
                continue
            chain, effect = found
            info = pctx.module_for(func)
            via = (
                f" via {_chain_text(chain)}" if len(chain) > 1 else ""
            )
            yield self.violation(
                info,
                func.node,
                f"measurement producer {func.qualname} is impure: "
                f"{effect.detail}{via} "
                f"(line {getattr(effect.node, 'lineno', '?')})",
            )


@register_program
class AmbientStateRead(ProgramRule):
    """PURE002: a measurement producer reads runtime-mutated module state.

    Reading a module global that some function mutates at runtime makes a
    producer's output depend on call ordering — the hidden-input twin of
    PURE001's hidden *outputs*.  Import-time-frozen globals (registries
    and constants populated only at module scope) are legitimate inputs
    and exempt.
    """

    name = "PURE002"
    severity = Severity.ERROR
    description = (
        "measurement producer reads module-level state that is mutated "
        "at runtime (hidden input)"
    )

    def check(self, pctx: ProgramContext) -> Iterator[Violation]:
        mutated = pctx.effects.runtime_mutated

        for func in _measurement_producers(pctx.model):
            found = pctx.effects.first_read_path(
                func.ref,
                sanctioned=_is_sanctioned_module,
                reads=lambda g: g.ref in mutated,
            )
            if found is None:
                continue
            chain, gvar, node = found
            info = pctx.module_for(func)
            via = f" via {_chain_text(chain)}" if len(chain) > 1 else ""
            yield self.violation(
                info,
                func.node,
                f"measurement producer {func.qualname} reads runtime-mutated "
                f"module state {gvar.module}.{gvar.name}{via} "
                f"(line {getattr(node, 'lineno', '?')})",
            )


# ---------------------------------------------------------------------------
# ASYNC / RACE003 — event-loop discipline over the kinded call graph
# ---------------------------------------------------------------------------

#: Modules whose effects are sanctioned on the loop: the observability
#: layer is gated and buffered (spans/counters append to in-memory state;
#: the exporter flushes off the hot path), so its writes neither stall
#: the loop meaningfully nor race across contexts.
_ASYNC_SANCTIONED = (("obs",),)


@register_program
class EventLoopBlockingCall(ProgramRule):
    """ASYNC001: a synchronous may-block call reachable from the event loop.

    Loop context seeds at every ``async def`` and propagates through
    call/await/spawn edges; an executor hop (``asyncio.to_thread`` /
    ``run_in_executor``) breaks the propagation — that hop is the fix
    this rule asks for.  Blocking effects are the synchronous forms only
    (an awaited call is cooperative by construction): file/socket IO,
    ``time.sleep``, ``subprocess``, zero-argument ``.join()``, blocking
    ``.acquire()``, pathlib read/write.  Unresolved calls contribute no
    effect, so findings are under-approximate; the observability layer is
    sanctioned (buffered, gated).
    """

    name = "ASYNC001"
    severity = Severity.ERROR
    description = (
        "synchronous may-block call reachable from event-loop context "
        "without a to_thread/executor hop"
    )

    def check(self, pctx: ProgramContext) -> Iterator[Violation]:
        ctxs = pctx.async_contexts()
        for func in pctx.model.functions():
            if _module_has_segments(func.module, _ASYNC_SANCTIONED):
                continue
            loop_member = func.ref in ctxs.loop
            is_async_def = isinstance(func.node, ast.AsyncFunctionDef)
            for effect in pctx.effects.effects_of(func.ref).effects:
                if effect.kind != "blocking":
                    continue
                # Direct coroutine-body effects always count; effects of a
                # sync function count only when the *whole function* runs
                # on the loop (a nested sync helper inside an async def is
                # typically the to_thread payload, not loop code).
                if not (effect.in_async or (loop_member and not is_async_def)):
                    continue
                info = pctx.module_for(func)
                chain = ctxs.loop_path(func.ref) if loop_member else [func.ref]
                yield self.violation(
                    info,
                    effect.node,
                    f"{effect.detail} the event loop "
                    f"(reachable via {_chain_text(chain)}); hop off the "
                    "loop with await asyncio.to_thread(...) / "
                    "run_in_executor, or use the async API",
                )


@register_program
class AwaitUnderSyncLock(ProgramRule):
    """ASYNC002: an await while holding a synchronous (thread) lock.

    A plain ``with threading.Lock()`` held across an ``await`` keeps the
    lock for the whole suspension: any other coroutine (or executor
    thread) needing it then blocks the loop thread itself — the classic
    async-over-sync deadlock shape.  Awaits inside nested defs under the
    ``with`` are exempt (they run after the block exits).  Locks of
    *unknown* kind (a name containing "lock" that resolution cannot type)
    are held to the rule: a plain ``with`` is sync acquisition semantics.
    """

    name = "ASYNC002"
    severity = Severity.ERROR
    description = (
        "await while holding a synchronous lock (plain 'with'); the lock "
        "is held across the suspension"
    )

    def check(self, pctx: ProgramContext) -> Iterator[Violation]:
        locks = pctx.lock_analysis()
        for func in pctx.model.functions():
            info = pctx.module_for(func)
            for acq in locks.acquisitions.get(func.ref, []):
                if acq.is_async_with or acq.lock.kind == "async":
                    continue
                for await_node in locks.awaits_holding(acq):
                    yield self.violation(
                        info,
                        await_node,
                        f"await while holding sync lock {acq.lock.display} "
                        f"(acquired line {acq.node.lineno}); the lock stays "
                        "held across the suspension and can wedge the loop "
                        "— use asyncio.Lock with 'async with', or release "
                        "before awaiting",
                    )


@register_program
class LockOrderCycle(ProgramRule):
    """ASYNC003: a cycle in the lock acquisition-order graph.

    Lock A precedes lock B when B is acquired lexically inside A's
    ``with`` body or by a function (transitively) called while A is held
    (call/await edges; a spawned task or executor hop does not extend the
    hold).  A cycle means two tasks can each hold one lock and wait
    forever on the other.  Order edges ignore branch conditions, so a
    finding may be on two branches that never co-execute — that is what
    the justification convention is for.
    """

    name = "ASYNC003"
    severity = Severity.ERROR
    description = (
        "cycle in the lock acquisition-order graph (potential deadlock)"
    )

    def check(self, pctx: ProgramContext) -> Iterator[Violation]:
        locks = pctx.lock_analysis()
        for cycle in locks.cycles():
            func_ref, node, _how = cycle.witnesses[0]
            func = pctx.model.function(func_ref)
            if func is None:
                continue
            info = pctx.module_for(func)
            order = " -> ".join(
                locks.display_of(r) for r in (*cycle.locks, cycle.locks[0])
            )
            steps = "; ".join(how for _, _, how in cycle.witnesses)
            yield self.violation(
                info,
                node,
                f"lock-order cycle {order}: {steps}; pick one global "
                "acquisition order (or collapse the locks) to rule out "
                "deadlock",
            )


@register_program
class OrphanedCoroutine(ProgramRule):
    """ASYNC004: an unawaited coroutine or fire-and-forget task.

    Three shapes:

    * a bare-statement call to a known ``async def`` — the coroutine
      object is created and dropped; the body never runs;
    * a bare-statement ``asyncio.create_task(...)`` /
      ``ensure_future(...)`` — the task starts but nothing keeps a
      reference, so it can be garbage-collected mid-flight and its
      exception is swallowed;
    * a task/coroutine assigned to a local name that the function never
      reads — assigned, then never awaited or referenced.

    The last check is flow-insensitive: any read of the name anywhere in
    the function, nested defs (closures) included, counts as consumption.
    It never flags a handle that is used, but it misses one that is
    rebound before any use (``t = create_task(a()); t = ...; await t``).
    Attribute targets (``self._task = ...``) are kept references and
    exempt.  Only calls that *resolve* to a known coroutine are flagged
    (under-approximate).
    """

    name = "ASYNC004"
    severity = Severity.ERROR
    description = (
        "unawaited coroutine or fire-and-forget task without a kept "
        "reference"
    )

    def check(self, pctx: ProgramContext) -> Iterator[Violation]:
        for func in pctx.model.functions():
            info = pctx.module_for(func)
            yield from self._check_function(pctx, info, func)

    @staticmethod
    def _is_task_spawn(info: ModuleInfo, call: ast.Call) -> bool:
        chain = info.ctx.resolve_call_chain(call.func)
        if chain and chain[0] == "asyncio" and chain[-1] in (
            "create_task", "ensure_future",
        ):
            return True
        return isinstance(call.func, ast.Attribute) and call.func.attr in (
            "create_task", "ensure_future",
        )

    @staticmethod
    def _coroutine_callee(
        pctx: ProgramContext, info: ModuleInfo, func: FunctionInfo, call: ast.Call
    ) -> "FunctionInfo | None":
        ref, _dotted = _resolve_callee(pctx.model, info, func, call.func)
        if ref is None:
            return None
        callee = pctx.model.function(ref)
        if callee is not None and isinstance(callee.node, ast.AsyncFunctionDef):
            return callee
        return None

    def _check_function(
        self, pctx: ProgramContext, info: ModuleInfo, func: FunctionInfo
    ) -> Iterator[Violation]:
        loaded: "set[str] | None" = None
        for node in ast.walk(func.node):
            if not isinstance(node, ast.stmt):
                continue
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                call = node.value
                if self._is_task_spawn(info, call):
                    yield self.violation(
                        info,
                        call,
                        "task spawned without keeping a reference; it can "
                        "be garbage-collected mid-flight and its exception "
                        "is swallowed — keep the handle (self._task = ..., "
                        "or a task set) and await it on shutdown",
                    )
                    continue
                callee = self._coroutine_callee(pctx, info, func, call)
                if callee is not None and not isinstance(
                    info.ctx.parent(call), ast.Await
                ):
                    yield self.violation(
                        info,
                        call,
                        f"coroutine {callee.qualname}(...) is never awaited; "
                        "the body never runs — await it or hand it to "
                        "asyncio.create_task",
                    )
                continue
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            value = node.value
            if not isinstance(value, ast.Call):
                continue
            is_spawn = self._is_task_spawn(info, value)
            callee = (
                None if is_spawn
                else self._coroutine_callee(pctx, info, func, value)
            )
            if not is_spawn and callee is None:
                continue
            if loaded is None:
                loaded = {
                    n.id for n in ast.walk(func.node)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                }
            if target.id in loaded:
                continue
            what = (
                "task" if is_spawn
                else f"coroutine {callee.qualname}(...)" if callee is not None
                else "coroutine"
            )
            yield self.violation(
                info,
                value,
                f"{what} assigned to {target.id!r} but no use is reached "
                "by this definition; it is never awaited — await it, "
                "gather it, or keep the handle somewhere that outlives "
                "this function",
            )


@register_program
class LoopThreadSharedWrite(ProgramRule):
    """RACE003: a global written unguarded from both loop and thread context.

    The GIL serializes bytecodes, not invariants: a loop-side coroutine
    and an executor-thread function both writing the same module global
    without a lock interleave arbitrarily (torn read-modify-write,
    lost updates).  Flagged at the global's definition, naming one writer
    from each side.  Lock-guarded writes and the observability layer
    (commutative merge-monoid counters) are exempt.
    """

    name = "RACE003"
    severity = Severity.ERROR
    description = (
        "module-level state written without a lock from both event-loop "
        "and executor-thread context"
    )

    def check(self, pctx: ProgramContext) -> Iterator[Violation]:
        ctxs = pctx.async_contexts()
        loop_writers: "dict[str, list[str]]" = {}
        thread_writers: "dict[str, list[str]]" = {}
        for func in pctx.model.functions():
            if _module_has_segments(func.module, _ASYNC_SANCTIONED):
                continue
            is_async_def = isinstance(func.node, ast.AsyncFunctionDef)
            loop_side = func.ref in ctxs.loop
            thread_side = func.ref in ctxs.thread
            for effect in pctx.effects.effects_of(func.ref).effects:
                if (
                    effect.kind != "global-write"
                    or effect.target is None
                    or effect.lock_guarded
                ):
                    continue
                if effect.in_async or (loop_side and not is_async_def):
                    loop_writers.setdefault(effect.target.ref, []).append(func.ref)
                if thread_side and not effect.in_async:
                    thread_writers.setdefault(effect.target.ref, []).append(func.ref)
        for gref in sorted(set(loop_writers) & set(thread_writers)):
            module, _, name = gref.partition(":")
            info = pctx.model.modules.get(module)
            gvar = info.globals.get(name) if info is not None else None
            if info is None or gvar is None:
                continue
            loop_w = sorted(loop_writers[gref])[0]
            thread_w = sorted(thread_writers[gref])[0]
            yield self.violation(
                info,
                gvar.node,
                f"{module}.{name} is written without a lock from event-loop "
                f"context ({_chain_text([loop_w])}) and executor-thread "
                f"context ({_chain_text([thread_w])}); the interleaving is "
                "unsynchronized — guard both writes with one threading.Lock "
                "or confine the state to a single context",
            )


# ---------------------------------------------------------------------------
# SUP — suppression hygiene (the eager-failure extension)
# ---------------------------------------------------------------------------

@register_program
class UnjustifiedSuppression(ProgramRule):
    """SUP001: a program-rule noqa without a ``-- justification``.

    Mirrors the runtime contract checker's eager :class:`ContractViolation`
    failure: an unexplained suppression of a whole-program finding is
    itself an error, the suppression is *ignored* (the underlying finding
    still reports), and SUP001 findings can never be baselined.
    """

    name = "SUP001"
    severity = Severity.ERROR
    description = (
        "suppression of a whole-program rule without a '-- why' "
        "justification (the noqa is ignored)"
    )

    def check(self, pctx: ProgramContext) -> Iterator[Violation]:
        program_rules = set(PROGRAM_RULES)
        for module_name in sorted(pctx.model.modules):
            info = pctx.model.modules[module_name]
            for lineno in sorted(info.ctx.noqa):
                names = info.ctx.noqa[lineno] & program_rules
                if not names or info.ctx.is_suppression_justified(lineno):
                    continue
                listed = ", ".join(sorted(names))
                yield Violation(
                    path=info.path,
                    line=lineno,
                    col=0,
                    rule=self.name,
                    severity=self.severity,
                    message=(
                        f"noqa[{listed}] lacks a '-- justification'; "
                        "program-rule suppressions must explain the "
                        "sanctioned design (suppression ignored)"
                    ),
                )
