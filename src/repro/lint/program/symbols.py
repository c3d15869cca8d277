"""Cross-module symbol table and import graph.

The foundation every whole-program pass builds on: parse each file once
(through the shared :class:`~repro.lint.engine.ASTCache`), assign it a
dotted module name derived from the ``__init__.py`` package structure, and
index what it defines — top-level functions, class methods, module-level
globals — plus what it imports.  :meth:`ProgramModel.resolve` then maps a
dotted reference observed at a call site back to the defining
:class:`FunctionInfo` / :class:`GlobalVar`, chasing re-export chains
(``from repro.sim.engine import simulate`` re-exported through
``repro.sim.__init__``) so that ``repro.sim.simulate`` and
``repro.sim.engine.simulate`` resolve to the same symbol.

Like the per-file engine, everything here is purely syntactic: the program
model never imports or executes the code it analyzes.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.engine import ASTCache, ModuleContext, iter_python_files

__all__ = [
    "FunctionInfo",
    "GlobalVar",
    "ModuleInfo",
    "ProgramModel",
    "build_program",
    "module_name_for",
]

#: Calls producing a mutable container at module level.
_MUTABLE_CALLS = frozenset({"list", "dict", "set", "defaultdict", "deque", "Counter"})


def module_name_for(path: Path) -> str:
    """The dotted module name of *path*, from its ``__init__.py`` chain.

    Walks upward while the parent directory is a package (contains
    ``__init__.py``); a file outside any package is just its stem.
    """
    path = path.resolve()
    parts = [path.stem] if path.name != "__init__.py" else []
    current = path.parent
    while (current / "__init__.py").exists():
        parts.insert(0, current.name)
        parent = current.parent
        if parent == current:  # filesystem root
            break
        current = parent
    return ".".join(parts) if parts else path.stem


def _is_mutable_value(node: ast.AST) -> bool:
    if isinstance(
        node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
    ):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _MUTABLE_CALLS
    return False


@dataclass
class FunctionInfo:
    """One top-level function or class method of one module."""

    module: str
    qualname: str
    node: "ast.FunctionDef | ast.AsyncFunctionDef"
    class_name: "str | None" = None
    #: Decorator references resolved to dotted names (imports applied).
    decorators: "tuple[str, ...]" = ()

    @property
    def ref(self) -> str:
        """Program-wide stable identity: ``module:qualname``."""
        return f"{self.module}:{self.qualname}"

    @property
    def name(self) -> str:
        """The bare function name (last qualname segment)."""
        return self.qualname.rsplit(".", 1)[-1]


@dataclass
class GlobalVar:
    """One module-level variable binding."""

    module: str
    name: str
    node: ast.stmt
    lineno: int
    #: Whether the bound value is a mutable container literal/constructor.
    mutable: bool
    #: ALL_CAPS / dunder naming — the frozen-registry convention.
    constant_style: bool

    @property
    def ref(self) -> str:
        """Program-wide stable identity: ``module:name``."""
        return f"{self.module}:{self.name}"


class ModuleInfo:
    """Symbols and imports of one parsed module."""

    def __init__(self, name: str, path: str, ctx: ModuleContext) -> None:
        self.name = name
        self.path = path
        self.ctx = ctx
        #: qualname -> function/method info (nested defs fold into parents).
        self.functions: "dict[str, FunctionInfo]" = {}
        #: class name -> method qualnames, for ``Cls()`` / ``self.m()`` resolution.
        self.classes: "dict[str, list[str]]" = {}
        #: module-level variable name -> binding info.
        self.globals: "dict[str, GlobalVar]" = {}
        self._collect()

    def _collect(self) -> None:
        for stmt in self.ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[stmt.name] = FunctionInfo(
                    module=self.name,
                    qualname=stmt.name,
                    node=stmt,
                    decorators=self._decorator_refs(stmt),
                )
            elif isinstance(stmt, ast.ClassDef):
                methods: "list[str]" = []
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        qualname = f"{stmt.name}.{sub.name}"
                        methods.append(qualname)
                        self.functions[qualname] = FunctionInfo(
                            module=self.name,
                            qualname=qualname,
                            node=sub,
                            class_name=stmt.name,
                            decorators=self._decorator_refs(sub),
                        )
                self.classes[stmt.name] = methods
            else:
                self._collect_global(stmt)

    def _decorator_refs(
        self, func: "ast.FunctionDef | ast.AsyncFunctionDef"
    ) -> "tuple[str, ...]":
        refs = []
        for deco in func.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            chain = self.ctx.resolve_call_chain(target)
            if chain:
                refs.append(".".join(chain))
        return tuple(refs)

    def _collect_global(self, stmt: ast.stmt) -> None:
        targets: "list[ast.expr]" = []
        value: "ast.expr | None" = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            targets, value = [stmt.target], stmt.value
        for target in targets:
            if isinstance(target, ast.Name):
                self.globals[target.id] = GlobalVar(
                    module=self.name,
                    name=target.id,
                    node=stmt,
                    lineno=stmt.lineno,
                    mutable=value is not None and _is_mutable_value(value),
                    constant_style=(
                        target.id.startswith("__") or target.id == target.id.upper()
                    ),
                )

    def resolve_local(self, chain: "list[str]") -> "str | None":
        """Resolve an import-expanded chain rooted at a local symbol.

        Returns the dotted reference with this module's name substituted
        for the local root (``measure_layer`` -> ``repro.core.analyzer
        .measure_layer``), or ``None`` when the root is not defined here.
        """
        root = chain[0]
        if root in self.functions or root in self.classes or root in self.globals:
            return ".".join([self.name, *chain])
        return None


@dataclass
class Resolution:
    """Outcome of :meth:`ProgramModel.resolve` for one dotted reference."""

    kind: str  # "function" | "class" | "global" | "module"
    module: str
    function: "FunctionInfo | None" = None
    global_var: "GlobalVar | None" = None
    class_name: "str | None" = None


@dataclass
class ProgramModel:
    """The whole program: modules, their symbols, and the import graph."""

    modules: "dict[str, ModuleInfo]" = field(default_factory=dict)
    #: Shared parse cache (exposed so drivers can report single-parse stats).
    cache: ASTCache = field(default_factory=ASTCache)
    #: Files that failed to parse: path -> error message.
    parse_failures: "dict[str, str]" = field(default_factory=dict)

    # -- indexing -----------------------------------------------------------
    def functions(self) -> "Iterator[FunctionInfo]":
        """Every function of every module, in deterministic order."""
        for name in sorted(self.modules):
            info = self.modules[name]
            for qualname in sorted(info.functions):
                yield info.functions[qualname]

    def function(self, ref: str) -> "FunctionInfo | None":
        """Look up a function by its ``module:qualname`` reference."""
        module, _, qualname = ref.partition(":")
        info = self.modules.get(module)
        return info.functions.get(qualname) if info else None

    # -- import graph -------------------------------------------------------
    def import_graph(self) -> "dict[str, set[str]]":
        """Module -> program-internal modules it imports (re-exports kept)."""
        graph: "dict[str, set[str]]" = {name: set() for name in self.modules}
        for name, info in self.modules.items():
            imported = [
                *info.ctx.import_aliases.values(),
                *(t.rsplit(".", 1)[0] for t in info.ctx.from_imports.values()),
            ]
            for target in imported:
                resolved = self._closest_module(target)
                if resolved is not None and resolved != name:
                    graph[name].add(resolved)
        return graph

    def _closest_module(self, dotted: str) -> "str | None":
        """The longest known module name that prefixes *dotted*."""
        parts = dotted.split(".")
        for end in range(len(parts), 0, -1):
            candidate = ".".join(parts[:end])
            if candidate in self.modules:
                return candidate
        return None

    # -- symbol resolution --------------------------------------------------
    def resolve(self, dotted: str, *, _depth: int = 0) -> "Resolution | None":
        """Resolve a dotted reference to its defining symbol.

        Chases re-export chains through package ``__init__`` modules up to
        a small depth bound (cycles in hand-written imports are rare but
        must not hang the analyzer).
        """
        if _depth > 8:
            return None
        module_name = self._closest_module(dotted)
        if module_name is None:
            return None
        info = self.modules[module_name]
        rest = dotted[len(module_name) :].lstrip(".")
        if not rest:
            return Resolution(kind="module", module=module_name)
        head, _, tail = rest.partition(".")
        if rest in info.functions:
            return Resolution(
                kind="function", module=module_name, function=info.functions[rest]
            )
        if head in info.classes:
            if not tail:  # ``Cls(...)`` — constructor
                init = info.functions.get(f"{head}.__init__")
                return Resolution(
                    kind="class",
                    module=module_name,
                    class_name=head,
                    function=init,
                )
            return None  # unknown method reference
        if head in info.globals and not tail:
            return Resolution(
                kind="global", module=module_name, global_var=info.globals[head]
            )
        # Re-export: the name is imported into this module from elsewhere.
        if head in info.ctx.from_imports:
            target = info.ctx.from_imports[head]
            suffix = f".{tail}" if tail else ""
            return self.resolve(f"{target}{suffix}", _depth=_depth + 1)
        if head in info.ctx.import_aliases:
            target = info.ctx.import_aliases[head]
            suffix = f".{tail}" if tail else ""
            return self.resolve(f"{target}{suffix}", _depth=_depth + 1)
        return None

    def resolve_in_module(
        self, info: ModuleInfo, node: ast.AST
    ) -> "Resolution | None":
        """Resolve a name/attribute chain observed inside *info*'s source."""
        chain = info.ctx.resolve_call_chain(node)
        if not chain:
            return None
        local = info.resolve_local(chain)
        if local is not None:
            return self.resolve(local)
        return self.resolve(".".join(chain))


def build_program(
    paths: "Sequence[str | Path]", *, cache: "ASTCache | None" = None
) -> ProgramModel:
    """Parse every Python file under *paths* into a :class:`ProgramModel`.

    Files that fail to parse are recorded in
    :attr:`ProgramModel.parse_failures` (the driver reports them as
    ``SYNTAX`` findings) rather than aborting the build.
    """
    model = ProgramModel(cache=cache if cache is not None else ASTCache())
    for file_path in iter_python_files(Path(p) for p in paths):
        rel = str(file_path)
        try:
            ctx = model.cache.context(rel)
        except (SyntaxError, ValueError, OSError) as exc:
            model.parse_failures[rel] = str(exc)
            continue
        name = module_name_for(file_path)
        # Two roots shipping a same-named module: keep the first, note the
        # clash deterministically (sorted file iteration makes this stable).
        if name in model.modules:
            name = f"{name}@{rel}"
        model.modules[name] = ModuleInfo(name, rel, ctx)
    return model
