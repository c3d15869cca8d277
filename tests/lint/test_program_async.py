"""The async tier: kinded call graph, contexts, locks, and ASYNC rules."""

import textwrap
from pathlib import Path

from repro.lint.engine import lint_source
from repro.lint.program import run_program_lint
from repro.lint.program.baseline import (
    Baseline,
    BaselineEntry,
    fingerprint_violation,
)
from repro.lint.program.callgraph import (
    build_call_graph,
    classify_contexts,
)
from repro.lint.program.symbols import build_program

TESTS_LINT = Path(__file__).resolve().parent
ASYNC_FIXTURES = TESTS_LINT / "fixtures" / "async"


def lint_fixture(name, **kwargs):
    return run_program_lint([ASYNC_FIXTURES / name], **kwargs)


def write_tree(tmp_path, files):
    for rel, src in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(src), encoding="utf-8")
    return tmp_path


class TestAsyncFixtures:
    def test_blocking_call_on_loop_path_fires(self):
        result = lint_fixture("block_bad")
        assert [v.rule for v in result.violations] == ["ASYNC001"]
        finding = result.violations[0]
        assert finding.path.endswith("block_bad/store.py")
        assert "open()" in finding.message
        assert "handle -> load_state" in finding.message
        assert "to_thread" in finding.message

    def test_executor_hop_is_clean(self):
        result = lint_fixture("block_clean")
        assert result.ok, [v.format() for v in result.violations]

    def test_await_under_sync_lock_fires(self):
        result = lint_fixture("lockhold_bad")
        assert [v.rule for v in result.violations] == ["ASYNC002"]
        finding = result.violations[0]
        assert "_STATE_LOCK" in finding.message
        assert "async with" in finding.message

    def test_async_lock_async_with_is_clean(self):
        result = lint_fixture("lockhold_clean")
        assert result.ok, [v.format() for v in result.violations]

    def test_lock_order_cycle_fires(self):
        result = lint_fixture("order_bad")
        assert [v.rule for v in result.violations] == ["ASYNC003"]
        message = result.violations[0].message
        assert "_ALPHA" in message and "_BETA" in message
        assert "deadlock" in message

    def test_consistent_lock_order_is_clean(self):
        result = lint_fixture("order_clean")
        assert result.ok, [v.format() for v in result.violations]

    def test_orphaned_coroutines_fire_all_three_shapes(self):
        result = lint_fixture("orphan_bad")
        assert [v.rule for v in result.violations] == ["ASYNC004"] * 3
        messages = "\n".join(v.message for v in result.violations)
        assert "never awaited" in messages          # bare coroutine call
        assert "without keeping a reference" in messages  # bare create_task
        assert "'pending'" in messages              # dead assignment

    def test_awaited_and_tracked_tasks_are_clean(self):
        result = lint_fixture("orphan_clean")
        assert result.ok, [v.format() for v in result.violations]

    def test_any_read_of_the_handle_consumes_it(self, tmp_path):
        # The dead-assignment check is flow-insensitive: a read anywhere
        # in the function, a closure included, keeps the handle; a handle
        # rebound before its first read is the documented miss.
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/tasks.py": """
                import asyncio

                async def refresh():
                    await asyncio.sleep(0)

                async def closure_use():
                    task = asyncio.create_task(refresh())

                    async def waiter():
                        await task

                    await waiter()

                async def rebound_first():
                    task = asyncio.create_task(refresh())
                    task = asyncio.create_task(refresh())
                    await task

                async def never_read():
                    coro = refresh()
                    return None
            """,
        })
        result = run_program_lint([tmp_path], rules=["ASYNC004"])
        assert [v.message.split(" assigned")[0] for v in result.violations] == [
            "coroutine refresh(...)",
        ]

    def test_loop_thread_shared_write_fires_at_global(self):
        result = lint_fixture("shared_bad")
        assert [v.rule for v in result.violations] == ["RACE003"]
        finding = result.violations[0]
        assert finding.path.endswith("shared_bad/counters.py")
        assert "_COMPLETED" in finding.message
        assert "note_loop_side" in finding.message
        assert "note_thread_side" in finding.message

    def test_lock_guarded_writers_are_clean(self):
        result = lint_fixture("shared_clean")
        assert result.ok, [v.format() for v in result.violations]


class TestEdgeKindsAndContexts:
    """The kinded call graph and context lattice on a miniature module."""

    def _build(self, tmp_path):
        write_tree(tmp_path, {
            "mini/__init__.py": "",
            "mini/app.py": """
                import asyncio

                from mini.helpers import compute, poll, sync_step

                async def main():
                    await poll()
                    asyncio.create_task(poll())
                    await asyncio.to_thread(compute)
                    sync_step()
            """,
            "mini/helpers.py": """
                import asyncio

                async def poll():
                    await asyncio.sleep(0)

                def compute():
                    return 1

                def sync_step():
                    return 2
            """,
        })
        model = build_program([tmp_path])
        return model, build_call_graph(model)

    def test_edge_kinds(self, tmp_path):
        _model, graph = self._build(tmp_path)
        kinds = graph.edge_kinds["mini.app:main"]
        assert kinds["mini.helpers:poll"] == {"await", "spawn"}
        assert kinds["mini.helpers:compute"] == {"executor"}
        assert kinds["mini.helpers:sync_step"] == {"call"}

    def test_context_classification(self, tmp_path):
        model, graph = self._build(tmp_path)
        ctxs = classify_contexts(model, graph)
        assert "mini.app:main" in ctxs.loop
        assert "mini.helpers:poll" in ctxs.loop
        # Plain sync call from a coroutine stays on the loop ...
        assert "mini.helpers:sync_step" in ctxs.loop
        # ... but the executor hop leaves it.
        assert "mini.helpers:compute" not in ctxs.loop
        assert "mini.helpers:compute" in ctxs.thread
        assert ctxs.kinds_of("mini.helpers:compute") == ("thread",)
        assert ctxs.loop_path("mini.helpers:sync_step") == [
            "mini.app:main", "mini.helpers:sync_step",
        ]

    def test_nested_coroutine_in_sync_function_seeds_loop(self, tmp_path):
        """The _cmd_serve shape: async def nested in a sync CLI command."""
        write_tree(tmp_path, {
            "nest/__init__.py": "",
            "nest/cli.py": """
                import asyncio

                from nest.impl import step

                def command():
                    async def serve():
                        step()

                    asyncio.run(serve())
            """,
            "nest/impl.py": """
                def step():
                    return 0
            """,
        })
        model = build_program([tmp_path])
        graph = build_call_graph(model)
        ctxs = classify_contexts(model, graph)
        assert "nest.impl:step" in ctxs.loop


class TestSelfAttrInference:
    """``self.<attr>.<method>()`` resolves via ``__init__`` inference."""

    def _tree(self, tmp_path, init_body):
        return write_tree(tmp_path, {
            "svc/__init__.py": "",
            "svc/store.py": """
                class Store:
                    def save(self):
                        with open("x") as fh:
                            return fh.read()
            """,
            "svc/app.py": f"""
                from svc.store import Store

                class App:
                    {init_body}

                    async def run(self):
                        return self.store.save()
            """,
        })

    def test_constructor_assignment_resolves(self, tmp_path):
        self._tree(tmp_path, (
            "def __init__(self):\n"
            "                        self.store = Store()"
        ))
        model = build_program([tmp_path])
        graph = build_call_graph(model)
        assert "svc.store:Store.save" in graph.callees("svc.app:App.run")

    def test_annotated_parameter_with_default_resolves(self, tmp_path):
        self._tree(tmp_path, (
            'def __init__(self, store: "Store | None" = None):\n'
            "                        self.store = store if store is not None "
            "else Store()"
        ))
        result = run_program_lint([tmp_path])
        assert [v.rule for v in result.violations] == ["ASYNC001"]
        assert result.violations[0].path.endswith("svc/store.py")
        assert "App.run -> Store.save" in result.violations[0].message


class TestTierDedup:
    """CON003 (per-file) and ASYNC001 (program) never share a line."""

    SOURCE = """\
import asyncio


async def pump(queue, path):
    item = await queue.get()
    path.write_text(str(item))
    return item
"""

    def test_no_line_reported_by_both_tiers(self, tmp_path):
        root = write_tree(tmp_path, {
            "service/__init__.py": "",
            "service/conn.py": self.SOURCE,
        })
        per_file = lint_source(
            self.SOURCE, "src/repro/service/conn.py", rules=["CON003"]
        )
        program = run_program_lint([root])
        con_lines = {v.line for v in per_file}
        async_lines = {
            v.line for v in program.violations if v.rule == "ASYNC001"
        }
        # Each tier sees exactly its own hazard shape ...
        assert con_lines == {5}   # the deadline-less await
        assert async_lines == {6}  # the sync disk write
        # ... and no line is double-reported.
        assert not con_lines & async_lines


class TestNeverBaselined:
    def test_async_findings_cannot_be_grandfathered(self):
        first = lint_fixture("block_bad")
        assert not first.ok
        finding = first.violations[0]
        line_text = (
            Path(finding.path).read_text(encoding="utf-8")
            .splitlines()[finding.line - 1]
        )
        fingerprint = fingerprint_violation(finding, line_text, 0)
        baseline = Baseline(entries={
            fingerprint: BaselineEntry(
                fingerprint=fingerprint,
                rule=finding.rule,
                path=finding.path,
                line=finding.line,
                message=finding.message,
            )
        })
        again = lint_fixture("block_bad", baseline=baseline)
        # The entry is ignored: ASYNC findings always gate.
        assert [v.rule for v in again.violations] == ["ASYNC001"]
        assert not again.ok
