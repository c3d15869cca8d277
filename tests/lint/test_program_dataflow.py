"""Unit tests for the side-effect inference."""

import textwrap

from repro.lint.program import build_program
from repro.lint.program.callgraph import build_call_graph
from repro.lint.program.dataflow import EffectAnalysis


def analyze(tmp_path, files):
    for rel, src in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(src), encoding="utf-8")
    model = build_program([tmp_path])
    return model, EffectAnalysis(model, build_call_graph(model))


class TestEffects:
    def test_global_write_and_runtime_mutated(self, tmp_path):
        _, effects = analyze(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/mod.py": """
                _STATE = {}
                _MODE = "a"

                def put(k, v):
                    _STATE[k] = v

                def switch(m):
                    global _MODE
                    _MODE = m
            """,
        })
        put = effects.effects_of("pkg.mod:put")
        assert any(
            e.kind == "global-write" and e.target.name == "_STATE"
            for e in put.effects
        )
        assert effects.runtime_mutated == {"pkg.mod:_STATE", "pkg.mod:_MODE"}

    def test_lock_guard_is_recognized(self, tmp_path):
        _, effects = analyze(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/mod.py": """
                import threading

                _LOCK = threading.Lock()
                _STATE = {}

                def put(k, v):
                    with _LOCK:
                        _STATE[k] = v
            """,
        })
        (effect,) = [
            e for e in effects.effects_of("pkg.mod:put").effects
            if e.kind == "global-write"
        ]
        assert effect.lock_guarded

    def test_self_mutation_is_not_an_effect(self, tmp_path):
        _, effects = analyze(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/mod.py": """
                class Acc:
                    def __init__(self):
                        self.items = []

                    def add(self, v):
                        self.items.append(v)
                        self.total = v
            """,
        })
        assert effects.effects_of("pkg.mod:Acc.add").effects == []

    def test_io_and_ambient_rng_calls(self, tmp_path):
        _, effects = analyze(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/mod.py": """
                import random

                def noisy(x):
                    print(x)
                    random.seed(0)
                    return x
            """,
        })
        kinds = {e.kind for e in effects.effects_of("pkg.mod:noisy").effects}
        assert kinds == {"io", "ambient-rng"}

    def test_first_effect_path_is_transitive(self, tmp_path):
        _, effects = analyze(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/mod.py": """
                def outer(x):
                    return inner(x)

                def inner(x):
                    print(x)
                    return x

                def clean(x):
                    return x + 1
            """,
        })
        found = effects.first_effect_path("pkg.mod:outer")
        assert found is not None
        chain, effect = found
        assert chain == ["pkg.mod:outer", "pkg.mod:inner"]
        assert effect.kind == "io"
        assert effects.first_effect_path("pkg.mod:clean") is None

    def test_sanctioned_modules_are_skipped(self, tmp_path):
        _, effects = analyze(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/obs/__init__.py": "",
            "pkg/obs/log.py": """
                def emit(x):
                    print(x)
            """,
            "pkg/mod.py": """
                from pkg.obs.log import emit

                def produce(x):
                    emit(x)
                    return x
            """,
        })
        gated = effects.first_effect_path(
            "pkg.mod:produce", sanctioned=lambda m: ".obs" in m or m.endswith("obs")
        )
        assert gated is None
        ungated = effects.first_effect_path("pkg.mod:produce")
        assert ungated is not None

    def test_global_reads_are_collected(self, tmp_path):
        _, effects = analyze(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/mod.py": """
                _TABLE = {"a": 1}

                def look(k):
                    return _TABLE[k]
            """,
        })
        reads = effects.effects_of("pkg.mod:look").global_reads
        assert [g.name for g, _ in reads] == ["_TABLE"]
