"""Smoke-run every ``benchmarks/bench_*.py`` experiment at reduced scale.

The experiment-regeneration benches are the repo's executable record of
the paper's tables and figures, but at full scale they take minutes —
so they only ran when someone remembered to.  This suite executes every
bench function on shrunken inputs (small traces, few seeds) inside the
tier-1 run:

* bench modules are loaded under throwaway names and their module-level
  scale constants (``N_ACCESSES`` etc.) are dialed down after import;
* the pytest-benchmark ``benchmark`` fixture is replaced by a stub that
  just calls the measured function once, and ``artifact`` by a writer
  into ``tmp_path`` (the real ``benchmarks/output/`` is never touched);
* any exception is a failure, with one exception: benches listed in
  :data:`ASSERT_TOLERANT` assert quantitative acceptance thresholds that
  only hold at full scale, so for those — and only those — a clean
  ``AssertionError`` is tolerated.  Crashes still fail everywhere.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

from repro.sched import NUCAMachine, profile_benchmarks
from repro.workloads.spec import SELECTED_16, get_benchmark

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"

#: Reduced values for the bench modules' scale constants (applied only
#: when smaller than the module's own value).
SCALE_DOWN = {
    "N_ACCESSES": 2_000,
    "N_BURSTS": 4_000,
    "BENCH_ACCESSES": 1_200,
    "N_RANDOM_SEEDS": 2,
    "INTERVAL": 1_500,
}
#: Reduced shared-fixture sizes (conftest uses 60_000 / 20_000).
SMOKE_BWAVES_ACCESSES = 4_000
SMOKE_NUCA_ACCESSES = 1_200

#: Benches whose asserts encode full-scale quantitative acceptance
#: thresholds (model error bounds, adaptation win margins, ladder
#: trajectories) that legitimately do not hold on tiny inputs.  Each
#: still must *run* without raising anything but AssertionError.
ASSERT_TOLERANT = {
    "bench_ablation_bypass",
    "bench_ablation_mshr",
    "bench_ablation_overlap",
    "bench_ablation_prefetch",
    "bench_algorithm_walk",
    "bench_fig6_apc1",
    "bench_fig7_apc2",
    "bench_fig8_hsp",
    "bench_model_validation",
    "bench_online_adaptation",
    "bench_partition",
    "bench_table1_lpmr_configs",
    "bench_three_level",
    "bench_timed_corun",
}


def _discover():
    """(path, test name, fixture params) per bench test, via AST only —
    collection must not import (and thus execute) the bench modules."""
    cases = []
    for path in sorted(BENCH_DIR.glob("bench_*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test_"):
                params = tuple(a.arg for a in node.args.args)
                cases.append(pytest.param(
                    path, node.name, params, id=f"{path.stem}::{node.name}",
                ))
    return cases


CASES = _discover()


def test_every_bench_module_is_covered():
    covered = {case.values[0].stem for case in CASES}
    on_disk = {p.stem for p in BENCH_DIR.glob("bench_*.py")}
    assert covered == on_disk and len(on_disk) >= 18
    assert ASSERT_TOLERANT <= on_disk, "tolerance list names unknown benches"


class StubBenchmark:
    """Drop-in for pytest-benchmark's fixture: run once, no statistics."""

    def __init__(self):
        self.extra_info = {}

    def __call__(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def pedantic(self, fn, args=(), kwargs=None, rounds=1, iterations=1,
                 warmup_rounds=0):
        return fn(*args, **(kwargs or {}))


_MODULE_CACHE = {}


def _load_scaled(path: Path):
    module = _MODULE_CACHE.get(path)
    if module is None:
        spec = importlib.util.spec_from_file_location(f"smoke_{path.stem}", path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
        for name, small in SCALE_DOWN.items():
            if hasattr(module, name) and getattr(module, name) > small:
                setattr(module, name, small)
        _MODULE_CACHE[path] = module
    return module


@pytest.fixture(scope="module")
def smoke_bwaves_trace():
    return get_benchmark("410.bwaves").trace(SMOKE_BWAVES_ACCESSES, seed=7)


@pytest.fixture(scope="module")
def smoke_nuca_machine():
    return NUCAMachine()


@pytest.fixture(scope="module")
def smoke_nuca_db(smoke_nuca_machine):
    profiles = [get_benchmark(name) for name in SELECTED_16]
    return profile_benchmarks(
        smoke_nuca_machine, profiles, n_mem=SMOKE_NUCA_ACCESSES, seed=3
    )


@pytest.mark.parametrize("path,name,params", CASES)
def test_bench_smoke(path, name, params, tmp_path,
                     smoke_bwaves_trace, smoke_nuca_machine, smoke_nuca_db):
    module = _load_scaled(path)
    fn = getattr(module, name)
    artifacts = {}

    def artifact(artifact_name, text):
        artifacts[artifact_name] = text
        (tmp_path / f"{artifact_name}.txt").write_text(text + "\n")

    available = {
        "benchmark": StubBenchmark(),
        "artifact": artifact,
        "bwaves_trace": smoke_bwaves_trace,
        "nuca_machine": smoke_nuca_machine,
        "nuca_db": smoke_nuca_db,
        "tmp_path": tmp_path,
    }
    missing = [p for p in params if p not in available]
    assert not missing, (
        f"{path.stem}.{name} wants fixtures {missing} the smoke harness "
        "does not provide; extend tests/benchmarks/test_smoke.py"
    )
    try:
        fn(**{p: available[p] for p in params})
    except AssertionError:
        if path.stem not in ASSERT_TOLERANT:
            raise
    # Whatever happened to the asserts, every artifact the bench produced
    # must be real rendered text (the pipeline itself worked end to end).
    for artifact_name, text in artifacts.items():
        assert text.strip(), f"empty artifact {artifact_name!r}"
