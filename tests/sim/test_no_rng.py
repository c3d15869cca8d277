"""``repro.sim`` builds and draws from no random generator.

Every simulated result is a function of the config and the trace alone, so
the simulator ``seed`` must change nothing.  The evaluation key may only
drop the seed if that stays true, so it is held mechanically: statically
(no ``repro.sim`` module imports a generator factory or touches
``numpy.random``) and behaviourally (runs with every generator factory
patched to raise give equal results for two seeds).
"""

import ast
import hashlib
from pathlib import Path

import numpy as np
import pytest

import repro.sim
import repro.util.rng
from repro.sim import DEFAULT_MACHINE
from repro.sim.multicore import MulticoreSimulator
from repro.sim.params import CacheGeometry
from repro.sim.prefetch import BypassConfig, PrefetchConfig
from repro.sim.stats import (
    BATCH_MIN_LANES,
    dispatch_plan,
    simulate_and_measure,
    simulate_and_measure_batch,
)
from repro.workloads.spec import get_benchmark
from tests.sim.test_engine_oracle import result_digest

SIM_DIR = Path(repro.sim.__file__).parent

SEEDS = (0, 12345)


def _generator_uses(source: str) -> "list[str]":
    """Imports of ``make_rng``/``repro.util.rng``/``numpy.random`` and
    ``np.random``/``numpy.random`` attribute reads in *source*."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names
                      if a.name in ("repro.util.rng", "numpy.random", "random")]
        elif isinstance(node, ast.ImportFrom):
            names = [a.name for a in node.names]
            if node.module in ("repro.util.rng", "numpy.random", "random"):
                found.append(f"from {node.module} import {', '.join(names)}")
            elif node.module in ("repro.util", "numpy") and (
                {"rng", "random"} & set(names)
            ):
                found.append(f"from {node.module} import {', '.join(names)}")
        elif (isinstance(node, ast.Attribute) and node.attr == "random"
              and isinstance(node.value, ast.Name)
              and node.value.id in ("np", "numpy")):
            found.append(f"{node.value.id}.random")
    return found


def test_no_sim_module_imports_a_generator():
    modules = sorted(SIM_DIR.glob("*.py"))
    assert len(modules) > 5
    offenders = {
        path.name: uses for path in modules
        if (uses := _generator_uses(path.read_text()))
    }
    assert offenders == {}


def test_the_scan_sees_each_way_in():
    for source in (
        "from repro.util.rng import make_rng",
        "import numpy.random",
        "from numpy.random import default_rng",
        "from numpy import random",
        "import numpy as np\nx = np.random.default_rng(0)",
        "import random",
    ):
        assert _generator_uses(source), source
    assert not _generator_uses("import numpy as np\nx = np.zeros(3)")


@pytest.fixture
def no_generators(monkeypatch):
    """Make every generator factory raise for the rest of the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("a random generator was built")

    monkeypatch.setattr(repro.util.rng, "make_rng", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)


@pytest.fixture(scope="module")
def trace():
    return get_benchmark("403.gcc").trace(2_000, seed=1)


SINGLE_CONFIGS = [
    DEFAULT_MACHINE,
    DEFAULT_MACHINE.with_(prefetch=PrefetchConfig(degree=4, distance=2), name="prefetch"),
    DEFAULT_MACHINE.with_(l1_bypass=BypassConfig(), name="bypass"),
    DEFAULT_MACHINE.with_(
        prefetch=PrefetchConfig(degree=2, max_outstanding=4),
        l3=CacheGeometry(1024 * 1024, associativity=16),
        name="prefetch+l3",
    ),
]


@pytest.mark.parametrize("config", SINGLE_CONFIGS, ids=lambda c: c.name)
def test_simulate_and_measure_ignores_the_seed(trace, no_generators, config):
    stats = [simulate_and_measure(config, trace, seed=seed)[1].to_dict()
             for seed in SEEDS]
    assert stats[0] == stats[1]


def test_kernel_call_ignores_the_seed(trace, no_generators):
    configs = [
        DEFAULT_MACHINE.with_knobs(issue_width=w, rob_size=rob, name=f"w{w}-rob{rob}")
        for w in (2, 4, 8) for rob in (16, 32, 64, 128, 256, 512)
    ][:BATCH_MIN_LANES]
    assert len(dispatch_plan(configs).kernel) == BATCH_MIN_LANES
    runs = [
        [(result_digest(res), stats.to_dict())
         for res, stats in simulate_and_measure_batch(configs, trace, seed=seed)]
        for seed in SEEDS
    ]
    assert runs[0] == runs[1]


def test_multicore_ignores_the_seed(trace, no_generators):
    configs = [DEFAULT_MACHINE, SINGLE_CONFIGS[1]]
    traces = [trace, trace.slice(0, 1_500)]

    def run(seed):
        out = MulticoreSimulator(configs, quantum=400, seed=seed).run(traces)
        h = hashlib.sha256()
        for res in out.core_results:
            h.update(result_digest(res).encode())
        return h.hexdigest(), [s.to_dict() for s in out.core_stats]

    assert run(SEEDS[0]) == run(SEEDS[1])
