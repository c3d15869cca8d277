"""Committed digests of the reference issue loop's results.

The equivalence matrix (``test_engine_equivalence.py``) holds the fast and
batch loops to the reference loop, but it cannot see a change in code all
loops share: the stride prefetcher, the stream-bypass detector, the L3 walk
or the DRAM model.  This suite pins the reference loop itself.  Every case
runs ``engine="reference"`` over the workload-generator matrix, warm and
cold, on the plain default machine (the config the batch kernel and every
end-to-end workload run) and prefetch, bypass and L3 configs, plus cold perfect-L1 runs of the default machine.  It hashes every
:class:`SimulationResult` field (all record columns with their dtypes, the
component statistics, the config key, the trace name and the executed
count).  The digests live in ``tests/golden/engine_oracle.json``.

A deliberate timing change rewrites them with::

    PYTHONPATH=src python -m pytest tests/sim/test_engine_oracle.py --update-goldens

and the new digests are reviewed in the diff like any other code.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.sim import DEFAULT_MACHINE, HierarchySimulator
from repro.sim.params import CacheGeometry
from repro.sim.prefetch import BypassConfig, PrefetchConfig
from tests.sim.test_engine_equivalence import _make_trace

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "engine_oracle.json"

KINDS = ("strided", "working_set", "zipf", "pointer_chase")

#: One config per shared unit the digests must pin, alone and combined.
ORACLE_CONFIGS = [
    DEFAULT_MACHINE,
    DEFAULT_MACHINE.with_(prefetch=PrefetchConfig(degree=4, distance=2),
                          name="prefetch"),
    DEFAULT_MACHINE.with_(l1_bypass=BypassConfig(), name="bypass"),
    DEFAULT_MACHINE.with_(prefetch=PrefetchConfig(),
                          l1_bypass=BypassConfig(confirm_after=2),
                          name="prefetch+bypass"),
    DEFAULT_MACHINE.with_(
        prefetch=PrefetchConfig(degree=2, max_outstanding=4),
        l3=CacheGeometry(1024 * 1024, associativity=16),
        name="prefetch+l3",
    ),
]

CASES = [
    (config, kind, warm, False)
    for config in ORACLE_CONFIGS for kind in KINDS for warm in (False, True)
] + [(DEFAULT_MACHINE, kind, False, True) for kind in KINDS]


def _case_id(config, kind, warm, perfect) -> str:
    case = f"{config.name}|{kind}|{'warm' if warm else 'cold'}"
    return case + "|perfect" if perfect else case


def result_digest(result) -> str:
    """SHA-256 over every :class:`SimulationResult` field."""
    h = hashlib.sha256()
    for rec_name in ("accesses", "instructions"):
        rec = getattr(result, rec_name)
        for f in dataclasses.fields(rec):
            column = np.ascontiguousarray(getattr(rec, f.name))
            h.update(f"{rec_name}.{f.name}:{column.dtype.str}:{column.shape}".encode())
            h.update(column.tobytes())
    h.update(repr(sorted(result.component_stats.items())).encode())
    h.update(repr((result.config.cache_key(), result.trace_name,
                   result.instructions_executed)).encode())
    return h.hexdigest()


def _reference_digest(config, kind, warm, perfect) -> str:
    trace = _make_trace(kind)
    sim = HierarchySimulator(config, seed=0, engine="reference")
    if warm:
        sim.run(trace)
    return result_digest(sim.run(trace, perfect=perfect))


@pytest.fixture(scope="module")
def golden(request):
    if request.config.getoption("--update-goldens"):
        digests = {_case_id(*case): _reference_digest(*case) for case in CASES}
        GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return json.loads(GOLDEN.read_text())


def test_golden_covers_exactly_the_cases(golden):
    assert sorted(golden) == sorted(_case_id(*case) for case in CASES)


@pytest.mark.parametrize("config,kind,warm,perfect", CASES,
                         ids=[_case_id(*case) for case in CASES])
def test_reference_loop_matches_committed_digest(golden, config, kind, warm, perfect):
    case = (config, kind, warm, perfect)
    assert _reference_digest(*case) == golden[_case_id(*case)]
