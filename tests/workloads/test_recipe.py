"""Recipe-keyed traces: soundness of the recipe and lazy == eager.

``BenchmarkProfile.trace`` remembers, per process, the content digest of
every generated trace by its recipe, and serves a repeated recipe as a
trace that carries the digest and generates its arrays on first read.
The evaluation key stays the content digest, so a recipe that is too
narrow would hand one trace's cached results to another.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.workloads.spec as spec
from repro.runtime.evaluate import EvaluationRequest, EvaluationRuntime
from repro.runtime.pool import PoolConfig
from repro.sim.params import table1_config
from repro.workloads.generators import KernelSpec
from repro.workloads.spec import SELECTED_16, get_benchmark

FIELDS = ("is_mem", "address", "is_load", "depends")

#: Values for fields that are ``None`` on the shipped profiles.  A new
#: optional field fails :func:`_candidates` until it gets an entry here.
_OPTIONAL_VALUES = {"base": 1 << 20, "dependent": True}


def _candidates(name, value):
    if value is None:
        if name not in _OPTIONAL_VALUES:
            pytest.fail(f"no perturbation for the optional field {name!r}; "
                        "add one to _OPTIONAL_VALUES")
        return [_OPTIONAL_VALUES[name]]
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, int):
        return [value + 1, value * 2, value - 1]
    if isinstance(value, float):
        return [value / 2, value + 0.25, value - 0.25]
    if isinstance(value, str):
        return [value + "-perturbed", "working_set", "chase"]
    if isinstance(value, tuple):
        return [value[:-1], value + value[-1:]]
    pytest.fail(f"no perturbation for {name!r} of type {type(value).__name__}")


def _perturbed(obj):
    """One ``(field, obj with only that field changed)`` per field of *obj*."""
    out = []
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        for candidate in _candidates(f.name, value):
            if candidate == value:
                continue
            try:
                out.append((f.name, dataclasses.replace(obj, **{f.name: candidate})))
            except (TypeError, ValueError):
                continue
            break
        else:
            pytest.fail(f"no valid perturbation for {f.name!r} (value {value!r})")
    return out


def _profile_perturbations(profile):
    """Every single-field change of *profile* and of each of its kernels."""
    out = _perturbed(profile)
    for i, kernel in enumerate(profile.kernels):
        for name, changed in _perturbed(kernel):
            kernels = profile.kernels[:i] + (changed,) + profile.kernels[i + 1:]
            out.append((f"kernels[{i}].{name}", dataclasses.replace(profile, kernels=kernels)))
    return out


def _hashed(profile, n_mem, seed):
    """A trace generated now (its recipe is new) whose digest is recorded."""
    assert profile.recipe(n_mem, seed) not in spec._RECIPE_DIGESTS
    trace = profile.trace(n_mem, seed=seed)
    assert "is_mem" in vars(trace)
    trace.content_digest()
    return trace


class TestRecipeSoundness:
    def test_every_field_is_perturbed(self):
        profile = get_benchmark("410.bwaves")
        names = {name for name, _ in _profile_perturbations(profile)}
        kernel_fields = {f.name for f in dataclasses.fields(KernelSpec)}
        assert names == (
            {f.name for f in dataclasses.fields(profile)}
            | {f"kernels[{i}].{name}" for i in range(len(profile.kernels))
               for name in kernel_fields}
        )

    @given(st.sampled_from(sorted(spec.BENCHMARKS)),
           st.integers(min_value=1, max_value=10**7),
           st.integers(min_value=0, max_value=2**63))
    @settings(max_examples=25, deadline=None)
    def test_any_change_changes_the_recipe(self, name, n_mem, seed):
        profile = get_benchmark(name)
        recipe = profile.recipe(n_mem, seed)
        assert profile.recipe(n_mem + 1, seed) != recipe
        assert profile.recipe(n_mem, seed + 1) != recipe
        for path, changed in _profile_perturbations(profile):
            assert changed.recipe(n_mem, seed) != recipe, (
                f"the recipe ignores {path!r}: a trace generated with it would "
                "answer for another"
            )

    def test_equal_values_of_different_types_are_different_recipes(self):
        profile = get_benchmark("403.gcc")
        kernel = dataclasses.replace(profile.kernels[-1], stride_bytes=64.0)
        changed = dataclasses.replace(profile, kernels=profile.kernels[:-1] + (kernel,))
        assert changed == profile
        assert changed.recipe(500, 1) != profile.recipe(500, 1)


class TestLazyTraces:
    @pytest.mark.parametrize("name", SELECTED_16)
    def test_lazy_trace_equals_eager(self, name):
        profile = get_benchmark(name)
        eager = _hashed(profile, 1_500, seed=4_242)
        lazy = profile.trace(1_500, seed=4_242)
        assert not any(f in vars(lazy) for f in FIELDS)
        assert lazy.content_digest() == eager.content_digest()
        assert (lazy.name, lazy.metadata) == (eager.name, eager.metadata)
        for f in FIELDS:
            np.testing.assert_array_equal(getattr(lazy, f), getattr(eager, f), err_msg=f)
            assert getattr(lazy, f).dtype == getattr(eager, f).dtype
        assert lazy.n_instructions == eager.n_instructions

    def test_unhashed_traces_record_nothing(self):
        profile = get_benchmark("401.bzip2")
        before = dict(spec._RECIPE_DIGESTS)
        profile.trace(300, seed=4_243)
        assert spec._RECIPE_DIGESTS == before
        assert "is_mem" in vars(profile.trace(300, seed=4_243))

    def test_build_checks_the_digest(self, monkeypatch):
        profile = get_benchmark("429.mcf")
        _hashed(profile, 300, seed=4_244)
        monkeypatch.setitem(spec._RECIPE_DIGESTS, profile.recipe(300, 4_244), "0" * 64)
        lazy = profile.trace(300, seed=4_244)
        with pytest.raises(RuntimeError, match="recorded with 000000000000"):
            lazy.is_mem

    def test_the_map_is_bounded(self, monkeypatch):
        monkeypatch.setattr(spec, "_RECIPE_DIGESTS", type(spec._RECIPE_DIGESTS)())
        monkeypatch.setattr(spec, "RECIPE_MEMO_ENTRIES", 2)
        profile = get_benchmark("433.milc")
        for seed in (1, 2, 3):
            _hashed(profile, 200, seed)
        assert len(spec._RECIPE_DIGESTS) == 2
        assert "is_mem" in vars(profile.trace(200, seed=1))
        assert "is_mem" not in vars(profile.trace(200, seed=3))

    def test_unbuilt_trace_builds_in_a_spawned_worker(self):
        profile = get_benchmark("456.hmmer")
        eager = _hashed(profile, 400, seed=4_245)
        lazy = profile.trace(400, seed=4_245)
        requests = [EvaluationRequest(config=table1_config(label), trace=lazy)
                    for label in "AB"]
        with EvaluationRuntime(
            pool=PoolConfig(max_workers=1, start_method="spawn", timeout_s=120)
        ) as rt:
            pooled = [o.result().to_dict() for o in rt.evaluate(requests)]
        # The worker received the recipe, not the arrays, and built them.
        assert "is_mem" not in vars(lazy)
        inline = EvaluationRuntime().evaluate([
            EvaluationRequest(config=table1_config(label), trace=eager) for label in "AB"
        ])
        assert pooled == [o.result().to_dict() for o in inline]
