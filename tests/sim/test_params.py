"""Tests for MachineConfig identity and configuration errors."""

import copy
import dataclasses
import operator
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.errors import ConfigError
from repro.runtime.pool import EvaluationPool, Job, PoolConfig
from repro.sim.params import (
    DEFAULT_MACHINE,
    CacheGeometry,
    CoreParams,
    DRAMTiming,
    MachineConfig,
    table1_config,
)
from repro.sim.prefetch import BypassConfig, PrefetchConfig


class TestCacheKey:
    def test_name_does_not_affect_identity(self):
        a = table1_config("A")
        renamed = a.with_knobs(name="production")
        assert a.cache_key() == renamed.cache_key()

    def test_any_knob_change_changes_identity(self):
        a = table1_config("A")
        assert a.cache_key() != a.with_knobs(mshr_count=8).cache_key()
        assert a.cache_key() != a.with_knobs(l1_size_bytes=64 * 1024).cache_key()
        assert a.cache_key() != a.with_(l1_hit_time=4).cache_key()

    def test_table1_labels_are_all_distinct(self):
        keys = {table1_config(label).cache_key() for label in "ABCDE"}
        assert len(keys) == 5

    def test_stable_across_instances(self):
        assert table1_config("B").cache_key() == table1_config("B").cache_key()


class TestTable1Errors:
    def test_unknown_label_is_config_error(self):
        with pytest.raises(ConfigError):
            table1_config("Q")

    def test_lowercase_labels_accepted(self):
        assert table1_config("c").name == "C"

    def test_default_machine_has_key(self):
        assert isinstance(DEFAULT_MACHINE.cache_key(), str)


def _asdict_key(config: MachineConfig) -> str:
    """The key text as first defined: the sorted ``asdict`` items minus name."""
    fields = dataclasses.asdict(config)
    fields.pop("name")
    return repr(sorted(fields.items()))


def _pow2(lo: int, hi: int):
    return st.integers(lo, hi).map(lambda e: 1 << e)


@st.composite
def machine_configs(draw):
    """Valid configs over every field, prefetch, bypass and L3 included."""
    line = draw(_pow2(5, 7))

    def geometry():
        assoc = draw(st.sampled_from([1, 2, 4, 8, 16]))
        sets = draw(_pow2(0, 8))
        return CacheGeometry(line * assoc * sets, line_bytes=line, associativity=assoc)

    small = st.integers(1, 64)
    return MachineConfig(
        name=draw(st.text(max_size=8)),
        core=CoreParams(draw(small), draw(small), draw(small)),
        l1=geometry(),
        l2=geometry(),
        dram=DRAMTiming(draw(_pow2(0, 4)), draw(small), draw(st.integers(0, 64)),
                        draw(st.integers(0, 64)), draw(small),
                        draw(st.integers(0, 64)), draw(_pow2(6, 12))),
        l1_hit_time=draw(small),
        l2_hit_time=draw(small),
        l1_ports=draw(small),
        l1_pipelined=draw(st.booleans()),
        mshr_count=draw(small),
        l2_mshr_count=draw(small),
        l2_banks=draw(_pow2(0, 4)),
        l2_pipelined=draw(st.booleans()),
        l1_to_l2_delay=draw(st.integers(0, 8)),
        l2_to_mem_delay=draw(st.integers(0, 8)),
        prefetch=draw(st.none() | st.builds(
            PrefetchConfig, small, small, _pow2(6, 14), small, small, small)),
        l1_bypass=draw(st.none() | st.builds(BypassConfig, _pow2(6, 14), small, small)),
        l3=geometry() if draw(st.booleans()) else None,
        l3_hit_time=draw(small),
        l3_banks=draw(_pow2(0, 4)),
        l3_mshr_count=draw(small),
        l3_pipelined=draw(st.booleans()),
        l2_to_l3_delay=draw(st.integers(0, 8)),
    )


#: A config with every optional part present, so every leaf is reachable.
FULL = DEFAULT_MACHINE.with_(
    prefetch=PrefetchConfig(), l1_bypass=BypassConfig(),
    l3=CacheGeometry(1024 * 1024, associativity=16))


def _leaves(obj, path=()):
    """``(path, value)`` of every scalar field under the dataclass *obj*."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from _leaves(value, path + (f.name,))
        else:
            yield path + (f.name,), value


def _set_leaf(obj, path, value):
    """A copy of *obj* with the leaf at *path* set, bypassing validation."""
    out = copy.copy(obj)
    head, *rest = path
    object.__setattr__(
        out, head, _set_leaf(getattr(obj, head), rest, value) if rest else value)
    return out


def _other(value):
    return not value if isinstance(value, bool) else value + (
        "x" if isinstance(value, str) else 1)


class TestKeyText:
    @given(machine_configs())
    @settings(max_examples=150, deadline=None)
    def test_key_text_equals_asdict_form(self, config):
        assert config.cache_key() == _asdict_key(config)
        assert config.cache_key() == _asdict_key(config)  # memoized answer

    def test_every_leaf_field_moves_the_key(self):
        base = FULL.cache_key()
        leaves = [(path, value) for path, value in _leaves(FULL) if path != ("name",)]
        assert len(leaves) >= len(dataclasses.fields(MachineConfig)) + 20
        for path, value in leaves:
            changed = _set_leaf(FULL, path, _other(value))
            assert changed.cache_key() != base, path

    @pytest.mark.parametrize("field", ["prefetch", "l1_bypass", "l3"])
    def test_optional_part_moves_the_key(self, field):
        assert FULL.with_(**{field: None}).cache_key() != FULL.cache_key()

    def test_name_is_not_in_the_key(self):
        assert _set_leaf(FULL, ("name",), "other").cache_key() == FULL.cache_key()


class TestKeyMemo:
    """A memoized key is always the key of the instance's own fields."""

    @pytest.mark.parametrize("derive", [
        lambda c: c.with_(mshr_count=c.mshr_count * 2),
        lambda c: c.with_knobs(rob_size=c.core.rob_size + 1),
        lambda c: c.with_knobs(l1_size_bytes=c.l1.size_bytes * 2),
        lambda c: dataclasses.replace(c, l2_hit_time=c.l2_hit_time + 1),
        lambda c: dataclasses.replace(c, prefetch=PrefetchConfig(degree=4)),
    ])
    def test_derived_configs_key_their_own_fields(self, derive):
        base = FULL.cache_key()  # the memo is warm before deriving
        derived = derive(FULL)
        assert derived.cache_key() == _asdict_key(derived) != base

    @pytest.mark.parametrize("duplicate", [
        copy.copy, copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c)),
    ])
    def test_copies_do_not_carry_the_memo(self, duplicate):
        config = copy.copy(FULL)
        config.cache_key()
        same = duplicate(config)
        assert same == config and hash(same) == hash(config)
        assert same.cache_key() == config.cache_key()
        # Moving a field under a fresh copy (no validation, no new instance)
        # shows its key is computed from its own fields, not carried over.
        dup = duplicate(config)
        object.__setattr__(dup, "mshr_count", dup.mshr_count + 1)
        assert dup.cache_key() == _asdict_key(dup) != config.cache_key()

    def test_memo_is_invisible_to_dataclass_machinery(self):
        warm, cold = copy.copy(FULL), copy.copy(FULL)
        warm.cache_key()
        assert warm == cold and hash(warm) == hash(cold)
        assert repr(warm) == repr(cold)
        assert dataclasses.asdict(warm) == dataclasses.asdict(cold)
        assert dataclasses.replace(warm) == cold

    def test_spawned_worker_keys_its_own_fields(self):
        config = copy.copy(FULL)
        config.cache_key()
        # A stale memo in the parent must not reach the worker.
        object.__setattr__(config, "l2_banks", 8)
        job = Job(key="k", fn=operator.methodcaller("cache_key"), args=(config,))
        with EvaluationPool(PoolConfig(max_workers=1, start_method="spawn",
                                       timeout_s=120)) as pool:
            [result] = pool.run([job]).values()
        assert result.value == _asdict_key(config) != FULL.cache_key()
