"""Per-rule positive/negative cases for every rule pack."""

from repro.lint.engine import lint_source

SIM = "src/repro/sim/mod.py"
CORE = "src/repro/core/mod.py"
RUNTIME = "src/repro/runtime/mod.py"
SCHED = "src/repro/sched/mod.py"
OBS = "src/repro/obs/mod.py"
SERVICE = "src/repro/service/mod.py"


def rules_hit(source, path, *rules):
    return sorted({v.rule for v in lint_source(source, path, rules=list(rules) or None)})


class TestDET001:
    def test_flags_stdlib_random(self):
        src = "import random\n\ndef f():\n    return random.gauss(0, 1)\n"
        assert rules_hit(src, SIM, "DET001") == ["DET001"]

    def test_flags_time_and_uuid(self):
        src = (
            "import time\nimport uuid\n\n"
            "def f():\n    return time.time(), uuid.uuid4()\n"
        )
        assert len(lint_source(src, CORE, rules=["DET001"])) == 2

    def test_flags_legacy_numpy_random(self):
        src = "import numpy as np\n\ndef f():\n    return np.random.rand(3)\n"
        assert rules_hit(src, SIM, "DET001") == ["DET001"]

    def test_flags_generator_built_outside_util_rng(self):
        src = (
            "import numpy as np\n\n"
            "def f(seed):\n"
            "    return np.random.default_rng(seed), np.random.Generator(None)\n"
        )
        out = lint_source(src, SIM, rules=["DET001"])
        assert len(out) == 2
        assert all("make_rng" in v.message for v in out)

    def test_allows_make_rng(self):
        src = (
            "from repro.util.rng import make_rng\n\n"
            "def f(seed):\n    return make_rng(seed)\n"
        )
        assert lint_source(src, SIM, rules=["DET001"]) == []

    def test_ignores_unimported_name_collisions(self):
        # A local object that happens to be called ``random`` is not the
        # stdlib module; without an import the chain must not resolve.
        src = "def f(random):\n    return random.random()\n"
        assert lint_source(src, SIM, rules=["DET001"]) == []

    def test_ignores_monotonic_timing(self):
        src = "import time\n\ndef f():\n    return time.perf_counter()\n"
        assert lint_source(src, SIM, rules=["DET001"]) == []


class TestDET002:
    def test_flags_for_over_set_literal(self):
        src = "def f():\n    for x in {1, 2}:\n        pass\n"
        assert rules_hit(src, SIM, "DET002") == ["DET002"]

    def test_flags_comprehension_over_set_call(self):
        src = "def f(xs):\n    return [x for x in set(xs)]\n"
        assert rules_hit(src, SIM, "DET002") == ["DET002"]

    def test_allows_sorted_set(self):
        src = "def f(xs):\n    return [x for x in sorted(set(xs))]\n"
        assert lint_source(src, SIM, rules=["DET002"]) == []


class TestNUM001:
    def test_flags_unguarded_model_division(self):
        src = "def f(cycles, accesses):\n    return cycles / accesses\n"
        assert rules_hit(src, CORE, "NUM001") == ["NUM001"]

    def test_ternary_guard_accepted(self):
        src = "def f(c, accesses):\n    return c / accesses if accesses else 0.0\n"
        assert lint_source(src, CORE, rules=["NUM001"]) == []

    def test_early_return_guard_accepted(self):
        src = (
            "def f(c, accesses):\n"
            "    if accesses == 0:\n        return 0.0\n"
            "    return c / accesses\n"
        )
        assert lint_source(src, CORE, rules=["NUM001"]) == []

    def test_validator_guard_accepted(self):
        src = (
            "from repro.util.validation import check_positive\n\n"
            "def f(c, cpi_exe):\n"
            "    check_positive('cpi_exe', cpi_exe)\n"
            "    return c / cpi_exe\n"
        )
        assert lint_source(src, CORE, rules=["NUM001"]) == []

    def test_check_int_minimum_guard_accepted(self):
        src = (
            "from repro.util.validation import check_int\n\n"
            "def f(c, n_accesses):\n"
            "    check_int('n_accesses', n_accesses, minimum=1)\n"
            "    return c / n_accesses\n"
        )
        assert lint_source(src, CORE, rules=["NUM001"]) == []

    def test_post_init_validation_covers_methods(self):
        src = (
            "from dataclasses import dataclass\n"
            "from repro.util.validation import check_positive\n\n"
            "@dataclass\nclass Model:\n"
            "    cpi_exe: float\n"
            "    stall: float\n\n"
            "    def __post_init__(self):\n"
            "        check_positive('cpi_exe', self.cpi_exe)\n\n"
            "    def fraction(self):\n"
            "        return self.stall / self.cpi_exe\n"
        )
        assert lint_source(src, CORE, rules=["NUM001"]) == []

    def test_unvalidated_self_field_flagged(self):
        src = (
            "class Model:\n"
            "    def fraction(self):\n"
            "        return self.stall / self.cpi_exe\n"
        )
        assert rules_hit(src, CORE, "NUM001") == ["NUM001"]

    def test_non_model_denominator_ignored(self):
        src = "def f(a, width):\n    return a / width\n"
        assert lint_source(src, CORE, rules=["NUM001"]) == []


class TestNUM002:
    def test_flags_nonzero_float_equality(self):
        src = "def f(x):\n    return x == 0.25\n"
        assert rules_hit(src, CORE, "NUM002") == ["NUM002"]

    def test_zero_sentinel_exempt(self):
        src = "def f(x):\n    return x == 0.0\n"
        assert lint_source(src, CORE, rules=["NUM002"]) == []

    def test_int_equality_ignored(self):
        src = "def f(x):\n    return x == 3\n"
        assert lint_source(src, CORE, rules=["NUM002"]) == []


class TestERR001:
    def test_flags_swallowing_broad_handler(self):
        src = (
            "def f(fn):\n"
            "    try:\n        return fn()\n"
            "    except Exception:\n        return None\n"
        )
        assert rules_hit(src, RUNTIME, "ERR001") == ["ERR001"]

    def test_bare_except_flagged(self):
        src = (
            "def f(fn):\n"
            "    try:\n        return fn()\n"
            "    except:\n        return None\n"
        )
        assert rules_hit(src, RUNTIME, "ERR001") == ["ERR001"]

    def test_reraise_is_allowed(self):
        src = (
            "def f(fn):\n"
            "    try:\n        return fn()\n"
            "    except Exception:\n        log()\n        raise\n"
        )
        assert lint_source(src, RUNTIME, rules=["ERR001"]) == []

    def test_taxonomy_first_then_broad_is_allowed(self):
        src = (
            "from repro.runtime.errors import ReproError\n\n"
            "def f(fn):\n"
            "    try:\n        return fn()\n"
            "    except ReproError:\n        raise\n"
            "    except Exception:\n        return None\n"
        )
        assert lint_source(src, RUNTIME, rules=["ERR001"]) == []

    def test_narrow_handler_is_fine(self):
        src = (
            "def f(fn):\n"
            "    try:\n        return fn()\n"
            "    except (OSError, KeyError):\n        return None\n"
        )
        assert lint_source(src, RUNTIME, rules=["ERR001"]) == []


class TestERR002:
    def test_flags_builtin_raise_in_runtime(self):
        src = "def f(x):\n    raise ValueError('bad')\n"
        assert rules_hit(src, RUNTIME, "ERR002") == ["ERR002"]

    def test_scoped_to_runtime_package(self):
        src = "def f(x):\n    raise ValueError('bad')\n"
        assert lint_source(src, CORE, rules=["ERR002"]) == []

    def test_taxonomy_raise_is_fine(self):
        src = (
            "from repro.runtime.errors import ConfigError\n\n"
            "def f(x):\n    raise ConfigError('bad')\n"
        )
        assert lint_source(src, RUNTIME, rules=["ERR002"]) == []


class TestCON003:
    def test_flags_bare_stream_read(self):
        src = (
            "async def handle(reader):\n"
            "    return await reader.readline()\n"
        )
        assert rules_hit(src, SERVICE, "CON003") == ["CON003"]

    def test_flags_queue_primitives(self):
        src = (
            "async def pump(queue, out):\n"
            "    item = await queue.get()\n"
            "    await out.put(item)\n"
            "    return item\n"
        )
        assert len(lint_source(src, SERVICE, rules=["CON003"])) == 2

    def test_join_and_wait_left_to_async_tier(self):
        # Rescoped in PR 7: the generic join/wait shapes belong to the
        # whole-program ASYNC001 analysis, not the per-file primitive rule.
        src = (
            "async def settle(queue, event):\n"
            "    await queue.join()\n"
            "    await event.wait()\n"
        )
        assert lint_source(src, SERVICE, rules=["CON003"]) == []

    def test_wait_for_wrapper_accepted(self):
        src = (
            "import asyncio\n\n"
            "async def handle(reader):\n"
            "    return await asyncio.wait_for(reader.readline(), timeout=5)\n"
        )
        assert lint_source(src, SERVICE, rules=["CON003"]) == []

    def test_timeout_kwarg_accepted(self):
        src = (
            "async def stop(scheduler):\n"
            "    await scheduler.drain(timeout_s=30.0)\n"
        )
        assert lint_source(src, SERVICE, rules=["CON003"]) == []

    def test_timeout_context_accepted(self):
        src = (
            "import asyncio\n\n"
            "async def handle(queue):\n"
            "    async with asyncio.timeout(2.0):\n"
            "        await queue.get()\n"
        )
        assert lint_source(src, SERVICE, rules=["CON003"]) == []

    def test_timeout_context_outside_coroutine_does_not_count(self):
        # The bounding block must enclose the await, not merely appear in
        # an outer function that defines the coroutine.
        src = (
            "import asyncio\n\n"
            "def make(queue):\n"
            "    async with asyncio.timeout(2.0):\n"
            "        async def inner():\n"
            "            await queue.get()\n"
        )
        assert rules_hit(src, SERVICE, "CON003") == ["CON003"]

    def test_non_blocking_awaits_ignored(self):
        src = (
            "import asyncio\n\n"
            "async def respond(self, line):\n"
            "    await asyncio.sleep(0.1)\n"
            "    return await self.handle(line)\n"
        )
        assert lint_source(src, SERVICE, rules=["CON003"]) == []

    def test_scoped_to_service_package(self):
        src = (
            "async def handle(reader):\n"
            "    return await reader.readline()\n"
        )
        assert lint_source(src, RUNTIME, rules=["CON003"]) == []


class TestOBS001:
    def test_flags_wall_clock_duration(self):
        src = "import time\n\ndef f():\n    return time.time()\n"
        assert rules_hit(src, OBS, "OBS001") == ["OBS001"]

    def test_flags_time_ns(self):
        src = "import time\n\ndef f():\n    return time.time_ns()\n"
        assert rules_hit(src, RUNTIME, "OBS001") == ["OBS001"]

    def test_from_import_alias_resolved(self):
        src = "from time import time as now\n\ndef f():\n    return now()\n"
        assert rules_hit(src, OBS, "OBS001") == ["OBS001"]

    def test_perf_counter_is_fine(self):
        src = "from time import perf_counter\n\ndef f():\n    return perf_counter()\n"
        assert lint_source(src, OBS, rules=["OBS001"]) == []

    def test_scoped_to_obs_and_runtime(self):
        src = "import time\n\ndef f():\n    return time.time()\n"
        assert lint_source(src, "src/repro/analysis/mod.py", rules=["OBS001"]) == []

    def test_noqa_suppresses_with_justification(self):
        src = (
            "import time\n\ndef f():\n"
            "    return time.time()  # repro: noqa[OBS001] -- epoch timestamp, not a duration\n"
        )
        assert lint_source(src, OBS, rules=["OBS001"]) == []


class TestOBS002:
    def test_flags_direct_print(self):
        src = "def f(x):\n    print(x)\n"
        assert rules_hit(src, OBS, "OBS002") == ["OBS002"]

    def test_flags_print_in_runtime(self):
        src = "def f(x):\n    print('done', x)\n"
        assert rules_hit(src, RUNTIME, "OBS002") == ["OBS002"]

    def test_scoped_outside_obs_runtime(self):
        src = "def f(x):\n    print(x)\n"
        assert lint_source(src, "src/repro/cli.py", rules=["OBS002"]) == []

    def test_method_named_print_is_fine(self):
        src = "def f(report):\n    report.print()\n"
        assert lint_source(src, OBS, rules=["OBS002"]) == []


class TestPERF001:
    def test_flags_span_in_loop(self):
        src = (
            "from repro.obs import trace as obs_trace\n\n"
            "def run(instrs):\n"
            "    for i in instrs:\n"
            "        with obs_trace.span('issue', op=i):\n"
            "            pass\n"
        )
        assert rules_hit(src, SIM, "PERF001") == ["PERF001"]

    def test_flags_from_imported_event_in_while(self):
        src = (
            "from repro.obs.trace import event\n\n"
            "def drain(q):\n"
            "    while q:\n"
            "        event('fill', block=q.pop())\n"
        )
        assert rules_hit(src, SIM, "PERF001") == ["PERF001"]

    def test_guard_in_loop_accepted(self):
        src = (
            "from repro.obs import tracing_enabled\n"
            "from repro.obs.trace import event\n\n"
            "def run(instrs):\n"
            "    for i in instrs:\n"
            "        if tracing_enabled():\n"
            "            event('issue', op=i)\n"
        )
        assert lint_source(src, SIM, rules=["PERF001"]) == []

    def test_hoisted_guard_accepted(self):
        src = (
            "from repro.obs import tracing_enabled\n"
            "from repro.obs.trace import event\n\n"
            "def run(instrs):\n"
            "    if tracing_enabled():\n"
            "        for i in instrs:\n"
            "            event('issue', op=i)\n"
        )
        assert lint_source(src, SIM, rules=["PERF001"]) == []

    def test_span_outside_loop_is_fine(self):
        src = (
            "from repro.obs import trace as obs_trace\n\n"
            "def run(instrs):\n"
            "    with obs_trace.span('run'):\n"
            "        for i in instrs:\n"
            "            pass\n"
        )
        assert lint_source(src, SIM, rules=["PERF001"]) == []

    def test_unrelated_span_name_ignored(self):
        # A local helper named span that is not from repro.obs must not fire.
        src = (
            "def run(instrs, span):\n"
            "    for i in instrs:\n"
            "        span(i)\n"
        )
        assert lint_source(src, SIM, rules=["PERF001"]) == []

    def test_scoped_to_sim_core_and_analysis(self):
        src = (
            "from repro.obs.trace import event\n\n"
            "def run(instrs):\n"
            "    for i in instrs:\n"
            "        event('issue')\n"
        )
        assert lint_source(src, RUNTIME, rules=["PERF001"]) == []
        # analysis is a hot package too: predict_many runs per-config.
        analysis = "src/repro/analysis/surrogate/mod.py"
        assert rules_hit(src, analysis, "PERF001") == ["PERF001"]


class TestCTR001:
    def test_flags_undeclared_producer(self):
        src = (
            "def measure(x):\n"
            "    return LayerMeasurement(accesses=x)\n"
        )
        assert rules_hit(src, CORE, "CTR001") == ["CTR001"]

    def test_satisfies_decorator_accepted(self):
        src = (
            "from repro.lint.contracts import satisfies\n\n"
            "@satisfies('finite_layer')\n"
            "def measure(x):\n"
            "    return LayerMeasurement(accesses=x)\n"
        )
        assert lint_source(src, CORE, rules=["CTR001"]) == []

    def test_from_dict_exempt(self):
        src = (
            "class LayerMeasurement:\n"
            "    @classmethod\n"
            "    def from_dict(cls, data):\n"
            "        return LayerMeasurement(**data)\n"
        )
        assert lint_source(src, CORE, rules=["CTR001"]) == []

    def test_one_violation_per_function(self):
        src = (
            "def measure(x):\n"
            "    if x:\n"
            "        return LayerMeasurement(accesses=1)\n"
            "    return LayerMeasurement(accesses=0)\n"
        )
        assert len(lint_source(src, CORE, rules=["CTR001"])) == 1
