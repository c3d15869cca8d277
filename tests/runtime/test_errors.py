"""Tests for the exception taxonomy and where the library raises it."""

import pytest

from repro.runtime.errors import (
    ConfigError,
    EvaluationTimeout,
    MeasurementError,
    ReproError,
    WorkerCrashed,
    is_retryable,
)


class TestTaxonomy:
    def test_all_rooted_at_repro_error(self):
        for exc in (ConfigError, MeasurementError, EvaluationTimeout, WorkerCrashed):
            assert issubclass(exc, ReproError)

    def test_config_error_is_value_error(self):
        # Back-compat: callers catching ValueError keep working.
        assert issubclass(ConfigError, ValueError)

    def test_timeout_is_timeout_error(self):
        assert issubclass(EvaluationTimeout, TimeoutError)

    def test_measurement_and_crash_are_runtime_errors(self):
        assert issubclass(MeasurementError, RuntimeError)
        assert issubclass(WorkerCrashed, RuntimeError)

    def test_repro_error_catches_everything(self):
        with pytest.raises(ReproError):
            raise ConfigError("x")
        with pytest.raises(ReproError):
            raise EvaluationTimeout("x")


class TestRetryability:
    def test_transient_failures_are_retryable(self):
        for exc in (MeasurementError("x"), EvaluationTimeout("x"), WorkerCrashed("x")):
            assert is_retryable(exc)

    def test_deterministic_rejections_are_not(self):
        assert not is_retryable(ConfigError("bad knob"))

    def test_contract_violation_is_not_retryable(self):
        from repro.lint.contracts import ContractViolation

        # A broken identity rebreaks on every retry; the flag must override
        # the MeasurementError default it inherits from.
        assert issubclass(ContractViolation, MeasurementError)
        assert not is_retryable(ContractViolation("Eq. 2 broken"))

    def test_unknown_errors_get_benefit_of_the_doubt(self):
        assert is_retryable(OSError("flaky disk"))
        assert is_retryable(ValueError("who knows"))


class TestRaiseSites:
    def test_unknown_table1_label(self):
        from repro.sim.params import table1_config

        with pytest.raises(ConfigError, match="A..E"):
            table1_config("Z")
        with pytest.raises(ValueError):  # old contract still honoured
            table1_config("Z")

    def test_reconfigure_geometry_change(self):
        from repro.sim.engine import HierarchySimulator
        from repro.sim.params import DEFAULT_MACHINE, CacheGeometry, DRAMTiming
        from repro.sim.prefetch import BypassConfig, PrefetchConfig

        sim = HierarchySimulator(DEFAULT_MACHINE)
        with pytest.raises(ConfigError):
            sim.reconfigure(DEFAULT_MACHINE.with_knobs(l1_size_bytes=64 * 1024))
        # Units that reset() builds once cannot be switched on, off or
        # retimed at an interval boundary: the change would be ignored.
        for changed in (
            DEFAULT_MACHINE.with_(prefetch=PrefetchConfig()),
            DEFAULT_MACHINE.with_(l1_bypass=BypassConfig()),
            DEFAULT_MACHINE.with_(l3=CacheGeometry(1024 * 1024, associativity=16)),
            DEFAULT_MACHINE.with_(dram=DRAMTiming(n_banks=4)),
        ):
            with pytest.raises(ConfigError):
                sim.reconfigure(changed)
            assert sim.config is DEFAULT_MACHINE
            assert sim.prefetcher is None and sim.bypass is None

    def test_design_space_off_ladder_point(self):
        from repro.reconfig.space import DesignPoint, DesignSpace

        space = DesignSpace()
        bad = DesignPoint(issue_width=3, iw_size=16, rob_size=16,
                          l1_ports=1, mshr_count=2, l2_banks=2)
        with pytest.raises(ConfigError):
            space.validate(bad)

    def test_design_space_bad_ladder(self):
        from repro.reconfig.space import DEFAULT_LADDERS, DesignSpace

        ladders = dict(DEFAULT_LADDERS)
        ladders["issue_width"] = (4, 2)
        with pytest.raises(ConfigError, match="ascending"):
            DesignSpace(ladders=ladders)
