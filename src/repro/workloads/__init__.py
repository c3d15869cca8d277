"""Synthetic SPEC-like workload generation (the SPEC CPU2006 substitute)."""

from repro.workloads.locality import (
    LocalityProfile,
    ReuseHistogram,
    profile_trace,
    reuse_histogram,
)
from repro.workloads.generators import (
    KernelSpec,
    MixtureResult,
    mixture_addresses,
    pointer_chase_addresses,
    strided_addresses,
    working_set_addresses,
    zipf_addresses,
)
from repro.workloads.micro import (
    MachineProfile,
    bandwidth_probe,
    characterize,
    latency_probe,
    mlp_probe,
)
from repro.workloads.phases import (
    Burst,
    IntervalDetector,
    bursty_trace,
    detection_rate,
    generate_bursts,
)
from repro.workloads.spec import (
    BENCHMARKS,
    SELECTED_16,
    BenchmarkProfile,
    benchmark_names,
    get_benchmark,
)
from repro.workloads.trace import Trace

__all__ = [
    "BENCHMARKS",
    "BenchmarkProfile",
    "Burst",
    "IntervalDetector",
    "KernelSpec",
    "LocalityProfile",
    "MachineProfile",
    "MixtureResult",
    "ReuseHistogram",
    "SELECTED_16",
    "Trace",
    "bandwidth_probe",
    "benchmark_names",
    "bursty_trace",
    "characterize",
    "detection_rate",
    "generate_bursts",
    "get_benchmark",
    "latency_probe",
    "mlp_probe",
    "mixture_addresses",
    "pointer_chase_addresses",
    "profile_trace",
    "reuse_histogram",
    "strided_addresses",
    "working_set_addresses",
    "zipf_addresses",
]
