"""Synthetic workload generators.

Substitutes for the production traces the motivating systems were
evaluated on (Facebook's read-dominated workloads etc.): seeded,
Zipfian-skewed transaction mixes with configurable read ratio and
transaction sizes.
"""

from repro.workloads.zipf import ZipfGenerator
from repro.workloads.generators import (
    WorkloadSpec,
    WorkloadGenerator,
    generate_workload,
    run_workload,
    READ_HEAVY,
    WRITE_HEAVY,
    BALANCED,
    TABLE1_SPEC,
    DEFAULT_FAST_SPEC,
)

__all__ = [
    "ZipfGenerator",
    "WorkloadSpec",
    "WorkloadGenerator",
    "generate_workload",
    "run_workload",
    "READ_HEAVY",
    "WRITE_HEAVY",
    "BALANCED",
    "TABLE1_SPEC",
    "DEFAULT_FAST_SPEC",
]
