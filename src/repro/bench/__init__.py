"""Benchmark harness: Table-2 workload definitions and the shared
model runner used by benchmarks/."""

from .workloads import (
    NAS_WORKLOADS,
    POISSON_WORKLOADS,
    SMALL_TILES,
    VARIANT_ORDER,
    Workload,
    cached_speedups,
    geomean,
    model_speedups,
    workload,
)

__all__ = [
    "NAS_WORKLOADS",
    "POISSON_WORKLOADS",
    "SMALL_TILES",
    "VARIANT_ORDER",
    "Workload",
    "cached_speedups",
    "geomean",
    "model_speedups",
    "workload",
]
