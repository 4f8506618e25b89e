"""Backends: the numpy tile interpreter and the C/OpenMP code emitter."""

from .buffers import DirectAllocator, MemoryPool, PoolStats
from .executor import CompiledPipeline, ExecutionStats
from .guards import ResidualMonitor, scan_nonfinite
from .kernels import KernelPlan, StageKernel, build_kernel_plan

__all__ = [
    "DirectAllocator",
    "MemoryPool",
    "PoolStats",
    "CompiledPipeline",
    "ExecutionStats",
    "KernelPlan",
    "StageKernel",
    "build_kernel_plan",
    "ResidualMonitor",
    "scan_nonfinite",
]
