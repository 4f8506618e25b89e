"""The PolyMG optimizing compiler driver (paper Figure 4).

``compile_pipeline`` runs the phase sequence of the paper's code
generator as an explicit **pass pipeline** (see
:mod:`repro.passes.manager`): a :class:`CompilationContext` threads the
evolving artifact set — DAG, grouping, schedule, storage plan, backend
object — through an ordered list of passes, each declaring what it
requires and produces:

1. ``build-dag``: polyhedral representation (DAG + access summaries),
2. ``grouping`` (*automerge*): greedy fusion under the grouping limit
   and overlap threshold,
3. ``scheduling``: total order of groups and of stages within groups,
4. overlapped-tile geometry is derived lazily from the access relations
   inside the groups (no standalone pass),
5. ``storage``: intra-group scratchpad reuse, inter-group full array
   reuse, pooled allocation plumbing,
6. ``backend``: the numpy interpreter
   (:class:`~repro.backend.executor.CompiledPipeline`); the C/OpenMP
   emitter consumes the same compiled object.

When ``PolyMgConfig.verify_level`` is not ``"off"``, the independent
verifiers (:mod:`repro.verify.invariants`) run as ordinary interleaved
passes: ``verify-schedule`` after scheduling, ``verify-storage`` after
the storage pass, ``verify-tiling`` after backend construction.

Every compile is instrumented: ``compiled.report`` is a
:class:`~repro.passes.manager.CompileReport` with per-pass wall times
and artifact summaries (``compiled.report.to_json()`` dumps it for the
bench harness).

Compiles are memoized in a content-addressed cache
(:mod:`repro.cache`): a second call with an identical (spec, params,
config) fingerprint skips all passes and returns a fresh executor over
the cached artifacts.  Pass ``cache=False`` to force a cold compile.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .backend.executor import CompiledPipeline
from .cache import cache_enabled, compile_cache, compile_fingerprint
from .config import PolyMgConfig
from .lang.function import Function
from .passes.manager import CompilationContext, PassManager, default_passes

__all__ = ["compile_pipeline"]


def compile_pipeline(
    outputs: Sequence[Function] | Function,
    params: Mapping[str, int],
    config: PolyMgConfig | None = None,
    name: str = "pipeline",
    *,
    cache: bool = True,
    snapshot_ir: bool = False,
) -> CompiledPipeline:
    """Compile a DSL pipeline into an executable schedule.

    Parameters
    ----------
    outputs:
        The live-out function(s) of the pipeline (e.g. the post-smoothed
        solution grid of a multigrid cycle).
    params:
        Bindings for every :class:`~repro.lang.parameters.Parameter`
        used in domain bounds (e.g. ``{"N": 4094}``).
    config:
        Optimization switches; defaults to the full ``polymg-opt+``
        configuration.
    cache:
        Route the compile through the content-addressed cache
        (:mod:`repro.cache`).  ``False`` forces a cold compile and
        leaves the cache untouched.
    snapshot_ir:
        Record a human-readable IR snapshot after each pass into the
        :class:`~repro.passes.manager.CompileReport`.  Snapshot
        compiles bypass the cache (they are debugging runs).
    """
    if isinstance(outputs, Function):
        outputs = [outputs]
    outputs = list(outputs)
    config = config or PolyMgConfig()

    use_cache = cache and cache_enabled() and not snapshot_ir
    key = compile_fingerprint(outputs, dict(params), config, name)
    if use_cache:
        hit = compile_cache().lookup(key)
        if hit is not None:
            return hit

    ctx = CompilationContext(
        outputs=tuple(outputs),
        params=dict(params),
        config=config,
        name=name,
    )
    manager = PassManager(default_passes(config), snapshot_ir=snapshot_ir)
    report = manager.run(ctx)
    report.fingerprint = key
    compiled: CompiledPipeline = ctx.compiled
    compiled.report = report
    # backend="native": start the out-of-process JIT build eagerly on a
    # daemon thread, *before* planning — the C emitter reads only what
    # the passes produced, so the toolchain overlaps kernel planning
    # (and then the first numpy-executed cycles), and a warm artifact
    # store resolves almost immediately
    compiled.start_native_build()
    # build the ahead-of-time kernel plan now so it is stored (and
    # served) alongside the compile artifacts: clones inherit the plan,
    # and invalidation rides the content address for free
    compiled.plan()
    if use_cache:
        compile_cache().store(key, compiled)
    return compiled
