"""Kernel-plan layer tests (PR 4).

Planned execution must be bitwise identical to the tree-walking
interpreter; plans must invalidate with the compile fingerprint (tile
shapes, bindings); the persistent worker pool must be reused across
cycles and shut down cleanly; and the per-thread execution arenas must
be accounted and bounded by ``temp_arena_limit``.
"""

import numpy as np
import pytest

from repro.backend.registry import PLANNED
from repro.cache import compile_cache
from repro.compiler import compile_pipeline
from repro.config import PolyMgConfig
from repro.multigrid import MultigridOptions, build_poisson_cycle
from repro.variants import polymg_opt_plus

SMALL_TILES = {1: (8,), 2: (8, 16), 3: (4, 4, 8)}


def _cycle_pipe(ndim=2, n=32):
    opts = MultigridOptions(cycle="V", n1=2, n2=2, n3=2, levels=3)
    return build_poisson_cycle(ndim, n, opts)


def _inputs(pipe, ndim, n, seed=3):
    rng = np.random.default_rng(seed)
    shape = (n + 2,) * ndim
    return pipe.make_inputs(
        rng.standard_normal(shape), rng.standard_normal(shape)
    )


@pytest.mark.parametrize("ndim,n", [(1, 64), (2, 32), (3, 16)])
@pytest.mark.parametrize("threads", [1, 4])
def test_planned_matches_unplanned_on_cycles(ndim, n, threads):
    pipe = _cycle_pipe(ndim, n)
    inputs = _inputs(pipe, ndim, n)
    outs = {}
    for planned in (False, True):
        cfg = polymg_opt_plus(
            tile_sizes=dict(SMALL_TILES),
            num_threads=threads,
            kernel_plan=planned,
        )
        compiled = compile_pipeline(
            pipe.output, pipe.params, cfg, name=pipe.name, cache=False
        )
        if planned:
            assert compiled._kernel_plan is not None
        else:
            assert compiled._kernel_plan is None
        outs[planned] = compiled.execute(dict(inputs))[pipe.output.name]
        compiled.close()
    assert np.array_equal(outs[False], outs[True])


def test_plan_built_eagerly_and_timed():
    pipe = _cycle_pipe()
    cfg = polymg_opt_plus(tile_sizes=dict(SMALL_TILES))
    compiled = compile_pipeline(
        pipe.output, pipe.params, cfg, name=pipe.name, cache=False
    )
    # compile_pipeline plans eagerly, records timing on stats + report
    assert compiled._kernel_plan is not None
    assert compiled.stats.tier(PLANNED.name).plan_time_s > 0.0
    assert compiled.report.plan_time_s > 0.0
    assert compiled.report.to_dict()["plan_time_s"] > 0.0
    # plan() is idempotent: a second call neither rebuilds nor re-times
    before = compiled.stats.tier(PLANNED.name).plan_time_s
    assert compiled.plan() is compiled._kernel_plan
    assert compiled.stats.tier(PLANNED.name).plan_time_s == before


def test_plan_invalidates_with_tile_shape_and_bindings():
    pipe = _cycle_pipe(2, 32)
    base = polymg_opt_plus(tile_sizes=dict(SMALL_TILES))
    a = compile_pipeline(
        pipe.output, pipe.params, base, name=pipe.name, cache=False
    )
    # different tile shape -> different fingerprint -> fresh plan with
    # different tiling geometry
    b = compile_pipeline(
        pipe.output, pipe.params,
        base.with_(tile_sizes={1: (8,), 2: (16, 32), 3: (4, 4, 8)}),
        name=pipe.name, cache=False,
    )
    assert a._kernel_plan is not b._kernel_plan

    def tile_counts(plan):
        return sorted(
            len(gp.tile_plan.tiles)
            for gp in plan.groups.values()
            if gp.tiled
        )

    assert tile_counts(a._kernel_plan) != tile_counts(b._kernel_plan)

    # different bindings -> plan geometry follows the bound parameters
    big = _cycle_pipe(2, 64)
    c = compile_pipeline(
        big.output, big.params, base, name=big.name, cache=False
    )
    assert tile_counts(c._kernel_plan) != tile_counts(a._kernel_plan)


def test_plan_shared_through_compile_cache():
    pipe = _cycle_pipe(2, 32)
    cfg = polymg_opt_plus(tile_sizes=dict(SMALL_TILES))
    compile_cache().clear()
    first = compile_pipeline(pipe.output, pipe.params, cfg, name=pipe.name)
    clone = compile_pipeline(pipe.output, pipe.params, cfg, name=pipe.name)
    assert clone is not first
    # the clone inherits the immutable plan instead of re-lowering
    assert clone._kernel_plan is first._kernel_plan
    assert clone.stats.tier(PLANNED.name).cache_hits == 1
    assert first.stats.tier(PLANNED.name).cache_hits == 0
    # a config change busts the content address, hence the plan
    other = compile_pipeline(
        pipe.output, pipe.params,
        cfg.with_(tile_sizes={1: (8,), 2: (16, 32), 3: (4, 4, 8)}),
        name=pipe.name,
    )
    assert other._kernel_plan is not first._kernel_plan
    assert other.stats.tier(PLANNED.name).cache_hits == 0


def test_persistent_pool_reuse_and_shutdown():
    pipe = _cycle_pipe(2, 32)
    cfg = polymg_opt_plus(tile_sizes=dict(SMALL_TILES), num_threads=4)
    compiled = compile_pipeline(
        pipe.output, pipe.params, cfg, name=pipe.name, cache=False
    )
    inputs = _inputs(pipe, 2, 32)
    compiled.execute(dict(inputs))
    pool = compiled._pool
    assert pool is not None
    first_reuse = compiled.stats.pool_reuse_count
    compiled.execute(dict(inputs))
    # the same pool instance served the second cycle
    assert compiled._pool is pool
    assert compiled.stats.pool_reuse_count > first_reuse
    # close() shuts the pool down and is idempotent; the pipeline
    # stays usable and lazily recreates the pool
    compiled.close()
    assert compiled._pool is None
    compiled.close()
    compiled.execute(dict(inputs))
    assert compiled._pool is not None
    compiled.close()


def test_pipeline_context_manager_closes_pool():
    pipe = _cycle_pipe(2, 32)
    cfg = polymg_opt_plus(tile_sizes=dict(SMALL_TILES), num_threads=2)
    inputs = _inputs(pipe, 2, 32)
    with compile_pipeline(
        pipe.output, pipe.params, cfg, name=pipe.name, cache=False
    ) as compiled:
        compiled.execute(dict(inputs))
        assert compiled._pool is not None
    assert compiled._pool is None


def test_temp_arena_peak_accounting():
    pipe = _cycle_pipe(2, 32)
    cfg = polymg_opt_plus(tile_sizes=dict(SMALL_TILES))
    compiled = compile_pipeline(
        pipe.output, pipe.params, cfg, name=pipe.name, cache=False
    )
    assert compiled.stats.temp_bytes_peak == 0
    compiled.execute(dict(_inputs(pipe, 2, 32)))
    plan = compiled._kernel_plan
    bound = plan.arena_bytes() + plan.scratch_bytes()
    # single-threaded: one workspace, lazily filled, bounded by the
    # plan-time sizing
    assert 0 < compiled.stats.temp_bytes_peak <= bound
    # steady state allocates nothing new
    peak = compiled.stats.temp_bytes_peak
    compiled.execute(dict(_inputs(pipe, 2, 32)))
    assert compiled.stats.temp_bytes_peak == peak
    compiled.close()


def test_temp_arena_limit_forces_fallback():
    pipe = _cycle_pipe(2, 32)
    inputs = _inputs(pipe, 2, 32)
    cfg = polymg_opt_plus(tile_sizes=dict(SMALL_TILES))
    planned = compile_pipeline(
        pipe.output, pipe.params, cfg, name=pipe.name, cache=False
    )
    limited = compile_pipeline(
        pipe.output, pipe.params, cfg.with_(temp_arena_limit=1),
        name=pipe.name, cache=False,
    )
    # a 1-byte arena cap is unsatisfiable: plan abandoned, interpreter
    # fallback still produces identical results
    assert limited._kernel_plan is None
    a = planned.execute(dict(inputs))[pipe.output.name]
    b = limited.execute(dict(inputs))[pipe.output.name]
    assert np.array_equal(a, b)
    planned.close()


def test_fault_injector_uses_unplanned_path():
    pipe = _cycle_pipe(2, 32)
    cfg = polymg_opt_plus(tile_sizes=dict(SMALL_TILES))
    compiled = compile_pipeline(
        pipe.output, pipe.params, cfg, name=pipe.name, cache=False
    )
    assert compiled._kernel_plan is not None
    seen = []
    compiled.fault_injector = lambda stage, out: seen.append(stage.name)
    compiled.execute(dict(_inputs(pipe, 2, 32)))
    # the per-stage hook fired, proving the planned path was bypassed
    assert seen


def test_plan_disabled_by_config():
    pipe = _cycle_pipe(2, 32)
    cfg = PolyMgConfig(
        tile_sizes=dict(SMALL_TILES), kernel_plan=False
    )
    compiled = compile_pipeline(
        pipe.output, pipe.params, cfg, name=pipe.name, cache=False
    )
    assert compiled._kernel_plan is None
    assert compiled.plan() is None
