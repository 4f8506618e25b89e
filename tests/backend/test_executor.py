"""Integration tests: compiled pipelines vs the reference solver.

The central correctness property of the whole compiler: every variant
(naive / opt / opt+ / dtile-opt+) executes any multigrid cycle to
*bit-identical* results, which also equal the independent reference
solver's output.
"""

import numpy as np
import pytest

from repro.multigrid import (
    MultigridOptions,
    build_poisson_cycle,
    reference_cycle,
)
from repro.variants import (
    polymg_dtile_opt_plus,
    polymg_naive,
    polymg_opt,
    polymg_opt_plus,
)
from tests.conftest import make_rhs

SMALL_TILES = {1: (8,), 2: (8, 16), 3: (4, 4, 8)}


def run_cycle(pipe, cfg, v, f):
    compiled = pipe.compile(cfg)
    return compiled.execute(pipe.make_inputs(v, f))[pipe.output.name], compiled


CASES = [
    (2, 32, 4, "V", (4, 4, 4)),
    (2, 32, 4, "V", (10, 0, 0)),
    (2, 32, 4, "W", (4, 4, 4)),
    (2, 32, 4, "W", (10, 0, 0)),
    (3, 16, 3, "V", (4, 4, 4)),
    (3, 16, 3, "W", (3, 0, 0)),
]


@pytest.mark.parametrize("ndim,n,levels,cycle,smoothing", CASES)
def test_all_variants_match_reference(rng, ndim, n, levels, cycle, smoothing):
    opts = MultigridOptions(
        cycle=cycle,
        n1=smoothing[0],
        n2=smoothing[1],
        n3=smoothing[2],
        levels=levels,
    )
    f = make_rhs(rng, ndim, n)
    v = np.zeros_like(f)
    ref = reference_cycle(v, f, 1.0 / (n + 1), opts)
    pipe = build_poisson_cycle(ndim, n, opts)
    for factory in (
        polymg_naive,
        polymg_opt,
        polymg_opt_plus,
        polymg_dtile_opt_plus,
    ):
        cfg = factory(tile_sizes=SMALL_TILES)
        out, _ = run_cycle(pipe, cfg, v, f)
        assert np.array_equal(out, ref), factory.__name__


def test_repeated_cycles_converge(rng):
    opts = MultigridOptions(cycle="V", n1=4, n2=4, n3=4, levels=4)
    n = 32
    f = make_rhs(rng, 2, n)
    pipe = build_poisson_cycle(2, n, opts)
    compiled = pipe.compile(polymg_opt_plus(tile_sizes=SMALL_TILES))
    from repro.multigrid.kernels import norm_residual

    u = np.zeros_like(f)
    h = 1.0 / (n + 1)
    norms = [norm_residual(u, f, h)]
    for _ in range(6):
        u = compiled.execute(pipe.make_inputs(u, f))[pipe.output.name]
        norms.append(norm_residual(u, f, h))
    # V(4,4) with a 4-sweep coarsest solve: cycle factor well below 0.5
    assert norms[-1] < 1e-3 * norms[0]
    factors = [b / a for a, b in zip(norms, norms[1:])]
    assert max(factors) < 0.65


def test_pool_reused_across_cycles(rng):
    opts = MultigridOptions(cycle="V", n1=2, n2=2, n3=2, levels=3)
    n = 16
    f = make_rhs(rng, 2, n)
    pipe = build_poisson_cycle(2, n, opts)
    compiled = pipe.compile(polymg_opt_plus(tile_sizes=SMALL_TILES))
    inputs = pipe.make_inputs(np.zeros_like(f), f)
    compiled.execute(inputs)
    fresh_after_first = compiled.allocator.stats.fresh_allocations
    compiled.execute(inputs)
    compiled.execute(inputs)
    assert compiled.allocator.stats.fresh_allocations == fresh_after_first
    assert compiled.allocator.stats.pool_hits > 0


def test_opt_allocates_every_cycle(rng):
    opts = MultigridOptions(cycle="V", n1=2, n2=2, n3=2, levels=3)
    n = 16
    f = make_rhs(rng, 2, n)
    pipe = build_poisson_cycle(2, n, opts)
    compiled = pipe.compile(polymg_opt(tile_sizes=SMALL_TILES))
    inputs = pipe.make_inputs(np.zeros_like(f), f)
    compiled.execute(inputs)
    first = compiled.allocator.stats.fresh_allocations
    compiled.execute(inputs)
    assert compiled.allocator.stats.fresh_allocations == 2 * first


def test_redundancy_reported(rng):
    opts = MultigridOptions(cycle="V", n1=4, n2=2, n3=4, levels=3)
    n = 32
    f = make_rhs(rng, 2, n)
    pipe = build_poisson_cycle(2, n, opts)
    compiled = pipe.compile(polymg_opt_plus(tile_sizes={2: (8, 8)}))
    compiled.execute(pipe.make_inputs(np.zeros_like(f), f))
    # overlapped tiling computes redundant points
    assert compiled.stats.redundancy() > 0.0
    naive = pipe.compile(polymg_naive())
    naive.execute(pipe.make_inputs(np.zeros_like(f), f))
    assert naive.stats.redundancy() == 0.0


def test_missing_input_rejected(rng):
    opts = MultigridOptions(cycle="V", n1=1, n2=1, n3=1, levels=2)
    pipe = build_poisson_cycle(2, 8, opts)
    compiled = pipe.compile(polymg_naive())
    with pytest.raises(KeyError):
        compiled.execute({"V": np.zeros((10, 10))})


def test_wrong_shape_rejected(rng):
    opts = MultigridOptions(cycle="V", n1=1, n2=1, n3=1, levels=2)
    pipe = build_poisson_cycle(2, 8, opts)
    compiled = pipe.compile(polymg_naive())
    inputs = pipe.make_inputs(np.zeros((10, 10)), np.zeros((10, 10)))
    inputs["F"] = np.zeros((12, 12))
    with pytest.raises(ValueError):
        compiled.execute(inputs)


def test_report_structure(rng):
    opts = MultigridOptions(cycle="V", n1=2, n2=2, n3=2, levels=3)
    pipe = build_poisson_cycle(2, 32, opts)
    compiled = pipe.compile(polymg_opt_plus(tile_sizes=SMALL_TILES))
    report = compiled.artifact_summary()
    assert report["stage_count"] == compiled.dag.stage_count()
    assert report["group_count"] == len(report["groups"])
    assert report["full_arrays"] <= report["full_arrays_without_reuse"]
    assert report["scratch_bytes"] <= report["scratch_bytes_without_reuse"]
    for g in report["groups"]:
        assert set(g) >= {"stages", "anchor", "live_outs", "tiled"}


def test_tile_sizes_change_nothing_numerically(rng):
    opts = MultigridOptions(cycle="W", n1=3, n2=1, n3=2, levels=3)
    n = 32
    f = make_rhs(rng, 2, n)
    v = np.zeros_like(f)
    pipe = build_poisson_cycle(2, n, opts)
    outs = []
    for tiles in [{2: (4, 4)}, {2: (8, 32)}, {2: (32, 32)}]:
        out, _ = run_cycle(pipe, polymg_opt_plus(tile_sizes=tiles), v, f)
        outs.append(out)
    assert np.array_equal(outs[0], outs[1])
    assert np.array_equal(outs[1], outs[2])


def test_threaded_execution_matches_sequential(rng):
    """num_threads > 1 runs tiles on a thread pool; results must be
    bit-identical to sequential execution (tiles are independent)."""
    opts = MultigridOptions(cycle="V", n1=4, n2=2, n3=4, levels=3)
    n = 32
    f = make_rhs(rng, 2, n)
    v = np.zeros_like(f)
    pipe = build_poisson_cycle(2, n, opts)
    seq, _ = run_cycle(pipe, polymg_opt_plus(tile_sizes=SMALL_TILES), v, f)
    par, compiled = run_cycle(
        pipe,
        polymg_opt_plus(tile_sizes=SMALL_TILES, num_threads=4),
        v,
        f,
    )
    assert np.array_equal(seq, par)
    assert compiled.stats.tiles_executed > 1
