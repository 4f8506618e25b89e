"""Native-vs-planned parity fuzzing (the PR-5 correctness net).

The native C/OpenMP JIT backend must compute the same answers as the
planned numpy backend on every pipeline it claims to lower: multigrid
V/W-cycles in 2-D and 3-D, the NAS MG cycle, several thread counts,
and randomly generated stencil DAGs with mixed stencil extents (ghost
widths up to 2 in each direction).  Differences are bounded by tight
``allclose`` tolerances rather than bit equality — the vectorizing
``-march=native`` compile is free to contract multiply-adds.

Every test here degrades gracefully on a machine without a C
toolchain: parity tests skip with a notice, and the fallback test
asserts the planned path still answers.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.native import discover_compiler, unlowerable_reason
from repro.backend.registry import NATIVE, TIERS
from repro.compiler import compile_pipeline
from repro.lang.expr import Case
from repro.lang.function import Function, Grid
from repro.lang.parameters import Interval, Parameter, Variable
from repro.lang.sampling import Interp
from repro.lang.stencil import Stencil
from repro.lang.types import Double, Float, Int
from repro.multigrid.cycles import build_poisson_cycle
from repro.multigrid.nas_mg import build_nas_mg_cycle
from repro.multigrid.reference import MultigridOptions
from repro.variants import polymg_native, polymg_opt_plus

HAVE_CC = discover_compiler() is not None
needs_cc = pytest.mark.skipif(
    not HAVE_CC, reason="no C toolchain on PATH (cc/gcc/clang)"
)

RTOL, ATOL = 1e-9, 1e-11

TILES = {2: (8, 16), 3: (4, 8, 8)}

#: every registered JIT tier is fuzzed — a future second JIT backend
#: joins this suite by registering with ``jit_build=True``
JIT_TIERS = tuple(
    name for name in TIERS.names() if TIERS.resolve(name).jit_build
)


def _cycle_case(ndim: int, cycle: str, n: int, smoothing, levels=3):
    pipe = build_poisson_cycle(
        ndim,
        n,
        MultigridOptions(
            cycle=cycle,
            n1=smoothing[0],
            n2=smoothing[1],
            n3=smoothing[2],
            levels=levels,
        ),
    )
    rng = np.random.default_rng(20170712)
    shape = (n + 2,) * ndim
    inputs = pipe.make_inputs(
        rng.standard_normal(shape), rng.standard_normal(shape)
    )
    return pipe, inputs


def _run_both(
    pipe, inputs, threads: int, tier: str = "native", tiles=TILES
):
    """Execute the pipeline through planned numpy and the given JIT
    tier, returning (planned_out, jit_out, jit_compiled)."""
    planned = compile_pipeline(
        pipe.output,
        pipe.params,
        polymg_opt_plus(tile_sizes=dict(tiles), num_threads=threads),
        name=pipe.name,
        cache=False,
    )
    expected = planned.execute(dict(inputs))[pipe.output.name]
    native = compile_pipeline(
        pipe.output,
        pipe.params,
        polymg_opt_plus(
            backend=tier, tile_sizes=dict(tiles), num_threads=threads
        ),
        name=pipe.name,
        cache=False,
    )
    TIERS.resolve(tier).ensure_ready(native)
    got = native.execute(dict(inputs))[pipe.output.name]
    return expected, got, native


@needs_cc
@pytest.mark.parametrize("tier", JIT_TIERS)
@pytest.mark.parametrize(
    "ndim,cycle,n,smoothing,threads",
    [
        (2, "V", 32, (4, 4, 4), 1),
        (2, "V", 32, (10, 0, 0), 4),
        (2, "W", 32, (4, 4, 4), 2),
        (2, "W", 16, (2, 2, 2), 1),
        (3, "V", 16, (4, 4, 4), 2),
        (3, "W", 16, (2, 2, 2), 4),
    ],
)
def test_jit_tiers_match_planned_on_multigrid_cycles(
    tier, ndim, cycle, n, smoothing, threads
):
    pipe, inputs = _cycle_case(ndim, cycle, n, smoothing)
    expected, got, native = _run_both(pipe, inputs, threads, tier)
    assert native.stats.tier(tier).executions == 1
    assert native.stats.tier(tier).fallbacks == 0
    assert got.shape == expected.shape
    assert np.allclose(got, expected, rtol=RTOL, atol=ATOL)


# The emitted stage loops carry no per-point test: a boundary ``Case``
# and the interp parity classes are loop bounds computed from the
# tile's region.  These tilings make the regions degenerate.
DEGENERATE_TILINGS = [
    # one-point tiles: tiles that are all boundary, one-point interiors
    (2, "V", 8, {2: (1, 1)}),
    # odd tiles: interp regions of every parity, starting odd / ending
    # even and the reverse; regions one point wide next to a wall
    (2, "W", 16, {2: (3, 5)}),
    # one tile: a region touching both walls in every dimension
    (2, "V", 16, {2: (64, 64)}),
    (3, "V", 8, {3: (1, 3, 2)}),
    (3, "W", 8, {3: (16, 16, 16)}),
]


@needs_cc
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("ndim,cycle,n,tiles", DEGENERATE_TILINGS)
def test_branch_free_loops_cover_degenerate_regions(
    ndim, cycle, n, tiles, threads
):
    pipe, inputs = _cycle_case(ndim, cycle, n, (2, 1, 2))
    got = {}
    for tier in JIT_TIERS:
        expected, got[tier], native = _run_both(
            pipe, inputs, threads, tier, tiles
        )
        assert native.stats.tier(tier).fallbacks == 0
        assert np.allclose(got[tier], expected, rtol=RTOL, atol=ATOL)
    first, *rest = got.values()
    assert all(np.array_equal(first, other) for other in rest)


def _piecewise_chain(n_val: int):
    """Two stages whose definitions are if/elif chains with one-sided,
    equality and two-point-wide boundary conditions."""
    n = Parameter(Int, "N")
    y, x = Variable("y"), Variable("x")
    g = Grid(Double, "G", [n + 2, n + 2])
    ext = Interval(Int, 0, n + 1)
    blur = Stencil(g, (y, x), [[1, 2, 1], [2, 4, 2], [1, 2, 1]], 1 / 16)
    a = Function(([y, x], [ext, ext]), Double, "a")
    a.defn = [
        Case(x.equals(0), g(y, x) * 2.0),
        Case((y >= 1) & (y <= n) & (x <= n), blur),
        g(y, x) - 1.0,
    ]
    b = Function(([y, x], [ext, ext]), Double, "b")
    b.defn = [
        Case((y >= 2) & (y <= n - 1) & (x >= 2) & (x <= n - 1),
             Stencil(a, (y, x), [[0, 1, 0], [1, -4, 1], [0, 1, 0]], 0.5)),
        Case((y >= n), a(y, x) + 3.0),
        a(y, x),
    ]
    return b


@needs_cc
@pytest.mark.parametrize("n_val", [7, 8])
@pytest.mark.parametrize("tiles", [(1, 1), (3, 4), (5, 2), (32, 32)])
def test_branch_free_loops_follow_if_elif_chains(n_val, tiles):
    out_fn = _piecewise_chain(n_val)
    rng = np.random.default_rng(3)
    inputs = {"G": rng.standard_normal((n_val + 2, n_val + 2))}
    cfg_kw = dict(
        tile_sizes={2: tiles}, overlap_threshold=2.0, num_threads=2
    )
    expected = compile_pipeline(
        out_fn, {"N": n_val}, polymg_opt_plus(**cfg_kw), cache=False
    ).execute(inputs)[out_fn.name]
    for tile in (True, False):  # fused tiles and straight worksharing nests
        native = compile_pipeline(
            out_fn, {"N": n_val}, polymg_native(tile=tile, **cfg_kw),
            cache=False,
        )
        native.ensure_native()
        got = native.execute(inputs)[out_fn.name]
        assert native.stats.tier(NATIVE.name).executions == 1
        assert np.allclose(got, expected, rtol=RTOL, atol=ATOL)


@needs_cc
@pytest.mark.parametrize("tile", [True, False])
def test_branch_free_loops_in_one_dimension(tile):
    """A 1-D stage is all row: no outer loop to share out or to hoist
    the row test to."""
    n = Parameter(Int, "N")
    x = Variable("x")
    c = Grid(Double, "C", [n / 2 + 2])
    g = Grid(Double, "G", [n + 2])
    p = Interp(([x], [Interval(Int, 1, n)]), Double, "P")
    p.defn = [[
        Stencil(c, (x,), [1], origin=(0,)),
        Stencil(c, (x,), [1, 1], origin=(0,)) * 0.5,
    ]]
    f = Function(([x], [Interval(Int, 0, n + 1)]), Double, "F")
    f.defn = [Case((x >= 1) & (x <= n), g(x) + p(x)), g(x)]
    rng = np.random.default_rng(1)
    inputs = {
        "C": rng.standard_normal(16 // 2 + 2),
        "G": rng.standard_normal(16 + 2),
    }
    cfg_kw = dict(tile_sizes={1: (5,)}, num_threads=2)
    expected = compile_pipeline(
        f, {"N": 16}, polymg_opt_plus(**cfg_kw), cache=False
    ).execute(inputs)["F"]
    native = compile_pipeline(
        f, {"N": 16}, polymg_native(tile=tile, **cfg_kw), cache=False
    )
    native.ensure_native()
    got = native.execute(inputs)["F"]
    assert native.stats.tier(NATIVE.name).executions == 1
    assert np.allclose(got, expected, rtol=RTOL, atol=ATOL)


@needs_cc
@pytest.mark.parametrize("threads", [1, 2])
def test_native_matches_planned_on_nas_mg(threads):
    n = 16
    pipe = build_nas_mg_cycle(n)
    rng = np.random.default_rng(20170712)
    shape = (n + 2,) * 3
    inputs = pipe.make_inputs(
        rng.standard_normal(shape), rng.standard_normal(shape)
    )
    expected, got, native = _run_both(pipe, inputs, threads)
    assert native.stats.tier(NATIVE.name).executions == 1
    assert np.allclose(got, expected, rtol=RTOL, atol=ATOL)


@needs_cc
def test_native_is_deterministic_across_repeat_executes():
    pipe, inputs = _cycle_case(2, "V", 32, (2, 2, 2))
    native = compile_pipeline(
        pipe.output,
        pipe.params,
        polymg_native(tile_sizes=dict(TILES), num_threads=2),
        name=pipe.name,
        cache=False,
    )
    native.ensure_native()
    first = native.execute(dict(inputs))[pipe.output.name]
    for _ in range(3):
        again = native.execute(dict(inputs))[pipe.output.name]
        assert np.array_equal(again, first)


# ---------------------------------------------------------------------------
# random stencil DAGs (ghost widths up to 2, mixed boundary handling)
# ---------------------------------------------------------------------------

N_VAL = 20


def _weights(draw, lo=1, hi=5):
    w = st.integers(-3, 3)
    rows = draw(st.integers(lo, hi))
    cols = draw(st.integers(lo, hi))
    return [[draw(w) for _ in range(cols)] for _ in range(rows)]


@st.composite
def stencil_pipelines(draw):
    """A random feed-forward stencil pipeline over one input grid;
    stencil extents up to 5x5 exercise ghost widths 0..2."""
    n = Parameter(Int, "N")
    y, x = Variable("y"), Variable("x")
    g = Grid(Double, "G", [n + 2, n + 2])
    ext = Interval(Int, 0, n + 1)
    interior = (y >= 2) & (y <= n - 1) & (x >= 2) & (x <= n - 1)

    stages = [g]
    for i in range(draw(st.integers(2, 5))):
        src_a = stages[draw(st.integers(0, len(stages) - 1))]
        src_b = stages[draw(st.integers(0, len(stages) - 1))]
        expr = Stencil(
            src_a, (y, x), _weights(draw), draw(st.floats(0.1, 1.0))
        )
        if draw(st.booleans()):
            expr = expr + src_b(y, x) * draw(st.floats(-1.0, 1.0))
        f = Function(([y, x], [ext, ext]), Double, f"s{i}")
        if draw(st.booleans()):
            f.defn = [Case(interior, expr), src_a(y, x)]
        else:
            f.defn = [Case(interior, expr), 0.0]
        stages.append(f)
    return stages[-1]


@needs_cc
@settings(max_examples=15, deadline=None)
@given(stencil_pipelines(), st.sampled_from([(4, 8), (8, 8), (6, 10)]))
def test_native_matches_planned_on_random_dags(out_fn, tiles):
    rng = np.random.default_rng(99)
    inputs = {"G": rng.standard_normal((N_VAL + 2, N_VAL + 2))}
    cfg_kw = dict(
        tile_sizes={2: tiles}, overlap_threshold=2.0, num_threads=2
    )
    planned = compile_pipeline(
        out_fn, {"N": N_VAL}, polymg_opt_plus(**cfg_kw), cache=False
    )
    expected = planned.execute(inputs)[out_fn.name]
    native = compile_pipeline(
        out_fn, {"N": N_VAL}, polymg_native(**cfg_kw), cache=False
    )
    native.ensure_native()
    got = native.execute(inputs)[out_fn.name]
    assert native.stats.tier(NATIVE.name).executions == 1, (
        native._native_disabled
    )
    assert np.allclose(got, expected, rtol=RTOL, atol=ATOL)


# ---------------------------------------------------------------------------
# dtype gate: non-double pipelines stay on the numpy backend
# ---------------------------------------------------------------------------


def _float32_pipeline():
    n = Parameter(Int, "N")
    y, x = Variable("y"), Variable("x")
    g = Grid(Float, "G", [n + 2, n + 2])
    ext = Interval(Int, 0, n + 1)
    interior = (y >= 1) & (y <= n) & (x >= 1) & (x <= n)
    f = Function(([y, x], [ext, ext]), Float, "blur32")
    f.defn = [
        Case(
            interior,
            Stencil(g, (y, x), [[1, 2, 1], [2, 4, 2], [1, 2, 1]], 1 / 16),
        ),
        g(y, x),
    ]
    return f


def test_float32_pipeline_is_unlowerable_and_falls_back():
    out = _float32_pipeline()
    cfg = polymg_native(tile_sizes={2: (8, 8)}, num_threads=1)
    compiled = compile_pipeline(out, {"N": 16}, cfg, cache=False)
    assert unlowerable_reason(compiled) is not None
    rng = np.random.default_rng(7)
    data = rng.standard_normal((18, 18)).astype(np.float32)
    result = compiled.execute({"G": data})["blur32"]
    # fell back to the numpy backend: correct answer, visible incident
    assert result.dtype == np.float32
    assert compiled.stats.tier(NATIVE.name).executions == 0
    assert compiled.stats.tier(NATIVE.name).fallbacks >= 1
    kinds = [rec["kind"] for rec in compiled.report.incidents]
    assert "native-fallback" in kinds

    reference = compile_pipeline(
        out,
        {"N": 16},
        polymg_opt_plus(tile_sizes={2: (8, 8)}),
        cache=False,
    ).execute({"G": data})["blur32"]
    assert np.array_equal(result, reference)
