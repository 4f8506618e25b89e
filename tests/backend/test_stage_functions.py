"""Stage functions: one compiled loop nest per distinct stage shape.

The native source renders every stage loop nest as a call of a
``pmg_stage_<k>`` function whose operands (base pointer, row strides,
origin), region bounds, ``Case`` intervals and level constants are
arguments; the structural coefficients and index offsets stay literal.
Stages that differ only in those arguments — a smoother step at every
level, before and after the coarse grid — share one function, compiled
once as its own unit.  These tests hold the sharing, the symbol
hygiene, and the numbers: the driver is bitwise the per-cycle native
tier, and both agree with the planned numpy tier to the house
tolerance (FMA contraction rounds the stencil sums once where numpy
rounds twice).
"""

from __future__ import annotations

import ctypes
import re

import numpy as np
import pytest

from benchmarks.suite.specs import COLD_SPECS, tile_overrides
from repro.backend.codegen_c import generate_native_c
from repro.backend.native import build_native_runner, discover_compiler
from repro.compiler import compile_pipeline
from repro.multigrid.cycles import build_poisson_cycle
from repro.multigrid.reference import MultigridOptions
from repro.variants import polymg_driver, polymg_native, polymg_opt_plus
from tests.backend.test_native_fuzz import _piecewise_chain

needs_cc = pytest.mark.skipif(
    discover_compiler() is None,
    reason="no C toolchain on PATH (cc/gcc/clang)",
)

RTOL, ATOL = 1e-9, 1e-11
TILES = {2: (8, 16), 3: (4, 8, 8)}
SMOOTHER = re.compile(r"^(pre|post|coarse)_L(\d+)_")


def _emit(spec):
    pipe = build_poisson_cycle(spec.ndim, spec.n, spec.options())
    compiled = pipe.compile(
        polymg_opt_plus(kernel_plan=False, **tile_overrides())
    )
    return compiled, generate_native_c(compiled)


def _called(code: str) -> dict[str, str]:
    """Stage name -> the stage function its call names."""
    lines = code.splitlines()
    calls = {}
    for i, line in enumerate(lines):
        comment = re.fullmatch(r"\s*/\* stage (\S+) \*/", line)
        if comment:
            call = re.match(r"\s*(pmg_stage_\d+)\(", lines[i + 1])
            assert call, lines[i + 1]
            calls[comment.group(1)] = call.group(1)
    return calls


def _definitions(code: str) -> dict[str, str]:
    """Stage function name -> its body, the name cut out."""
    defs = {}
    for match in re.finditer(
        r"^PMG_HIDDEN void (pmg_stage_\d+)(\(.*?\n\}\n)", code, re.M | re.S
    ):
        defs[match.group(1)] = match.group(2)
    return defs


@pytest.mark.parametrize(
    "spec", [COLD_SPECS[0], COLD_SPECS[2]], ids=lambda s: s.label()
)
def test_smoother_steps_at_every_level_call_one_function(spec):
    compiled, code = _emit(spec)
    calls = _called(code)
    smoothers = {
        name: fn for name, fn in calls.items() if SMOOTHER.match(name)
    }
    # every stage of a group text is called by name (a W-cycle's
    # revisits share their first visit's text)
    stages = {s.name for s in compiled.dag.stages}
    assert set(calls) <= stages
    if spec.cycle == "V":
        assert set(calls) == stages
    levels = {
        tag: {int(SMOOTHER.match(n).group(2)) for n in smoothers
              if n.startswith(tag)}
        for tag in ("pre", "post")
    }
    assert len(levels["pre"]) >= 3 and levels["pre"] == levels["post"]
    assert len(set(smoothers.values())) == 1


def test_stage_functions_are_distinct_and_few():
    total = 0
    for spec in COLD_SPECS:
        compiled, code = _emit(spec)
        bodies = list(_definitions(code).values())
        assert bodies and len(set(bodies)) == len(bodies), spec.label()
        # fewer functions than stage loop nests, every one of them called
        assert len(bodies) < len(compiled.dag.stages)
        assert set(_called(code).values()) == set(_definitions(code))
        total += len(bodies)
    # one lap of the suite's cold specs renders 255 stage loop nests in
    # its group functions (CI pins the same bound)
    assert total <= 80


@needs_cc
def test_stage_functions_are_not_exported():
    spec = COLD_SPECS[5]
    pipe = build_poisson_cycle(spec.ndim, spec.n, spec.options())
    compiled = pipe.compile(
        polymg_opt_plus(kernel_plan=False, tile_sizes={3: (4, 8, 8)})
    )
    _, info = build_native_runner(compiled)
    lib = ctypes.CDLL(info["artifact"])
    assert hasattr(lib, "polymg_run") and hasattr(lib, "polymg_drive")
    for name in _definitions(generate_native_c(compiled)):
        assert not hasattr(lib, name)
    assert not hasattr(lib, "pmg_group_0")


def _problem(ndim, n, seed=11):
    rng = np.random.default_rng(seed)
    shape = (n + 2,) * ndim
    inner = (slice(1, -1),) * ndim
    f, u = np.zeros(shape), np.zeros(shape)
    f[inner] = rng.standard_normal((n,) * ndim)
    u[inner] = rng.standard_normal((n,) * ndim)
    return u, f


def _compiled(pipe, factory, **cfg):
    compiled = compile_pipeline(
        pipe.output, pipe.params, factory(**cfg), name=pipe.name,
        cache=False,
    )
    if factory is not polymg_opt_plus:
        assert compiled.ensure_native() is not None
    return compiled


@needs_cc
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("tile", [True, False], ids=["tiled", "untiled"])
@pytest.mark.parametrize(
    "ndim, n, cycle", [(2, 16, "V"), (2, 16, "W"), (3, 8, "V"), (3, 8, "W")]
)
def test_driver_native_and_planned_agree(ndim, n, cycle, tile, threads):
    pipe = build_poisson_cycle(
        ndim, n, MultigridOptions(cycle=cycle, n1=2, n2=2, n3=2, levels=3)
    )
    u0, f = _problem(ndim, n)
    cfg = dict(tile_sizes=dict(TILES), tile=tile, num_threads=threads)
    name, cycles = pipe.output.name, 3
    outs = {}
    for factory in (polymg_native, polymg_opt_plus):
        compiled = _compiled(pipe, factory, **cfg)
        u = u0
        for _ in range(cycles):
            u = compiled.execute(pipe.make_inputs(u, f))[name]
        outs[factory] = u
        compiled.close()
    driver = _compiled(pipe, polymg_driver, **cfg)
    burst = driver.drive(
        pipe.make_inputs(u0, f), max_cycles=cycles, tol=0.0,
        spec=pipe.drive_spec(),
    )
    driver.close()
    assert burst is not None and burst.cycles == cycles
    assert np.array_equal(burst.outputs[name], outs[polymg_native])
    assert np.allclose(
        outs[polymg_native], outs[polymg_opt_plus], rtol=RTOL, atol=ATOL
    )


@needs_cc
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("tile", [True, False], ids=["tiled", "untiled"])
def test_if_elif_chains_agree_with_planned(tile, threads):
    out_fn = _piecewise_chain(8)
    rng = np.random.default_rng(5)
    inputs = {"G": rng.standard_normal((10, 10))}
    cfg = dict(
        tile_sizes={2: (3, 4)}, overlap_threshold=2.0, num_threads=threads,
    )
    expected = compile_pipeline(
        out_fn, {"N": 8}, polymg_opt_plus(**cfg), cache=False
    ).execute(inputs)[out_fn.name]
    native = compile_pipeline(
        out_fn, {"N": 8}, polymg_native(tile=tile, **cfg), cache=False
    )
    assert native.ensure_native() is not None
    # the chain's second stage lowers to a nest of claimed segments
    code = generate_native_c(native)
    assert any("_xa1" in body for body in _definitions(code).values())
    got = native.execute(inputs)[out_fn.name]
    native.close()
    assert np.allclose(got, expected, rtol=RTOL, atol=ATOL)
