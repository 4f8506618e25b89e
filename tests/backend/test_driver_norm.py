"""The driver's fused residual norm is numpy's norm, bit for bit.

``polymg_drive`` never materializes the squared defects: it walks
numpy's pairwise-summation tree over the interior indices, computes
each leaf of at most 128 points straight from the iterate and the
right-hand side, and shares the tree's top nodes across the OpenMP
team.  These tests pin that every norm it reports is
``repro.multigrid.kernels.norm_residual`` of that cycle's iterate —
list-equal, not approximately — for every team size, in 2-D and 3-D,
on interiors whose leaves span several rows or start mid-row, on
grids that are a single leaf, and through the sandbox.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend.codegen_c import generate_native_c
from repro.backend.native import discover_compiler
from repro.backend.registry import TIERS
from repro.backend.sandbox import SandboxRunner, reset_sandbox_pool
from repro.compiler import compile_pipeline
from repro.multigrid.cycles import build_poisson_cycle
from repro.multigrid.kernels import norm_residual
from repro.multigrid.reference import MultigridOptions
from repro.variants import polymg_driver

needs_cc = pytest.mark.skipif(
    discover_compiler() is None,
    reason="no C toolchain on PATH (cc/gcc/clang)",
)

TILES = {1: (8,), 2: (8, 16), 3: (4, 8, 8)}
CYCLES = 4

# (ndim, n, levels): leaves of whole rows (2-D 24, 3-D 16), leaves that
# start mid-row (2-D 20 and 28, 3-D 12), single-leaf grids (64 and 4
# interior points), and a 1-D line
GRIDS = [
    (2, 24, 3),
    (2, 20, 3),
    (2, 28, 3),
    (3, 16, 3),
    (3, 12, 3),
    (2, 8, 3),
    (3, 4, 2),
    (2, 2, 2),
    (1, 16, 3),
]


def _problem(ndim, n, levels, seed=20170712):
    pipe = build_poisson_cycle(
        ndim, n,
        MultigridOptions(cycle="V", n1=2, n2=2, n3=2, levels=levels),
    )
    rng = np.random.default_rng(seed)
    f = np.zeros((n + 2,) * ndim)
    f[(slice(1, -1),) * ndim] = rng.standard_normal((n,) * ndim)
    return pipe, f


def _compile(pipe, threads, **overrides):
    cfg = polymg_driver(
        tile_sizes=dict(TILES), num_threads=threads, **overrides
    )
    compiled = compile_pipeline(
        pipe.output, pipe.params, cfg, name=pipe.name, cache=False
    )
    TIERS.resolve(cfg.backend).ensure_ready(compiled)
    return compiled


def _assert_norms_are_numpy_norms(compiled, pipe, f):
    """Drive one cycle per call, then all of them in one burst: every
    reported norm is the numpy norm of that cycle's iterate."""
    h = 1.0 / (f.shape[0] - 1)
    spec = pipe.drive_spec()
    u, norms, numpy_norms = np.zeros_like(f), [], []
    for _ in range(CYCLES):
        served = compiled.drive(
            pipe.make_inputs(u, f), max_cycles=1, tol=0.0, spec=spec
        )
        assert served is not None and served.cycles == 1
        u = served.outputs[pipe.output.name]
        norms.extend(served.norms)
        numpy_norms.append(float(norm_residual(u, f, h)))
    assert norms == numpy_norms
    burst = compiled.drive(
        pipe.make_inputs(np.zeros_like(f), f),
        max_cycles=CYCLES, tol=0.0, spec=spec,
    )
    assert burst is not None and burst.cycles == CYCLES
    assert list(burst.norms) == numpy_norms
    assert np.array_equal(burst.outputs[pipe.output.name], u)


@needs_cc
@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("ndim,n,levels", GRIDS)
def test_driver_norms_equal_numpy_norm_residual(ndim, n, levels, threads):
    pipe, f = _problem(ndim, n, levels)
    compiled = _compile(pipe, threads)
    try:
        _assert_norms_are_numpy_norms(compiled, pipe, f)
    finally:
        compiled.close()


@needs_cc
def test_sandboxed_driver_norms_equal_numpy_norm_residual(
    tmp_path, monkeypatch
):
    monkeypatch.setenv(
        "REPRO_NATIVE_CACHE_DIR", str(tmp_path / "artifacts")
    )
    monkeypatch.setenv("REPRO_SANDBOX_WORKERS", "1")
    monkeypatch.delenv("REPRO_NATIVE_ISOLATION", raising=False)
    reset_sandbox_pool()
    pipe, f = _problem(2, 20, 3)
    compiled = _compile(pipe, 2, native_isolation="sandbox")
    try:
        assert isinstance(compiled.ensure_native(), SandboxRunner)
        _assert_norms_are_numpy_norms(compiled, pipe, f)
    finally:
        compiled.close()
        reset_sandbox_pool()


def test_driver_norm_writes_no_defect_array():
    """The fused norm replaced the squared-defect fill and its pool
    grid; the emitted source has neither."""
    pipe, _ = _problem(2, 20, 3)
    cfg = polymg_driver(tile_sizes=dict(TILES), num_threads=1)
    compiled = compile_pipeline(
        pipe.output, pipe.params, cfg, name=pipe.name, cache=False
    )
    try:
        source = generate_native_c(compiled)
    finally:
        compiled.close()
    assert "pmg_resid_tree" in source
    assert "pmg_rr" not in source
    assert "pmg_resid_fill" not in source
