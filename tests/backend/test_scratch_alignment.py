"""Regression: 3-D N=64 with the default tile sizes on the native tiers.

At ``-O3 -march=native`` gcc 12 vectorizes the stride-2 restriction
read of a scratchpad with *aligned* 256-bit loads after raising the
array's alignment itself ("force alignment" in its vectorizer dump) —
and the array still landed 16 bytes off in the frame, so the first such
load took the process down (exit 139) in-process on ``polymg-driver``
and ``polymg-native`` alike.  The emitted scratchpads now state their
alignment; this drives the exact spec in a child process, so a relapse
fails a test instead of killing pytest.

The two native tiers run one emitted body and must agree bit for bit;
against the planned numpy tier they are held to the tolerance of
``test_native_fuzz`` (``-O3 -march=native`` contracts multiply-adds
that numpy rounds twice — true of every native artifact, not of this
spec).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.backend.native import discover_compiler

needs_cc = pytest.mark.skipif(
    discover_compiler() is None,
    reason="no C toolchain on PATH (cc/gcc/clang)",
)

_CHILD = """
import numpy as np
from repro.multigrid.cycles import build_poisson_cycle, solve_compiled
from repro.multigrid.reference import MultigridOptions
from repro.variants import polymg_driver, polymg_native, polymg_opt_plus

pipe = build_poisson_cycle(3, 64, MultigridOptions(levels=4))
rng = np.random.default_rng(64)
f = np.zeros((66,) * 3)
f[1:-1, 1:-1, 1:-1] = rng.standard_normal((64,) * 3)
inputs = pipe.make_inputs(np.zeros_like(f), f)
name = pipe.output.name

planned = pipe.compile(polymg_opt_plus()).execute(dict(inputs))[name]

driver = pipe.compile(polymg_driver())
assert driver.ensure_native() is not None, driver._native_disabled
driven = solve_compiled(pipe, f, compiled=driver, cycles=1).u

native = pipe.compile(polymg_native())
assert native.ensure_native() is not None, native._native_disabled
executed = native.execute(dict(inputs))[name]

assert np.array_equal(driven, executed)
assert np.allclose(executed, planned, rtol=1e-9, atol=1e-11)
print("ALIGNED-OK")
"""


@needs_cc
def test_3d_n64_default_tiles_survive_the_native_tiers():
    env = dict(os.environ)
    src_root = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_root, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert proc.returncode == 0, (proc.returncode, proc.stderr[-2000:])
    assert "ALIGNED-OK" in proc.stdout
