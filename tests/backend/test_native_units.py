"""The unit-by-unit JIT build.

``generate_native_c`` emits one translation unit whose marker lines cut
it into one unit per stage function, the unit of group functions, and
the main unit (pool runtime, pipeline body, ABI entries);
``compile_units`` compiles each unit to
its own object, on every core at once, and links them — all inside one
``sh`` in its own process group.  These tests hold the build to the
single-unit build's outputs bit for bit, and to its failure contract:
a unit that does not compile, or a build that times out, is a typed
``NativeCompileError`` naming the unit, with no compiler left running
and nothing stored.
"""

from __future__ import annotations

import ctypes
import os
import subprocess
import time
from pathlib import Path

import numpy as np
import pytest

from benchmarks.suite.specs import COLD_SPECS, tile_overrides
from repro.backend import native as native_mod
from repro.backend.codegen_c import UNIT_MARKER, generate_native_c
from repro.backend.native import (
    DriveCtrl,
    NativeModule,
    NativeRunner,
    compile_units,
    compiler_ident,
    default_cflags,
    discover_compiler,
    native_artifact_key,
    native_units,
)
from repro.cache import native_artifact_store
from repro.compiler import compile_pipeline
from repro.errors import NativeCompileError
from repro.multigrid.cycles import build_poisson_cycle
from repro.variants import polymg_opt_plus

needs_cc = pytest.mark.skipif(
    discover_compiler() is None,
    reason="no C toolchain on PATH (cc/gcc/clang)",
)

#: a 2-D V-cycle, a W-cycle (shared group texts) and a 3-D V-cycle
SPECS = (COLD_SPECS[0], COLD_SPECS[4], COLD_SPECS[5])


def _compile(spec):
    pipe = build_poisson_cycle(spec.ndim, spec.n, spec.options())
    compiled = compile_pipeline(
        pipe.output, pipe.params,
        polymg_opt_plus(kernel_plan=False, **tile_overrides()),
        name=pipe.name, cache=False,
    )
    return pipe, compiled


def _toolchain():
    cc = discover_compiler()
    return cc, default_cflags(compiler_ident(cc))


def _running(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def test_units_cut_the_source_at_its_markers():
    _, compiled = _compile(SPECS[1])
    source = generate_native_c(compiled)
    units = native_units(source)
    names = [name for name, _ in units]
    assert names[-2:] == ["pmg_groups", "main"]
    assert len(names) == len(set(names))
    assert names[:-2] == [
        line[len(UNIT_MARKER):].split()[0]
        for line in source.splitlines()
        if line.startswith(UNIT_MARKER + "pmg_stage_")
    ]
    preamble = source[: source.index(UNIT_MARKER)]
    lines = source.splitlines()
    for name, text in units:
        assert text.startswith(preamble)
        # the #line directive numbers the unit's first line as the
        # whole source does
        directive, first = text[len(preamble):].splitlines()[:2]
        assert lines[int(directive.split()[1]) - 1] == first
    # every stage function is defined in its own unit and no other
    for name in names[:-2]:
        definition = f"PMG_HIDDEN void {name}("
        assert [
            n for n, text in units
            if any(ln.startswith(definition) and not ln.endswith(";")
                   for ln in text.splitlines())
        ] == [name]


@needs_cc
@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label())
def test_unit_build_matches_the_single_unit_build(spec, tmp_path):
    pipe, compiled = _compile(spec)
    source = generate_native_c(compiled)
    cc, flags = _toolchain()
    (tmp_path / "units").mkdir()
    compile_units(cc, flags, source, tmp_path / "units", timeout=600)
    whole = tmp_path / "whole.c"
    whole.write_text(source)
    subprocess.run(
        [cc, *flags, str(whole), "-o", str(tmp_path / "whole.so"), "-lm"],
        check=True, capture_output=True, timeout=600,
    )

    rng = np.random.default_rng(spec.n)
    shape = (spec.n + 2,) * spec.ndim
    inner = (slice(1, -1),) * spec.ndim
    f, u = np.zeros(shape), np.zeros(shape)
    f[inner] = rng.standard_normal((spec.n,) * spec.ndim)
    u[inner] = rng.standard_normal((spec.n,) * spec.ndim)
    inputs = compiled._validated_input_arrays(pipe.make_inputs(u, f))
    drive = pipe.drive_spec()
    names = [grid.name for grid in compiled.dag.inputs]
    ctrl = DriveCtrl(
        max_cycles=5,
        iterate_index=names.index(drive.iterate),
        rhs_index=names.index(drive.rhs),
        tol=0.0,
        norm_scale=drive.norm_scale,
        inv_h2=drive.inv_h2,
    )
    results = []
    for so in (tmp_path / "units" / "pipeline.so", tmp_path / "whole.so"):
        runner = NativeRunner(NativeModule(so), compiled)
        cycle = runner.run(inputs, 2)[pipe.output.name]
        burst = runner.drive(inputs, 2, ctrl)
        results.append(
            (cycle, burst.outputs[pipe.output.name], burst.norms,
             burst.cycles, burst.converged)
        )
    (c1, d1, n1, k1, v1), (c2, d2, n2, k2, v2) = results
    assert np.array_equal(c1, c2) and np.array_equal(d1, d2)
    assert n1 == n2 and (k1, v1) == (k2, v2) == (5, False)
    # group and stage functions are shared between units, not exported
    lib = ctypes.CDLL(str(tmp_path / "units" / "pipeline.so"))
    assert not hasattr(lib, "pmg_group_0")
    assert not hasattr(lib, "pmg_stage_0")
    assert hasattr(lib, "polymg_run") and hasattr(lib, "polymg_drive")


@needs_cc
def test_a_failing_unit_is_named_and_nothing_is_stored(
    tmp_path, monkeypatch
):
    monkeypatch.setenv("REPRO_NATIVE_CACHE_DIR", str(tmp_path / "store"))
    _, compiled = _compile(SPECS[0])
    marker = f"{UNIT_MARKER}pmg_stage_1 */\n"
    source = generate_native_c(compiled).replace(
        marker, marker + "#error planted failure\n"
    )
    cc, flags = _toolchain()
    key = native_artifact_key(source, flags, compiler_ident(cc))
    with pytest.raises(NativeCompileError) as info:
        native_mod._compile_shared_object(cc, flags, source, key, 600)
    assert info.value.context["units"] == ["pmg_stage_1"]
    assert "planted failure" in info.value.context["stderr"]
    assert native_artifact_store().get(key) is None
    assert not list((tmp_path / "store").glob(".build-*"))


@pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="needs /proc"
)
def test_a_timed_out_build_is_killed_whole(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE_CACHE_DIR", str(tmp_path / "store"))
    pids = tmp_path / "pids"
    slow = tmp_path / "slow-cc"
    slow.write_text(
        "#!/bin/sh\n"
        f"echo $$ >> {pids}\n"
        "echo still compiling $2 >&2\n"
        "exec sleep 60\n"
    )
    slow.chmod(0o755)
    _, compiled = _compile(SPECS[0])
    source = generate_native_c(compiled)
    key = native_artifact_key(source, (), "slow")
    with pytest.raises(NativeCompileError) as info:
        native_mod._compile_shared_object(str(slow), (), source, key, 2.0)
    assert "timed out" in str(info.value)
    assert info.value.context["units"] == [n for n, _ in native_units(source)]
    assert "still compiling" in info.value.context["stderr"]
    started = [int(pid) for pid in pids.read_text().split()]
    assert started
    # SIGKILL went to the whole group; give the kernel a moment to
    # finish tearing the compilers down
    deadline = time.monotonic() + 10
    while any(_running(pid) for pid in started):
        assert time.monotonic() < deadline, "a compiler outlived the build"
        time.sleep(0.05)
    assert native_artifact_store().get(key) is None
    assert not list((tmp_path / "store").glob(".build-*"))


@needs_cc
def test_each_build_spawns_exactly_one_subprocess(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE_CACHE_DIR", str(tmp_path / "store"))
    cc, _ = _toolchain()  # the identity probe is memoized before counting
    spawned = []
    real_popen = subprocess.Popen

    class CountingPopen(real_popen):
        def __init__(self, args, *rest, **kwargs):
            spawned.append(args)
            super().__init__(args, *rest, **kwargs)

    pipe, compiled = _compile(SPECS[0])
    monkeypatch.setattr(native_mod.subprocess, "Popen", CountingPopen)
    runner, info = native_mod.build_native_runner(compiled)
    assert not info["cache_hit"]
    assert len(spawned) == 1 and spawned[0][:2] == ["sh", "-c"]
    # every unit's cc and the link run inside that one shell
    script = spawned[0][2]
    assert all(
        f" {name} " in script or f" {name};" in script
        for name, _ in native_units(generate_native_c(compiled))
    )
    assert script.splitlines()[-1].startswith("exec ")
    shape = (SPECS[0].n + 2,) * 2
    out = runner.run(
        compiled._validated_input_arrays(
            pipe.make_inputs(np.zeros(shape), np.ones(shape))
        ),
        1,
    )
    assert np.isfinite(out[pipe.output.name]).all()
    assert os.path.exists(info["artifact"])
