"""Background native-build thread hygiene.

The JIT build runs on a background thread so the toolchain overlaps
the first numpy-executed cycles.  That thread must be a *daemon* (a
wedged compiler cannot block interpreter shutdown), must be retained
on its :class:`~repro.backend.native.NativeBuildHandle`, and
``CompiledPipeline.close()`` must join it *bounded* — an in-flight
build delays shutdown by at most its join timeout, never forever.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.backend import native as native_mod
from repro.backend.native import NativeBuildHandle, start_native_build
from repro.compiler import compile_pipeline
from repro.errors import NativeToolchainError
from repro.multigrid.cycles import build_poisson_cycle
from repro.multigrid.reference import MultigridOptions
from repro.variants import polymg_native

TILES = {2: (8, 16)}


def _compile(pipe):
    return compile_pipeline(
        pipe.output,
        pipe.params,
        polymg_native(tile_sizes=dict(TILES), num_threads=1),
        name=pipe.name,
        cache=False,
    )


def _pipe():
    return build_poisson_cycle(
        2, 16, MultigridOptions(cycle="V", n1=2, n2=2, n3=2, levels=3)
    )


def test_background_build_thread_is_a_named_daemon(monkeypatch):
    # a toolchain-less build still exercises the threading path
    monkeypatch.setenv("REPRO_CC", "/nonexistent/compiler/cc")
    compiled = _compile(_pipe())
    handle = compiled._native_handle
    assert handle is not None
    assert handle.thread is not None
    assert handle.thread.daemon is True
    assert handle.thread.name == "polymg-native-build"
    assert handle.wait(30)
    assert handle.join(5) is True
    assert handle.state == "failed"


def test_inline_build_has_no_thread_and_join_is_a_noop(monkeypatch):
    monkeypatch.setenv("REPRO_CC", "/nonexistent/compiler/cc")
    compiled = _compile(_pipe())
    handle = start_native_build(compiled, background=False)
    assert handle.thread is None
    assert handle.join() is True
    assert handle.state == "failed"


def test_fresh_handle_joins_trivially():
    assert NativeBuildHandle().join(0.1) is True


def test_close_joins_an_in_flight_build_bounded(monkeypatch):
    """``close()`` during a slow compile returns promptly (the join is
    bounded) and leaves the daemon build thread to finish on its own —
    it must never hang shutdown behind the toolchain."""
    release = {"at": time.monotonic() + 3.0}

    def slow_build(compiled, timeout=None):
        while time.monotonic() < release["at"]:
            time.sleep(0.02)
        raise NativeToolchainError("slow build stub")

    monkeypatch.setattr(native_mod, "build_native_runner", slow_build)
    compiled = _compile(_pipe())
    handle = compiled._native_handle
    assert handle.state == "pending"
    t0 = time.monotonic()
    compiled.close()
    elapsed = time.monotonic() - t0
    assert elapsed < 2.0  # bounded join (0.5 s), not the full build
    assert handle.thread.is_alive()  # still compiling, off-critical-path
    # and the build still lands normally afterwards
    assert handle.wait(30)
    assert handle.join(10) is True
    assert handle.state == "failed"


def test_close_is_still_usable_after_join(monkeypatch):
    monkeypatch.setenv("REPRO_CC", "/nonexistent/compiler/cc")
    pipe = _pipe()
    compiled = _compile(pipe)
    compiled._native_handle.wait(30)
    compiled.close()
    # close() is documented idempotent and non-terminal
    rng = np.random.default_rng(7)
    shape = (18, 18)
    inputs = pipe.make_inputs(
        rng.standard_normal(shape), rng.standard_normal(shape)
    )
    out = compiled.execute(dict(inputs))
    assert pipe.output.name in out
    compiled.close()


def test_build_is_in_flight_before_kernel_planning(monkeypatch):
    """``compile_pipeline`` starts the JIT build first, so the
    toolchain overlaps ``build_kernel_plan`` instead of idling behind
    it: when planning begins (and ``report.plan_time_s`` starts to
    count) the pipeline already holds its build handle."""
    from repro.backend import executor as executor_mod

    monkeypatch.setenv("REPRO_CC", "/nonexistent/compiler/cc")
    seen = {}
    real_plan = executor_mod.build_kernel_plan

    def spying_plan(compiled):
        seen["handle"] = compiled._native_handle
        seen["plan_time_s"] = compiled.report.plan_time_s
        return real_plan(compiled)

    monkeypatch.setattr(executor_mod, "build_kernel_plan", spying_plan)
    compiled = _compile(_pipe())
    assert seen["handle"] is not None
    assert seen["handle"] is compiled._native_handle
    assert seen["handle"].thread is not None
    assert seen["plan_time_s"] == 0.0 < compiled.report.plan_time_s
    assert compiled._native_handle.wait(30)


@pytest.mark.skipif(
    native_mod.discover_compiler() is None,
    reason="no C toolchain on PATH (cc/gcc/clang)",
)
def test_overlapped_build_takes_one_artifact_key():
    """The build thread emits C while the main thread plans kernels
    over the same compiled object.  The artifact key must stay a pure
    function of that object: repeated cold compiles of one spec agree
    with each other and with an emission re-run after planning."""
    from repro.backend.codegen_c import generate_native_c

    pipe = build_poisson_cycle(
        2, 32, MultigridOptions(cycle="W", n1=2, n2=2, n3=2, levels=3)
    )
    keys = set()
    for _ in range(20):
        compiled = _compile(pipe)
        assert compiled.ensure_native() is not None
        info = compiled._native_handle.info
        keys.add(info["key"])
        assert info["key"] == native_mod.native_artifact_key(
            generate_native_c(compiled),
            tuple(info["cflags"]),
            native_mod.compiler_ident(info["cc"]),
        )
        compiled.close()
    assert len(keys) == 1
