"""Background native-build thread hygiene.

The JIT build runs on a background thread so the toolchain overlaps
the first numpy-executed cycles.  That thread must be a *daemon* (a
wedged compiler cannot block interpreter shutdown), must be retained
on its :class:`~repro.backend.native.NativeBuildHandle`, and
``CompiledPipeline.close()`` must join it *bounded* — an in-flight
build delays shutdown by at most its join timeout, never forever.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.backend import native as native_mod
from repro.backend.native import NativeBuildHandle, start_native_build
from repro.backend.registry import PLANNED
from repro.cache import compile_cache
from repro.compiler import compile_pipeline
from repro.errors import NativeToolchainError
from repro.multigrid.cycles import build_poisson_cycle
from repro.multigrid.reference import MultigridOptions
from repro.variants import polymg_driver, polymg_native, polymg_opt_plus

TILES = {2: (8, 16)}
REPO = Path(__file__).resolve().parents[2]


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


def _count_plans(monkeypatch) -> list:
    from repro.backend import executor as executor_mod

    calls = []
    real_plan = executor_mod.build_kernel_plan

    def counting_plan(compiled):
        calls.append(compiled)
        return real_plan(compiled)

    monkeypatch.setattr(executor_mod, "build_kernel_plan", counting_plan)
    return calls


def _inputs(pipe):
    rng = np.random.default_rng(3)
    shape = (18, 18)
    return pipe.make_inputs(
        rng.standard_normal(shape), rng.standard_normal(shape)
    )


def test_build_is_in_flight_before_kernel_planning(monkeypatch):
    """On the JIT tiers ``compile_pipeline`` starts the build and plans
    nothing: the driver rung never runs numpy tapes, so the plan is
    built by the first execute that falls back to them — here the
    toolchain-less build's first execute, whose planned tapes serve."""
    monkeypatch.setenv("REPRO_CC", "/nonexistent/cc")
    calls = _count_plans(monkeypatch)
    pipe = _pipe()
    inputs = _inputs(pipe)
    outs = []
    for factory in (polymg_native, polymg_driver):
        calls.clear()
        compiled = compile_pipeline(
            pipe.output, pipe.params,
            factory(tile_sizes=dict(TILES), num_threads=1),
            name=pipe.name, cache=False,
        )
        assert compiled._native_handle.thread is not None
        assert calls == [] and compiled.report.plan_time_s == 0.0
        assert compiled._kernel_plan is None
        assert compiled._native_handle.wait(30)

        outs.append(compiled.execute(dict(inputs))[pipe.output.name])
        assert calls == [compiled] and compiled._kernel_plan is not None
        assert compiled.report.plan_time_s > 0.0
        assert compiled.stats.tier(PLANNED.name).executions == 1
        compiled.execute(dict(inputs))
        assert len(calls) == 1
    planned = pipe.compile(
        polymg_opt_plus(tile_sizes=dict(TILES), num_threads=1)
    ).execute(dict(inputs))[pipe.output.name]
    assert all(np.array_equal(out, planned) for out in outs)


def test_clones_falling_back_to_tapes_plan_once(monkeypatch):
    """A compile-cache entry and its clones share one plan slot: four
    executors of one spec whose builds fail, falling back to numpy
    tapes at the same time from more threads than cores, build one
    plan between them."""
    monkeypatch.setenv("REPRO_CC", "/nonexistent/cc")
    calls = _count_plans(monkeypatch)
    compile_cache().clear()
    pipe = _pipe()
    cfg = polymg_driver(tile_sizes=dict(TILES), num_threads=1)
    executors = [
        compile_pipeline(pipe.output, pipe.params, cfg, name=pipe.name)
        for _ in range(4)
    ]
    assert len({id(c) for c in executors}) == 4 and calls == []
    for compiled in executors:
        assert compiled._native_handle.wait(30)
    inputs = _inputs(pipe)
    barrier = threading.Barrier(len(executors))

    def run(compiled):
        barrier.wait(30)
        return compiled.execute(dict(inputs))[pipe.output.name]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(len(executors)) as pool:
            outs = list(pool.map(run, executors, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(out, outs[0]) for out in outs)
    assert len(calls) == 1
    assert len({id(c._kernel_plan) for c in executors}) == 1
    assert executors[0]._kernel_plan is not None
    compile_cache().clear()


@pytest.mark.skipif(
    native_mod.discover_compiler() is None,
    reason="no C toolchain on PATH (cc/gcc/clang)",
)
def test_overlapped_build_takes_one_artifact_key():
    """The build thread emits C while the caller may already plan
    kernels over the same compiled object (an execute that falls back
    to numpy tapes).  The artifact key must stay a pure function of
    that object: repeated cold compiles of one spec agree with each
    other and with an emission re-run after planning."""
    from repro.backend.codegen_c import generate_native_c

    pipe = build_poisson_cycle(
        2, 32, MultigridOptions(cycle="W", n1=2, n2=2, n3=2, levels=3)
    )
    keys = set()
    for _ in range(20):
        compiled = _compile(pipe)
        compiled.plan()
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


@pytest.mark.skipif(
    native_mod.discover_compiler() is None,
    reason="no C toolchain on PATH (cc/gcc/clang)",
)
def test_close_frees_the_native_pool_and_stays_usable(monkeypatch):
    """A loaded module is never unloaded, so the buffers its pool keeps
    across calls would stay for the life of the process; ``close()``
    frees them, and the next execute allocates afresh."""
    released = []
    release = native_mod.NativeModule.release_pool
    monkeypatch.setattr(
        native_mod.NativeModule, "release_pool",
        lambda module: (released.append(module), release(module)),
    )
    pipe = _pipe()
    compiled = _compile(pipe)
    assert compiled.ensure_native() is not None
    first = compiled.execute(dict(_inputs(pipe)))[pipe.output.name]
    compiled.close()
    assert len(released) == 1
    again = compiled.execute(dict(_inputs(pipe)))[pipe.output.name]
    assert np.array_equal(first, again)
    compiled.close()
    assert len(released) == 2


#: a compiler that records its pid and never finishes
_SLOW_CC = """#!/bin/sh
case "$1" in --version) echo slow-cc 1.0; exit 0;; esac
echo $$ >> {pids}
exec sleep 60
"""

#: run in a child process: two pipelines share one build (the second
#: is a compile-cache clone), wait until the compilers run, then either
#: close both or exit with the build in flight
_CHILD = """
import sys, time
from pathlib import Path
from repro.compiler import compile_pipeline
from repro.multigrid.cycles import build_poisson_cycle
from repro.multigrid.reference import MultigridOptions
from repro.variants import polymg_native
from tests.backend.test_build_handle import _running

pids, mode = Path(sys.argv[1]), sys.argv[2]
pipe = build_poisson_cycle(
    2, 16, MultigridOptions(cycle="V", n1=1, n2=1, n3=1, levels=2)
)
first, second = (
    compile_pipeline(
        pipe.output, pipe.params, polymg_native(num_threads=1),
        name=pipe.name,
    )
    for _ in range(2)
)
handle = first._native_handle
assert second._native_handle is handle and handle.users == 2
deadline = time.monotonic() + 30
while not (pids.exists() and pids.read_text().split()):
    assert time.monotonic() < deadline, "the build never started"
    time.sleep(0.05)
if mode == "close":
    first.close()
    time.sleep(0.2)
    started = [int(pid) for pid in pids.read_text().split()]
    assert handle.state == "pending" and all(map(_running, started))
    second.close()
    assert handle.wait(30) and handle.state == "failed"
    assert second._native_handle is None
print("ok", mode)
"""


def _running(pid: int) -> bool:
    try:
        stat = open(f"/proc/{pid}/stat").read()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(
    not os.path.exists("/proc/self/stat"), reason="needs /proc"
)
@pytest.mark.parametrize("mode", ["close", "exit"])
def test_no_compiler_or_build_directory_outlives_its_users(mode, tmp_path):
    """Closing the last pipeline that shares a build, or exiting the
    process during it, kills the build's compilers and removes its
    directory from the artifact store."""
    pids = tmp_path / "pids"
    cc = tmp_path / "slow-cc"
    cc.write_text(_SLOW_CC.format(pids=pids))
    cc.chmod(0o755)
    store = tmp_path / "store"
    env = {
        **os.environ,
        "REPRO_CC": str(cc),
        "REPRO_NATIVE_CACHE_DIR": str(store),
        "PYTHONPATH": os.pathsep.join(
            [str(REPO / "src"), str(REPO), os.environ.get("PYTHONPATH", "")]
        ),
    }
    # files, not pipes: an orphaned compiler would hold a pipe open
    out, err = tmp_path / "out", tmp_path / "err"
    with out.open("w") as stdout, err.open("w") as stderr:
        rc = subprocess.run(
            [sys.executable, "-c", _CHILD, str(pids), mode],
            env=env, stdout=stdout, stderr=stderr, timeout=120,
        ).returncode
    assert rc == 0, err.read_text()[-2000:]
    assert out.read_text().split() == ["ok", mode]
    started = [int(pid) for pid in pids.read_text().split()]
    assert started
    deadline = time.monotonic() + 10
    while any(_running(pid) for pid in started):
        assert time.monotonic() < deadline, "a compiler outlived the build"
        time.sleep(0.05)
    assert not list(store.glob(".build-*"))
    assert "Errno" not in err.read_text()
