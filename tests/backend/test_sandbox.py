"""Crash/hang isolation for the native tier.

The sandbox (``repro.backend.sandbox``) runs native kernels in
disposable subprocess executors so a segfaulting, aborting, or
spinning shared object can never take the parent process down.  These
tests pin the contract end to end: out-of-process parity with the
in-process runner, typed classification of every death
(``NativeCrashError`` / ``NativeAbortError`` / ``NativeHangError``),
worker respawn, on-disk artifact quarantine (including across a
process restart), and the crash-isolated incident/breaker plumbing
through the resilience layer.  The fault injectors compile a real
wild store / ``abort()`` / infinite loop into the emitted C
(``PolyMgConfig.native_fault``), so what is being contained is a
genuine native crash, not a simulation.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from multiprocessing.shared_memory import SharedMemory
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.backend.native import (
    DriveCtrl,
    build_native_runner,
    discover_compiler,
    native_isolation_mode,
)
from repro.backend.registry import DRIVER, NATIVE, PLANNED, Backend
from repro.backend.sandbox import (
    WORKER_MODULE_SLOTS,
    SandboxRunner,
    _WorkerCache,
    reset_sandbox_pool,
    sandbox_pool,
    sandbox_state,
)
from repro.cache import native_artifact_store, quarantine_threshold
from repro.compiler import compile_pipeline
from repro.errors import (
    CompileError,
    NativeABIError,
    NativeAbortError,
    NativeCrashError,
    NativeHangError,
    NativeQuarantinedError,
)
from repro.multigrid.cycles import build_poisson_cycle
from repro.multigrid.reference import MultigridOptions
from repro.variants import polymg_driver, polymg_native, polymg_opt_plus
from repro.verify.faults import (
    NATIVE_FAULT_INJECTORS,
    inject_native_abort,
    inject_native_segfault,
    inject_native_spin,
)

HAVE_CC = discover_compiler() is not None
needs_cc = pytest.mark.skipif(
    not HAVE_CC, reason="no C toolchain on PATH (cc/gcc/clang)"
)

N = 16
TILES = {2: (8, 16)}


@pytest.fixture(autouse=True)
def _sandbox_env(tmp_path, monkeypatch):
    """Every test gets a private artifact store (quarantine verdicts
    are durable on purpose) and a single-worker pool with a short
    watchdog deadline; the pool singleton is torn down afterwards."""
    monkeypatch.setenv(
        "REPRO_NATIVE_CACHE_DIR", str(tmp_path / "artifacts")
    )
    monkeypatch.setenv("REPRO_SANDBOX_WORKERS", "1")
    monkeypatch.setenv("REPRO_SANDBOX_TIMEOUT", "2")
    monkeypatch.setenv("REPRO_SANDBOX_HEARTBEAT", "0.05")
    monkeypatch.delenv("REPRO_NATIVE_ISOLATION", raising=False)
    reset_sandbox_pool()
    yield
    reset_sandbox_pool()


def _pipe():
    return build_poisson_cycle(
        2, N, MultigridOptions(cycle="V", n1=2, n2=2, n3=2, levels=3)
    )


def _inputs(pipe):
    rng = np.random.default_rng(20170712)
    shape = (N + 2, N + 2)
    return pipe.make_inputs(
        rng.standard_normal(shape), rng.standard_normal(shape)
    )


def _reference(pipe, inputs):
    planned = compile_pipeline(
        pipe.output,
        pipe.params,
        polymg_opt_plus(tile_sizes=dict(TILES), num_threads=1),
        name=pipe.name,
        cache=False,
    )
    return planned.execute(dict(inputs))[pipe.output.name]


def _compile_native(pipe, **overrides):
    overrides.setdefault("native_isolation", "sandbox")
    cfg = polymg_native(
        tile_sizes=dict(TILES), num_threads=1, **overrides
    )
    return compile_pipeline(
        pipe.output, pipe.params, cfg, name=pipe.name, cache=False
    )


# ---------------------------------------------------------------------------
# config and routing (no toolchain required)
# ---------------------------------------------------------------------------


class TestConfigSurface:
    def test_unknown_isolation_mode_is_rejected(self):
        with pytest.raises(CompileError):
            polymg_native(native_isolation="chroot")

    def test_unknown_native_fault_is_rejected(self):
        with pytest.raises(CompileError):
            polymg_native(native_fault="bus-error")

    def test_native_fault_enters_the_fingerprint(self):
        healthy = polymg_native(tile_sizes=dict(TILES))
        faulted, record = inject_native_segfault(healthy)
        assert record.kind == "native-segfault"
        assert healthy.fingerprint() != faulted.fingerprint()

    def test_injector_registry_covers_every_fault_class(self):
        cfg = polymg_native(tile_sizes=dict(TILES))
        kinds = set()
        for injector in (
            inject_native_segfault,
            inject_native_spin,
            inject_native_abort,
        ):
            faulted, record = injector(cfg)
            kinds.add(faulted.native_fault)
            assert NATIVE_FAULT_INJECTORS[record.kind] is injector
        assert kinds == {"segfault", "spin", "abort"}

    def test_env_var_overrides_config_isolation(self, monkeypatch):
        sandboxed = polymg_native(native_isolation="sandbox")
        plain = polymg_native()
        assert native_isolation_mode(sandboxed) == "sandbox"
        assert native_isolation_mode(plain) == "none"
        monkeypatch.setenv("REPRO_NATIVE_ISOLATION", "none")
        assert native_isolation_mode(sandboxed) == "none"
        monkeypatch.setenv("REPRO_NATIVE_ISOLATION", "sandbox")
        assert native_isolation_mode(plain) == "sandbox"
        # an unknown env value is ignored, not an error
        monkeypatch.setenv("REPRO_NATIVE_ISOLATION", "bogus")
        assert native_isolation_mode(sandboxed) == "sandbox"

    def test_native_tier_advertises_crash_isolation(self):
        assert Backend.crash_isolated is False
        assert NATIVE.crash_isolated is True
        assert PLANNED.crash_isolated is False

    def test_sandbox_state_without_pool_reports_disabled(self):
        assert sandbox_state() == {"enabled": False}


class TestQuarantineStore:
    def test_record_crash_latches_at_threshold(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_QUARANTINE_AFTER", "2")
        store = native_artifact_store()
        assert store.record_crash("k1", "NativeCrashError") is False
        assert not store.is_quarantined("k1")
        assert store.record_crash("k1", "NativeHangError") is True
        assert store.is_quarantined("k1")
        assert store.quarantined_keys() == ["k1"]
        # latched: further crashes keep it quarantined
        assert store.record_crash("k1", "NativeAbortError") is True

    def test_get_refuses_a_quarantined_key(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_QUARANTINE_AFTER", "1")
        store = native_artifact_store()
        store.record_crash("k2", "NativeCrashError")
        assert store.get("k2") is None
        # refused as quarantined, not merely missed
        assert store.stats.quarantined_rejections == 1
        assert store.stats.misses == 0

    def test_verdict_survives_artifact_eviction(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_NATIVE_QUARANTINE_AFTER", "1")
        store = native_artifact_store()
        blob = tmp_path / "a.so"
        blob.write_bytes(b"x" * 256)
        store.put("k3", blob)
        store.record_crash("k3", "NativeCrashError")
        # squeeze the budget: the .so and its meta are evicted ...
        store.max_bytes = 1
        other = tmp_path / "b.so"
        other.write_bytes(b"y" * 256)
        store.put("k4", other)
        assert not (store.root / "k3.so").exists()
        # ... but the verdict sidecar (and the blacklist) survive
        assert store.is_quarantined("k3")
        assert "k3" in store.quarantined_keys()

    def test_threshold_env_knob(self, monkeypatch):
        assert quarantine_threshold() == 3
        monkeypatch.setenv("REPRO_NATIVE_QUARANTINE_AFTER", "5")
        assert quarantine_threshold() == 5
        monkeypatch.setenv("REPRO_NATIVE_QUARANTINE_AFTER", "0")
        assert quarantine_threshold() == 1  # clamped
        monkeypatch.setenv("REPRO_NATIVE_QUARANTINE_AFTER", "junk")
        assert quarantine_threshold() == 3


# ---------------------------------------------------------------------------
# sandboxed execution (real compiles)
# ---------------------------------------------------------------------------


@needs_cc
class TestSandboxedExecution:
    def test_sandboxed_run_matches_reference(self):
        pipe = _pipe()
        compiled = _compile_native(pipe)
        runner = compiled.ensure_native()
        assert isinstance(runner, SandboxRunner)
        assert compiled._native_handle.info["isolation"] == "sandbox"
        inputs = _inputs(pipe)
        out = compiled.execute(dict(inputs))[pipe.output.name]
        assert np.allclose(
            out, _reference(pipe, inputs), rtol=1e-9, atol=1e-11
        )
        assert compiled.stats.tier(NATIVE.name).executions == 1
        assert compiled.stats.tier(NATIVE.name).fallbacks == 0
        state = sandbox_state()
        assert state["enabled"] is True
        assert state["jobs"] == 1
        assert state["alive"] == 1
        assert state["crashes"] == 0

    def test_env_override_routes_around_config(self, monkeypatch):
        pipe = _pipe()
        compiled = _compile_native(pipe, native_isolation="none")
        assert compiled.ensure_native() is not None
        monkeypatch.setenv("REPRO_NATIVE_ISOLATION", "sandbox")
        runner, info = build_native_runner(compiled)
        assert isinstance(runner, SandboxRunner)
        assert info["isolation"] == "sandbox"
        monkeypatch.setenv("REPRO_NATIVE_ISOLATION", "none")
        runner, info = build_native_runner(compiled)
        assert not isinstance(runner, SandboxRunner)
        assert info["isolation"] == "none"
        assert info["cache_hit"] is True

    @pytest.mark.parametrize("entry", ["execute", "drive"])
    @pytest.mark.parametrize(
        "fault, exc_type",
        [
            ("segfault", NativeCrashError),
            ("abort", NativeAbortError),
            ("spin", NativeHangError),
        ],
    )
    def test_fault_is_contained_classified_and_served(
        self, fault, exc_type, entry
    ):
        """The crash latches the same way whichever entry it surfaced
        from: a per-cycle execute on the native tier, or a whole-solve
        burst on the driver tier."""
        pipe = _pipe()
        inputs = _inputs(pipe)
        if entry == "drive":
            compiled, serving = (
                _compile_driver(pipe, native_fault=fault), DRIVER
            )
            assert compiled.ensure_native() is not None
            burst = compiled.drive(
                dict(inputs), max_cycles=1, tol=0.0,
                spec=pipe.drive_spec(),
            )
            assert burst is None  # the caller goes per-cycle instead
        else:
            compiled, serving = (
                _compile_native(pipe, native_fault=fault), NATIVE
            )
            assert compiled.ensure_native() is not None
        # the crash is contained and the execute is served correctly
        # by the fallback tier — the parent process never notices
        out = compiled.execute(dict(inputs))[pipe.output.name]
        assert np.array_equal(out, _reference(pipe, inputs))
        assert compiled.stats.tier(serving.name).executions == 0
        assert compiled.stats.tier(serving.name).fallbacks >= 1
        # classification is typed and exact
        pending = compiled.consume_native_fault()
        assert type(pending) is exc_type
        assert pending.context["quarantined"] is False
        assert compiled.consume_native_fault() is None  # popped once
        # the incident names the remediation
        records = [
            r
            for r in compiled.report.incidents
            if r["kind"] == "native-fallback"
        ]
        assert len(records) == 1
        assert records[0]["action"] == "crash-isolated"
        assert records[0]["fallback"] == PLANNED.name
        # the pool accounted the death in its own ledger
        state = sandbox_state()
        counter = {
            "segfault": "crashes",
            "abort": "aborts",
            "spin": "hangs",
        }[fault]
        assert state[counter] == 1

    def test_worker_respawns_and_serves_after_a_crash(self):
        pipe = _pipe()
        inputs = _inputs(pipe)
        bad = _compile_native(pipe, native_fault="segfault")
        assert bad.ensure_native() is not None
        bad.execute(dict(inputs))  # kills the only worker
        good = _compile_native(pipe)
        assert good.ensure_native() is not None
        out = good.execute(dict(inputs))[pipe.output.name]
        assert np.allclose(
            out, _reference(pipe, inputs), rtol=1e-9, atol=1e-11
        )
        assert good.stats.tier(NATIVE.name).executions == 1
        state = sandbox_state()
        assert state["jobs"] == 2
        assert state["crashes"] == 1
        assert state["respawns"] == 1
        assert state["alive"] == 1


class TestWorkerRetention:
    """A worker holds a bounded set of modules and maps only the data
    segment its current job names."""

    def test_module_lru_is_bounded_and_releases_evicted_pools(self):
        released = []

        class FakeModule:
            def __init__(self, so):
                self.so = so

            def release_pool(self):
                released.append(self.so)

        cache = _WorkerCache(FakeModule)
        paths = [f"spec{i}.so" for i in range(WORKER_MODULE_SLOTS + 3)]
        hot = cache.module(paths[0])
        for so in paths[1:]:
            cache.module(so)
            assert cache.module(paths[0]) is hot  # touched: never evicted
        assert len(cache.modules) == WORKER_MODULE_SLOTS
        assert released == paths[1:4]  # least recently used first
        assert set(cache.modules) == {paths[0], *paths[4:]}
        # the benchmark's service pool has six specs: none is evicted
        assert WORKER_MODULE_SLOTS > 6

    def test_a_grown_segment_replaces_the_old_mapping(self):
        small = SharedMemory(create=True, size=4096)
        grown = SharedMemory(create=True, size=8192)
        try:
            cache = _WorkerCache(None)
            first = cache.data(small.name)
            assert cache.data(small.name) is first
            second = cache.data(grown.name)
            assert second.size >= 8192
            assert first.buf is None  # the outgrown mapping is closed
            assert cache.data(grown.name) is second
        finally:
            for shm in (small, grown):
                shm.close()
                shm.unlink()

    @needs_cc
    @pytest.mark.skipif(
        not Path("/proc/self/maps").exists(), reason="needs /proc maps"
    )
    def test_worker_maps_one_data_segment_after_it_grows(self):
        for n in (N, 2 * N):
            pipe = build_poisson_cycle(
                2, n, MultigridOptions(cycle="V", n1=2, n2=2, n3=2, levels=3)
            )
            rng = np.random.default_rng(n)
            shape = (n + 2, n + 2)
            compiled = _compile_native(pipe)
            assert compiled.ensure_native() is not None
            compiled.execute(
                pipe.make_inputs(
                    rng.standard_normal(shape), rng.standard_normal(shape)
                )
            )
            assert compiled.stats.tier(NATIVE.name).executions == 1
        worker = sandbox_pool()._workers[0]
        maps = Path(f"/proc/{worker.proc.pid}/maps").read_text()
        shm = [
            line.split(None, 5)[-1]
            for line in maps.splitlines()
            if "/dev/shm/" in line and worker.hb.name not in line
        ]
        assert shm == [f"/dev/shm/{worker.data.name}"]


def _compile_driver(pipe, **overrides):
    overrides.setdefault("native_isolation", "sandbox")
    cfg = polymg_driver(
        tile_sizes=dict(TILES), num_threads=1, **overrides
    )
    return compile_pipeline(
        pipe.output, pipe.params, cfg, name=pipe.name, cache=False
    )


@needs_cc
class TestSandboxedDriver:
    def test_sandboxed_drive_matches_in_process(self):
        """A whole-solve burst through a sandbox worker is bitwise
        identical — norms and final iterate — to the in-process
        driver, and so is a per-cycle invocation: both are the same
        job with and without a control block."""
        pipe = _pipe()
        boxed = _compile_driver(pipe)
        free = _compile_driver(pipe, native_isolation="none")
        assert isinstance(boxed.ensure_native(), SandboxRunner)
        assert free.ensure_native() is not None
        inputs = _inputs(pipe)
        spec = pipe.drive_spec()
        a = boxed.drive(dict(inputs), max_cycles=5, tol=0.0, spec=spec)
        b = free.drive(dict(inputs), max_cycles=5, tol=0.0, spec=spec)
        assert a is not None and b is not None
        assert a.cycles == b.cycles == 5
        assert a.norms == b.norms
        assert np.array_equal(
            a.outputs[pipe.output.name], b.outputs[pipe.output.name]
        )
        tier = boxed.stats.tier(DRIVER.name)
        assert tier.executions == 1
        assert tier.hook_returns == 1
        assert tier.cycles_in_native == 5
        assert np.array_equal(
            boxed.execute(dict(inputs))[pipe.output.name],
            free.execute(dict(inputs))[pipe.output.name],
        )
        assert tier.executions == 2 and tier.hook_returns == 1
        assert sandbox_state()["jobs"] == 2

    @pytest.mark.parametrize("isolation", ["none", "sandbox"])
    def test_rejections_are_typed_alike_in_and_out_of_process(
        self, isolation
    ):
        """What the shared object refuses — a control block (rc 4), an
        input descriptor (rc 1xx) — raises the same typed error from
        the in-process runner and from a sandbox worker, and neither
        is a crash."""
        pipe = _pipe()
        compiled = _compile_driver(pipe, native_isolation=isolation)
        runner = compiled.ensure_native()
        assert isinstance(runner, SandboxRunner) == (
            isolation == "sandbox"
        )
        arrays = compiled._validated_input_arrays(_inputs(pipe))
        ctrl = DriveCtrl(
            max_cycles=2, iterate_index=len(runner.inputs), rhs_index=0,
            tol=0.0, norm_scale=1.0, inv_h2=1.0,
        )
        with pytest.raises(NativeABIError) as rejected:
            runner.drive(arrays, 1, ctrl)
        assert rejected.value.context["returncode"] == 4
        assert "control block" in str(rejected.value)
        # smuggle wrongly shaped grids past the Python-side shape gate
        runner.inputs = [
            (grid, (N + 1, N + 1)) for grid, _shape in runner.inputs
        ]
        small = {grid: np.zeros((N + 1, N + 1)) for grid in arrays}
        for call in (
            lambda: runner.run(small, 1),
            lambda: runner.drive(small, 1, ctrl),
        ):
            with pytest.raises(NativeABIError) as rejected:
                call()
            assert rejected.value.context["returncode"] == 100
            assert "input descriptor" in str(rejected.value)
        if isolation == "sandbox":
            state = sandbox_state()
            assert state["jobs"] == 3 and state["alive"] == 1
            assert state["crashes"] == state["respawns"] == 0

    def test_wedged_driver_burst_is_killed_and_latched(
        self, monkeypatch
    ):
        """A driver whose cycle counter stops advancing is killed by
        the kernel-progress watch well before the cycle-scaled
        absolute deadline, and the executor latches onto the per-cycle
        fallback with the typed hang pending for the breaker."""
        monkeypatch.setenv("REPRO_SANDBOX_CYCLE_TIMEOUT", "0.3")
        pipe = _pipe()
        compiled = _compile_driver(pipe, native_fault="spin")
        assert compiled.ensure_native() is not None
        start = time.monotonic()
        served = compiled.drive(
            dict(_inputs(pipe)),
            max_cycles=8,
            tol=0.0,
            spec=pipe.drive_spec(),
        )
        elapsed = time.monotonic() - start
        assert served is None  # burst degraded, solve continues
        assert elapsed < 8 * 0.3  # killed before the full budget
        pending = compiled.consume_native_fault()
        assert isinstance(pending, NativeHangError)
        assert pending.context["reason"] == "stalled-cycle"
        assert sandbox_state()["hangs"] == 1


class TestDriverKnobs:
    def test_affinity_env_translation(self, monkeypatch):
        from repro.backend.sandbox import _apply_affinity_env

        for mode, bind in (
            ("compact", "close"), ("scatter", "spread"),
        ):
            monkeypatch.setenv("REPRO_NATIVE_AFFINITY", mode)
            monkeypatch.delenv("OMP_PROC_BIND", raising=False)
            monkeypatch.delenv("OMP_PLACES", raising=False)
            _apply_affinity_env()
            assert os.environ["OMP_PROC_BIND"] == bind
            assert os.environ["OMP_PLACES"] == "cores"

    def test_explicit_omp_settings_win(self, monkeypatch):
        from repro.backend.sandbox import _apply_affinity_env

        monkeypatch.setenv("REPRO_NATIVE_AFFINITY", "compact")
        monkeypatch.setenv("OMP_PROC_BIND", "spread")
        monkeypatch.delenv("OMP_PLACES", raising=False)
        _apply_affinity_env()
        assert os.environ["OMP_PROC_BIND"] == "spread"

    def test_cycle_timeout_defaults_to_flat_timeout(self, monkeypatch):
        from repro.backend.sandbox import (
            sandbox_cycle_timeout,
            sandbox_timeout,
        )

        monkeypatch.delenv("REPRO_SANDBOX_CYCLE_TIMEOUT", raising=False)
        assert sandbox_cycle_timeout() == sandbox_timeout()
        monkeypatch.setenv("REPRO_SANDBOX_CYCLE_TIMEOUT", "1.5")
        assert sandbox_cycle_timeout() == 1.5


@needs_cc
class TestQuarantineEndToEnd:
    def test_repeat_offender_is_quarantined_then_refused(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_NATIVE_QUARANTINE_AFTER", "2")
        pipe = _pipe()
        inputs = _inputs(pipe)
        ref = _reference(pipe, inputs)
        store = native_artifact_store()

        first = _compile_native(pipe, native_fault="abort")
        assert first.ensure_native() is not None
        key = first._native_handle.info["key"]
        assert np.array_equal(
            first.execute(dict(inputs))[pipe.output.name], ref
        )
        assert type(first.consume_native_fault()) is NativeAbortError
        assert not store.is_quarantined(key)

        # a fresh executor happily retries the cached artifact — and
        # its crash crosses the threshold
        second = _compile_native(pipe, native_fault="abort")
        assert second.ensure_native() is not None
        assert np.array_equal(
            second.execute(dict(inputs))[pipe.output.name], ref
        )
        fault = second.consume_native_fault()
        assert fault.context["quarantined"] is True
        assert store.is_quarantined(key)

        # from now on the artifact is refused before compile or load
        third = _compile_native(pipe, native_fault="abort")
        assert third.ensure_native() is None
        assert np.array_equal(
            third.execute(dict(inputs))[pipe.output.name], ref
        )
        assert isinstance(
            third.consume_native_fault(), NativeQuarantinedError
        )
        assert sandbox_state()["quarantined"] == 1

    def test_quarantine_survives_a_process_restart(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_QUARANTINE_AFTER", "1")
        pipe = _pipe()
        compiled = _compile_native(pipe, native_fault="segfault")
        assert compiled.ensure_native() is not None
        key = compiled._native_handle.info["key"]
        compiled.execute(dict(_inputs(pipe)))  # one crash quarantines
        assert native_artifact_store().is_quarantined(key)

        # a brand-new interpreter must refuse to reload the artifact:
        # the verdict lives on disk, not in this process
        child = (
            "import sys\n"
            "from repro.cache import native_artifact_store\n"
            "from repro.compiler import compile_pipeline\n"
            "from repro.errors import NativeQuarantinedError\n"
            "from repro.backend.native import build_native_runner\n"
            "from repro.multigrid.cycles import build_poisson_cycle\n"
            "from repro.multigrid.reference import MultigridOptions\n"
            "from repro.variants import polymg_native\n"
            "key = sys.argv[1]\n"
            "store = native_artifact_store()\n"
            "assert store.is_quarantined(key), 'verdict lost'\n"
            "assert store.get(key) is None, 'artifact served'\n"
            "pipe = build_poisson_cycle(2, 16, MultigridOptions(\n"
            "    cycle='V', n1=2, n2=2, n3=2, levels=3))\n"
            "cfg = polymg_native(tile_sizes={2: (8, 16)},\n"
            "                    num_threads=1,\n"
            "                    native_isolation='sandbox',\n"
            "                    native_fault='segfault')\n"
            "c = compile_pipeline(pipe.output, pipe.params, cfg,\n"
            "                     name=pipe.name, cache=False)\n"
            "try:\n"
            "    build_native_runner(c)\n"
            "except NativeQuarantinedError:\n"
            "    print('QUARANTINE-HELD')\n"
            "else:\n"
            "    print('QUARANTINE-BYPASSED')\n"
        )
        env = dict(os.environ)
        src_root = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p
            for p in (src_root, env.get("PYTHONPATH"))
            if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", child, key],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "QUARANTINE-HELD" in proc.stdout


@needs_cc
class TestResilienceIntegration:
    def test_contained_crash_still_demotes_the_breaker(self):
        from repro.resilience.pipeline import ResilientPipeline

        pipe = _pipe()
        inputs = _inputs(pipe)
        rp = ResilientPipeline(
            pipe,
            config_overrides={
                "tile_sizes": dict(TILES),
                "num_threads": 1,
                "native_isolation": "sandbox",
                "native_fault": "segfault",
            },
        )
        rung = rp.ladder.select()
        compiled = rp.compiled_for(rung)
        assert compiled.ensure_native() is not None
        name, out, error = rp.attempt(dict(inputs))
        # the attempt *succeeds* (the sandbox contained the crash and
        # the fallback tier served the answer) ...
        assert error is None
        assert name == rung
        assert np.array_equal(
            out[pipe.output.name], _reference(pipe, inputs)
        )
        # ... but the crash was still reported to the breaker path
        assert rp.faulted
        faults = [r for r in rp.log.records if r.kind == "fault"]
        assert len(faults) == 1
        assert faults[0].action == "crash-isolated"
        assert faults[0].variant == rung
        assert "NativeCrashError" in faults[0].error


# ---------------------------------------------------------------------------
# parent-process survival (the headline guarantee)
# ---------------------------------------------------------------------------


@needs_cc
class TestParentSurvival:
    def test_parent_pid_is_untouched_by_native_faults(self):
        pid = os.getpid()
        pipe = _pipe()
        inputs = _inputs(pipe)
        t0 = time.monotonic()
        for fault in ("segfault", "abort"):
            compiled = _compile_native(pipe, native_fault=fault)
            assert compiled.ensure_native() is not None
            compiled.execute(dict(inputs))
        assert os.getpid() == pid  # still the same, still alive
        assert time.monotonic() - t0 < 120
        state = sandbox_state()
        assert state["crashes"] == 1 and state["aborts"] == 1
