"""Native backend degradation, verification, and accounting.

The native rung must never be load-bearing: a missing toolchain, a
failing or timed-out compile, an attached fault injector, or a runtime
rejection all degrade to the planned numpy backend with a *structured
incident* — visible in ``CompiledPipeline.report.incidents`` and
counted in the native tier's ``fallbacks`` record — never a silent
downgrade and never a wrong answer.  These tests run (and pass) with
or without a C toolchain; the ones that need a real compile skip with
a notice.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend.native import discover_compiler
from repro.backend.registry import NATIVE, PLANNED
from repro.compiler import compile_pipeline
from repro.multigrid.cycles import build_poisson_cycle
from repro.model.costs import diamond_groups
from repro.multigrid.reference import MultigridOptions, reference_cycle
from repro.tuning.autotuner import _timed_compile
from repro.variants import polymg_driver, polymg_native, polymg_opt_plus


def print_execution_stats(stats) -> None:
    """The per-tier counters of an ``ExecutionStats``, one per line."""
    for name, tier in sorted(stats.tiers.items()):
        print(f"[{name}] executions {tier.executions}")
        print(f"[{name}] fallbacks {tier.fallbacks}")
        if tier.compile_time_s:
            print(f"[{name}] compile (s) {tier.compile_time_s:.3f}")

HAVE_CC = discover_compiler() is not None
needs_cc = pytest.mark.skipif(
    not HAVE_CC, reason="no C toolchain on PATH (cc/gcc/clang)"
)

N = 16
TILES = {2: (8, 16)}


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
    cfg = polymg_native(
        tile_sizes=dict(TILES), num_threads=1, **overrides
    )
    return compile_pipeline(
        pipe.output, pipe.params, cfg, name=pipe.name, cache=False
    )


def _assert_visible_fallback(compiled, action: str | None = None):
    records = [
        rec
        for rec in compiled.report.incidents
        if rec["kind"] == "native-fallback"
    ]
    assert len(records) == 1, records  # latched: exactly one incident
    assert records[0]["fallback"] == PLANNED.name
    if action is not None:
        assert records[0]["action"] == action
    assert compiled.stats.tier(NATIVE.name).fallbacks >= 1
    assert compiled.stats.tier(NATIVE.name).executions == 0


class TestToolchainlessFallback:
    def test_missing_compiler_degrades_with_incident(self, monkeypatch):
        monkeypatch.setenv("REPRO_CC", "/nonexistent/compiler/cc")
        pipe = _pipe()
        compiled = _compile_native(pipe)
        inputs = _inputs(pipe)
        # safe even while the doomed build is still in flight
        out = compiled.execute(dict(inputs))[pipe.output.name]
        assert np.array_equal(out, _reference(pipe, inputs))
        compiled._native_handle.wait(30)  # let the failed build land
        out = compiled.execute(dict(inputs))[pipe.output.name]
        assert np.array_equal(out, _reference(pipe, inputs))
        _assert_visible_fallback(compiled, action="build-failed")

    def test_repeated_executes_log_one_incident(self, monkeypatch):
        monkeypatch.setenv("REPRO_CC", "/nonexistent/compiler/cc")
        pipe = _pipe()
        compiled = _compile_native(pipe)
        inputs = _inputs(pipe)
        compiled.execute(dict(inputs))
        compiled._native_handle.wait(30)  # let the failed build land
        for _ in range(2):
            compiled.execute(dict(inputs))
        _assert_visible_fallback(compiled)
        assert compiled.stats.tier(NATIVE.name).fallbacks == 3

    def test_ensure_native_reports_none(self, monkeypatch):
        monkeypatch.setenv("REPRO_CC", "/nonexistent/compiler/cc")
        pipe = _pipe()
        compiled = _compile_native(pipe)
        assert compiled.ensure_native() is None
        assert compiled._native_disabled is not None


@needs_cc
class TestCompileFailureFallback:
    def test_bad_cflags_degrade_with_incident(self):
        pipe = _pipe()
        compiled = _compile_native(
            pipe,
            native_cflags=(
                "-fPIC", "-shared", "--definitely-not-a-flag-xyz",
            ),
        )
        assert compiled.ensure_native() is None  # join the failed build
        inputs = _inputs(pipe)
        out = compiled.execute(dict(inputs))[pipe.output.name]
        assert np.array_equal(out, _reference(pipe, inputs))
        _assert_visible_fallback(compiled, action="build-failed")

    def test_compile_timeout_degrades_with_incident(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_TIMEOUT", "0.000001")
        pipe = _pipe()
        # unique flags force an artifact-store miss so cc actually runs
        compiled = _compile_native(
            pipe,
            native_cflags=(
                "-O0", "-fPIC", "-shared", "-DPMG_TIMEOUT_TEST=1",
            ),
        )
        assert compiled.ensure_native() is None  # join the failed build
        inputs = _inputs(pipe)
        out = compiled.execute(dict(inputs))[pipe.output.name]
        assert np.array_equal(out, _reference(pipe, inputs))
        _assert_visible_fallback(compiled, action="build-failed")


@needs_cc
class TestDiamondGroupsLowerNatively:
    def test_lowers_with_driver_parity(self):
        """``diamond_smoothing`` only isolates the smoother chains (the
        cost model prices them as diamond-tiled): the isolated groups
        lower to C like any other group, a driver cycle is bitwise the
        per-cycle native execute, and both stay within the native
        tolerance of the planned tier, which equals the reference."""
        n = 32
        pipe = build_poisson_cycle(
            2, n, MultigridOptions(cycle="V", n1=4, n2=2, n3=4, levels=3)
        )
        rng = np.random.default_rng(20170712)
        f = np.zeros((n + 2, n + 2))
        f[1:-1, 1:-1] = rng.standard_normal((n, n))
        inputs = pipe.make_inputs(np.zeros_like(f), f)

        def compiled_for(factory):
            cfg = factory(
                tile_sizes=dict(TILES), num_threads=1, diamond_smoothing=True
            )
            return compile_pipeline(
                pipe.output, pipe.params, cfg, name=pipe.name, cache=False
            )

        planned = compiled_for(polymg_opt_plus)
        want = planned.execute(dict(inputs))[pipe.output.name]
        assert diamond_groups(planned)
        assert np.array_equal(
            want, reference_cycle(np.zeros_like(f), f, 1.0 / (n + 1), pipe.opts)
        )

        native = compiled_for(polymg_native)
        assert native.ensure_native() is not None
        per_cycle = native.execute(dict(inputs))[pipe.output.name]
        assert native.stats.tier(NATIVE.name).executions == 1
        assert native.stats.tier(NATIVE.name).fallbacks == 0
        assert np.allclose(per_cycle, want, rtol=1e-9, atol=1e-11)

        driver = compiled_for(polymg_driver)
        assert driver.ensure_native() is not None
        served = driver.drive(
            dict(inputs), max_cycles=1, tol=0.0, spec=pipe.drive_spec()
        )
        assert served is not None and served.cycles == 1
        assert np.array_equal(served.outputs[pipe.output.name], per_cycle)
        for compiled in (native, driver):
            assert not compiled.report.incidents
            compiled.close()


@needs_cc
class TestFaultInjectorFallsBack:
    def test_injector_routes_to_interpreter(self):
        pipe = _pipe()
        compiled = _compile_native(pipe)
        assert compiled.ensure_native() is not None
        calls = []
        compiled.fault_injector = lambda *a, **kw: calls.append(a)
        inputs = _inputs(pipe)
        out = compiled.execute(dict(inputs))[pipe.output.name]
        assert np.array_equal(out, _reference(pipe, inputs))
        assert compiled.stats.tier(NATIVE.name).executions == 0
        assert compiled.stats.tier(NATIVE.name).fallbacks == 1
        # the hook is a per-execute condition, not a latched disable
        compiled.fault_injector = None
        compiled.execute(dict(inputs))
        assert compiled.stats.tier(NATIVE.name).executions == 1


@needs_cc
class TestVerifyFullCrossCheck:
    def test_first_execute_cross_checks_then_marks_verified(self):
        pipe = _pipe()
        compiled = _compile_native(pipe, verify_level="full")
        runner = compiled.ensure_native()
        assert runner is not None
        assert runner.verified is False
        inputs = _inputs(pipe)
        out = compiled.execute(dict(inputs))[pipe.output.name]
        assert runner.verified is True
        assert compiled.stats.tier(NATIVE.name).executions == 1
        assert np.allclose(
            out, _reference(pipe, inputs), rtol=1e-9, atol=1e-11
        )
        # second execute: native only, no second cross-check pass
        compiled.execute(dict(inputs))
        assert compiled.stats.tier(NATIVE.name).executions == 2
        assert compiled.stats.tier(NATIVE.name).fallbacks == 0


@needs_cc
class TestAccounting:
    def test_compile_time_is_charged_and_artifacts_are_reused(self):
        pipe = _pipe()
        first = _compile_native(pipe)
        assert first.ensure_native() is not None
        assert first.stats.tier(NATIVE.name).compile_time_s > 0.0
        assert first.report.native_compile_time_s > 0.0

        # same source+flags+compiler => artifact-store hit, no cc run
        second = _compile_native(pipe)
        assert second.ensure_native() is not None
        assert second.stats.tier(NATIVE.name).cache_hits == 1

    def test_compile_cache_clone_inherits_the_build(self):
        pipe = _pipe()
        cfg = polymg_native(tile_sizes=dict(TILES), num_threads=1)
        first = compile_pipeline(
            pipe.output, pipe.params, cfg, name=pipe.name, cache=True
        )
        assert first.ensure_native() is not None
        clone = compile_pipeline(
            pipe.output, pipe.params, cfg, name=pipe.name, cache=True
        )
        assert clone is not first
        assert clone._native_handle is first._native_handle
        assert clone.stats.tier(NATIVE.name).cache_hits == 1
        inputs = _inputs(pipe)
        clone.execute(dict(inputs))
        assert clone.stats.tier(NATIVE.name).executions == 1

    def test_autotuner_charges_native_compile_time(self):
        pipe = _pipe()
        cfg = polymg_native(
            tile_sizes=dict(TILES),
            num_threads=1,
            # unique flags force a real compile inside the timed region
            native_cflags=(
                "-O1", "-fPIC", "-shared", "-fopenmp",
                "-DPMG_TUNE_TEST=1",
            ),
        )
        compiled, elapsed, _hit = _timed_compile(pipe, cfg)
        assert compiled.stats.tier(NATIVE.name).compile_time_s > 0.0
        assert elapsed >= compiled.stats.tier(NATIVE.name).compile_time_s

    def test_counters_surface_in_the_bench_printer(self, capsys):
        pipe = _pipe()
        compiled = _compile_native(pipe)
        compiled.ensure_native()
        compiled.execute(dict(_inputs(pipe)))
        print_execution_stats(compiled.stats)
        text = capsys.readouterr().out
        assert "[native] executions" in text
        assert "[native] compile (s)" in text
        assert "[native] fallbacks" in text
