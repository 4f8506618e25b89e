"""Compile-cache correctness.

Covers the acceptance criteria of the content-addressed cache: a second
compile with an identical (spec, params, config) fingerprint is a hit
whose results are bit-identical to a cold compile; changing *any*
component of the key busts it; fault-injected (mutated-in-place)
artifacts are never served."""

from dataclasses import fields

import numpy as np
import pytest

from repro import build_poisson_cycle
from repro.backend.executor import CompiledPipeline
from repro.cache import (
    CompileCache,
    compile_cache,
    compile_fingerprint,
    spec_fingerprint,
)
from repro.backend.registry import INTERPRETED, PLANNED
from repro.config import (
    AFFINITY_MODES,
    ISOLATION_MODES,
    NATIVE_FAULTS,
    PolyMgConfig,
)
from repro.errors import StorageSoundnessError
from repro.multigrid.reference import MultigridOptions
from repro.resilience import DegradationLadder, ResilientPipeline
from repro.variants import polymg_opt_plus
from repro.verify import verify_compiled
from repro.verify.faults import inject_nan_poison, inject_slot_swap

from tests.conftest import make_rhs

N = 32
CFG = polymg_opt_plus(tile_sizes={2: (8, 16)})
OPTS = MultigridOptions(cycle="V", n1=2, n2=2, n3=2, levels=3)


@pytest.fixture
def pipe():
    return build_poisson_cycle(2, N, OPTS)


@pytest.fixture(autouse=True)
def fresh_cache():
    # entries are dropped so every test starts cold; the process-wide
    # stats object survives, so tests assert on deltas
    compile_cache().clear()
    yield
    compile_cache().clear()


class TestCacheHit:
    def test_second_identical_compile_is_a_hit(self, pipe):
        """The acceptance criterion: same fingerprint => cache hit."""
        stats = compile_cache().stats
        h0, m0, s0 = stats.hits, stats.misses, stats.stores

        first = pipe.compile(CFG)
        assert (stats.hits, stats.misses) == (h0, m0 + 1)
        assert stats.stores == s0 + 1

        second = pipe.compile(CFG)
        assert stats.hits == h0 + 1
        assert stats.stores == s0 + 1  # nothing recompiled

        # a hit is a fresh executor over the *shared* artifacts
        assert second is not first
        assert second.dag is first.dag
        assert second.grouping is first.grouping
        assert second.schedule is first.schedule
        assert second.storage is first.storage
        assert second.stats is not first.stats

        # one report per cold compile, with the hit counted on it
        assert second.report is first.report
        assert first.report.cache_hits == 1

    def test_independently_built_specs_share_an_entry(self, pipe):
        stats = compile_cache().stats
        h0 = stats.hits
        rebuilt = build_poisson_cycle(2, N, OPTS)
        assert spec_fingerprint([pipe.output]) == spec_fingerprint(
            [rebuilt.output]
        )
        first = pipe.compile(CFG)
        second = rebuilt.compile(CFG)
        assert stats.hits == h0 + 1
        assert second.grouping is first.grouping

    def test_hit_is_bit_identical_to_cold_compile(self, pipe, rng):
        f = make_rhs(rng, 2, N)
        cold = pipe.compile(CFG, cache=False)
        pipe.compile(CFG)  # populate
        hit = pipe.compile(CFG)
        assert hit.report.cache_hits >= 1
        out_cold = cold.execute(pipe.make_inputs(np.zeros_like(f), f))
        out_hit = hit.execute(pipe.make_inputs(np.zeros_like(f), f))
        assert np.array_equal(
            out_cold[pipe.output.name], out_hit[pipe.output.name]
        )

    def test_cache_false_leaves_cache_untouched(self, pipe):
        stats = compile_cache().stats
        before = stats.to_dict()
        compiled = pipe.compile(CFG, cache=False)
        assert compiled.report is not None
        assert stats.to_dict() == before

    def test_env_var_disables_cache(self, pipe, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILE_CACHE", "0")
        stats = compile_cache().stats
        before = stats.to_dict()
        first = pipe.compile(CFG)
        second = pipe.compile(CFG)
        assert stats.to_dict() == before
        assert second.grouping is not first.grouping

    def test_snapshot_compiles_bypass_the_cache(self, pipe):
        stats = compile_cache().stats
        before = stats.to_dict()
        first = pipe.compile(CFG, snapshot_ir=True)
        second = pipe.compile(CFG, snapshot_ir=True)
        assert stats.to_dict() == before
        assert second.report is not first.report


class TestKeying:
    def test_every_config_field_busts_the_key(self, pipe):
        base = PolyMgConfig()
        outs = [pipe.output]
        k0 = compile_fingerprint(outs, pipe.params, base, "p")

        def bumped(name, value):
            if name == "verify_level":
                return "cheap" if value != "cheap" else "full"
            if name == "backend":
                return (
                    INTERPRETED.name
                    if value != INTERPRETED.name
                    else PLANNED.name
                )
            if name == "native_cflags":
                return ("-O2", "-fPIC", "-shared")
            if name == "native_isolation":
                return next(m for m in ISOLATION_MODES if m != value)
            if name == "native_affinity":
                return next(m for m in AFFINITY_MODES if m != value)
            if name == "native_fault":
                return next(
                    f for f in NATIVE_FAULTS if f is not None and f != value
                )
            if value is None:  # optional fields (e.g. pool_byte_budget)
                return 1 << 20
            if isinstance(value, bool):
                return not value
            if isinstance(value, int):
                return value + 1
            if isinstance(value, float):
                return value + 0.125
            if isinstance(value, dict):
                return {**value, 9: (2,) * 9}
            raise AssertionError(f"unhandled config field {name!r}")

        for f in fields(PolyMgConfig):
            cfg = base.with_(**{f.name: bumped(f.name, getattr(base, f.name))})
            k = compile_fingerprint(outs, pipe.params, cfg, "p")
            assert k != k0, f"field {f.name} did not bust the cache key"

    def test_params_bust_the_key(self, pipe):
        outs = [pipe.output]
        cfg = PolyMgConfig()
        k0 = compile_fingerprint(outs, pipe.params, cfg, "p")
        bumped = {k: v + 1 for k, v in pipe.params.items()}
        assert compile_fingerprint(outs, bumped, cfg, "p") != k0

    def test_name_busts_the_key(self, pipe):
        outs = [pipe.output]
        cfg = PolyMgConfig()
        assert compile_fingerprint(
            outs, pipe.params, cfg, "p"
        ) != compile_fingerprint(outs, pipe.params, cfg, "q")

    def test_spec_change_busts_the_key(self, pipe):
        other = build_poisson_cycle(
            2, N, MultigridOptions(cycle="V", n1=2, n2=2, n3=2, levels=2)
        )
        assert spec_fingerprint([pipe.output]) != spec_fingerprint(
            [other.output]
        )


class TestTaintedArtifacts:
    def test_fault_injected_artifacts_are_never_served(self, pipe):
        stats = compile_cache().stats
        t0 = stats.tainted_rejections
        first = pipe.compile(CFG)
        inject_slot_swap(first)  # corrupts the *shared* storage plan
        with pytest.raises(StorageSoundnessError):
            verify_compiled(first, "cheap")

        second = pipe.compile(CFG)
        assert stats.tainted_rejections == t0 + 1
        assert second.storage is not first.storage
        verify_compiled(second, "cheap")  # recompiled artifacts are clean

    def test_runtime_fault_hook_does_not_leak_through_cache(
        self, pipe, rng
    ):
        first = pipe.compile(CFG)
        inject_nan_poison(first)
        # the artifacts are untouched (the hook lives on the executor),
        # so the entry is still served — minus the poison
        second = pipe.compile(CFG)
        assert second.fault_injector is None
        f = make_rhs(rng, 2, N)
        out = second.execute(pipe.make_inputs(np.zeros_like(f), f))
        assert np.isfinite(out[pipe.output.name]).all()


class TestGuardedPipelineSharing:
    def test_instances_share_primary_and_fallback_compiles(self, pipe):
        """Two guarded pipelines (``polymg-opt+`` verified, falling back
        to ``polymg-naive``) over one specification compile each rung
        once between them."""
        stats = compile_cache().stats
        s0 = stats.stores
        ladder = ("polymg-opt+", "polymg-naive")
        overrides = {"tile_sizes": CFG.tile_sizes}
        g1, g2 = (
            ResilientPipeline(
                pipe,
                DegradationLadder(variants=ladder),
                verify_level="full",
                config_overrides=overrides,
            )
            for _ in range(2)
        )
        for rung in ladder:
            first, second = g1.compiled_for(rung), g2.compiled_for(rung)
            assert second is not first
            assert second.grouping is first.grouping
        # two distinct configs compiled cold in total: primary + fallback
        assert stats.stores == s0 + 2


class TestLruAndStore:
    def test_lru_eviction(self, pipe):
        compiled = pipe.compile(CFG, cache=False)
        cache = CompileCache(maxsize=2)
        cache.store("a", compiled)
        cache.store("b", compiled)
        cache.store("c", compiled)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert cache.lookup("a") is None  # oldest entry evicted
        assert cache.lookup("c") is not None

    def test_store_requires_a_report(self, pipe):
        compiled = pipe.compile(CFG, cache=False)
        bare = CompiledPipeline(
            compiled.dag,
            compiled.config,
            compiled.grouping,
            compiled.schedule,
            compiled.storage,
        )
        cache = CompileCache(maxsize=2)
        with pytest.raises(ValueError):
            cache.store("x", bare)
