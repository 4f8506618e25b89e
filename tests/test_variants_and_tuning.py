"""Tests for the variant registry and the auto-tuner."""

import numpy as np
import pytest

from repro.config import PolyMgConfig
from repro.errors import TrialFailure
from repro.model import PAPER_MACHINE
from repro.multigrid import MultigridOptions, build_poisson_cycle
from repro.tuning import (
    TuneMemo,
    autotune_measured,
    autotune_model,
    config_space,
    group_limit_space,
    tile_space,
)
from repro.variants import (
    POLYMG_VARIANTS,
    polymg_dtile_opt_plus,
    polymg_naive,
    polymg_opt,
    polymg_opt_plus,
    variant_config,
)


class TestVariants:
    def test_naive_disables_everything(self):
        cfg = polymg_naive()
        assert not cfg.fuse and not cfg.tile
        assert not cfg.intra_group_reuse
        assert not cfg.inter_group_reuse
        assert not cfg.pooled_allocation

    def test_opt_is_stock_polymage(self):
        cfg = polymg_opt()
        assert cfg.fuse and cfg.tile
        assert not cfg.intra_group_reuse
        assert not cfg.pooled_allocation

    def test_opt_plus_enables_storage(self):
        cfg = polymg_opt_plus()
        assert cfg.intra_group_reuse
        assert cfg.inter_group_reuse
        assert cfg.pooled_allocation
        assert not cfg.diamond_smoothing

    def test_dtile_variant(self):
        cfg = polymg_dtile_opt_plus()
        assert cfg.diamond_smoothing
        assert cfg.dtile_conservative_copies

    def test_registry_and_overrides(self):
        cfg = variant_config("polymg-opt+", group_size_limit=3)
        assert cfg.group_size_limit == 3
        with pytest.raises(KeyError):
            variant_config("polymg-imaginary")
        assert set(POLYMG_VARIANTS) >= {
            "polymg-naive",
            "polymg-opt",
            "polymg-opt+",
            "polymg-dtile-opt+",
            "handopt",
            "handopt+pluto",
        }

    def test_config_tile_shape_fallback(self):
        cfg = PolyMgConfig()
        assert len(cfg.tile_shape(2)) == 2
        assert len(cfg.tile_shape(3)) == 3
        with pytest.raises(ValueError):
            PolyMgConfig(tile_sizes={}).tile_shape(2)


class TestTuningSpaces:
    def test_paper_space_sizes(self):
        # paper section 3.2.4: 80 configurations in 2-D, 135 in 3-D
        assert len(tile_space(2)) * len(group_limit_space()) == 80
        assert len(tile_space(3)) * len(group_limit_space()) == 135

    def test_tile_ranges(self):
        for outer, inner in tile_space(2):
            assert 8 <= outer <= 64 and 64 <= inner <= 512
        for o1, o2, inner in tile_space(3):
            assert 8 <= o1 <= 32 and 8 <= o2 <= 32 and 64 <= inner <= 256

    def test_config_space_yields_configs(self):
        base = polymg_opt_plus()
        pts = list(config_space(base, 2))
        assert len(pts) == 80
        cfg, tiles, limit = pts[0]
        assert cfg.tile_sizes[2] == tiles
        assert cfg.group_size_limit == limit


class TestAutotune:
    def test_model_tuning_finds_minimum(self):
        opts = MultigridOptions(cycle="V", n1=4, n2=4, n3=4, levels=4)
        pipe = build_poisson_cycle(2, 1024, opts)
        res = autotune_model(
            pipe, polymg_opt_plus(), PAPER_MACHINE, threads=24, cycles=2
        )
        assert res.configurations == 80
        assert res.best.score == min(p.score for p in res.points)
        cfg = res.best_config(polymg_opt_plus(), 2)
        assert cfg.tile_sizes[2] == res.best.tile_shape

    def test_measured_tuning_runs(self, monkeypatch):
        import repro.tuning.autotuner as at

        monkeypatch.setattr(at, "GROUP_LIMITS", (4,))
        monkeypatch.setattr(
            at, "tile_space", lambda ndim: [(8, 16), (16, 32)]
        )
        opts = MultigridOptions(cycle="V", n1=2, n2=2, n3=2, levels=3)
        pipe = build_poisson_cycle(2, 32, opts)
        rng = np.random.default_rng(0)
        f = np.zeros((34, 34))
        f[1:-1, 1:-1] = rng.standard_normal((32, 32))
        res = autotune_measured(
            pipe,
            polymg_opt_plus(),
            lambda: pipe.make_inputs(np.zeros_like(f), f),
        )
        assert res.configurations == 2
        assert res.best.score > 0
        # every trial reports its compile/execute split
        assert all(p.execute_time > 0 for p in res.points)

    def test_measured_tuning_drives_whole_solve_tiers(self, monkeypatch):
        """With a whole-solve base config, each measured trial times a
        k-cycle ``polymg_drive`` burst and scores per-cycle wall time,
        so tile sizes are searched under the driver's dispatch regime."""
        from repro.backend.native import discover_compiler
        from repro.variants import polymg_driver

        if discover_compiler() is None:
            pytest.skip("no C toolchain on PATH (cc/gcc/clang)")
        import repro.tuning.autotuner as at

        monkeypatch.setattr(at, "GROUP_LIMITS", (4,))
        monkeypatch.setattr(
            at, "tile_space", lambda ndim: [(8, 16), (16, 32)]
        )
        opts = MultigridOptions(cycle="V", n1=2, n2=2, n3=2, levels=3)
        pipe = build_poisson_cycle(2, 32, opts)
        rng = np.random.default_rng(0)
        f = np.zeros((34, 34))
        f[1:-1, 1:-1] = rng.standard_normal((32, 32))
        res = autotune_measured(
            pipe,
            polymg_driver(
                driver_hook_cycles=4, native_isolation="none"
            ),
            lambda: pipe.make_inputs(np.zeros_like(f), f),
        )
        assert res.configurations == 2
        assert res.best.score > 0
        # repeats=1 and a 4-cycle burst: the trial's total execute
        # time is exactly four per-cycle scores — proof the burst
        # served all four cycles through the driver
        for p in res.points:
            assert p.execute_time == pytest.approx(4 * p.score)

    def test_compile_execute_split_and_cache_hit_skip(self, monkeypatch):
        import repro.tuning.autotuner as at
        from repro.cache import compile_cache

        monkeypatch.setattr(at, "GROUP_LIMITS", (4,))
        monkeypatch.setattr(
            at, "tile_space", lambda ndim: [(8, 16), (16, 32)]
        )
        opts = MultigridOptions(cycle="V", n1=2, n2=2, n3=2, levels=3)
        pipe = build_poisson_cycle(2, 32, opts)
        compile_cache().clear()

        cold = autotune_model(
            pipe, polymg_opt_plus(), PAPER_MACHINE, threads=24, cycles=2
        )
        assert cold.cache_hit_count == 0
        assert all(p.compile_time > 0 for p in cold.points)
        assert all(p.execute_time > 0 for p in cold.points)
        assert cold.compile_time_total == pytest.approx(
            sum(p.compile_time for p in cold.points)
        )

        # re-tuning the same space: every fingerprint is known, so no
        # trial recompiles — the compile column collapses to lookups
        warm = autotune_model(
            pipe, polymg_opt_plus(), PAPER_MACHINE, threads=24, cycles=2
        )
        assert warm.cache_hit_count == len(warm.points) == 2
        assert warm.best.score == pytest.approx(cold.best.score)

    def test_model_tuning_plans_no_kernels_and_scores_as_planned(
        self, monkeypatch
    ):
        """The model scores the schedule alone: its trials build no
        kernel plan, and every score (hence the winner) is exactly what
        the cost model says of the same configuration compiled with
        its plan."""
        import repro.backend.executor as executor
        import repro.tuning.autotuner as at
        from repro.backend.registry import TIERS

        monkeypatch.setattr(at, "GROUP_LIMITS", (4, 8))
        monkeypatch.setattr(
            at, "tile_space", lambda ndim: [(8, 16), (16, 64)]
        )
        opts = MultigridOptions(cycle="V", n1=2, n2=2, n3=2, levels=3)
        pipe = build_poisson_cycle(2, 64, opts)
        plans = []
        real_build = executor.build_kernel_plan
        monkeypatch.setattr(
            executor,
            "build_kernel_plan",
            lambda compiled: plans.append(compiled) or real_build(compiled),
        )
        base = polymg_opt_plus()
        res = autotune_model(pipe, base, PAPER_MACHINE, threads=24, cycles=2)
        assert res.configurations == 4 and plans == []
        for p in res.points:
            cfg = base.with_(
                tile_sizes={**base.tile_sizes, 2: p.tile_shape},
                group_size_limit=p.group_limit,
            )
            planned = pipe.compile(cfg)
            assert planned._kernel_plan is not None
            assert p.score == TIERS.resolve(cfg.backend).cost_hint(
                planned, PAPER_MACHINE, threads=24, cycles=2
            )
        assert res.best.score == min(p.score for p in res.points)


class TestTuneMemo:
    def _pipe(self):
        opts = MultigridOptions(cycle="V", n1=2, n2=2, n3=2, levels=3)
        return build_poisson_cycle(2, 32, opts)

    def _shrink(self, monkeypatch):
        import repro.tuning.autotuner as at

        monkeypatch.setattr(at, "GROUP_LIMITS", (4,))
        monkeypatch.setattr(
            at, "tile_space", lambda ndim: [(8, 16), (16, 32)]
        )

    def test_shared_memo_dedupes_repeated_sweeps(self, monkeypatch):
        self._shrink(monkeypatch)
        pipe = self._pipe()
        memo = TuneMemo()
        cold = autotune_model(
            pipe,
            polymg_opt_plus(),
            PAPER_MACHINE,
            threads=24,
            cycles=2,
            memo=memo,
        )
        assert cold.memo_hits == 0
        assert len(memo) == 2
        warm = autotune_model(
            pipe,
            polymg_opt_plus(),
            PAPER_MACHINE,
            threads=24,
            cycles=2,
            memo=memo,
        )
        # every point served from the memo, same winner, no re-scoring
        assert warm.memo_hits == len(warm.points) == 2
        assert memo.hits == 2
        assert warm.best.score == cold.best.score
        assert warm.best.fingerprint() == cold.best.fingerprint()

    def test_memo_is_mode_keyed(self, monkeypatch):
        """Model scores and different thread counts must not alias."""
        self._shrink(monkeypatch)
        pipe = self._pipe()
        memo = TuneMemo()
        autotune_model(
            pipe, polymg_opt_plus(), PAPER_MACHINE,
            threads=24, cycles=2, memo=memo,
        )
        other = autotune_model(
            pipe, polymg_opt_plus(), PAPER_MACHINE,
            threads=4, cycles=2, memo=memo,
        )
        assert other.memo_hits == 0
        assert len(memo) == 4

    def test_memoized_failures_stay_quarantined(self, monkeypatch):
        """A configuration that failed is latched: the second sweep
        re-quarantines it from the memo without re-running the trial
        (the breakers' don't-retry-known-bad semantics)."""
        from repro.tuning.autotuner import _tune

        self._shrink(monkeypatch)
        pipe = self._pipe()
        memo = TuneMemo()
        calls = []

        def score(cfg):
            calls.append(cfg.tile_sizes[2])
            if cfg.tile_sizes[2] == (8, 16):
                raise RuntimeError("synthetic trial fault")
            return 1.0

        first = _tune(
            pipe, polymg_opt_plus(), score, memo=memo, mode="t"
        )
        assert len(first.failed) == 1 and len(first.points) == 1
        calls_after_first = len(calls)
        second = _tune(
            pipe, polymg_opt_plus(), score, memo=memo, mode="t"
        )
        assert len(calls) == calls_after_first  # nothing re-ran
        assert second.memo_hits == 2
        assert len(second.failed) == 1
        assert isinstance(second.failed[0], TrialFailure)

    def test_tie_break_is_deterministic_by_fingerprint(self, monkeypatch):
        """Equal scores resolve by the stable config fingerprint, not
        dict/insertion order."""
        from repro.tuning.autotuner import _tune

        self._shrink(monkeypatch)
        pipe = self._pipe()
        res = _tune(pipe, polymg_opt_plus(), lambda cfg: 1.0)
        fingerprints = sorted(p.fingerprint() for p in res.points)
        assert res.best.fingerprint() == fingerprints[0]
        # and the winner is identical on a re-sweep over the same space
        again = _tune(pipe, polymg_opt_plus(), lambda cfg: 1.0)
        assert again.best.fingerprint() == res.best.fingerprint()
