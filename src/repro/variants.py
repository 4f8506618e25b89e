"""The evaluation variants of paper section 4.1.

Each PolyMG variant is a :class:`~repro.config.PolyMgConfig` preset:

* ``polymg-naive`` — straightforward parallel code: no fusion, no
  tiling, no storage optimization (one full array per stage, fresh
  allocation each cycle); OpenMP on the outermost loop of each stage.
* ``polymg-opt`` — the stock PolyMage optimizer adapted to multigrid:
  grouping/fusion + overlapped tiling with per-stage scratchpads, but
  one-to-one buffer allocation (no scratch reuse, no array reuse, no
  pooling).
* ``polymg-opt+`` — this paper: all of the above plus intra-group
  scratchpad reuse, inter-group full-array reuse, pooled allocation.
* ``polymg-dtile-opt+`` — ``opt+`` with pre-/post-smoothing chains
  isolated in groups of their own, which the cost model
  (:mod:`repro.model.costs`) prices as diamond-tiled via the
  libPluto-style schedule (:mod:`repro.pluto`), conservative-copy
  implementation issue included.  Executed, those groups run through
  the ordinary overlapped-tiled walkers.

``handopt`` and ``handopt+pluto`` (the Ghysels & Vanroose reference
codes) are separate hand-written implementations in
:mod:`repro.baselines`.

Presets are plain value objects: two calls to the same factory produce
configs with identical
:meth:`~repro.config.PolyMgConfig.fingerprint` values, so compiles of
the same specification under the same variant share one entry in the
content-addressed compile cache (:mod:`repro.cache`) no matter where
the config object was constructed.
"""

from __future__ import annotations

from .backend.registry import TIERS as _TIERS
from .config import PolyMgConfig

__all__ = [
    "POLYMG_VARIANTS",
    "LADDER_ORDER",
    "polymg_naive",
    "polymg_native",
    "polymg_driver",
    "polymg_opt",
    "polymg_opt_plus",
    "polymg_dtile_opt_plus",
    "handopt_model",
    "handopt_pluto_model",
    "variant_config",
]


def polymg_naive(**overrides) -> PolyMgConfig:
    base = dict(
        fuse=False,
        tile=False,
        intra_group_reuse=False,
        inter_group_reuse=False,
        pooled_allocation=False,
    )
    base.update(overrides)
    return PolyMgConfig(**base)


def polymg_opt(**overrides) -> PolyMgConfig:
    base = dict(
        fuse=True,
        tile=True,
        intra_group_reuse=False,
        inter_group_reuse=False,
        pooled_allocation=False,
    )
    base.update(overrides)
    return PolyMgConfig(**base)


def polymg_opt_plus(**overrides) -> PolyMgConfig:
    base = dict(
        fuse=True,
        tile=True,
        intra_group_reuse=True,
        inter_group_reuse=True,
        pooled_allocation=True,
    )
    base.update(overrides)
    return PolyMgConfig(**base)


def polymg_dtile_opt_plus(**overrides) -> PolyMgConfig:
    base = dict(diamond_smoothing=True)
    base.update(overrides)
    return polymg_opt_plus(**base)


def polymg_native(**overrides) -> PolyMgConfig:
    """``polymg-native`` — ``opt+`` executed through the C/OpenMP JIT
    backend (:mod:`repro.backend.native`): the emitted Figure-8 code is
    compiled out-of-process into a shared object and invoked zero-copy
    on the numpy buffers.  Degrades automatically to the planned numpy
    execution of ``opt+`` when no toolchain is available or the build
    fails, so the rung is always safe to stand on."""
    base = dict(backend="native")
    base.update(overrides)
    return polymg_opt_plus(**base)


def polymg_driver(**overrides) -> PolyMgConfig:
    """``polymg-driver`` — ``opt+`` through the whole-solve native
    driver (:class:`~repro.backend.registry.DriverBackend`): the
    multigrid cycle loop, residual-norm convergence test, and iterate
    ping-pong all run inside one ``polymg_drive`` call with persistent
    OpenMP threads, returning to the supervisor hook every
    ``driver_hook_cycles`` cycles.  Shares the per-cycle native tier's
    shared object and degrades to it (then onward down the ladder)
    whenever the driver cannot serve."""
    base = dict(backend="native-driver")
    base.update(overrides)
    return polymg_opt_plus(**base)


def handopt_model(**overrides) -> PolyMgConfig:
    """``handopt`` expressed as a compiler configuration for the machine
    cost model: straightforward per-stage loops (no fusion/tiling) with
    modulo-buffer-style array reuse and pooled allocation.  Wall-clock
    execution uses the real hand-written
    :class:`repro.baselines.HandOptSolver` instead."""
    base = dict(
        fuse=False,
        tile=False,
        intra_group_reuse=False,
        inter_group_reuse=True,
        pooled_allocation=True,
    )
    base.update(overrides)
    return PolyMgConfig(**base)


def handopt_pluto_model(**overrides) -> PolyMgConfig:
    """``handopt+pluto``: handopt with the pre/post-smoothing chains
    diamond-tiled (and nothing else fused)."""
    base = dict(
        fuse=True,
        tile=False,
        intra_group_reuse=False,
        inter_group_reuse=True,
        pooled_allocation=True,
        diamond_smoothing=True,
        dtile_conservative_copies=False,
        fuse_smoother_chains_only=True,
        group_size_limit=99,
        overlap_threshold=99.0,
    )
    base.update(overrides)
    return PolyMgConfig(**base)


#: Canonical graded-degradation order, fastest first, ending at the
#: trusted reference execution path.  The resilience subsystem
#: (:mod:`repro.resilience`) demotes along this ladder on faults and
#: re-promotes as circuits heal; each rung is one of the compiled
#: variants below, so every ladder move routes through the
#: content-addressed compile cache and costs no recompile.
#:
#: Source of truth: each registered execution tier declares its rungs
#: and the :class:`~repro.backend.registry.TierRegistry` concatenates
#: them in tier order — this name is a re-export for compatibility.
LADDER_ORDER = _TIERS.ladder_order()

POLYMG_VARIANTS = {
    "polymg-naive": polymg_naive,
    "polymg-native": polymg_native,
    "polymg-driver": polymg_driver,
    "polymg-opt": polymg_opt,
    "polymg-opt+": polymg_opt_plus,
    "polymg-dtile-opt+": polymg_dtile_opt_plus,
    "handopt": handopt_model,
    "handopt+pluto": handopt_pluto_model,
}


def variant_config(name: str, **overrides) -> PolyMgConfig:
    try:
        factory = POLYMG_VARIANTS[name]
    except KeyError:
        raise KeyError(
            f"unknown variant {name!r}; known: {sorted(POLYMG_VARIANTS)}"
        ) from None
    return factory(**overrides)
