"""Registry-driven cross-tier parity (the PR-7 correctness net).

Rather than hard-coding backend names, these suites enumerate the
:data:`~repro.backend.registry.TIERS` registry and dispatch a parity
harness off each tier's declared capability flags — so a newly
registered execution tier is automatically fuzzed against the reference
execution path with zero test edits:

* a ``plans_kernels`` tier must be **bitwise** identical to the
  tree-walking interpreter (numpy tapes replay the same ufunc
  sequence);
* a ``jit_build`` tier (compiled out-of-process, free to reassociate
  floating point) must match within tight ``allclose`` tolerances, and
  skips on machines without a C toolchain;
* a ``supports_batching`` tier must produce **bitwise** identical
  outputs to executing the same requests one at a time.

Registry-contract tests pin the tier order, the degradation ladder
derivation, the fallback edges, and the per-tier stats/health
plumbing the resilience and service layers consume.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend.native import discover_compiler
from repro.backend.registry import (
    BATCHED,
    DRIVER,
    INTERPRETED,
    NATIVE,
    PLANNED,
    TIERS,
)
from repro.compiler import compile_pipeline
from repro.multigrid.cycles import build_poisson_cycle
from repro.multigrid.reference import MultigridOptions
from repro.variants import LADDER_ORDER, polymg_opt_plus

HAVE_CC = discover_compiler() is not None

RTOL, ATOL = 1e-9, 1e-11
TILES = {2: (8, 16), 3: (4, 8, 8)}


def _case(ndim=2, n=16, cycle="V", seed=20170712):
    pipe = build_poisson_cycle(
        ndim, n, MultigridOptions(cycle=cycle, levels=3)
    )
    rng = np.random.default_rng(seed)
    shape = (n + 2,) * ndim
    inputs = pipe.make_inputs(
        rng.standard_normal(shape), rng.standard_normal(shape)
    )
    return pipe, inputs


def _compile(pipe, **overrides):
    cfg = polymg_opt_plus(tile_sizes=dict(TILES), **overrides)
    return compile_pipeline(
        pipe.output, pipe.params, cfg, name=pipe.name, cache=False
    )


# ---------------------------------------------------------------------------
# registry contract
# ---------------------------------------------------------------------------


def test_registry_orders_all_five_tiers():
    assert TIERS.names() == (
        DRIVER.name,
        NATIVE.name,
        BATCHED.name,
        PLANNED.name,
        INTERPRETED.name,
    )


def test_ladder_order_is_concatenation_of_tier_rungs():
    concat = tuple(
        rung
        for name in TIERS.names()
        for rung in TIERS.resolve(name).rungs
    )
    assert TIERS.ladder_order() == concat == LADDER_ORDER


def test_selectable_names_exclude_internal_tiers():
    selectable = TIERS.selectable_names()
    assert BATCHED.name not in selectable
    for name in selectable:
        assert TIERS.resolve(name).config_selectable


def test_fallback_chain_terminates_at_interpreted():
    for name in TIERS.names():
        tier = TIERS.resolve(name)
        seen = set()
        while tier is not None:
            assert tier.name not in seen  # no cycles
            seen.add(tier.name)
            tier = TIERS.fallback_for(tier)
        assert INTERPRETED.name in seen or name == INTERPRETED.name


def test_resolve_unknown_tier_is_a_keyerror():
    with pytest.raises(KeyError, match="native"):
        TIERS.resolve("no-such-tier")


def test_degradation_floor_is_last_ladder_rung():
    assert TIERS.degradation_floor() == TIERS.ladder_order()[-1]
    assert TIERS.tier_of_rung("polymg-native") is NATIVE
    assert TIERS.tier_of_rung("polymg-naive") is PLANNED


def test_capability_flags_partition_the_registry():
    flags = {
        name: (
            TIERS.resolve(name).plans_kernels,
            TIERS.resolve(name).jit_build,
            TIERS.resolve(name).supports_batching,
            TIERS.resolve(name).supports_fault_injection,
        )
        for name in TIERS.names()
    }
    assert flags[INTERPRETED.name] == (False, False, False, True)
    assert flags[PLANNED.name] == (True, False, False, False)
    assert flags[NATIVE.name] == (True, True, False, False)
    assert flags[BATCHED.name] == (True, False, True, False)
    assert flags[DRIVER.name] == (True, True, False, False)
    # the driver is the only whole-solve-capable tier
    whole = [
        name
        for name in TIERS.names()
        if getattr(TIERS.resolve(name), "whole_solve", False)
    ]
    assert whole == [DRIVER.name]


# ---------------------------------------------------------------------------
# capability-dispatched parity over every registered tier
# ---------------------------------------------------------------------------


def _batch_of(pipe, inputs, width, seed=7):
    rng = np.random.default_rng(seed)
    shape = next(iter(inputs.values())).shape
    batch = [dict(inputs)]
    for _ in range(width - 1):
        batch.append(
            pipe.make_inputs(
                rng.standard_normal(shape), rng.standard_normal(shape)
            )
        )
    return batch


_WORK_COUNTERS = ("points_computed", "ideal_points", "tiles_executed")


def _check_batch_equals_singles(tier, pipe, inputs, width, **overrides):
    """``width`` requests through ``tier.execute_batch`` against the
    same requests one planned execute at a time, each side on its own
    pipeline: bitwise outputs, equal work counters.  Returns the
    per-request reference outputs."""
    batch = _batch_of(pipe, inputs, width)
    single, batched = _compile(pipe, **overrides), _compile(pipe, **overrides)
    with single, batched:
        singly = [
            single.execute(dict(b))[pipe.output.name] for b in batch
        ]
        outs = tier.execute_batch(batched, [dict(b) for b in batch])
        stats = batched.stats.tier(tier.name)
        assert (stats.executions, stats.coalesced) == (1, width)
        assert batched.stats.tier(PLANNED.name).executions == 0
        assert len(outs) == width
        for got, ref in zip(outs, singly):
            assert np.array_equal(got[pipe.output.name], ref)
        for counter in _WORK_COUNTERS:
            assert getattr(batched.stats, counter) == getattr(
                single.stats, counter
            ), counter
        assert batched.allocator.outstanding == 0
    return singly


@pytest.mark.parametrize("num_threads", [1, 2])
@pytest.mark.parametrize("tile", [True, False], ids=["tiled", "untiled"])
@pytest.mark.parametrize("width", [1, 4])
def test_batched_walker_is_the_planned_walker(width, tile, num_threads):
    """One tape walker: a batch of one goes through the same stacked
    walk as a batch of four (no short-circuit to ``execute``), tiled
    and untiled groups, with and without the tile thread pool."""
    pipe, inputs = _case()
    _check_batch_equals_singles(
        BATCHED, pipe, inputs, width, tile=tile, num_threads=num_threads
    )


def test_aborted_batch_returns_every_pooled_array():
    """A guard trip in the middle of a batched walk (one poisoned
    request of four) must hand every B-wide pooled array back."""
    from repro.errors import NumericalDivergenceError

    pipe, inputs = _case()
    batch = _batch_of(pipe, inputs, 4)
    poisoned = dict(batch[2])
    name = next(iter(poisoned))
    poisoned[name] = poisoned[name].copy()
    poisoned[name][3, 3] = np.nan
    batch[2] = poisoned
    with _compile(pipe, runtime_guards=True) as compiled:
        assert compiled.config.pooled_allocation
        with pytest.raises(NumericalDivergenceError):
            BATCHED.execute_batch(compiled, batch)
        assert compiled.allocator.outstanding == 0
        # the pipeline still serves clean batches afterwards
        outs = BATCHED.execute_batch(compiled, [dict(inputs)] * 2)
        assert np.array_equal(
            outs[0][pipe.output.name], outs[1][pipe.output.name]
        )


@pytest.mark.parametrize("tier_name", TIERS.names())
@pytest.mark.parametrize("ndim,n", [(2, 16), (3, 8)])
def test_every_tier_matches_the_reference_execution(tier_name, ndim, n):
    tier = TIERS.resolve(tier_name)
    if tier.jit_build and not HAVE_CC:
        pytest.skip("no C toolchain on PATH (cc/gcc/clang)")
    pipe, inputs = _case(ndim=ndim, n=n)
    reference = _compile(pipe, backend="interpreted")
    expected = reference.execute(dict(inputs))[pipe.output.name]

    if tier.supports_batching:
        # batched tiers are exercised through their batch entry point:
        # k same-spec requests, one plan walk, bitwise-equal outputs
        singly = _check_batch_equals_singles(tier, pipe, inputs, 3)
        assert np.array_equal(singly[0], expected)
        return

    compiled = _compile(pipe, backend=tier.name)
    tier.ensure_ready(compiled)
    got = compiled.execute(dict(inputs))[pipe.output.name]
    assert compiled.stats.tier(tier.name).executions >= 1
    if tier.jit_build:
        assert np.allclose(got, expected, rtol=RTOL, atol=ATOL)
    else:
        assert np.array_equal(got, expected)


# ---------------------------------------------------------------------------
# per-tier stats and health plumbing
# ---------------------------------------------------------------------------


def test_execution_stats_keep_one_record_per_tier():
    pipe, inputs = _case()
    compiled = _compile(pipe)
    compiled.execute(dict(inputs))
    stats = compiled.stats
    assert set(stats.tiers) == {PLANNED.name}
    assert stats.tier(PLANNED.name) is stats.tiers[PLANNED.name]
    assert stats.tier(PLANNED.name).plan_time_s > 0.0
    assert stats.tier(NATIVE.name).executions == 0
    d = stats.tier(PLANNED.name).to_dict()
    assert d["tier"] == PLANNED.name and d["executions"] >= 1


def test_tier_health_sections_cover_every_tier():
    from repro.resilience import DegradationLadder

    ladder = DegradationLadder()
    health = TIERS.tier_health(ladder)
    assert set(health) == set(TIERS.names())
    for name, section in health.items():
        assert set(section) >= {
            "breaker",
            "executions",
            "failures",
            "trips",
            "rungs",
        }
        rungs = TIERS.resolve(name).rungs
        assert set(section["rungs"]) == set(rungs)
        if not rungs:
            assert section["breaker"] == "n/a"
