"""Fault-injection harness: every fault class is caught, and the
guarded executor — a resilient pipeline over the two-rung ladder
``polymg-opt+`` -> ``polymg-naive`` — degrades to the reference answer
instead of returning garbage.

The whole suite runs over a pipeline matrix — 2-D V-cycle, 2-D W-cycle,
and a 3-D V-cycle — so the verifiers and sentinels are exercised on
every cycle shape and rank the builder produces, not just the 2-D
V-cycle happy path.

``REPRO_VERIFY_LEVEL`` selects the in-compiler verifier level for the
suite's compiles (default ``off`` — the tests call the verifiers
explicitly); CI runs this file once more at ``full`` to prove the
interleaved verifier passes coexist with fault injection."""

import os

import numpy as np
import pytest

from repro import MultigridOptions, build_poisson_cycle, verify_compiled
from repro.errors import (
    NumericalDivergenceError,
    ScheduleLegalityError,
    StorageSoundnessError,
)
from repro.multigrid.reference import reference_cycle
from repro.resilience import OPEN, DegradationLadder, ResilientPipeline
from repro.variants import polymg_naive, polymg_opt_plus
from repro.verify.faults import (
    FAULT_INJECTORS,
    inject_ghost_shrink,
    inject_group_reorder,
    inject_nan_poison,
    inject_slot_swap,
    inject_transient_nan_poison,
)

from tests.conftest import make_rhs

OVERRIDES = dict(
    tile_sizes={2: (8, 16), 3: (4, 4, 8)},
    verify_level=os.environ.get("REPRO_VERIFY_LEVEL", "off"),
)
CFG = polymg_opt_plus(**OVERRIDES)
PRIMARY, FALLBACK = "polymg-opt+", "polymg-naive"

# (ndim, N, opts): every cycle shape/rank the builder produces
PIPELINES = {
    "2d-V": (2, 32, MultigridOptions(cycle="V", n1=2, n2=2, n3=2, levels=3)),
    "2d-W": (2, 32, MultigridOptions(cycle="W", n1=2, n2=2, n3=2, levels=3)),
    "3d-V": (3, 8, MultigridOptions(cycle="V", n1=2, n2=2, n3=2, levels=2)),
}


@pytest.fixture(params=sorted(PIPELINES), ids=sorted(PIPELINES))
def pipe(request):
    ndim, n, opts = PIPELINES[request.param]
    return build_poisson_cycle(ndim, n, opts)


@pytest.fixture
def problem(pipe, rng):
    f = make_rhs(rng, pipe.ndim, pipe.N)
    return pipe.make_inputs(np.zeros_like(f), f), f


class TestEachFaultIsCaught:
    def test_slot_swap_caught_by_storage_verifier(self, pipe):
        compiled = pipe.compile(CFG)
        record = inject_slot_swap(compiled)
        assert record.kind == "slot-swap"
        with pytest.raises(StorageSoundnessError) as exc:
            verify_compiled(compiled, "cheap")
        assert "still live" in str(exc.value)

    def test_ghost_shrink_caught_by_storage_verifier(self, pipe):
        compiled = pipe.compile(CFG)
        record = inject_ghost_shrink(compiled)
        assert record.kind == "ghost-shrink"
        with pytest.raises(StorageSoundnessError) as exc:
            verify_compiled(compiled, "cheap")
        assert "cover" in str(exc.value)

    def test_group_reorder_caught_by_schedule_verifier(self, pipe):
        compiled = pipe.compile(CFG)
        record = inject_group_reorder(compiled)
        assert record.kind == "group-reorder"
        with pytest.raises(ScheduleLegalityError):
            verify_compiled(compiled, "cheap")

    def test_nan_poison_caught_by_runtime_sentinel(self, pipe, problem):
        inputs, _ = problem
        compiled = pipe.compile(CFG.with_(runtime_guards=True))
        record = inject_nan_poison(compiled)
        assert record.kind == "nan-poison"
        # the artifact itself is clean: compile-time verifiers pass
        verify_compiled(compiled, "full")
        with pytest.raises(NumericalDivergenceError) as exc:
            compiled.execute(inputs)
        assert "non-finite" in str(exc.value)

    def test_nan_poison_silent_without_guards(self, pipe, problem):
        """The sentinel is what fires — with guards off the poisoned
        pipeline silently returns garbage."""
        inputs, _ = problem
        compiled = pipe.compile(CFG)  # runtime_guards=False
        inject_nan_poison(compiled)
        out = compiled.execute(inputs)[pipe.output.name]
        assert np.isnan(out).any()

    def test_transient_nan_poison_fires_exactly_once(self, pipe, problem):
        inputs, _ = problem
        compiled = pipe.compile(CFG.with_(runtime_guards=True))
        record = inject_transient_nan_poison(compiled, invocation=2)
        assert record.kind == "nan-poison-once"
        clean_before = compiled.execute(inputs)[pipe.output.name].copy()
        with pytest.raises(NumericalDivergenceError):
            compiled.execute(inputs)
        clean_after = compiled.execute(inputs)[pipe.output.name]
        assert np.array_equal(clean_before, clean_after)

    def test_faulted_execution_strands_no_pool_buffers(
        self, pipe, problem
    ):
        """A mid-execute fault must return every pooled array — the
        resilience layer's leak accounting relies on it."""
        inputs, _ = problem
        compiled = pipe.compile(CFG.with_(runtime_guards=True))
        inject_nan_poison(compiled)
        with pytest.raises(NumericalDivergenceError):
            compiled.execute(inputs)
        assert compiled.allocator.outstanding == 0
        compiled.allocator.assert_no_leaks()


class _Clock:
    """A frozen monotonic clock the tests advance by hand, so an open
    circuit stays open until a test decides its cooldown is over."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _guarded(pipe, clock=None):
    """The verified primary with a trusted fallback: a resilient
    pipeline over the two-rung ladder ``polymg-opt+`` -> ``polymg-naive``
    (``polymg-opt+`` under the suite's tile sizes and verifier level)."""
    ladder = DegradationLadder(
        variants=(PRIMARY, FALLBACK), clock=clock or _Clock()
    )
    return ResilientPipeline(
        pipe, ladder, verify_level="full", config_overrides=OVERRIDES
    )


def _counting_verifier(monkeypatch):
    """Patch ``verify_compiled`` to record the config of every artifact
    it is asked to verify."""
    import repro.verify as verify_mod

    calls = []
    real = verify_mod.verify_compiled

    def counting(compiled, level="full"):
        calls.append(compiled.config)
        return real(compiled, level)

    monkeypatch.setattr(verify_mod, "verify_compiled", counting)
    return calls


class TestGuardedFallback:
    @pytest.mark.parametrize("kind", sorted(FAULT_INJECTORS))
    def test_fallback_matches_reference(self, pipe, problem, kind):
        inputs, f = problem
        guarded = _guarded(pipe)
        FAULT_INJECTORS[kind](guarded.compiled_for(PRIMARY))

        out = guarded.execute(inputs)[pipe.output.name]

        assert guarded.faulted
        faults = guarded.log.of_kind("fault")
        assert len(faults) == 1
        assert faults[0].variant == PRIMARY
        assert faults[0].error.split(":")[0] in {
            cls.__name__ for cls in (
                NumericalDivergenceError,
                ScheduleLegalityError,
                StorageSoundnessError,
            )
        }
        # the primary is demoted and the fallback served the invocation
        assert guarded.ladder.health[PRIMARY].state == OPEN
        assert guarded.ladder.health[FALLBACK].invocations == 1

        # bit-identical to the trusted naive variant (the reference
        # execution path of the compiled system) ...
        naive = pipe.compile(polymg_naive())
        assert np.array_equal(out, naive.execute(inputs)[pipe.output.name])
        # ... and to the independent (uncompiled) reference solver
        ref = reference_cycle(
            np.zeros_like(f), f, 1.0 / (pipe.N + 1), pipe.opts
        )
        assert np.array_equal(out, ref)

    def test_clean_guarded_run_has_no_incidents(self, pipe, problem):
        inputs, _ = problem
        guarded = _guarded(pipe)
        out = guarded.execute(inputs)[pipe.output.name]
        assert not guarded.faulted
        assert guarded.ladder.health[PRIMARY].invocations == 1
        naive = pipe.compile(polymg_naive())
        assert np.array_equal(out, naive.execute(inputs)[pipe.output.name])

    def test_guarded_pipeline_keeps_serving_after_fault(
        self, pipe, problem
    ):
        """A persistent runtime fault: the fallback serves while the
        primary's circuit is open, and the probe after the cooldown
        faults again — one incident per fault, every answer the same."""
        inputs, _ = problem
        clock = _Clock()
        guarded = _guarded(pipe, clock)
        inject_nan_poison(guarded.compiled_for(PRIMARY))
        first = guarded.execute(inputs)[pipe.output.name].copy()
        second = guarded.execute(inputs)[pipe.output.name].copy()
        assert guarded.log.count("fault") == 1  # circuit open: no retry
        clock.now += guarded.ladder.health[PRIMARY].cooldown
        third = guarded.execute(inputs)[pipe.output.name]
        assert guarded.log.count("probe") == 1
        assert guarded.log.count("fault") == 2  # the probe re-faulted
        assert np.array_equal(first, second)
        assert np.array_equal(first, third)
        assert guarded.ladder.health[FALLBACK].invocations == 3

    def test_verify_verdict_memoized_single_incident(
        self, pipe, problem, monkeypatch
    ):
        """A statically-bad artifact is verified once: one incident,
        every later invocation routes straight to the fallback without
        paying ``verify_compiled`` again."""
        calls = _counting_verifier(monkeypatch)

        inputs, _ = problem
        guarded = _guarded(pipe)
        inject_ghost_shrink(guarded.compiled_for(PRIMARY))
        first = guarded.execute(inputs)[pipe.output.name].copy()
        second = guarded.execute(inputs)[pipe.output.name]
        third = guarded.execute(inputs)[pipe.output.name]

        # verdict memoized, not re-verified: once per rung
        assert calls == [
            guarded.variant_configuration(PRIMARY),
            guarded.variant_configuration(FALLBACK),
        ]
        assert guarded.log.count("fault") == 1  # single incident, not 3
        assert guarded.ladder.health[FALLBACK].invocations == 3
        assert np.array_equal(first, second)
        assert np.array_equal(first, third)

    def test_passing_verdict_memoized_too(self, pipe, problem, monkeypatch):
        calls = _counting_verifier(monkeypatch)

        inputs, _ = problem
        guarded = _guarded(pipe)
        guarded.execute(inputs)
        guarded.execute(inputs)
        assert calls == [guarded.variant_configuration(PRIMARY)]
        assert not guarded.faulted


class TestInjectorsRequireASite:
    def test_slot_swap_needs_fused_scratch(self, pipe):
        compiled = pipe.compile(polymg_naive())
        with pytest.raises(ValueError):
            inject_slot_swap(compiled)

    def test_nan_poison_needs_internal_stages(self, pipe):
        compiled = pipe.compile(polymg_naive())
        with pytest.raises(ValueError):
            inject_nan_poison(compiled)
