"""Ladder-driven fault-tolerant execution of a multigrid pipeline.

:class:`ResilientPipeline` is the one fault path from a compiled
pipeline to a trusted answer: graded degradation over a
:class:`~repro.resilience.ladder.DegradationLadder` (a two-rung ladder,
e.g. ``("polymg-opt+", "polymg-naive")``, is the plain verified
primary with a naive fallback):
each invocation is served by the highest healthy ladder rung, every
rung's compile routes through the content-addressed compile cache (a
ladder move costs no recompile), and every fault is recorded as a
structured incident — on the shared
:class:`~repro.resilience.incidents.IncidentLog` *and* on the involved
compiled pipeline's :class:`~repro.passes.manager.CompileReport`.

Fault handling per attempt:

* **verify failure** (the compiled artifact is statically bad): the
  verdict is memoized — the rung trips, its cached compile entry is
  evicted, and the memoized executor is dropped, so the half-open
  probe after cooldown compiles the variant *fresh* instead of
  re-serving the corrupt artifact.
* **runtime fault** (``ReproError`` during execution): the rung trips
  and its allocator pool is trimmed (a demoted variant must not keep
  its high-water backing resident through the cooldown), but the
  executor is kept — a persistent executor-level fault will re-fire on
  the probe and escalate the cooldown, while a transient one heals.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..backend.registry import BATCHED, FallbackPolicy
from ..cache import cache_enabled, compile_cache, compile_fingerprint
from ..errors import ReproError
from ..variants import variant_config
from .incidents import IncidentLog
from .ladder import DegradationLadder

if TYPE_CHECKING:  # pragma: no cover
    from ..backend.executor import CompiledPipeline
    from ..multigrid.cycles import MultigridPipeline

__all__ = ["ResilientPipeline", "CycleBurst"]


class CycleBurst:
    """What one :meth:`ResilientPipeline.attempt_cycles` attempt
    retired: the outputs after the last accepted cycle, the per-cycle
    residual norms when the whole-solve driver computed them in-kernel
    (``None`` means the caller must compute the single cycle's norm
    itself), the number of cycles, and whether the driver served."""

    __slots__ = ("outputs", "norms", "cycles", "driven")

    def __init__(self, outputs, norms, cycles, driven):
        self.outputs = outputs
        self.norms = norms
        self.cycles = cycles
        self.driven = driven


class ResilientPipeline:
    """Fault-tolerant, gradedly-degrading executor over ladder variants.

    Parameters
    ----------
    pipeline:
        The :class:`~repro.multigrid.cycles.MultigridPipeline`
        specification (anything with ``compile``/``output``/``params``).
    ladder:
        The shared :class:`DegradationLadder` (a default one over
        :data:`repro.variants.LADDER_ORDER` is built if omitted).
    verify_level:
        ``verify_compiled`` level run once per compiled variant before
        its first execution (verdict memoized, pass or fail).
    config_overrides:
        Extra :class:`~repro.config.PolyMgConfig` fields applied to
        every rung's variant preset (e.g. small ``tile_sizes`` in
        tests, a ``pool_byte_budget``).
    log:
        Incident log; defaults to the ladder's.
    rung_ceiling:
        Restrict ladder selection to rungs at or below this variant
        (the solve service's graded overload response forces
        ``polymg-naive`` for low-priority tenants by setting it);
        ``None`` serves from the top.
    """

    def __init__(
        self,
        pipeline: "MultigridPipeline",
        ladder: DegradationLadder | None = None,
        *,
        verify_level: str = "cheap",
        config_overrides: dict | None = None,
        log: IncidentLog | None = None,
        rung_ceiling: str | None = None,
    ) -> None:
        self.pipeline = pipeline
        self.ladder = ladder if ladder is not None else DegradationLadder()
        self.log = log if log is not None else self.ladder.log
        self.verify_level = verify_level
        self.config_overrides = dict(config_overrides or {})
        self.rung_ceiling = rung_ceiling
        self.invocations = 0
        #: the single registry-level fallback-and-count path: every
        #: fault is recorded on the shared log and signalled to the
        #: ladder's circuit breakers through here
        self.policy = FallbackPolicy(log=self.log, breaker=self.ladder)
        self._compiled: dict[str, "CompiledPipeline"] = {}
        #: memoized verification verdict per rung: absent = not yet
        #: verified, None = passed, ReproError = failed
        self._verdict: dict[str, ReproError | None] = {}

    # -- compilation -----------------------------------------------------
    def variant_configuration(self, name: str):
        return variant_config(name, **self.config_overrides).with_(
            runtime_guards=True
        )

    def compiled_for(self, name: str) -> "CompiledPipeline":
        """The rung's executor, compiled lazily through the compile
        cache (so ladder moves and probes cost no recompile)."""
        if name not in self._compiled:
            self._compiled[name] = self.pipeline.compile(
                self.variant_configuration(name)
            )
        return self._compiled[name]

    def _evict_compile(self, name: str) -> None:
        """Drop the rung's executor and its cache entry (verify-failure
        path: never re-serve a statically bad artifact)."""
        self._compiled.pop(name, None)
        self._verdict.pop(name, None)
        if cache_enabled():
            key = compile_fingerprint(
                [self.pipeline.output],
                self.pipeline.params,
                self.variant_configuration(name),
                self.pipeline.name,
            )
            compile_cache().evict(key)

    # -- incident plumbing ----------------------------------------------
    def _report_of(self, name: str):
        compiled = self._compiled.get(name)
        return compiled.report if compiled is not None else None

    def report_failure(self, name: str, error: ReproError) -> None:
        """Register an externally-detected fault (e.g. the supervisor's
        residual monitor fired *after* a cycle executed cleanly) with
        the same demotion/trim semantics as an in-attempt fault."""
        self.policy.fault(
            error,
            variant=name,
            invocation=self.invocations,
            report=self._report_of(name),
        )
        self._trim_pool(name)

    def _trim_pool(self, name: str) -> None:
        compiled = self._compiled.get(name)
        if compiled is not None:
            compiled.allocator.trim()

    # -- execution -------------------------------------------------------
    def attempt(
        self, inputs: dict[str, np.ndarray]
    ) -> tuple[str, dict[str, np.ndarray] | None, ReproError | None]:
        """One invocation attempt on the currently-selected rung.

        Returns ``(variant, outputs, None)`` on success or
        ``(variant, None, error)`` on a fault — after recording the
        incident and demoting the rung.  Callers that want transparent
        retry use :meth:`execute`; the solve supervisor calls this
        directly so it can restore its checkpoint between attempts.
        """
        return self._attempt(lambda compiled: compiled.execute(inputs))

    def attempt_cycles(
        self,
        inputs: dict[str, np.ndarray],
        *,
        max_cycles: int,
        tol: float | None = None,
        spec=None,
    ) -> tuple[str, "CycleBurst | None", ReproError | None]:
        """One *burst* attempt on the currently-selected rung.

        When the rung's tier is whole-solve capable (and ``spec`` is
        given), up to ``min(driver_hook_cycles, max_cycles)`` multigrid
        cycles run inside one native driver call — convergence test
        included — and the burst comes back with its in-kernel
        per-cycle norms.  Any reason the driver cannot serve (tier not
        capable, build pending, fault injector, latched fallback)
        degrades to exactly one per-cycle execution *within the same
        attempt*, so ladder selection, the probe lease, and breaker
        accounting happen once either way.  Fault semantics match
        :meth:`attempt`."""

        def run(compiled) -> CycleBurst:
            if spec is not None:
                burst = min(
                    max(
                        1,
                        getattr(compiled.config, "driver_hook_cycles", 1),
                    ),
                    max_cycles,
                )
                drive = getattr(compiled, "drive", None)
                served = (
                    drive(
                        inputs,
                        max_cycles=burst,
                        tol=tol if tol is not None else 0.0,
                        spec=spec,
                    )
                    if drive is not None
                    else None
                )
                if served is not None and served.cycles > 0:
                    return CycleBurst(
                        served.outputs,
                        list(served.norms),
                        served.cycles,
                        True,
                    )
            out = compiled.execute(inputs)
            return CycleBurst(out, None, 1, False)

        return self._attempt(run)

    def attempt_batch(
        self, inputs_list: list[dict[str, np.ndarray]]
    ) -> tuple[str, list[dict[str, np.ndarray]] | None, ReproError | None]:
        """Like :meth:`attempt`, but serve many same-spec right-hand
        sides in one invocation through the registry's batched tier
        (bitwise identical to per-request executes of the selected
        rung).  One fault demotes the rung exactly as a per-request
        fault would.

        Selection is ceilinged at the highest non-JIT rung: batched
        execution walks the planned kernel tapes, so serving it from a
        ``jit_build`` rung would misattribute invocations (and breaker
        health) to a code path the batch never runs."""
        return self._attempt(
            lambda compiled: BATCHED.execute_batch(compiled, inputs_list),
            ceiling=self._batch_ceiling(),
        )

    def _batch_ceiling(self) -> str | None:
        if self.rung_ceiling is not None:
            return self.rung_ceiling
        from ..backend.registry import TIERS

        for rung in self.ladder.variants:
            tier = TIERS.tier_of_rung(rung)
            if tier is None or not tier.jit_build:
                return rung
        return None

    def _attempt(self, run, ceiling: str | None = None):
        self.invocations += 1
        name = self.ladder.select(
            ceiling=ceiling if ceiling is not None else self.rung_ceiling
        )
        try:
            compiled = self.compiled_for(name)
        except ReproError as error:
            self.policy.fault(
                error,
                variant=name,
                invocation=self.invocations,
                action="compile-failed",
            )
            self._evict_compile(name)
            return name, None, error

        if name not in self._verdict:
            from ..verify import verify_compiled

            try:
                verify_compiled(compiled, self.verify_level)
                self._verdict[name] = None
            except ReproError as error:
                self.policy.fault(
                    error,
                    variant=name,
                    invocation=self.invocations,
                    action="verify-failed",
                    report=self._report_of(name),
                )
                self._evict_compile(name)
                return name, None, error

        try:
            out = run(compiled)
        except ReproError as error:
            self.policy.fault(
                error,
                variant=name,
                invocation=self.invocations,
                report=self._report_of(name),
            )
            self._trim_pool(name)
            return name, None, error

        # the sandbox converts a native kernel crash into a *successful*
        # fallback-served execute — correct output, but the rung's
        # breaker must still hear about the crash so repeat offenders
        # demote instead of crashing a worker per invocation
        native_fault = getattr(
            compiled, "consume_native_fault", lambda: None
        )()
        if native_fault is not None:
            self.policy.fault(
                native_fault,
                variant=name,
                invocation=self.invocations,
                action="crash-isolated",
                report=self._report_of(name),
            )
            self._trim_pool(name)
            return name, out, None

        self.ladder.record_success(name)
        return name, out, None

    def execute(self, inputs: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Run one invocation, stepping down the ladder on faults until
        a rung succeeds.  Raises the last fault only when every rung
        (including the degradation floor) failed."""
        last_error: ReproError | None = None
        for _ in range(len(self.ladder.variants) + 1):
            name, out, error = self.attempt(inputs)
            if out is not None:
                return out
            last_error = error
        assert last_error is not None
        raise last_error

    # -- reporting -------------------------------------------------------
    @property
    def faulted(self) -> bool:
        return self.log.count("fault") > 0
