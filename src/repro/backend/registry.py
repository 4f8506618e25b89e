"""The formal ``Backend`` protocol and the ordered execution-tier
registry.

The paper's central claim is that one DSL program lowers to many
execution strategies without touching the solver.  This module makes
that claim a first-class object: every execution tier is a
:class:`Backend` registered in the process-wide :class:`TierRegistry`
(``TIERS``), and everything that used to switch on the
``"native"|"planned"|"interpreted"`` string tags — the executor, the
degradation ladder, the compile cache, the autotuner, the solve
service — now asks the registry instead.  String-literal backend
comparisons are *banned* outside this module (enforced by
``scripts/check_no_backend_strings.py`` in CI).

Registered tiers, fastest first::

    native-driver  whole-solve C cycle loop       (repro.backend.native)
    native         per-cycle C/OpenMP invocation  (repro.backend.native)
    batched        one plan, many RHS, stacked    (this module)
    planned        AOT numpy kernel tapes         (repro.backend.kernels)
    interpreted    tree-walking tile interpreter  (repro.backend.evaluate)

Each tier declares:

* capability flags (``supports_fault_injection``,
  ``supports_batching``, ``plans_kernels``, ``jit_build``,
  ``crash_isolated``, ``whole_solve``, ``config_selectable``) — what a
  pipeline can be lowered to natively is decided by
  :func:`repro.backend.native.unlowerable_reason`, nowhere else;
* its **degradation-ladder rungs** — the registry order concatenates
  them into the canonical five-rung ladder (``TIERS.ladder_order()``:
  ``polymg-driver`` -> ``polymg-native`` -> ``polymg-opt+`` ->
  ``polymg-opt`` -> ``polymg-naive``), which is what
  :data:`repro.variants.LADDER_ORDER` re-exports;
* hooks: :meth:`Backend.run` (serve one invocation on validated
  inputs, or hand it down the fallback edge),
  :meth:`Backend.ensure_ready` (block until tier-specific build work —
  e.g. the native JIT — is done, so the autotuner charges it to the
  trial), :meth:`Backend.cost_hint` (machine-model estimate for the
  autotuner/evolver), :meth:`Backend.inherit` (compile-cache artifact
  adoption), and :meth:`Backend.close`.

Per-tier counters live in :class:`BackendStats` records keyed by tier
name on ``ExecutionStats.tiers``, read through
``ExecutionStats.tier(name)``.

:class:`FallbackPolicy` is the **single** fallback-and-count path.  Its
two users — the executor's native latch and ``ResilientPipeline`` —
each construct one with their own outlets (incident log, compile
report, circuit breaker, stats) and call :meth:`FallbackPolicy.fault`.

There is one walker per tier family.  The numpy tiers share
:meth:`CompiledPipeline._execute_numpy` and
:func:`repro.backend.kernels.run_kernel`: the interpreted tier runs the
group loop without a plan, the planned tier with one, and the batched
tier with one and a batch width — :class:`BatchedPlannedBackend` only
stacks the requests' inputs along a new leading axis and splits the
outputs again.  numpy broadcasting aligns trailing dimensions, so the
per-request ``StageKernel`` tapes run verbatim over ``(B, *spatial)``
arrays and the result is bitwise identical to ``B`` per-request
executes; the solve service uses this to coalesce same-spec queued
requests.  The native tiers share
:meth:`CompiledPipeline._invoke_native`: a per-cycle execute is the
same call as a whole-solve driver burst, without a control block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from ..resilience.incidents import IncidentLog, IncidentRecord
    from .executor import CompiledPipeline, ExecutionStats

__all__ = [
    "BackendStats",
    "Backend",
    "FallbackPolicy",
    "TierRegistry",
    "InterpretedBackend",
    "PlannedBackend",
    "NativeBackend",
    "DriverBackend",
    "BatchedPlannedBackend",
    "INTERPRETED",
    "PLANNED",
    "NATIVE",
    "DRIVER",
    "BATCHED",
    "TIERS",
]


# ---------------------------------------------------------------------------
# per-tier statistics
# ---------------------------------------------------------------------------


@dataclass
class BackendStats:
    """Counters of one execution tier (one record per tier name on
    ``ExecutionStats.tiers``)."""

    tier: str
    #: executes that ran to completion through this tier
    executions: int = 0
    #: executes that wanted this tier but degraded to the next one
    fallbacks: int = 0
    #: tier artifacts served without rebuilding (kernel-plan clones,
    #: native artifact-store hits)
    cache_hits: int = 0
    #: wall time in tier-specific build work (native cc invocation)
    compile_time_s: float = 0.0
    #: wall time building the ahead-of-time kernel plan
    plan_time_s: float = 0.0
    #: requests served by batched executes (batched tier only)
    coalesced: int = 0
    #: multigrid cycles retired inside whole-solve driver bursts
    #: (driver tier only)
    cycles_in_native: int = 0
    #: driver bursts that returned to the Python supervisor hook
    #: (driver tier only)
    hook_returns: int = 0

    def to_dict(self) -> dict:
        return {
            "tier": self.tier,
            "executions": self.executions,
            "fallbacks": self.fallbacks,
            "cache_hits": self.cache_hits,
            "compile_time_s": round(self.compile_time_s, 6),
            "plan_time_s": round(self.plan_time_s, 6),
            "coalesced": self.coalesced,
            "cycles_in_native": self.cycles_in_native,
            "hook_returns": self.hook_returns,
        }


# ---------------------------------------------------------------------------
# the single fallback-and-count path
# ---------------------------------------------------------------------------


class FallbackPolicy:
    """One fault-recording path shared by every tier and consumer.

    Construct it with whichever outlets the deployment has — any subset
    of an :class:`~repro.resilience.incidents.IncidentLog`, a circuit
    breaker (anything with ``record_failure(variant, error)``, i.e. the
    :class:`~repro.resilience.ladder.DegradationLadder`), and an
    :class:`~repro.backend.executor.ExecutionStats` — then report every
    fault through :meth:`fault`.  The records emitted
    are exactly what the pre-registry inline copies produced, so audit
    trails and breaker behaviour are unchanged.
    """

    def __init__(
        self,
        *,
        log: "IncidentLog | None" = None,
        breaker=None,
        stats: "ExecutionStats | None" = None,
    ) -> None:
        self.log = log
        self.breaker = breaker
        self.stats = stats

    def fault(
        self,
        error: Exception,
        *,
        kind: str = "fault",
        tier: str | None = None,
        variant: str | None = None,
        action: str | None = None,
        invocation: int | None = None,
        report=None,
        fallback: str | None = None,
        details: dict | None = None,
        **context,
    ) -> "IncidentRecord | None":
        """Record one fault everywhere it must be visible.

        ``tier`` bumps that tier's fallback counter; ``variant`` signals
        the circuit breaker; ``report`` mirrors the record onto a
        :class:`~repro.passes.manager.CompileReport` (as the structured
        incident dict when no log record exists); ``fallback`` names
        the tier/variant that serves instead.  Returns the incident-log
        record, when one was written.
        """
        rec = None
        if self.stats is not None and tier is not None:
            self.stats.tier(tier).fallbacks += 1
        if self.log is not None:
            fields: dict = {"variant": variant, "invocation": invocation}
            if action is not None:
                fields["action"] = action
            if details is not None:
                fields["details"] = details
            rec = self.log.record(
                kind,
                error=f"{type(error).__name__}: {error}",
                **fields,
            )
        if report is not None:
            if rec is not None:
                report.record_incident(rec.to_dict())
            else:
                incident = {"kind": kind, **context}
                if action is not None:
                    incident["action"] = action
                incident["error"] = str(error)
                if fallback is not None:
                    incident["fallback"] = fallback
                report.record_incident(incident)
        if self.breaker is not None and variant is not None:
            self.breaker.record_failure(variant, error)
        return rec


# ---------------------------------------------------------------------------
# the Backend protocol (base class doubles as the reference impl)
# ---------------------------------------------------------------------------


class Backend:
    """One execution tier.  Subclasses override the flags and hooks;
    the base class implements the interpreter-shaped defaults.

    The run-time contract: ``run(compiled, input_arrays)`` serves one
    pipeline invocation on validated inputs, accumulates counters into
    the tier's :class:`BackendStats` record on ``compiled.stats``, and
    returns the output arrays.  A tier that cannot serve an invocation
    (missing toolchain, pending build, fault-injection hook it cannot
    host) delegates to ``TIERS.fallback_for(self)`` — falling back is a
    counted, recorded event, never a silent downgrade.
    """

    name = "backend"
    #: degradation-ladder rungs this tier contributes, fastest first
    rungs: tuple[str, ...] = ()
    #: can host per-stage fault-injection hooks (interpreter only)
    supports_fault_injection = False
    #: serves many same-spec RHS in one execute (batched tier only)
    supports_batching = False
    #: valid value for ``PolyMgConfig.backend``
    config_selectable = True
    #: builds/consumes the ahead-of-time kernel plan
    plans_kernels = True
    #: runs an out-of-process toolchain build (native JIT only)
    jit_build = False
    #: can confine a crashing/hanging kernel to a disposable worker
    #: process (``native_isolation="sandbox"``) instead of risking the
    #: host — only the native tier runs untrusted machine-generated code
    crash_isolated = False
    #: runs the whole multigrid cycle loop (convergence test included)
    #: inside one invocation, returning to Python only every
    #: ``driver_hook_cycles`` cycles (whole-solve driver tier only)
    whole_solve = False

    # -- readiness / cost -----------------------------------------------
    def ensure_ready(
        self, compiled: "CompiledPipeline", timeout: float | None = None
    ) -> None:
        """Block until tier-specific build work is finished, so callers
        that meter compile wall time (the autotuner) charge it to the
        right trial.  Default: nothing to wait for."""
        return None

    def cost_hint(
        self,
        compiled: "CompiledPipeline",
        machine,
        *,
        threads: int = 1,
        cycles: int = 1,
    ) -> float | None:
        """Predicted run time (seconds) of ``cycles`` invocations on
        ``machine``, or ``None`` when the tier has no model.  All numpy
        tiers — and the native tier, which executes the same schedule —
        answer with the Table-1 machine cost model."""
        from ..model.costs import PipelineCostModel

        return PipelineCostModel(compiled, machine).run_time(
            threads, cycles
        )

    # -- execution ------------------------------------------------------
    def run(self, compiled: "CompiledPipeline", input_arrays: dict):
        """One invocation through this tier; returns the outputs."""
        compiled.stats.tier(self.name).executions += 1
        return compiled._execute_numpy(input_arrays, None)

    # -- lifecycle ------------------------------------------------------
    def inherit(
        self, clone: "CompiledPipeline", source: "CompiledPipeline"
    ) -> None:
        """Adopt this tier's artifacts on a compile-cache clone."""
        return None

    def close(self, compiled: "CompiledPipeline") -> None:
        """Release tier resources held by ``compiled``."""
        compiled.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class InterpretedBackend(Backend):
    """The tree-walking tile interpreter — always correct, hosts the
    per-stage fault-injection hooks, the degradation floor."""

    name = "interpreted"
    supports_fault_injection = True
    plans_kernels = False


class PlannedBackend(Backend):
    """Ahead-of-time numpy kernel tapes (bitwise-identical to the
    interpreter); falls back per-execute when no plan exists."""

    name = "planned"
    rungs = (
        "polymg-opt+",
        "polymg-opt",
        "polymg-naive",
    )

    @staticmethod
    def _tape_plan(compiled):
        """The kernel plan the tape walker may use for this invocation,
        or ``None``: per-stage fault-injection hook points only exist
        in the interpreter."""
        if compiled.fault_injector is not None:
            return None
        return compiled.plan()

    def run(self, compiled, input_arrays):
        kplan = self._tape_plan(compiled)
        if kplan is None:
            return TIERS.fallback_for(self).run(compiled, input_arrays)
        compiled.stats.tier(self.name).executions += 1
        return compiled._execute_numpy(input_arrays, kplan)

    def inherit(self, clone, source):
        clone._inherit_plan(source)


class NativeBackend(Backend):
    """The C/OpenMP JIT: zero-copy ctypes invocation of a shared object
    built in the background; every reason it cannot serve an execute is
    a counted fallback to the planned tier."""

    name = "native"
    rungs = ("polymg-native",)
    jit_build = True
    crash_isolated = True

    def ensure_ready(self, compiled, timeout=None):
        compiled.ensure_native(timeout)

    def run(self, compiled, input_arrays):
        native_cross = None
        runner = compiled._native_runner_for_execute()
        if runner is not None:
            native_out = compiled._invoke_native(runner, input_arrays)
            if native_out is not None:
                if (
                    runner.verified
                    or compiled.config.verify_level != "full"
                ):
                    return native_out
                # verify_level=full: cross-check the first native
                # result against the numpy tiers before trusting it
                native_cross = native_out
        outputs = TIERS.fallback_for(self).run(compiled, input_arrays)
        if native_cross is not None:
            compiled._finish_native_cross_check(
                runner, native_cross, outputs
            )
        return outputs

    def cost_hint(self, compiled, machine, *, threads=1, cycles=1):
        """Table-1 machine model plus one Python→native dispatch
        crossing *per cycle* — the honest per-cycle native estimate the
        roofline predictor ranks against the whole-solve driver."""
        from ..model.costs import NATIVE_DISPATCH_OVERHEAD_S

        base = super().cost_hint(
            compiled, machine, threads=threads, cycles=cycles
        )
        if base is None:
            return None
        return base + cycles * NATIVE_DISPATCH_OVERHEAD_S

    def inherit(self, clone, source):
        clone._inherit_native(source)


class DriverBackend(NativeBackend):
    """The whole-solve native driver: the multigrid cycle loop,
    residual-norm convergence test, and iterate ping-pong run inside
    one ``polymg_drive`` invocation with a persistent OpenMP team,
    returning to the Python supervisor hook every
    :attr:`~repro.config.PolyMgConfig.driver_hook_cycles` cycles.

    Shares the per-cycle native tier's artifact (the same translation
    unit carries both entry points, so one JIT build and one
    artifact-store entry serve both tiers), its lowerability gate, its
    sandbox confinement, and its latched fallback machinery.  Per-cycle
    executes through this tier behave exactly like the native tier;
    the whole-solve path is :meth:`CompiledPipeline.drive`, which
    callers reach only when this tier's ``whole_solve`` flag is set.
    Both reach the shared object through the one
    :meth:`CompiledPipeline._invoke_native` call, with and without a
    driver control block."""

    name = "native-driver"
    rungs = ("polymg-driver",)
    whole_solve = True

    def cost_hint(self, compiled, machine, *, threads=1, cycles=1):
        """One dispatch crossing per ``driver_hook_cycles`` burst
        instead of per cycle — the driver's amortization advantage as
        the roofline predictor sees it."""
        from ..model.costs import NATIVE_DISPATCH_OVERHEAD_S

        base = Backend.cost_hint(
            self, compiled, machine, threads=threads, cycles=cycles
        )
        if base is None:
            return None
        k = max(1, getattr(compiled.config, "driver_hook_cycles", 1))
        bursts = -(-cycles // k)  # ceil
        return base + bursts * NATIVE_DISPATCH_OVERHEAD_S


class BatchedPlannedBackend(PlannedBackend):
    """One kernel plan, many right-hand sides.

    :meth:`execute_batch` stacks the per-request inputs along a new
    leading axis and hands the stack to the planned tier's own group
    loop with a batch width (``_execute_numpy(..., batch=B)``): the
    same tape walker over ``(B, *spatial)`` arrays, amortizing the
    per-op Python dispatch across the whole batch.  Preconditions (else
    a counted fallback to per-request executes): a kernel plan exists
    and no fault-injection hook is armed.  Single executes
    behave exactly like the planned tier.
    """

    name = "batched"
    rungs = ()
    supports_batching = True
    config_selectable = False

    def inherit(self, clone, source):
        # the planned tier's hook already adopts the shared kernel
        # plan; running it again would double-count the cache hit
        pass

    def execute_batch(
        self, compiled: "CompiledPipeline", inputs_list: list
    ) -> list:
        """Run ``len(inputs_list)`` same-spec invocations as one
        batched execute; returns the per-request output dicts, bitwise
        identical to per-request ``execute`` calls."""
        batch = len(inputs_list)
        stats = compiled.stats.tier(self.name)
        plan = self._tape_plan(compiled)
        if plan is None:
            if batch > 1:
                stats.fallbacks += 1
            return [compiled.execute(inputs) for inputs in inputs_list]
        validated = [
            compiled._validated_input_arrays(inputs)
            for inputs in inputs_list
        ]
        stacked = {
            grid: np.stack([arrays[grid] for arrays in validated])
            for grid in compiled.dag.inputs
        }
        stats.executions += 1
        stats.coalesced += batch
        compiled.stats.executions += 1
        outputs = compiled._execute_numpy(stacked, plan, batch=batch)
        return [
            {name: stack[b] for name, stack in outputs.items()}
            for b in range(batch)
        ]


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------


class TierRegistry:
    """Ordered execution tiers, fastest first — the single source of
    truth for backend names, the degradation ladder, fallback edges,
    and compile-cache artifact adoption."""

    def __init__(self) -> None:
        self._order: list[Backend] = []
        self._by_name: dict[str, Backend] = {}
        self._fallback: dict[str, str | None] = {}

    def register(
        self, backend: Backend, *, fallback: str | None = None
    ) -> Backend:
        """Append ``backend`` to the tier order.  ``fallback`` names
        the tier that serves when this one cannot (must already be
        registered or be registered later)."""
        if backend.name in self._by_name:
            raise ValueError(f"tier {backend.name!r} already registered")
        self._order.append(backend)
        self._by_name[backend.name] = backend
        self._fallback[backend.name] = fallback
        return backend

    def __iter__(self):
        return iter(self._order)

    def __len__(self) -> int:
        return len(self._order)

    def names(self) -> tuple[str, ...]:
        """Every registered tier name, fastest first."""
        return tuple(b.name for b in self._order)

    def selectable_names(self) -> tuple[str, ...]:
        """Tier names valid as ``PolyMgConfig.backend``."""
        return tuple(
            b.name for b in self._order if b.config_selectable
        )

    def resolve(self, name: str) -> Backend:
        """The tier registered under ``name``."""
        backend = self._by_name.get(name)
        if backend is None:
            raise KeyError(
                f"unknown backend {name!r}; registered: {self.names()}"
            )
        return backend

    def fallback_for(self, backend: Backend | str) -> Backend | None:
        """The tier that serves when ``backend`` cannot."""
        name = backend if isinstance(backend, str) else backend.name
        target = self._fallback.get(self.resolve(name).name)
        return None if target is None else self.resolve(target)

    # -- the degradation ladder -----------------------------------------
    def ladder_order(self) -> tuple[str, ...]:
        """The canonical graded-degradation ladder: every tier's rungs,
        concatenated in registry order (fastest first)."""
        return tuple(
            rung for backend in self._order for rung in backend.rungs
        )

    def degradation_floor(self) -> str:
        """The last ladder rung — the variant that serves when every
        faster circuit is open (and the ceiling admission forces on
        low-priority tenants under overload)."""
        return self.ladder_order()[-1]

    def tier_of_rung(self, rung: str) -> Backend | None:
        """The tier a ladder rung belongs to."""
        for backend in self._order:
            if rung in backend.rungs:
                return backend
        return None

    # -- cross-cutting hooks --------------------------------------------
    def inherit_artifacts(
        self, clone: "CompiledPipeline", source: "CompiledPipeline"
    ) -> None:
        """Compile-cache clone path: let every tier adopt its artifacts
        (kernel plan, native build) from the cached executor."""
        for backend in self._order:
            backend.inherit(clone, source)

    def tier_health(self, ladder) -> dict:
        """Per-tier health section for ``healthz()`` and the bench
        report printers: rung breaker states plus execution/failure
        tallies, aggregated from the ladder's per-rung records."""
        snap = ladder.snapshot()
        section = {}
        for backend in self._order:
            rungs = {
                name: snap[name] for name in backend.rungs if name in snap
            }
            if not rungs and backend.rungs:
                continue
            states = {h["state"] for h in rungs.values()}
            if not states:
                breaker = "n/a"
            elif states == {"closed"}:
                breaker = "closed"
            elif "closed" in states or "half-open" in states:
                breaker = "degraded"
            else:
                breaker = "open"
            section[backend.name] = {
                "breaker": breaker,
                "executions": sum(
                    h["invocations"] for h in rungs.values()
                ),
                "failures": sum(h["failures"] for h in rungs.values()),
                "trips": sum(h["trips"] for h in rungs.values()),
                "rungs": {
                    name: h["state"] for name, h in rungs.items()
                },
            }
        return section


#: the five registered tiers, fastest first
TIERS = TierRegistry()
DRIVER = TIERS.register(DriverBackend(), fallback="native")
NATIVE = TIERS.register(NativeBackend(), fallback="planned")
BATCHED = TIERS.register(BatchedPlannedBackend(), fallback="planned")
PLANNED = TIERS.register(PlannedBackend(), fallback="interpreted")
INTERPRETED = TIERS.register(InterpretedBackend())
