"""Compiler configuration for PolyMG.

A :class:`PolyMgConfig` selects which of the paper's optimizations are
applied; the named variants of section 4.1 (``polymg-naive``,
``polymg-opt``, ``polymg-opt+``, ``polymg-dtile-opt+``) are presets over
this structure (see :mod:`repro.variants`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

__all__ = [
    "PolyMgConfig",
    "DEFAULT_TILE_SIZES",
    "VERIFY_LEVELS",
    "BACKENDS",
    "ISOLATION_MODES",
    "NATIVE_FAULTS",
    "AFFINITY_MODES",
]


def __getattr__(name: str):
    # ``BACKENDS`` — the execution backends selectable via
    # :attr:`PolyMgConfig.backend` — is owned by the tier registry
    # (:data:`repro.backend.registry.TIERS`); resolved lazily here to
    # keep this module import-order independent of the backend package.
    if name == "BACKENDS":
        from .backend.registry import TIERS

        return TIERS.selectable_names()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

#: Self-verification levels (see :mod:`repro.verify.invariants`):
#: ``off`` — no checking; ``cheap`` — algebraic invariants after each
#: compile phase (schedule legality, storage liveness cross-check);
#: ``full`` — additionally prove tile coverage of every live-out by
#: exact region enumeration.
VERIFY_LEVELS = ("off", "cheap", "full")

#: Native-tier invocation isolation (see :mod:`repro.backend.sandbox`):
#: ``none`` — in-process ctypes call; ``sandbox`` — persistent
#: out-of-process executor pool with a heartbeat watchdog.
ISOLATION_MODES = ("none", "sandbox")

#: Test-only native crash injection values (``None`` = disabled).
NATIVE_FAULTS = (None, "segfault", "spin", "abort")

#: Thread-affinity policies for the native tiers (see
#: :mod:`repro.backend.codegen_c`): ``none`` leaves placement to the
#: OpenMP runtime, ``compact`` binds close (``proc_bind(close)``),
#: ``scatter`` spreads across places (``proc_bind(spread)``).
AFFINITY_MODES = ("none", "compact", "scatter")

# Paper section 3.2.4 default mid-range tile sizes: 2-D outermost 8:64,
# innermost 64:512; 3-D two outermost 8:32, innermost 64:256.
DEFAULT_TILE_SIZES: dict[int, tuple[int, ...]] = {
    1: (256,),
    2: (32, 256),
    3: (8, 16, 128),
}


@dataclass(frozen=True)
class PolyMgConfig:
    """Optimization switches of the PolyMG code generator.

    Attributes
    ----------
    fuse:
        Enable auto-grouping of stages (fusion).  Off = every stage is
        its own group (``polymg-naive``).
    tile:
        Enable overlapped tiling of multi-stage groups.
    tile_sizes:
        Per-dimensionality tile edge lengths, outermost first.
    group_size_limit:
        Maximum number of stages per fused group (the paper's "grouping
        limit" auto-tuning knob).
    overlap_threshold:
        Maximum tolerated fraction of redundant computation added by
        overlapped tiling within a group.
    intra_group_reuse:
        Scratchpad remapping inside a group (paper 3.2.1, Algorithms
        2-3).
    inter_group_reuse:
        Full-array remapping across groups (paper 3.2.2).
    pooled_allocation:
        Pooled allocator serving full-array requests across (and within)
        multigrid cycle invocations (paper 3.2.3).
    pool_byte_budget:
        Optional cap (bytes) on the pooled allocator's total backing
        memory.  A fresh allocation that would breach it raises the
        typed :class:`~repro.errors.PoolExhaustedError`, surfacing
        memory pressure as a catchable runtime fault instead of an OOM
        kill (``None`` = unbounded).
    scratch_class_slack:
        The "small +/- constant threshold" relaxing scratchpad storage
        class size equality (paper 3.2.1), in elements per dimension.
    diamond_smoothing:
        Keep each pre/post-smoothing TStencil chain in a group of its
        own, which the cost model prices as diamond-tiled instead of
        overlapped-tiled (``polymg-dtile-opt+``).  The executors run
        these groups like any other, so outputs are unchanged.
    dtile_conservative_copies:
        Model the paper-reported implementation issue of
        ``polymg-dtile-opt+``: conservative input/output array reuse
        assumptions force extra memory copies around diamond-tiled
        segments (section 4.2, up to 60% penalty in 3-D).
    fuse_smoother_chains_only:
        Restrict grouping to same-``TStencil`` smoother chains (no
        cross-operator fusion).  Used to express the ``handopt+pluto``
        baseline — which time-tiles smoothers but fuses nothing else —
        as a compiler configuration for the machine cost model.
    num_threads:
        Threads used by the interpreter backend when executing tiles.
    kernel_plan:
        Lower each (group, stage) into ahead-of-time
        :class:`~repro.backend.kernels.StageKernel` op tapes after
        parameter binding (precomputed Case/Interp target boxes, reader
        hulls and strides, hoisted tile grids, zero-realloc temp
        arenas).  The planned executor produces bitwise-identical
        outputs to the unplanned interpreter; disable to force the
        tree-walking fallback.
    temp_arena_limit:
        Optional cap (bytes) on the per-thread temporary-buffer arena
        sized at plan time.  A plan whose arena requirement exceeds the
        cap is abandoned and execution falls back to the unplanned
        interpreter (``None`` = unbounded).
    verify_level:
        Self-verification level: selects which verifier passes are
        interleaved into the compile pipeline (see
        :func:`repro.passes.manager.default_passes`): ``"off"``
        (default, zero overhead), ``"cheap"`` (schedule legality +
        storage-soundness cross-checks), or ``"full"`` (additionally
        exact tile-coverage proofs).
    runtime_guards:
        Enable the runtime numerical sentinels: NaN/Inf scans over each
        group's live-outs during execution (raises
        :class:`~repro.errors.NumericalDivergenceError`).
    backend:
        Execution tier (see :data:`BACKENDS`): ``"planned"``
        (default), ``"interpreted"``, ``"native"`` — the JIT path
        that compiles the emitted C/OpenMP code out-of-process and
        invokes it via ``ctypes`` once per cycle — or
        ``"native-driver"``, the same shared object running whole
        solves (the cycle loop and convergence test in C); unavailable
        constructs or a missing toolchain degrade to ``planned`` with
        a structured incident.
    native_cflags:
        Override the native backend's compiler flags (a tuple of
        argv tokens replacing
        :data:`repro.backend.native.DEFAULT_CFLAGS`: ``-O2`` with the
        loop vectorizer, ``-march=native -fopenmp -fPIC -shared``).
        ``None`` keeps the defaults.  Part of the compile fingerprint and the on-disk
        artifact key.
    native_isolation:
        How the native tier invokes a compiled shared object:
        ``"none"`` (default) loads it in-process via ``ctypes``;
        ``"sandbox"`` runs it in a persistent out-of-process executor
        pool (:mod:`repro.backend.sandbox`) over shared memory, so a
        crashing or hanging kernel cannot take the host process down.
        The solve service defaults to ``"sandbox"``; the
        ``REPRO_NATIVE_ISOLATION`` environment variable overrides both.
    native_fault:
        Test-only crash injection: compile a deliberate fault into the
        emitted native entry point — ``"segfault"`` (wild store),
        ``"spin"`` (infinite loop), or ``"abort"`` — so the sandbox's
        crash/hang/abort handling can be exercised with real native
        faults.  ``None`` (default) emits nothing.  Part of the
        fingerprint, so a faulted artifact never shadows a healthy one.
    driver_hook_cycles:
        Supervisor hook granularity of the whole-solve native driver
        (``polymg_drive``): the in-kernel cycle loop returns to Python
        every this many cycles so checkpointing, deadline, and
        stagnation policy still govern the solve.  Larger values
        amortize dispatch further but coarsen deadline/preemption
        response to ``k``-cycle boundaries.
    native_affinity:
        Thread-pinning policy compiled into the emitted OpenMP parallel
        regions (see :data:`AFFINITY_MODES`): ``"compact"`` emits
        ``proc_bind(close)``, ``"scatter"`` emits ``proc_bind(spread)``,
        ``"none"`` (default) emits no binding clause.  Sandbox executor
        workers additionally translate the ``REPRO_NATIVE_AFFINITY``
        environment override into ``OMP_PROC_BIND``/``OMP_PLACES``.
    """

    fuse: bool = True
    tile: bool = True
    tile_sizes: dict[int, tuple[int, ...]] = field(
        default_factory=lambda: dict(DEFAULT_TILE_SIZES)
    )
    group_size_limit: int = 6
    overlap_threshold: float = 0.4
    intra_group_reuse: bool = True
    inter_group_reuse: bool = True
    pooled_allocation: bool = True
    pool_byte_budget: int | None = None
    scratch_class_slack: int = 4
    diamond_smoothing: bool = False
    dtile_conservative_copies: bool = True
    fuse_smoother_chains_only: bool = False
    num_threads: int = 1
    kernel_plan: bool = True
    temp_arena_limit: int | None = None
    verify_level: str = "off"
    runtime_guards: bool = False
    backend: str = "planned"
    native_cflags: tuple[str, ...] | None = None
    native_isolation: str = "none"
    native_fault: str | None = None
    driver_hook_cycles: int = 8
    native_affinity: str = "none"

    def __post_init__(self) -> None:
        if self.verify_level not in VERIFY_LEVELS:
            from .errors import CompileError

            raise CompileError(
                f"unknown verify_level {self.verify_level!r}",
                expected=VERIFY_LEVELS,
            )
        from .backend.registry import TIERS

        selectable = TIERS.selectable_names()
        if self.backend not in selectable:
            from .errors import CompileError

            raise CompileError(
                f"unknown backend {self.backend!r}", expected=selectable
            )
        if self.native_cflags is not None and not isinstance(
            self.native_cflags, tuple
        ):
            # keep the frozen dataclass hashable/fingerprintable
            object.__setattr__(
                self, "native_cflags", tuple(self.native_cflags)
            )
        if self.native_isolation not in ISOLATION_MODES:
            from .errors import CompileError

            raise CompileError(
                f"unknown native_isolation {self.native_isolation!r}",
                expected=ISOLATION_MODES,
            )
        if self.native_fault not in NATIVE_FAULTS:
            from .errors import CompileError

            raise CompileError(
                f"unknown native_fault {self.native_fault!r}",
                expected=NATIVE_FAULTS,
            )
        if self.driver_hook_cycles < 1:
            from .errors import CompileError

            raise CompileError(
                "driver_hook_cycles must be >= 1",
                got=self.driver_hook_cycles,
            )
        if self.native_affinity not in AFFINITY_MODES:
            from .errors import CompileError

            raise CompileError(
                f"unknown native_affinity {self.native_affinity!r}",
                expected=AFFINITY_MODES,
            )

    def tile_shape(self, ndim: int) -> tuple[int, ...]:
        if ndim in self.tile_sizes:
            return tuple(self.tile_sizes[ndim])
        if ndim > 3:
            # higher-dimensional grids: reuse the innermost 3-D choices
            base = self.tile_sizes.get(3, DEFAULT_TILE_SIZES[3])
            return tuple([base[0]] * (ndim - len(base)) + list(base))
        raise ValueError(f"no tile sizes configured for rank {ndim}")

    def with_(self, **kwargs) -> "PolyMgConfig":
        """Functional update (frozen dataclass convenience)."""
        return replace(self, **kwargs)

    def fingerprint(self) -> str:
        """Stable, canonical serialization of every field — the
        configuration component of the compile-cache key (see
        :mod:`repro.cache`).  Two configs built independently with equal
        field values fingerprint identically; changing *any* field
        changes the fingerprint."""
        parts = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, dict):
                value = sorted(value.items())
            parts.append(f"{f.name}={value!r}")
        return ";".join(parts)
