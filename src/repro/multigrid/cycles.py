"""DSL multigrid cycle builder — the executable analogue of Figure 3.

``build_poisson_cycle`` constructs the PolyMG specification of one
V-/W-cycle for the d-dimensional Poisson problem: a recursive Python
function assembling ``TStencil`` smoothers, a defect stage, ``Restrict``
and ``Interp`` sampling stages, and the pointwise correction — exactly
the paper's ``rec_v_cycle``.  The result wraps the output function
together with parameter bindings and auxiliary zero-guess inputs, and
compiles under any :class:`~repro.config.PolyMgConfig`.

Expression construction mirrors :mod:`repro.multigrid.kernels`
operation-for-operation so the compiled pipelines agree with the
reference solver to floating-point round-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ..compiler import compile_pipeline
from ..config import PolyMgConfig
from ..lang.expr import Case, Condition
from ..lang.function import Function, Grid
from ..lang.parameters import Interval, Parameter, Variable
from ..lang.sampling import Interp, Restrict
from ..lang.stencil import Stencil, TStencil
from ..lang.types import Double, Int
from .cyclespec import CycleSpec, as_cycle_spec
from .reference import MultigridOptions

__all__ = [
    "MultigridPipeline",
    "build_poisson_cycle",
    "build_smoother_chain",
    "solve_compiled",
    "solve_supervised",
    "laplacian_weights",
    "full_weighting_weights",
]


def laplacian_weights(ndim: int) -> list:
    """Nested weight list of the (2d+1)-point ``-laplace`` operator
    (2-D: ``[[0,-1,0],[-1,4,-1],[0,-1,0]]``)."""

    def build(idx: tuple[int, ...]):
        if len(idx) == ndim:
            off = [i - 1 for i in idx]
            nz = [o for o in off if o != 0]
            if not nz:
                return 2 * ndim
            if len(nz) == 1 and abs(nz[0]) == 1:
                return -1
            return 0
        return [build(idx + (i,)) for i in range(3)]

    return build(())


def full_weighting_weights(ndim: int) -> list:
    """Nested full-weighting restriction weights: ``2**(#zero offsets)``
    (2-D: ``[[1,2,1],[2,4,2],[1,2,1]]``)."""

    def build(idx: tuple[int, ...]):
        if len(idx) == ndim:
            zeros = sum(1 for i in idx if i == 1)
            return 1 << zeros
        return [build(idx + (i,)) for i in range(3)]

    return build(())


def _ones(shape: tuple[int, ...]):
    if len(shape) == 1:
        return [1] * shape[0]
    return [_ones(shape[1:]) for _ in range(shape[0])]


@dataclass
class MultigridPipeline:
    """A built (but not yet compiled) multigrid cycle specification."""

    name: str
    ndim: int
    N: int
    opts: "MultigridOptions | CycleSpec"
    output: Function
    v_grid: Grid
    f_grid: Grid
    zero_grids: list[Grid]
    params: dict[str, int]
    stage_count_: int = 0

    def compile(
        self,
        config: PolyMgConfig | None = None,
        *,
        cache: bool = True,
        snapshot_ir: bool = False,
    ):
        """Compile this cycle under ``config``.

        Routes through the content-addressed compile cache: repeated
        compiles of an identical (spec, params, config) fingerprint —
        autotuner trials, guarded fallbacks, benchmark reruns — skip
        the compiler passes entirely.  The returned pipeline carries a
        per-pass :class:`~repro.passes.manager.CompileReport` as
        ``.report``."""
        return compile_pipeline(
            self.output,
            self.params,
            config=config,
            name=self.name,
            cache=cache,
            snapshot_ir=snapshot_ir,
        )

    def make_inputs(
        self, v: np.ndarray, f: np.ndarray
    ) -> dict[str, np.ndarray]:
        inputs = {self.v_grid.name: v, self.f_grid.name: f}
        for grid in self.zero_grids:
            shape = grid.domain_box(self.params).shape()
            inputs[grid.name] = np.zeros(shape, dtype=np.float64)
        return inputs

    def drive_spec(self):
        """The whole-solve driver's solve-level geometry (see
        :class:`~repro.backend.executor.DriveSpec`): the iterate and
        right-hand-side grid names plus the residual-norm scalars of
        the finest level."""
        from ..backend.executor import DriveSpec

        h = 1.0 / (self.N + 1)
        return DriveSpec(
            iterate=self.v_grid.name,
            rhs=self.f_grid.name,
            norm_scale=h ** (self.ndim / 2.0),
            inv_h2=1.0 / (h * h),
        )


def solve_compiled(
    pipeline: MultigridPipeline,
    f: np.ndarray,
    *,
    config: PolyMgConfig | None = None,
    compiled=None,
    cycles: int = 10,
    u0: np.ndarray | None = None,
    tol: float | None = None,
    guards: bool = False,
    growth_factor: float = 100.0,
):
    """Iterate compiled multigrid cycles on ``A_h u = f``.

    The executable analogue of :func:`repro.multigrid.reference.solve`:
    each V-/W-cycle invocation runs the compiled pipeline (``compiled``
    may be any object with ``execute``, e.g. a
    :class:`~repro.resilience.pipeline.ResilientPipeline`; otherwise
    ``pipeline`` is compiled under ``config``).

    With ``guards=True`` a
    :class:`~repro.backend.guards.ResidualMonitor` watches the residual
    norm after every cycle and raises
    :class:`~repro.errors.NumericalDivergenceError` on blow-up — an
    unstable smoother diverges loudly instead of silently returning
    garbage.

    When ``compiled`` is not given, the compile routes through the
    content-addressed compile cache, so repeated solves of the same
    problem under the same configuration pay the compiler passes once.
    """
    from ..backend.guards import ResidualMonitor
    from .kernels import norm_residual
    from .reference import SolveResult

    if compiled is None:
        compiled = pipeline.compile(config)
    h = 1.0 / (pipeline.N + 1)
    u = np.zeros_like(f) if u0 is None else u0.copy()
    monitor = (
        ResidualMonitor(growth_factor, pipeline=pipeline.name)
        if guards
        else None
    )
    result = SolveResult(u)
    norm = norm_residual(u, f, h)
    result.residual_norms.append(norm)
    if monitor is not None:
        monitor.observe(norm)
    # whole-solve driver fast path: burst up to ``driver_hook_cycles``
    # cycles per native call (in-kernel convergence test included);
    # any burst the driver cannot serve falls back to per-cycle
    # execution below, iterate-for-iterate identical
    drive = getattr(compiled, "drive", None)
    spec = pipeline.drive_spec() if drive is not None else None
    while result.cycles < cycles:
        served = None
        if drive is not None:
            burst = min(
                getattr(compiled.config, "driver_hook_cycles", 1),
                cycles - result.cycles,
            )
            served = drive(
                pipeline.make_inputs(u, f),
                max_cycles=burst,
                tol=tol if tol is not None else 0.0,
                spec=spec,
            )
        if served is not None:
            if served.cycles == 0:  # defensive: never spin in place
                drive = None
                continue
            # a burst's outputs are fresh arrays (``drive`` contract)
            u = served.outputs[pipeline.output.name]
            result.u = u
            result.cycles += served.cycles
            for norm in served.norms:
                result.residual_norms.append(norm)
                if monitor is not None:
                    monitor.observe(norm)
            if served.converged:
                break
            continue
        out = compiled.execute(pipeline.make_inputs(u, f))
        # the numpy tiers may answer with views of their workspace
        u = np.array(out[pipeline.output.name], copy=True)
        result.u = u
        result.cycles += 1
        norm = norm_residual(u, f, h)
        result.residual_norms.append(norm)
        if monitor is not None:
            monitor.observe(norm)
        if tol is not None and norm < tol:
            break
    return result


def solve_supervised(
    pipeline: MultigridPipeline,
    f: np.ndarray,
    *,
    u0: np.ndarray | None = None,
    cycles: int = 30,
    tol: float | None = None,
    deadline: float | None = None,
    supervisor=None,
    **supervisor_kwargs,
):
    """Solve under the resilience subsystem's full supervision.

    The service-grade analogue of :func:`solve_compiled`: cycles run on
    the highest healthy rung of a degradation ladder
    (``polymg-driver`` -> ... -> ``polymg-naive``), a mid-solve fault
    restores the last-known-good checkpoint and retries on the demoted
    rung, residual stagnation triggers remediation (bump smoothing,
    switch V->W, demote), and the solve respects a wall-clock
    ``deadline`` and cycle budget.  Returns a
    :class:`~repro.resilience.supervisor.SupervisedSolveResult` whose
    ``report()`` carries the full incident/health trail.

    Pass a prebuilt ``supervisor`` (ladder health then persists across
    solves — service semantics); otherwise one is constructed with
    ``supervisor_kwargs`` forwarded to
    :class:`~repro.resilience.supervisor.SolveSupervisor`.
    """
    from ..resilience import SolveSupervisor, SupervisorPolicy

    if supervisor is None:
        policy = SupervisorPolicy(
            max_cycles=cycles, tol=tol, deadline=deadline
        )
        supervisor = SolveSupervisor(
            pipeline, policy, **supervisor_kwargs
        )
    return supervisor.solve(f, u0=u0)


class _CycleBuilder:
    def __init__(
        self, ndim: int, N: int, opts: "MultigridOptions | CycleSpec"
    ) -> None:
        spec = as_cycle_spec(opts)
        if N % (1 << (spec.levels - 1)) != 0:
            raise ValueError(
                f"N={N} not divisible by 2**(levels-1)={1 << (spec.levels - 1)}"
            )
        self.ndim = ndim
        self.N = N
        self.opts = opts
        self.spec = spec
        self.param = Parameter(Int, "N")
        self.vars = tuple(
            Variable(n) for n in ("z", "y", "x")[3 - ndim :]
        )
        self.zero_grids: dict[int, Grid] = {}
        self.counter = 0
        self.stage_count = 0

    # -- level geometry -------------------------------------------------
    def level_n(self, level: int):
        """Parametric interior extent of ``level`` (affine in N)."""
        shift = self.spec.levels - 1 - level
        return self.param.affine * Fraction(1, 1 << shift)

    def level_n_value(self, level: int) -> int:
        return self.N >> (self.spec.levels - 1 - level)

    def h(self, level: int) -> float:
        """Mesh width of ``level``: ``1/(N_l + 1)`` (symmetric
        convention; see multigrid.reference for the rationale)."""
        return 1.0 / (self.level_n_value(level) + 1)

    def full_intervals(self, level: int) -> list[Interval]:
        n = self.level_n(level)
        return [Interval(Int, 0, n + 1) for _ in range(self.ndim)]

    def interior_intervals(self, level: int) -> list[Interval]:
        n = self.level_n(level)
        return [Interval(Int, 1, n) for _ in range(self.ndim)]

    def interior_condition(self, level: int) -> Condition:
        n = self.level_n(level)
        cond = None
        for var in self.vars:
            atom = (var >= 1) & (var <= n)
            cond = atom if cond is None else cond & atom
        return cond

    def zero_grid(self, level: int) -> Grid:
        if level not in self.zero_grids:
            n = self.level_n(level)
            sizes = [n + 2 for _ in range(self.ndim)]
            self.zero_grids[level] = Grid(Double, f"zero_L{level}", sizes)
        return self.zero_grids[level]

    def _tag(self) -> int:
        self.counter += 1
        return self.counter

    # -- cycle stages (Figure 3's helper functions) ----------------------
    def smoother(
        self,
        v: Function,
        f: Function,
        level: int,
        steps: int,
        tag: str,
        omega: float | None = None,
    ) -> Function:
        if steps == 0:
            return v
        if omega is None:
            omega = self.spec.level(level).omega
        h = self.h(level)
        weight = omega * (h * h) / (2.0 * self.ndim)
        W = TStencil(
            (self.vars, self.full_intervals(level)),
            Double,
            steps,
            evolving=v,
            name=f"{tag}_L{level}_{self._tag()}",
        )
        a_v = Stencil(
            v, self.vars, laplacian_weights(self.ndim), 1.0 / (h * h)
        )
        W.defn = [
            Case(
                self.interior_condition(level),
                v(*self.vars) - weight * (a_v - f(*self.vars)),
            ),
            v(*self.vars),
        ]
        self.stage_count += steps
        return W.last

    def defect(self, v: Function, f: Function, level: int) -> Function:
        h = self.h(level)
        r = Function(
            (self.vars, self.full_intervals(level)),
            Double,
            name=f"defect_L{level}_{self._tag()}",
        )
        r.kind = "defect"
        a_v = Stencil(
            v, self.vars, laplacian_weights(self.ndim), 1.0 / (h * h)
        )
        r.defn = [
            Case(self.interior_condition(level), f(*self.vars) - a_v),
            0.0,
        ]
        self.stage_count += 1
        return r

    def restrict(self, r: Function, coarse_level: int) -> Function:
        R = Restrict(
            (self.vars, self.interior_intervals(coarse_level)),
            Double,
            name=f"restrict_L{coarse_level}_{self._tag()}",
        )
        R.defn = [
            Stencil(
                r,
                self.vars,
                full_weighting_weights(self.ndim),
                1.0 / (4.0**self.ndim),
            )
        ]
        self.stage_count += 1
        return R

    def interpolate(self, e: Function, fine_level: int) -> Function:
        P = Interp(
            (self.vars, self.interior_intervals(fine_level)),
            Double,
            name=f"interp_L{fine_level}_{self._tag()}",
        )

        def parity_entry(parity: tuple[int, ...]):
            shape = tuple(1 + r for r in parity)
            expr = Stencil(
                e, self.vars, _ones(shape), origin=(0,) * self.ndim
            )
            w = 0.5 ** sum(parity)
            return expr * w if w != 1.0 else expr

        def table(parity: tuple[int, ...]):
            if len(parity) == self.ndim:
                return parity_entry(parity)
            return [table(parity + (0,)), table(parity + (1,))]

        P.defn = [table(())]
        self.stage_count += 1
        return P

    def correct(
        self, v: Function, e: Function, level: int
    ) -> Function:
        c = Function(
            (self.vars, self.full_intervals(level)),
            Double,
            name=f"correct_L{level}_{self._tag()}",
        )
        c.kind = "correct"
        c.defn = [
            Case(
                self.interior_condition(level),
                v(*self.vars) + e(*self.vars),
            ),
            v(*self.vars),
        ]
        self.stage_count += 1
        return c

    # -- recursion (Figure 3's rec_v_cycle, per-level generalized) --------
    def rec_cycle(self, v: Function, f: Function, level: int) -> Function:
        ls = self.spec.level(level)
        if level == 0:
            return self.smoother(v, f, level, ls.pre, "coarse", ls.omega)

        smoothed = self.smoother(v, f, level, ls.pre, "pre", ls.omega)
        r_h = self.defect(smoothed, f, level)
        r_2h = self.restrict(r_h, level - 1)
        e_2h = self.zero_grid(level - 1)
        for _visit in range(ls.branch):
            e_2h = self.rec_cycle(e_2h, r_2h, level - 1)
        e_h = self.interpolate(e_2h, level)
        v_c = self.correct(smoothed, e_h, level)
        return self.smoother(v_c, f, level, ls.post, "post", ls.omega)


def build_poisson_cycle(
    ndim: int,
    N: int,
    opts: "MultigridOptions | CycleSpec",
    name: str | None = None,
) -> MultigridPipeline:
    """Build one Poisson multigrid cycle specification.

    ``N`` is the finest interior extent per dimension (grid arrays are
    ``(N+2)**ndim``); it must be divisible by ``2**(levels-1)``.

    ``opts`` is either the flat :class:`MultigridOptions` or a
    per-level :class:`~repro.multigrid.cyclespec.CycleSpec` (the
    evolutionary search's genome): both lower through the identical
    recursion, so every execution tier — interpreted, planned, batched,
    native, driver — picks discovered cycles up with no backend
    changes.
    """
    if ndim not in (1, 2, 3):
        raise ValueError("supported grid ranks: 1, 2, 3")
    builder = _CycleBuilder(ndim, N, opts)
    sizes = [builder.param + 2 for _ in range(ndim)]
    v_grid = Grid(Double, "V", sizes)
    f_grid = Grid(Double, "F", sizes)
    output = builder.rec_cycle(v_grid, f_grid, builder.spec.levels - 1)
    if name is None:
        if isinstance(opts, CycleSpec):
            name = f"evo-{ndim}D-{opts.short_hash()}-N{N}"
        else:
            name = (
                f"{opts.cycle}-{ndim}D-{opts.smoothing_label()}-N{N}"
            )
    pipeline = MultigridPipeline(
        name=name,
        ndim=ndim,
        N=N,
        opts=opts,
        output=output,
        v_grid=v_grid,
        f_grid=f_grid,
        zero_grids=[
            builder.zero_grids[l] for l in sorted(builder.zero_grids)
        ],
        params={"N": N},
    )
    pipeline.stage_count_ = builder.stage_count
    return pipeline


def build_smoother_chain(
    ndim: int,
    N: int,
    steps: int,
    omega: float = 0.8,
    name: str | None = None,
) -> MultigridPipeline:
    """A standalone pipeline of ``steps`` Jacobi smoothing iterations on
    one grid — the paper's Figure 11a workload (smoother-only
    comparison of overlapped vs diamond tiling)."""
    opts = MultigridOptions(
        cycle="V", n1=steps, n2=0, n3=0, levels=2, omega=omega
    )
    builder = _CycleBuilder(ndim, N, opts)
    sizes = [builder.param + 2 for _ in range(ndim)]
    v_grid = Grid(Double, "V", sizes)
    f_grid = Grid(Double, "F", sizes)
    top = opts.levels - 1
    output = builder.smoother(v_grid, f_grid, top, steps, "smooth")
    pipeline = MultigridPipeline(
        name=name or f"smoother-{ndim}D-{steps}steps-N{N}",
        ndim=ndim,
        N=N,
        opts=opts,
        output=output,
        v_grid=v_grid,
        f_grid=f_grid,
        zero_grids=[],
        params={"N": N},
    )
    pipeline.stage_count_ = steps
    return pipeline
