"""repro — a reproduction of "Optimizing Geometric Multigrid Method
Computation using a DSL Approach" (SC'17): the PolyMG DSL, its
optimizing compiler (fusion, overlapped tiling, the storage
optimizations of section 3.2), a numpy execution backend, a C/OpenMP
emitter, a Pluto-style diamond-tile schedule, the hand-optimized
baselines, and a machine cost model of the paper's evaluation platform.

Quickstart::

    from repro import (
        MultigridOptions, build_poisson_cycle, polymg_opt_plus,
    )
    pipe = build_poisson_cycle(2, 128, MultigridOptions(levels=4))
    compiled = pipe.compile(polymg_opt_plus())
    out = compiled.execute(pipe.make_inputs(v, f))

See README.md, DESIGN.md, and EXPERIMENTS.md.
"""

from .backend.guards import ResidualMonitor
from .cache import CompileCache, compile_cache, compile_fingerprint
from .compiler import compile_pipeline
from .config import PolyMgConfig
from .errors import (
    CompileError,
    NumericalDivergenceError,
    PassOrderingError,
    PoolExhaustedError,
    ReproError,
    ScheduleLegalityError,
    SolveAbortedError,
    StorageSoundnessError,
    TileCoverageError,
    TrialFailure,
)
from .passes.manager import (
    CompilationContext,
    CompileReport,
    Pass,
    PassManager,
    default_passes,
)
from .multigrid import (
    MultigridOptions,
    build_poisson_cycle,
    reference_cycle,
    solve,
    solve_compiled,
)
from .multigrid.cycles import solve_supervised
from .resilience import (
    DegradationLadder,
    IncidentLog,
    ResilientPipeline,
    SolveSupervisor,
    SupervisedSolveResult,
    SupervisorPolicy,
)
from .verify import verify_compiled
from .multigrid.cycles import build_smoother_chain
from .multigrid.nas_mg import NasMgSolver, build_nas_mg_cycle
from .variants import (
    POLYMG_VARIANTS,
    handopt_model,
    handopt_pluto_model,
    polymg_dtile_opt_plus,
    polymg_naive,
    polymg_opt,
    polymg_opt_plus,
    variant_config,
)

__version__ = "1.0.0"

__all__ = [
    "compile_pipeline",
    "PolyMgConfig",
    "CompilationContext",
    "CompileReport",
    "Pass",
    "PassManager",
    "default_passes",
    "CompileCache",
    "compile_cache",
    "compile_fingerprint",
    "PassOrderingError",
    "MultigridOptions",
    "build_poisson_cycle",
    "build_smoother_chain",
    "reference_cycle",
    "solve",
    "solve_compiled",
    "solve_supervised",
    "verify_compiled",
    "ResidualMonitor",
    "DegradationLadder",
    "IncidentLog",
    "ResilientPipeline",
    "SolveSupervisor",
    "SupervisedSolveResult",
    "SupervisorPolicy",
    "ReproError",
    "CompileError",
    "ScheduleLegalityError",
    "StorageSoundnessError",
    "TileCoverageError",
    "NumericalDivergenceError",
    "PoolExhaustedError",
    "SolveAbortedError",
    "TrialFailure",
    "NasMgSolver",
    "build_nas_mg_cycle",
    "POLYMG_VARIANTS",
    "handopt_model",
    "handopt_pluto_model",
    "polymg_dtile_opt_plus",
    "polymg_naive",
    "polymg_opt",
    "polymg_opt_plus",
    "variant_config",
]
