"""Resilience subsystem: graded degradation, supervision, checkpoints.

Production multigrid serving (ROADMAP north star) cannot treat every
fault as fatal, nor pin a pipeline to the slow path forever after one
transient fault — auto-generated multigrid configurations routinely
fail to converge (Schmitt et al., PAPERS.md), so runtime convergence
supervision with automatic remediation is a first-class subsystem:

* :class:`~repro.resilience.ladder.DegradationLadder` — ordered variant
  ladder (``polymg-driver`` -> ``polymg-native`` -> ``polymg-opt+`` ->
  ``polymg-opt`` -> ``polymg-naive``) with per-variant health records
  and circuit breakers (closed/open/half-open), exponential cooldown,
  and automatic re-promotion;
* :class:`~repro.resilience.pipeline.ResilientPipeline` — ladder-driven
  fault-tolerant execution; every rung compiles through the
  content-addressed compile cache;
* :class:`~repro.resilience.supervisor.SolveSupervisor` — per-solve
  deadlines and cycle budgets, residual stagnation detection with a
  remediation ladder (bump smoothing -> switch V->W -> demote), and
  checkpoint/restart of the last-known-good iterate;
* :class:`~repro.resilience.incidents.IncidentLog` — the structured
  audit trail, mirrored onto compiled pipelines' compile reports and
  rendered by ``examples/report.py``.
"""

from .incidents import IncidentLog, IncidentRecord
from .ladder import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    DegradationLadder,
    VariantHealth,
)
from .pipeline import ResilientPipeline
from .supervisor import (
    SolveCheckpoint,
    SolveSupervisor,
    SupervisedSolveResult,
    SupervisorPolicy,
)

__all__ = [
    "IncidentLog",
    "IncidentRecord",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "DegradationLadder",
    "VariantHealth",
    "ResilientPipeline",
    "SolveCheckpoint",
    "SolveSupervisor",
    "SupervisedSolveResult",
    "SupervisorPolicy",
]
