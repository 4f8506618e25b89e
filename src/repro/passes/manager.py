"""Pass-manager architecture for the PolyMG compile path.

The paper's code generator (Figure 4) is a fixed phase sequence.  This
module makes that sequence an explicit, inspectable pipeline of
:class:`Pass` objects threading a shared :class:`CompilationContext`:

* every pass declares the artifacts it ``requires`` and ``produces``
  (``"dag"``, ``"grouping"``, ``"schedule"``, ``"storage"``,
  ``"compiled"``, plus ``"verified:*"`` markers), and the
  :class:`PassManager` statically validates the ordering before running
  anything — a mis-ordered pipeline fails with
  :class:`~repro.errors.PassOrderingError` instead of an attribute
  error three phases later;
* the verifiers of :mod:`repro.verify.invariants` are ordinary passes,
  interleaved after the phase they check when
  ``PolyMgConfig.verify_level`` selects them (see
  :func:`default_passes`) — no special-cased call sites;
* every pass run is instrumented: wall time, input/output artifact
  summaries, and (optionally) an IR snapshot are recorded into a
  :class:`CompileReport`, retrievable from every compiled pipeline as
  ``compiled.report`` and dumpable as JSON for the bench harness.

Growing the code generator — reordering phases, inserting an octree or
search-based specialization pass, running a sub-pipeline per candidate
in an evolutionary sweep — means editing the pass list, not the driver.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

from ..config import PolyMgConfig
from ..errors import CompileError, PassOrderingError

if TYPE_CHECKING:  # pragma: no cover
    from ..lang.function import Function

__all__ = [
    "CompilationContext",
    "Pass",
    "PassRecord",
    "CompileReport",
    "PassManager",
    "BuildDagPass",
    "GroupingPass",
    "SchedulingPass",
    "StoragePlanningPass",
    "BackendPass",
    "VerifySchedulePass",
    "VerifyStoragePass",
    "VerifyTilingPass",
    "default_passes",
]


# ---------------------------------------------------------------------------
# shared compilation state
# ---------------------------------------------------------------------------


@dataclass
class CompilationContext:
    """The evolving artifact set threaded through the pass pipeline.

    Inputs (``outputs``/``params``/``config``/``name``) are fixed at
    construction; every pass reads prior artifacts with :meth:`get` and
    publishes its results with :meth:`produce`.  Provenance (which pass
    produced which artifact) is kept for the report.
    """

    outputs: tuple["Function", ...]
    params: dict[str, int]
    config: PolyMgConfig
    name: str
    artifacts: dict[str, Any] = field(default_factory=dict)
    produced_by: dict[str, str] = field(default_factory=dict)

    def produce(self, key: str, value: Any, *, by: str = "?") -> None:
        if key in self.artifacts:
            raise PassOrderingError(
                "artifact produced twice",
                pipeline=self.name,
                artifact=key,
                first_producer=self.produced_by.get(key),
                second_producer=by,
            )
        self.artifacts[key] = value
        self.produced_by[key] = by

    def get(self, key: str) -> Any:
        try:
            return self.artifacts[key]
        except KeyError:
            raise PassOrderingError(
                "artifact requested before any pass produced it",
                pipeline=self.name,
                artifact=key,
                available=sorted(self.artifacts),
            ) from None

    def has(self, key: str) -> bool:
        return key in self.artifacts

    # convenience accessors for the canonical artifacts
    @property
    def dag(self):
        return self.get("dag")

    @property
    def grouping(self):
        return self.get("grouping")

    @property
    def schedule(self):
        return self.get("schedule")

    @property
    def storage(self):
        return self.get("storage")

    @property
    def compiled(self):
        return self.get("compiled")


# ---------------------------------------------------------------------------
# pass protocol
# ---------------------------------------------------------------------------


class Pass:
    """One phase of the compile pipeline.

    Subclasses set ``name``, ``requires`` and ``produces`` and implement
    :meth:`run`, publishing each declared artifact via
    ``ctx.produce``.  ``snapshot`` may return a human-readable dump of
    the IR state after the pass (collected only when the manager runs
    with ``snapshot_ir=True``).
    """

    name: str = "pass"
    requires: tuple[str, ...] = ()
    produces: tuple[str, ...] = ()

    def run(self, ctx: CompilationContext) -> None:  # pragma: no cover
        raise NotImplementedError

    def snapshot(self, ctx: CompilationContext) -> str | None:
        return None

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(requires={list(self.requires)}, "
            f"produces={list(self.produces)})"
        )


# ---------------------------------------------------------------------------
# instrumentation
# ---------------------------------------------------------------------------


def _summarize_artifact(value: Any) -> str:
    """Compact, human-readable artifact summary for pass records."""
    kind = type(value).__name__
    if hasattr(value, "summary_line"):
        try:
            return value.summary_line()
        except Exception:  # summaries must never break a compile
            return kind
    if hasattr(value, "stage_count"):  # PipelineDAG
        return f"{kind}: {value.stage_count()} stages"
    return kind


@dataclass
class PassRecord:
    """Instrumentation of one pass run."""

    name: str
    wall_time: float
    requires: tuple[str, ...]
    produces: tuple[str, ...]
    inputs: dict[str, str] = field(default_factory=dict)
    outputs: dict[str, str] = field(default_factory=dict)
    snapshot: str | None = None

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "wall_time": self.wall_time,
            "requires": list(self.requires),
            "produces": list(self.produces),
            "inputs": dict(self.inputs),
            "outputs": dict(self.outputs),
        }
        if self.snapshot is not None:
            d["snapshot"] = self.snapshot
        return d


@dataclass
class CompileReport:
    """Per-compile instrumentation: one :class:`PassRecord` per pass.

    Attached to every compiled pipeline as ``compiled.report``.
    ``cache_hits`` counts how many times this compile's artifacts were
    served from the compile cache after the cold compile recorded here.

    ``incidents`` collects structured runtime incident records (see
    :mod:`repro.resilience.incidents`) involving executors built from
    this compile — faults, ladder demotions/promotions, checkpoint
    restores.  The report object is shared between cache clones, so
    the incident trail is the history of the *fingerprint*, across
    every executor served for it.
    """

    pipeline: str
    fingerprint: str = ""
    total_wall_time: float = 0.0
    #: wall time spent building the ahead-of-time kernel plan
    #: (:mod:`repro.backend.kernels`); recorded by
    #: :meth:`~repro.backend.executor.CompiledPipeline.plan`, shared by
    #: cache clones like the rest of the report
    plan_time_s: float = 0.0
    #: wall time spent in the native backend's out-of-process compile
    #: (0.0 when the backend is not ``native`` or the artifact store
    #: served the shared object)
    native_compile_time_s: float = 0.0
    passes: list[PassRecord] = field(default_factory=list)
    cache_hits: int = 0
    incidents: list[dict] = field(default_factory=list)

    def record_incident(self, incident: dict) -> None:
        """Append one structured incident record (a plain dict, e.g.
        :meth:`repro.resilience.incidents.IncidentRecord.to_dict`)."""
        self.incidents.append(incident)

    def pass_names(self) -> list[str]:
        return [p.name for p in self.passes]

    def pass_time(self, name: str) -> float:
        """Total wall time of all runs of the named pass."""
        times = [p.wall_time for p in self.passes if p.name == name]
        if not times:
            raise KeyError(name)
        return sum(times)

    def to_dict(self) -> dict:
        return {
            "pipeline": self.pipeline,
            "fingerprint": self.fingerprint,
            "total_wall_time": self.total_wall_time,
            "plan_time_s": self.plan_time_s,
            "native_compile_time_s": self.native_compile_time_s,
            "cache_hits": self.cache_hits,
            "passes": [p.to_dict() for p in self.passes],
            "incidents": list(self.incidents),
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


# ---------------------------------------------------------------------------
# the manager
# ---------------------------------------------------------------------------


class PassManager:
    """Runs an ordered pass pipeline over a :class:`CompilationContext`.

    ``validate`` proves statically (before any pass runs) that every
    declared requirement is produced by an earlier pass and that no two
    passes produce the same artifact.
    """

    def __init__(
        self, passes: Sequence[Pass], *, snapshot_ir: bool = False
    ) -> None:
        self.passes = list(passes)
        self.snapshot_ir = snapshot_ir
        self.validate()

    def validate(self) -> None:
        available: dict[str, str] = {}
        for p in self.passes:
            for req in p.requires:
                if req not in available:
                    raise PassOrderingError(
                        "pass requires an artifact no earlier pass "
                        "produces",
                        pass_name=p.name,
                        artifact=req,
                        available=sorted(available),
                    )
            for out in p.produces:
                if out in available:
                    raise PassOrderingError(
                        "two passes declare the same artifact",
                        artifact=out,
                        first_producer=available[out],
                        second_producer=p.name,
                    )
                available[out] = p.name

    def run(self, ctx: CompilationContext) -> CompileReport:
        report = CompileReport(pipeline=ctx.name)
        t_start = time.perf_counter()
        for p in self.passes:
            inputs = {
                key: _summarize_artifact(ctx.get(key)) for key in p.requires
            }
            t0 = time.perf_counter()
            p.run(ctx)
            elapsed = time.perf_counter() - t0
            missing = [key for key in p.produces if not ctx.has(key)]
            if missing:
                raise CompileError(
                    "pass finished without producing its declared "
                    "artifacts",
                    pipeline=ctx.name,
                    pass_name=p.name,
                    missing=missing,
                )
            record = PassRecord(
                name=p.name,
                wall_time=elapsed,
                requires=p.requires,
                produces=p.produces,
                inputs=inputs,
                outputs={
                    key: _summarize_artifact(ctx.get(key))
                    for key in p.produces
                },
            )
            if self.snapshot_ir:
                record.snapshot = p.snapshot(ctx)
            report.passes.append(record)
        report.total_wall_time = time.perf_counter() - t_start
        return report


# ---------------------------------------------------------------------------
# the concrete compile pipeline (paper Figure 4)
# ---------------------------------------------------------------------------


class BuildDagPass(Pass):
    """Phase 1: polyhedral representation — DAG + access summaries."""

    name = "build-dag"
    requires = ()
    produces = ("dag",)

    def run(self, ctx: CompilationContext) -> None:
        from ..ir.dag import PipelineDAG

        ctx.produce(
            "dag",
            PipelineDAG(ctx.outputs, params=ctx.params, name=ctx.name),
            by=self.name,
        )

    def snapshot(self, ctx: CompilationContext) -> str:
        return ctx.dag.summary()


class GroupingPass(Pass):
    """Phase 2: *automerge* — greedy grouping for fusion."""

    name = "grouping"
    requires = ("dag",)
    produces = ("grouping",)

    def run(self, ctx: CompilationContext) -> None:
        from .grouping import auto_group

        ctx.produce(
            "grouping", auto_group(ctx.dag, ctx.config), by=self.name
        )

    def snapshot(self, ctx: CompilationContext) -> str:
        return "\n".join(
            f"group {gi}: "
            + ", ".join(s.name for s in group.stages)
            for gi, group in enumerate(ctx.grouping.groups)
        )


class SchedulingPass(Pass):
    """Phase 3: total order of groups and of stages within groups."""

    name = "scheduling"
    requires = ("grouping",)
    produces = ("schedule",)

    def run(self, ctx: CompilationContext) -> None:
        from .schedule import PipelineSchedule

        ctx.produce(
            "schedule", PipelineSchedule(ctx.grouping), by=self.name
        )


class StoragePlanningPass(Pass):
    """Phase 5: scratchpad + full-array reuse, pooled allocation."""

    name = "storage"
    requires = ("grouping", "schedule")
    produces = ("storage",)

    def run(self, ctx: CompilationContext) -> None:
        from .storage import plan_storage

        ctx.produce(
            "storage",
            plan_storage(ctx.grouping, ctx.schedule, ctx.config),
            by=self.name,
        )


class BackendPass(Pass):
    """Phase 6: backend construction (the numpy interpreter; the
    C/OpenMP emitter consumes the same compiled object).  Tile geometry
    (phase 4) is derived lazily from the access relations inside the
    groups, so it has no standalone pass."""

    name = "backend"
    requires = ("dag", "grouping", "schedule", "storage")
    produces = ("compiled",)

    def run(self, ctx: CompilationContext) -> None:
        from ..backend.executor import CompiledPipeline

        ctx.produce(
            "compiled",
            CompiledPipeline(
                ctx.dag, ctx.config, ctx.grouping, ctx.schedule, ctx.storage
            ),
            by=self.name,
        )


class VerifySchedulePass(Pass):
    """Interleaved verifier: schedule legality (after scheduling)."""

    name = "verify-schedule"
    requires = ("grouping", "schedule")
    produces = ("verified:schedule",)

    def run(self, ctx: CompilationContext) -> None:
        from ..verify.invariants import verify_schedule

        verify_schedule(ctx.grouping, ctx.schedule, pipeline=ctx.name)
        ctx.produce("verified:schedule", True, by=self.name)


class VerifyStoragePass(Pass):
    """Interleaved verifier: storage soundness (after the storage
    passes)."""

    name = "verify-storage"
    requires = ("grouping", "schedule", "storage")
    produces = ("verified:storage",)

    def run(self, ctx: CompilationContext) -> None:
        from ..verify.invariants import verify_storage

        verify_storage(
            ctx.grouping,
            ctx.schedule,
            ctx.storage,
            ctx.config,
            pipeline=ctx.name,
        )
        ctx.produce("verified:storage", True, by=self.name)


class VerifyTilingPass(Pass):
    """Interleaved verifier: tile coverage of every tiled group."""

    name = "verify-tiling"
    requires = ("grouping", "compiled")
    produces = ("verified:tiling",)

    def run(self, ctx: CompilationContext) -> None:
        from ..verify.invariants import verify_tiling

        verify_tiling(
            ctx.grouping,
            ctx.config,
            level=ctx.config.verify_level,
            pipeline=ctx.name,
        )
        ctx.produce("verified:tiling", True, by=self.name)


def default_passes(config: PolyMgConfig) -> list[Pass]:
    """The paper's phase sequence, with the verifiers interleaved as
    ordinary passes when ``config.verify_level`` selects them."""
    verify = config.verify_level != "off"
    passes: list[Pass] = [BuildDagPass(), GroupingPass(), SchedulingPass()]
    if verify:
        passes.append(VerifySchedulePass())
    passes.append(StoragePlanningPass())
    if verify:
        passes.append(VerifyStoragePass())
    passes.append(BackendPass())
    if verify:
        passes.append(VerifyTilingPass())
    return passes
