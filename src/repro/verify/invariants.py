"""Pass-level verifiers: every compile phase proves its own invariants.

The storage optimizations (paper Algorithms 2 & 3: scratchpad
remapping, inter-group full-array reuse) are exactly the
transformations that fail *silently* — an illegal remap or a mis-sized
ghost zone corrupts data without crashing.  These verifiers re-derive
the legality conditions **independently** of the pass implementations
and cross-check the compiled artifact:

* :func:`verify_schedule` — every producer group is scheduled strictly
  before its consumer groups; stages within each group are
  topologically ordered and their timestamps match their positions.
* :func:`verify_storage` — liveness is re-derived from the DAG (not
  via :func:`~repro.passes.storage.get_last_use_map`) and every shared
  scratchpad slot / full array is checked for overlapping tenant
  lifetimes; buffer shapes and dtypes must cover every tenant
  (ghost-zone offsets included); pipeline outputs keep exclusive
  arrays; two live-outs of one group never share an array (the
  one-reuse-per-group constraint).
* :func:`verify_tiling` — the overlapped-tile grid partitions the
  anchor domain (``cheap``) and, at ``full`` level, the union of
  per-tile live-out regions is proven to cover each live-out's entire
  domain by exact region enumeration over a coverage mask.

:func:`verify_compiled` runs all of the above on a
:class:`~repro.backend.executor.CompiledPipeline`.  Inside the
compiler the same checks are registered as ordinary interleaved passes
(``verify-schedule``, ``verify-storage``, ``verify-tiling``) by
:func:`repro.passes.manager.default_passes` whenever
``PolyMgConfig.verify_level`` is not ``"off"``, so they run (and are
timed) under the pass manager right after the phase they check.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterable

import numpy as np

from ..config import PolyMgConfig, VERIFY_LEVELS
from ..errors import (
    CompileError,
    ScheduleLegalityError,
    StorageSoundnessError,
    TileCoverageError,
)
from ..ir.domain import Box
from ..ir.interval import ConcreteInterval

if TYPE_CHECKING:  # pragma: no cover
    from ..backend.executor import CompiledPipeline
    from ..lang.function import Function
    from ..passes.grouping import GroupingResult
    from ..passes.schedule import PipelineSchedule
    from ..passes.storage import StoragePlan

__all__ = [
    "verify_schedule",
    "verify_storage",
    "verify_tiling",
    "verify_compiled",
]


def _check_level(level: str) -> str:
    if level not in VERIFY_LEVELS:
        raise CompileError(
            f"unknown verify level {level!r}", expected=VERIFY_LEVELS
        )
    return level


# ---------------------------------------------------------------------------
# (a) schedule legality
# ---------------------------------------------------------------------------


def verify_schedule(
    grouping: "GroupingResult",
    schedule: "PipelineSchedule",
    *,
    pipeline: str | None = None,
) -> None:
    """Prove the schedule legal: producer groups strictly before their
    consumers, stages within each group in topological order with
    timestamps matching their positions."""
    dag = grouping.dag
    for gi, group in enumerate(grouping.groups):
        t = schedule.time_of_group(group)
        for producer_group in grouping.producers_of_group(group):
            tp = schedule.time_of_group(producer_group)
            if tp >= t:
                raise ScheduleLegalityError(
                    "producer group scheduled at or after its consumer",
                    pipeline=pipeline,
                    group=gi,
                    producer_anchor=producer_group.anchor.name,
                    consumer_anchor=group.anchor.name,
                    producer_time=tp,
                    consumer_time=t,
                )
        position = {s: i for i, s in enumerate(group.stages)}
        for stage in group.stages:
            if schedule.time_of_stage(stage) != position[stage]:
                raise ScheduleLegalityError(
                    "stage timestamp disagrees with its group position",
                    pipeline=pipeline,
                    group=gi,
                    stage=stage.name,
                    timestamp=schedule.time_of_stage(stage),
                    position=position[stage],
                )
            for producer in dag.producers_of(stage):
                if producer in position and (
                    position[producer] >= position[stage]
                ):
                    raise ScheduleLegalityError(
                        "stage scheduled before its in-group producer",
                        pipeline=pipeline,
                        group=gi,
                        stage=stage.name,
                        producer=producer.name,
                    )


# ---------------------------------------------------------------------------
# (b) storage soundness
# ---------------------------------------------------------------------------


def _scratch_live_ranges(
    grouping: "GroupingResult",
    schedule: "PipelineSchedule",
    stages: Iterable["Function"],
    group,
) -> dict["Function", tuple[int, int]]:
    """Independent intra-group liveness: [definition, last in-group use]
    per stage, re-derived from the DAG's consumer relation (not from
    ``get_last_use_map``)."""
    dag = grouping.dag
    ranges: dict["Function", tuple[int, int]] = {}
    for stage in stages:
        birth = schedule.time_of_stage(stage)
        death = birth
        for consumer in dag.consumers_of(stage):
            if consumer in group:
                death = max(death, schedule.time_of_stage(consumer))
        ranges[stage] = (birth, death)
    return ranges


def _array_live_ranges(
    grouping: "GroupingResult",
    schedule: "PipelineSchedule",
    stages: Iterable["Function"],
) -> dict["Function", tuple[int, int]]:
    """Independent inter-group liveness at group granularity: a live-out
    is born at its group's time and dies when its last consumer group
    finishes (pipeline outputs never die)."""
    dag = grouping.dag
    horizon = len(grouping.groups)
    ranges: dict["Function", tuple[int, int]] = {}
    for stage in stages:
        birth = schedule.liveout_time(stage)
        death = birth
        for consumer in dag.consumers_of(stage):
            death = max(death, schedule.liveout_time(consumer))
        if dag.is_output(stage):
            death = horizon
        ranges[stage] = (birth, death)
    return ranges


def _check_disjoint_tenancy(
    tenants: dict["Function", tuple[int, int]],
    slot_of: dict["Function", int],
    *,
    what: str,
    pipeline: str | None,
    group: int | None,
) -> None:
    """No slot may host two tenants with overlapping live ranges; a
    successor's birth must come *strictly after* the predecessor's last
    use (Algorithm 3 releases strictly-earlier timestamps only)."""
    by_slot: dict[int, list["Function"]] = {}
    for stage, slot in slot_of.items():
        by_slot.setdefault(slot, []).append(stage)
    for slot, members in by_slot.items():
        members.sort(key=lambda s: (tenants[s][0], s.uid))
        for a, b in itertools.combinations(members, 2):
            birth_a, death_a = tenants[a]
            birth_b, _death_b = tenants[b]
            if birth_b <= death_a:
                raise StorageSoundnessError(
                    f"{what} slot remapped while previous tenant is "
                    "still live",
                    pipeline=pipeline,
                    group=group,
                    slot=slot,
                    tenant=a.name,
                    tenant_live=(birth_a, death_a),
                    intruder=b.name,
                    intruder_birth=birth_b,
                )


def verify_storage(
    grouping: "GroupingResult",
    schedule: "PipelineSchedule",
    storage: "StoragePlan",
    config: PolyMgConfig,
    *,
    pipeline: str | None = None,
) -> None:
    """Cross-check the storage plan against independently re-derived
    liveness, shape, and dtype requirements."""
    dag = grouping.dag
    bindings = dag.param_bindings

    # ----- intra-group scratchpads ------------------------------------
    for gi, group in enumerate(grouping.groups):
        splan = storage.scratch.get(gi)
        if splan is None:
            raise StorageSoundnessError(
                "group has no scratch plan", pipeline=pipeline, group=gi
            )
        internal = group.internal_stages()
        for stage in internal:
            if stage not in splan.buffer_of:
                raise StorageSoundnessError(
                    "internal stage has no scratchpad slot",
                    pipeline=pipeline,
                    group=gi,
                    stage=stage.name,
                )
            buf = splan.buffer_of[stage]
            if splan.buffer_dtypes.get(buf) != stage.dtype.name:
                raise StorageSoundnessError(
                    "scratchpad dtype mismatch",
                    pipeline=pipeline,
                    group=gi,
                    stage=stage.name,
                    slot=buf,
                    stage_dtype=stage.dtype.name,
                    slot_dtype=splan.buffer_dtypes.get(buf),
                )
            need = splan.stage_shapes.get(stage)
            have = splan.buffer_shapes.get(buf)
            if need is None or have is None or len(need) != len(have) or any(
                h < n for h, n in zip(have, need)
            ):
                raise StorageSoundnessError(
                    "scratchpad smaller than its tenant's footprint",
                    pipeline=pipeline,
                    group=gi,
                    stage=stage.name,
                    slot=buf,
                    needed=need,
                    allocated=have,
                )
        ranges = _scratch_live_ranges(grouping, schedule, internal, group)
        _check_disjoint_tenancy(
            ranges,
            {s: splan.buffer_of[s] for s in internal},
            what="scratchpad",
            pipeline=pipeline,
            group=gi,
        )

    # ----- inter-group full arrays ------------------------------------
    liveouts = [s for g in grouping.groups for s in g.live_outs()]
    for stage in liveouts:
        if stage not in storage.array_of:
            raise StorageSoundnessError(
                "live-out has no full array",
                pipeline=pipeline,
                stage=stage.name,
            )
        aid = storage.array_of[stage]
        need = stage.domain_box(bindings).shape()
        have = storage.array_shapes.get(aid)
        if have is None or len(have) != len(need) or any(
            h < n for h, n in zip(have, need)
        ):
            raise StorageSoundnessError(
                "full array does not cover a tenant's domain (ghost "
                "zone shrunk?)",
                pipeline=pipeline,
                stage=stage.name,
                array=aid,
                needed=need,
                allocated=have,
            )
        if storage.array_dtypes.get(aid) != stage.dtype.name:
            raise StorageSoundnessError(
                "full array dtype mismatch",
                pipeline=pipeline,
                stage=stage.name,
                array=aid,
                stage_dtype=stage.dtype.name,
                array_dtype=storage.array_dtypes.get(aid),
            )

    ranges = _array_live_ranges(grouping, schedule, liveouts)
    _check_disjoint_tenancy(
        ranges,
        {s: storage.array_of[s] for s in liveouts},
        what="full-array",
        pipeline=pipeline,
        group=None,
    )

    # pipeline outputs own their arrays exclusively
    for stage in liveouts:
        if not dag.is_output(stage):
            continue
        aid = storage.array_of[stage]
        for other in liveouts:
            if other is not stage and storage.array_of[other] == aid:
                raise StorageSoundnessError(
                    "pipeline output shares its array with another "
                    "live-out",
                    pipeline=pipeline,
                    stage=stage.name,
                    other=other.name,
                    array=aid,
                )


# ---------------------------------------------------------------------------
# (c) tile geometry
# ---------------------------------------------------------------------------


def _anchor_tile_grid(anchor_dom: Box, tile_shape) -> list[Box]:
    """The executor's tile decomposition, re-derived here so the checks
    stay independent of :class:`CompiledPipeline`."""
    per_dim: list[list[ConcreteInterval]] = []
    for iv, t in zip(anchor_dom.intervals, tile_shape):
        dim_tiles = []
        lo = iv.lb
        while lo <= iv.ub:
            hi = min(lo + t - 1, iv.ub)
            dim_tiles.append(ConcreteInterval(lo, hi))
            lo = hi + 1
        per_dim.append(dim_tiles)
    return [Box(combo) for combo in itertools.product(*per_dim)]


def verify_tiling(
    grouping: "GroupingResult",
    config: PolyMgConfig,
    *,
    level: str = "full",
    pipeline: str | None = None,
) -> None:
    """Prove the overlapped-tile decomposition covers every live-out.

    ``cheap``: the anchor-domain tile grid is gap- and overlap-free per
    dimension.  ``full``: additionally enumerate every tile's live-out
    regions into a coverage mask and require every domain point to be
    written at least once.
    """
    _check_level(level)
    if level == "off" or not config.tile:
        return
    bindings = grouping.dag.param_bindings
    for gi, group in enumerate(grouping.groups):
        if group.size <= 1:
            continue
        anchor_dom = group.anchor.domain_box(bindings)
        tile_shape = config.tile_shape(group.anchor.ndim)
        tiles = _anchor_tile_grid(anchor_dom, tile_shape)

        # cheap: per-dimension partition of the anchor domain
        for d, dom_iv in enumerate(anchor_dom.intervals):
            cursor = dom_iv.lb
            for iv in sorted(
                {t.intervals[d] for t in tiles}, key=lambda i: i.lb
            ):
                if iv.lb != cursor:
                    raise TileCoverageError(
                        "anchor tile grid leaves a gap",
                        pipeline=pipeline,
                        group=gi,
                        dim=d,
                        expected_lb=cursor,
                        found_lb=iv.lb,
                    )
                cursor = iv.ub + 1
            if cursor != dom_iv.ub + 1:
                raise TileCoverageError(
                    "anchor tile grid stops short of the domain edge",
                    pipeline=pipeline,
                    group=gi,
                    dim=d,
                    covered_through=cursor - 1,
                    domain_ub=dom_iv.ub,
                )

        if level != "full":
            continue

        # full: exact live-out coverage by region enumeration
        live = group.live_outs()
        masks = {
            stage: np.zeros(stage.domain_box(bindings).shape(), bool)
            for stage in live
        }
        for tile in tiles:
            regions = group.tile_regions(tile)
            for stage in live:
                region = regions.get(stage)
                if region is None or region.is_empty():
                    continue
                dom = stage.domain_box(bindings)
                clamped = region.intersect(dom)
                if clamped.is_empty():
                    continue
                masks[stage][clamped.slices(origin=dom.lower())] = True
        for stage, mask in masks.items():
            if not mask.all():
                missing = int(mask.size - np.count_nonzero(mask))
                raise TileCoverageError(
                    "overlapped tiles do not cover a live-out's domain",
                    pipeline=pipeline,
                    group=gi,
                    stage=stage.name,
                    uncovered_points=missing,
                )


# ---------------------------------------------------------------------------
# combined entry point
# ---------------------------------------------------------------------------


def verify_compiled(
    compiled: "CompiledPipeline", level: str | None = None
) -> None:
    """Run every verifier against a compiled pipeline.

    ``level`` defaults to the pipeline's own
    ``config.verify_level`` (coerced to at least ``"cheap"`` so an
    explicit call always checks something).
    """
    if level is None:
        level = compiled.config.verify_level
        if level == "off":
            level = "cheap"
    _check_level(level)
    if level == "off":
        return
    name = compiled.dag.name
    verify_schedule(compiled.grouping, compiled.schedule, pipeline=name)
    verify_storage(
        compiled.grouping,
        compiled.schedule,
        compiled.storage,
        compiled.config,
        pipeline=name,
    )
    verify_tiling(
        compiled.grouping,
        compiled.config,
        level=level,
        pipeline=name,
    )
