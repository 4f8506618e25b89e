"""Storage optimization (paper section 3.2).

Implements the paper's two remapping passes on top of a generic
implementation of Algorithms 2 (``get_last_use_map``) and 3
(``remap_storage``):

* **Intra-group scratchpad reuse** (3.2.1): tile-local buffers of
  internal (non-live-out) stages are classified by dtype and size —
  equality relaxed by a small per-dimension slack — and greedily
  remapped so dead scratchpads are recycled by later stages of the same
  class.  Figure 7's example (interp + correct + 4 smooths -> 2 buffers)
  is reproduced by the tests.

* **Inter-group full-array reuse** (3.2.2): live-out arrays have
  parametric sizes; arrays whose sizes share the same parametric part
  (differing by ghost-zone constants) form one storage class sized by
  the per-dimension maxima.  Constant-sized arrays form classes that
  exclude parametric ones.  Live-outs are scheduled at their group's
  timestamp; pipeline inputs and outputs never serve as reuse targets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Sequence

from ..config import PolyMgConfig
from ..errors import StorageSoundnessError
from ..ir.affine import Affine
from ..ir.domain import Box
from .grouping import GroupingResult
from .groups import Group
from .schedule import PipelineSchedule

if TYPE_CHECKING:  # pragma: no cover
    from ..lang.function import Function

__all__ = [
    "get_last_use_map",
    "remap_storage",
    "ScratchClass",
    "ArrayClass",
    "GroupScratchPlan",
    "StoragePlan",
    "plan_storage",
]


# ---------------------------------------------------------------------------
# Algorithms 2 and 3 (verbatim structure from the paper)
# ---------------------------------------------------------------------------


def get_last_use_map(
    funcs: Sequence["Function"],
    timestamp: dict["Function", int],
    users: Callable[["Function"], Iterable["Function"]],
) -> dict[int, list["Function"]]:
    """Algorithm 2: map each time point to the functions whose last use
    is at that time.

    A function with no users inside the scope dies at its own timestamp
    (it was computed for consumers outside the scope — the caller
    excludes live-outs — or is genuinely dead).
    """
    last_use: dict["Function", int] = {}
    for func in funcs:
        t = timestamp[func]
        for user in users(func):
            if user in timestamp:
                t = max(t, timestamp[user])
        last_use[func] = t
    out: dict[int, list["Function"]] = {}
    for func, t in last_use.items():
        out.setdefault(t, []).append(func)
    for entries in out.values():
        entries.sort(key=lambda f: f.uid)
    return out


def remap_storage(
    funcs: Sequence["Function"],
    timestamp: dict["Function", int],
    storage_class: dict["Function", Hashable],
    users: Callable[["Function"], Iterable["Function"]],
) -> dict["Function", int]:
    """Algorithm 3: greedily map functions to logical arrays.

    Functions are visited in schedule order; each draws from its storage
    class's pool of dead arrays (or mints a new array id), then arrays
    of functions whose last use is the current timestamp are returned to
    their pools.  Returning *after* allocation keeps a consumer from
    writing into the buffer it is still reading (paper Algorithm 3).
    """
    for func in funcs:
        if func not in timestamp:
            raise StorageSoundnessError(
                "function has no timestamp for storage remapping",
                stage=func.name,
            )
        if func not in storage_class:
            raise StorageSoundnessError(
                "function has no storage class for remapping",
                stage=func.name,
            )
    last_use_map = get_last_use_map(funcs, timestamp, users)
    ordered = sorted(funcs, key=lambda f: (timestamp[f], f.uid))
    array_pool: dict[Hashable, list[int]] = {}
    storage: dict["Function", int] = {}
    array_id = 0
    released_through = -1

    def release_dead(before: int) -> None:
        # Recycle arrays of functions whose last use is *strictly
        # earlier* than the requesting timestamp.  (The paper's listing
        # releases at equal timestamps too, which is safe when
        # timestamps are unique — intra-group stage order — but at
        # group granularity two live-outs share their group's time and
        # an array still being read by that group must not be handed
        # out within it.)
        nonlocal released_through
        for t in sorted(last_use_map):
            if t <= released_through or t >= before:
                continue
            for dead in last_use_map[t]:
                if dead not in storage:
                    continue
                dead_cls = storage_class[dead]
                dead_id = storage[dead]
                pool = array_pool.setdefault(dead_cls, [])
                if dead_id not in pool:
                    pool.append(dead_id)
        released_through = max(released_through, before - 1)

    for func in ordered:
        release_dead(timestamp[func])
        cls = storage_class[func]
        pool = array_pool.setdefault(cls, [])
        if not pool:
            array_id += 1
            storage[func] = array_id
        else:
            storage[func] = pool.pop()
    return storage


# ---------------------------------------------------------------------------
# scratch classification (intra-group)
# ---------------------------------------------------------------------------


@dataclass
class ScratchClass:
    """A scratchpad storage class: dtype + a representative shape that is
    the per-dimension max over member shapes (within the slack)."""

    key: int
    dtype_name: str
    shape: tuple[int, ...]

    def bytes(self, itemsize: int) -> int:
        n = 1
        for s in self.shape:
            n *= s
        return n * itemsize


def classify_scratch_shapes(
    shapes: dict["Function", tuple[int, ...]],
    slack: int,
) -> tuple[dict["Function", ScratchClass], list[ScratchClass]]:
    """Bucket scratch shapes into classes; shapes are compatible when
    every dimension differs by at most ``slack`` elements (the paper's
    relaxed size-equality)."""
    classes: list[ScratchClass] = []
    assignment: dict["Function", ScratchClass] = {}
    ordered = sorted(
        shapes.items(), key=lambda kv: (-_volume(kv[1]), kv[0].uid)
    )
    for func, shape in ordered:
        chosen = None
        for cls in classes:
            if cls.dtype_name != func.dtype.name:
                continue
            if len(cls.shape) != len(shape):
                continue
            if all(abs(a - b) <= slack for a, b in zip(cls.shape, shape)):
                chosen = cls
                break
        if chosen is None:
            chosen = ScratchClass(len(classes), func.dtype.name, shape)
            classes.append(chosen)
        else:
            chosen.shape = tuple(
                max(a, b) for a, b in zip(chosen.shape, shape)
            )
        assignment[func] = chosen
    return assignment, classes


def _volume(shape: Sequence[int]) -> int:
    v = 1
    for s in shape:
        v *= s
    return v


# ---------------------------------------------------------------------------
# full-array classification (inter-group)
# ---------------------------------------------------------------------------


@dataclass
class ArrayClass:
    """A full-array storage class over parametric sizes.

    ``signature`` is the per-dimension parametric part (coefficient
    tuples) shared by all members; ``sizes`` holds the running
    per-dimension maxima (Affine, same parametric part, max constant)."""

    key: int
    dtype_name: str
    signature: tuple[tuple[tuple[str, object], ...], ...]
    sizes: list[Affine]


def array_signature(sizes: Sequence[Affine]):
    return tuple(tuple(sorted(size.coeffs.items())) for size in sizes)


def classify_arrays(
    funcs: Sequence["Function"],
) -> tuple[dict["Function", ArrayClass], list[ArrayClass]]:
    """Inter-group storage classes (paper 3.2.2): same dtype, same rank,
    same parametric size parts; class size = per-dimension maximum (so
    every member fits, ghost-zone offsets included)."""
    classes: dict[tuple, ArrayClass] = {}
    assignment: dict["Function", ArrayClass] = {}
    for func in funcs:
        sizes = list(func.domain.sizes())
        sig = array_signature(sizes)
        key = (func.dtype.name, len(sizes), sig)
        cls = classes.get(key)
        if cls is None:
            cls = ArrayClass(len(classes), func.dtype.name, sig, sizes)
            classes[key] = cls
        else:
            cls.sizes = [
                a if a.diff_const(b) >= 0 else b
                for a, b in zip(cls.sizes, sizes)
            ]
        assignment[func] = cls
    return assignment, list(classes.values())


# ---------------------------------------------------------------------------
# the combined storage plan
# ---------------------------------------------------------------------------


@dataclass
class GroupScratchPlan:
    """Scratch allocation for one group."""

    buffer_of: dict["Function", int]
    buffer_shapes: dict[int, tuple[int, ...]]
    buffer_dtypes: dict[int, str]
    stage_shapes: dict["Function", tuple[int, ...]]

    def buffer_count(self) -> int:
        return len(self.buffer_shapes)

    def total_bytes(self, itemsize_of: Callable[[str], int]) -> int:
        return sum(
            _volume(shape) * itemsize_of(self.buffer_dtypes[b])
            for b, shape in self.buffer_shapes.items()
        )


@dataclass
class StoragePlan:
    """Complete storage decisions for a compiled pipeline."""

    scratch: dict[int, GroupScratchPlan] = field(default_factory=dict)
    array_of: dict["Function", int] = field(default_factory=dict)
    array_shapes: dict[int, tuple[int, ...]] = field(default_factory=dict)
    array_dtypes: dict[int, str] = field(default_factory=dict)
    # statistics for the cost model / reports
    scratch_buffers_without_reuse: int = 0
    scratch_bytes_without_reuse: int = 0
    scratch_bytes_with_reuse: int = 0
    full_arrays_without_reuse: int = 0
    full_arrays_with_reuse: int = 0
    full_array_bytes_without_reuse: int = 0
    full_array_bytes_with_reuse: int = 0

    def group_scratch(self, group_index: int) -> GroupScratchPlan:
        return self.scratch[group_index]

    def summary_line(self) -> str:
        """One-line artifact summary for pass records."""
        scratch_buffers = sum(
            p.buffer_count() for p in self.scratch.values()
        )
        return (
            f"StoragePlan: {self.full_arrays_with_reuse} full arrays "
            f"({self.full_arrays_without_reuse} before reuse), "
            f"{scratch_buffers} scratch buffers"
        )


def _scratch_shapes_for_group(
    group: Group, config: PolyMgConfig
) -> dict["Function", tuple[int, ...]]:
    """Representative (worst-case) per-tile scratch shape per internal
    stage: footprint of a full-size tile anchored at the domain origin,
    unclamped below, capped by the stage's own domain extent."""
    bindings = group.dag.param_bindings
    anchor_dom = group.anchor.domain_box(bindings)
    tile_shape = config.tile_shape(group.anchor.ndim)
    tile = Box.from_bounds(
        [
            (iv.lb, min(iv.ub, iv.lb + t - 1))
            for iv, t in zip(anchor_dom.intervals, tile_shape)
        ]
    )
    needs = group.tile_needs(tile, clamp=False)
    shapes: dict["Function", tuple[int, ...]] = {}
    for stage in group.internal_stages():
        dom = stage.domain_box(bindings)
        shapes[stage] = tuple(
            min(n.size(), d.size())
            for n, d in zip(needs[stage].intervals, dom.intervals)
        )
    return shapes


def plan_storage(
    grouping: GroupingResult,
    schedule: PipelineSchedule,
    config: PolyMgConfig,
) -> StoragePlan:
    """Run both storage passes and collect the plan + statistics."""
    dag = grouping.dag
    plan = StoragePlan()

    # ----- intra-group scratchpads (3.2.1) -----------------------------
    for gi, group in enumerate(grouping.groups):
        shapes = _scratch_shapes_for_group(group, config)
        internal = list(shapes)
        plan.scratch_buffers_without_reuse += len(internal)
        plan.scratch_bytes_without_reuse += sum(
            _volume(shapes[s]) * s.dtype.size_bytes for s in internal
        )
        if not internal:
            plan.scratch[gi] = GroupScratchPlan({}, {}, {}, {})
            continue

        if config.intra_group_reuse:
            # the "+/- small constant" class threshold must absorb the
            # per-step halo spread inside the group (each fused stencil
            # step widens the footprint by its halo; Figure 7's
            # interp+correct+smooths share one class)
            slack = max(config.scratch_class_slack, 2 * group.size)
            cls_map, _classes = classify_scratch_shapes(shapes, slack)
            # timestamps cover the whole group so that last-use analysis
            # sees reads by live-out stages of internal scratchpads
            timestamps = {
                s: schedule.time_of_stage(s) for s in group.stages
            }

            def in_group_users(func, _group=group):
                return [
                    c for c in dag.consumers_of(func) if c in _group
                ]

            storage = remap_storage(
                internal,
                timestamps,
                {s: (cls_map[s].dtype_name, cls_map[s].key) for s in internal},
                in_group_users,
            )
            buffer_shapes: dict[int, tuple[int, ...]] = {}
            buffer_dtypes: dict[int, str] = {}
            for stage, buf in storage.items():
                cls = cls_map[stage]
                buffer_shapes[buf] = cls.shape
                buffer_dtypes[buf] = cls.dtype_name
        else:
            storage = {s: i + 1 for i, s in enumerate(internal)}
            buffer_shapes = {storage[s]: shapes[s] for s in internal}
            buffer_dtypes = {storage[s]: s.dtype.name for s in internal}

        plan.scratch[gi] = GroupScratchPlan(
            storage, buffer_shapes, buffer_dtypes, shapes
        )
        from ..lang.types import dtype_of

        plan.scratch_bytes_with_reuse += plan.scratch[gi].total_bytes(
            lambda name: dtype_of(name).size_bytes
        )

    # ----- inter-group full arrays (3.2.2) ------------------------------
    liveouts: list["Function"] = []
    for group in grouping.groups:
        for stage in group.live_outs():
            liveouts.append(stage)
    plan.full_arrays_without_reuse = len(liveouts)
    bindings = dag.param_bindings
    plan.full_array_bytes_without_reuse = sum(
        s.domain_box(bindings).volume() * s.dtype.size_bytes
        for s in liveouts
    )

    # pipeline outputs keep dedicated arrays (never reused)
    reusable = [s for s in liveouts if not dag.is_output(s)]
    outputs = [s for s in liveouts if dag.is_output(s)]

    next_id = 0
    if config.inter_group_reuse and reusable:
        cls_map, _classes = classify_arrays(reusable)
        timestamps = {s: schedule.liveout_time(s) for s in reusable}

        def group_users(func):
            # consumers' groups, expressed through any member stage so
            # timestamps compare at group granularity
            return [c for c in dag.consumers_of(func)]

        # cross-group timestamps for users too
        full_ts = dict(timestamps)
        for func in reusable:
            for c in dag.consumers_of(func):
                full_ts.setdefault(c, schedule.liveout_time(c))

        storage = remap_storage(
            reusable,
            full_ts,
            {s: (cls_map[s].dtype_name, cls_map[s].key) for s in reusable},
            group_users,
        )
        id_remap: dict[int, int] = {}
        for stage in sorted(reusable, key=lambda s: s.uid):
            raw = storage[stage]
            if raw not in id_remap:
                id_remap[raw] = next_id
                next_id += 1
            aid = id_remap[raw]
            plan.array_of[stage] = aid
            cls = cls_map[stage]
            shape = tuple(sz.int_value(bindings) for sz in cls.sizes)
            old = plan.array_shapes.get(aid)
            if old is None or _volume(shape) > _volume(old):
                plan.array_shapes[aid] = shape
                plan.array_dtypes[aid] = cls.dtype_name
    else:
        for stage in reusable:
            plan.array_of[stage] = next_id
            plan.array_shapes[next_id] = stage.domain_box(bindings).shape()
            plan.array_dtypes[next_id] = stage.dtype.name
            next_id += 1

    for stage in outputs:
        plan.array_of[stage] = next_id
        plan.array_shapes[next_id] = stage.domain_box(bindings).shape()
        plan.array_dtypes[next_id] = stage.dtype.name
        next_id += 1

    plan.full_arrays_with_reuse = len(plan.array_shapes)
    from ..lang.types import dtype_of

    plan.full_array_bytes_with_reuse = sum(
        _volume(shape) * dtype_of(plan.array_dtypes[aid]).size_bytes
        for aid, shape in plan.array_shapes.items()
    )
    return plan
