"""Ahead-of-time kernel plans for the numpy backend.

The unplanned interpreter (:mod:`repro.backend.evaluate`) re-derives,
on *every* tile of *every* cycle, work that depends only on the bound
parameters: Case condition boxes, Interp parity decompositions, reader
hull boxes and stride/permutation tuples, tile grids, and scratch
buffer shapes — and it walks expression trees allocating a fresh
ndarray per operator.  On realistic multigrid cycles this symbolic
overhead dominates wall-clock, which inverts the paper's whole premise
(pay analysis once at compile time, run tiles at memory speed).

This module lowers each (group, stage-piece) into a
:class:`StageKernel` once, right after parameter binding:

* **target geometry** — concrete output boxes from
  :func:`~repro.backend.evaluate.stage_piece_targets` /
  :func:`~repro.backend.evaluate.interp_parity_pieces`, turned into
  plain slice tuples against the destination array;
* **reader specs** (:class:`RefSpec`) — each ``Ref`` becomes a
  precomposed fancy-index (hull offsets, strides, constant-axis drops),
  an optional axis permutation, and an optional broadcast expansion.
  Materializing a ref at run time is a dictionary lookup plus three
  numpy view operations — no symbolic math;
* **op tapes** — a flattened post-order instruction list evaluated with
  ``np.add/subtract/multiply/divide(..., out=...)`` into a per-thread
  temp arena whose slots are sized (and alias-checked for in-place
  reuse) at plan time, so steady-state execution performs **zero
  per-op allocations**.

Result dtypes are discovered by a *sample run* at plan time: every
plan-time value carries a tiny representative array (or the actual
Python scalar for constants, which matters for value-based promotion),
and each op's sample is computed with the same numpy expression the
interpreter would use.  Sub-expressions whose operands are all known at
plan time (constants, index grids, condition masks) are folded.  This
makes planned execution *bitwise identical* to the unplanned
interpreter — asserted across the fuzz pipelines in the tests.

Tiled groups additionally get a :class:`GroupTilePlan` hoisting the
tile grid, per-tile stage regions, and scratch-buffer shape reductions
out of the execution loop; the unplanned executor path reuses the same
structure.  Plans are built by
:meth:`~repro.backend.executor.CompiledPipeline.plan` and shared across
compile-cache clones (the cache key already fingerprints everything a
plan depends on, so invalidation is inherited from the content
address).  If the per-thread arena would exceed
``PolyMgConfig.temp_arena_limit`` the plan is abandoned and execution
falls back to the interpreter.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..ir.domain import Box
from ..ir.interval import ConcreteInterval
from ..lang.expr import (
    BinOp,
    Call,
    Const,
    Expr,
    Maximum,
    Minimum,
    Ref,
    Select,
    UnOp,
    VarExpr,
)
from ..lang.sampling import Interp
from .evaluate import (
    _index_grid,
    condition_mask,
    interp_parity_pieces,
    interp_write_slices,
    stage_piece_targets,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..lang.function import Function
    from ..passes.groups import Group
    from ..passes.storage import GroupScratchPlan
    from .executor import CompiledPipeline

__all__ = [
    "RefSpec",
    "Tape",
    "StageKernel",
    "GroupTilePlan",
    "GroupPlan",
    "KernelPlan",
    "Workspace",
    "tile_grid",
    "build_group_tile_plan",
    "build_kernel_plan",
]

# ---------------------------------------------------------------------------
# plan IR
# ---------------------------------------------------------------------------

# RefSpec base kinds
R_INPUT = 0  # key: input Function           (env.inputs)
R_ARRAY = 1  # key: full-array id            (env.arrays)
R_SCRATCH = 2  # key: workspace scratch key  (env.ws)

# instruction kinds
K_UFUNC = 0
K_SELECT = 1
K_WRITE = 2

# operand kinds
A_IMM = 0  # plan-time value (scalar or ndarray)
A_REF = 1  # index into Tape.refs
A_RES = 2  # result of an earlier instruction

_BINOPS = {
    "+": (np.add, operator.add),
    "-": (np.subtract, operator.sub),
    "*": (np.multiply, operator.mul),
    "/": (np.divide, operator.truediv),
}

_CALLS = {
    "sqrt": np.sqrt,
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
    "abs": np.abs,
    "log": np.log,
    "pow": np.power,
}


class RefSpec:
    """Precompiled read of a producer over a fixed consumer box.

    ``index`` composes the hull read, the per-axis strides, and the
    constant-subscript axis drops into one fancy-index against the
    producer's *backing array* (full array, input, or scratch buffer);
    ``order`` is the axis permutation into consumer order (``None`` if
    identity); ``expand`` inserts broadcast axes for unused consumer
    dims (``None`` if the ref varies along every dim).
    """

    __slots__ = ("kind", "key", "index", "order", "expand")

    def __init__(self, kind, key, index, order, expand):
        self.kind = kind
        self.key = key
        self.index = index
        self.order = order
        self.expand = expand


class _Instr:
    __slots__ = (
        "kind", "ufunc", "args", "to_out", "slot", "shape", "dtype",
        "nbytes", "mask",
    )

    def __init__(self, kind, ufunc, args, slot, shape, dtype, nbytes,
                 mask=None):
        self.kind = kind
        self.ufunc = ufunc
        self.args = args
        self.to_out = False
        self.slot = slot
        self.shape = shape
        self.dtype = dtype
        self.nbytes = nbytes
        self.mask = mask


class Tape:
    """Flattened post-order op tape for one (piece, target box)."""

    __slots__ = ("refs", "instrs")

    def __init__(self, refs, instrs):
        self.refs = refs
        self.instrs = instrs


class _Write:
    """One target-box write of a kernel: run ``tape``, store into
    ``base[index]`` where ``base`` is the live-out view (kind 0) or a
    workspace scratch buffer (kind 1)."""

    __slots__ = ("scratch", "key", "index", "tape")

    def __init__(self, scratch, key, index, tape):
        self.scratch = scratch
        self.key = key
        self.index = index
        self.tape = tape


class StageKernel:
    """All writes of one stage over one concrete region."""

    __slots__ = ("stage", "writes", "points")

    def __init__(self, stage, writes, points):
        self.stage = stage
        self.writes = writes
        self.points = points


@dataclass
class GroupTilePlan:
    """Hoisted per-group tiling geometry (shared by the planned and
    unplanned tiled executors)."""

    tiles: list[Box]
    #: per tile: stage -> region box (stages outside the tile absent)
    regions: list[dict["Function", Box]]
    #: per tile: scratch buffer id -> shape
    buf_shapes: list[dict[int, tuple[int, ...]]]
    buf_dtypes: dict[int, np.dtype]
    #: per tile: total scratch bytes (pre-PR ``scratch_bytes_peak``)
    tile_scratch_bytes: list[int]
    #: per-dimension max over tiles (sizes the persistent workspace)
    max_buf_shapes: dict[int, tuple[int, ...]]


@dataclass
class GroupPlan:
    """Planned execution of one group: either a straight kernel list
    over full stage domains, or per-tile kernel lists."""

    tiled: bool
    kernels: list[StageKernel] | None = None
    tile_kernels: list[list[StageKernel]] | None = None
    tile_plan: GroupTilePlan | None = None


@dataclass
class KernelPlan:
    """The full ahead-of-time execution plan of a compiled pipeline."""

    groups: dict[int, GroupPlan] = field(default_factory=dict)
    #: workspace scratch key -> (shape, dtype)
    scratch_specs: dict[object, tuple[tuple[int, ...], np.dtype]] = field(
        default_factory=dict
    )
    #: byte size of each temp-arena slot (max over all tapes)
    slot_bytes: list[int] = field(default_factory=list)

    def arena_bytes(self) -> int:
        """Per-thread temp-arena requirement."""
        return sum(self.slot_bytes)

    def scratch_bytes(self) -> int:
        """Per-thread scratch-buffer requirement."""
        return sum(
            _volume(shape) * dt.itemsize
            for shape, dt in self.scratch_specs.values()
        )


def _volume(shape) -> int:
    return int(math.prod(shape))


# ---------------------------------------------------------------------------
# run-time workspace (one per thread)
# ---------------------------------------------------------------------------


class Workspace:
    """Per-thread execution arena: lazily allocated temp-slot buffers,
    scratch buffers, and cached per-tape temp views.  Buffers persist
    across tiles and groups for as long as the owner keeps the arena
    (the executor's per-thread arenas live across cycles, so steady
    state never allocates).

    ``batch`` set, every buffer holds that many stacked instances
    behind a leading batch axis; ``None`` is the unbatched layout."""

    __slots__ = (
        "plan", "batch", "_lead", "_account", "_temps", "_scratch", "_views",
    )

    def __init__(self, plan: KernelPlan, account=None, batch=None):
        self.plan = plan
        self.batch = batch
        self._lead = () if batch is None else (batch,)
        self._account = account
        self._temps: dict[int, np.ndarray] = {}
        self._scratch: dict[object, np.ndarray] = {}
        self._views: dict[Tape, list] = {}

    def temp(self, slot: int) -> np.ndarray:
        buf = self._temps.get(slot)
        if buf is None:
            nbytes = (self.batch or 1) * self.plan.slot_bytes[slot]
            buf = np.empty(nbytes, dtype=np.uint8)
            self._temps[slot] = buf
            if self._account is not None:
                self._account(nbytes)
        return buf

    def scratch_buffer(self, key) -> np.ndarray:
        buf = self._scratch.get(key)
        if buf is None:
            shape, dtype = self.plan.scratch_specs[key]
            buf = np.empty(self._lead + shape, dtype=dtype)
            self._scratch[key] = buf
            if self._account is not None:
                self._account(buf.nbytes)
        return buf

    def tape_views(self, tape: Tape) -> list:
        views = self._views.get(tape)
        if views is None:
            views = []
            for ins in tape.instrs:
                if ins.kind == K_WRITE or ins.to_out:
                    views.append(None)
                else:
                    buf = self.temp(ins.slot)
                    views.append(
                        buf[: (self.batch or 1) * ins.nbytes]
                        .view(ins.dtype)
                        .reshape(self._lead + ins.shape)
                    )
            self._views[tape] = views
        return views


class ExecEnv:
    """Run-time bindings a kernel resolves its reads/writes against.
    Under a batched workspace every bound array carries the same
    leading batch axis."""

    __slots__ = ("inputs", "arrays", "stage_arrays", "ws")

    def __init__(self, inputs, arrays, stage_arrays, ws):
        self.inputs = inputs
        self.arrays = arrays
        self.stage_arrays = stage_arrays
        self.ws = ws


_BATCH_AXIS = (slice(None),)


def _materialize(spec: RefSpec, env: ExecEnv, lead: tuple) -> np.ndarray:
    """A precompiled tape read.  ``lead`` is the index prefix that
    steps over the batch axis (``()`` unbatched): same fancy index
    behind it, transpose order shifted past it, broadcast axes after
    it."""
    k = spec.kind
    if k == R_INPUT:
        base = env.inputs[spec.key]
    elif k == R_ARRAY:
        base = env.arrays[spec.key]
    else:
        base = env.ws.scratch_buffer(spec.key)
    view = base[lead + spec.index]
    if spec.order is not None:
        n = len(lead)
        view = view.transpose(*range(n), *(o + n for o in spec.order))
    if spec.expand is not None:
        view = view[lead + spec.expand]
    return view


def run_kernel(kernel: StageKernel, env: ExecEnv) -> int:
    """Execute one stage kernel; returns points computed.

    Under a batched workspace the unmodified tape runs over ``batch``
    stacked instances: numpy broadcasting aligns trailing dimensions
    and every op is the same elementwise ufunc per batch slice, so the
    result is bitwise identical to ``batch`` separate runs."""
    ws = env.ws
    lead = () if ws.batch is None else _BATCH_AXIS
    for w in kernel.writes:
        if w.scratch:
            base = ws.scratch_buffer(w.key)
        else:
            base = env.stage_arrays[w.key]
        out_view = base[lead + w.index]
        tape = w.tape
        refs = tape.refs
        rv = [_materialize(r, env, lead) for r in refs] if refs else None
        views = ws.tape_views(tape)
        results: list = [None] * len(tape.instrs)
        for j, ins in enumerate(tape.instrs):
            a = [
                v if k == A_IMM else (rv[v] if k == A_REF else results[v])
                for k, v in ins.args
            ]
            kind = ins.kind
            if kind == K_UFUNC:
                dest = out_view if ins.to_out else views[j]
                ins.ufunc(*a, out=dest)
                results[j] = dest
            elif kind == K_SELECT:
                dest = out_view if ins.to_out else views[j]
                np.copyto(dest, a[1], casting="unsafe")
                np.copyto(dest, a[0], where=ins.mask, casting="unsafe")
                results[j] = dest
            else:  # K_WRITE
                np.copyto(out_view, a[0], casting="unsafe")
    return kernel.points * (ws.batch or 1)


# ---------------------------------------------------------------------------
# tape compilation
# ---------------------------------------------------------------------------

_V_IMM = 0
_V_REF = 1
_V_TEMP = 2


class _Val:
    __slots__ = ("kind", "value", "idx", "slot", "sample", "shape")

    def __init__(self, kind, value=None, idx=None, slot=None, sample=None,
                 shape=()):
        self.kind = kind
        self.value = value  # plan-time value (imm only)
        self.idx = idx  # ref index or instruction index
        self.slot = slot  # temp slot (temp only)
        self.sample = sample  # tiny representative (dtype carrier)
        self.shape = shape  # run-time broadcast shape


def _tiny(value):
    """A 1-element view of an array (dtype/value carrier for sample
    runs) or the scalar itself."""
    if isinstance(value, np.ndarray):
        return value[(slice(0, 1),) * value.ndim]
    return value


class _TapeBuilder:
    def __init__(self, box, variables, bindings, resolver, slot_bytes):
        self.box = box
        self.shape = box.shape()
        self.variables = variables
        self.bindings = bindings
        self.resolver = resolver
        self.slot_bytes = slot_bytes  # shared across the whole plan
        self.refs: list[RefSpec] = []
        self.instrs: list[_Instr] = []
        self.in_use: set[int] = set()

    # -- slot allocation ------------------------------------------------
    def _alloc(self, nbytes: int, avoid: set[int]) -> int:
        for s in range(len(self.slot_bytes)):
            if s not in self.in_use and s not in avoid:
                break
        else:
            s = len(self.slot_bytes)
            self.slot_bytes.append(0)
        self.in_use.add(s)
        if nbytes > self.slot_bytes[s]:
            self.slot_bytes[s] = nbytes
        return s

    def _release(self, vals, keep=None):
        for v in vals:
            if v.kind == _V_TEMP and v.slot != keep:
                self.in_use.discard(v.slot)

    @staticmethod
    def _desc(v: _Val):
        if v.kind == _V_IMM:
            return (A_IMM, v.value)
        if v.kind == _V_REF:
            return (A_REF, v.idx)
        return (A_RES, v.idx)

    @staticmethod
    def _operand(v: _Val):
        """Plan-time stand-in: actual value for immediates (value-based
        promotion must see real constants), tiny sample otherwise."""
        if v.kind == _V_IMM and not isinstance(v.value, np.ndarray):
            return v.value
        if v.kind == _V_IMM:
            return _tiny(v.value)
        return v.sample

    # -- emission -------------------------------------------------------
    def emit(self, expr: Expr) -> _Val:
        if isinstance(expr, Const):
            return _Val(_V_IMM, value=expr.value, sample=expr.value)
        if isinstance(expr, VarExpr):
            grid = _index_grid(
                expr.index, self.box, self.variables, self.bindings
            )
            if isinstance(grid, np.ndarray):
                return _Val(
                    _V_IMM, value=grid, sample=_tiny(grid),
                    shape=grid.shape,
                )
            return _Val(_V_IMM, value=grid, sample=grid)
        if isinstance(expr, Ref):
            spec, shape, np_dtype = _build_ref_spec(
                expr, self.box, self.variables, self.bindings, self.resolver
            )
            idx = len(self.refs)
            self.refs.append(spec)
            sample = np.zeros((1,) * self.box.ndim, dtype=np_dtype)
            return _Val(_V_REF, idx=idx, sample=sample, shape=shape)
        if isinstance(expr, BinOp):
            left = self.emit(expr.left)
            right = self.emit(expr.right)
            ufunc, pyop = _BINOPS[expr.op]
            return self._op(ufunc, pyop, (left, right))
        if isinstance(expr, UnOp):
            v = self.emit(expr.operand)
            return self._op(np.negative, operator.neg, (v,))
        if isinstance(expr, Minimum):
            left = self.emit(expr.left)
            right = self.emit(expr.right)
            return self._op(np.minimum, np.minimum, (left, right))
        if isinstance(expr, Maximum):
            left = self.emit(expr.left)
            right = self.emit(expr.right)
            return self._op(np.maximum, np.maximum, (left, right))
        if isinstance(expr, Call):
            args = tuple(self.emit(a) for a in expr.args)
            fn = _CALLS[expr.fn]
            return self._op(fn, fn, args)
        if isinstance(expr, Select):
            return self._select(expr)
        raise TypeError(f"cannot compile {type(expr).__name__}")

    def _op(self, ufunc, pyop, operands: tuple[_Val, ...]) -> _Val:
        if all(v.kind == _V_IMM for v in operands):
            # fold: every operand is known at plan time
            value = pyop(*[v.value for v in operands])
            shape = value.shape if isinstance(value, np.ndarray) else ()
            return _Val(_V_IMM, value=value, sample=_tiny(value), shape=shape)
        with np.errstate(all="ignore"):
            sample = ufunc(*[self._operand(v) for v in operands])
        shape = np.broadcast_shapes(*[v.shape for v in operands])
        dtype = sample.dtype
        nbytes = _volume(shape) * dtype.itemsize
        # prefer in-place reuse of a dying operand with identical geometry
        slot = None
        for v in operands:
            if (
                v.kind == _V_TEMP
                and v.shape == shape
                and v.sample.dtype == dtype
            ):
                slot = v.slot
                break
        if slot is None:
            avoid = {v.slot for v in operands if v.kind == _V_TEMP}
            slot = self._alloc(nbytes, avoid)
        self._release(operands, keep=slot)
        instr = _Instr(
            K_UFUNC, ufunc, tuple(self._desc(v) for v in operands),
            slot, shape, dtype, nbytes,
        )
        j = len(self.instrs)
        self.instrs.append(instr)
        return _Val(_V_TEMP, idx=j, slot=slot, sample=_tiny(sample),
                    shape=shape)

    def _select(self, expr: Select) -> _Val:
        mask = condition_mask(
            expr.condition, self.box, self.variables, self.bindings
        )
        t = self.emit(expr.true_expr)
        f = self.emit(expr.false_expr)
        if t.kind == _V_IMM and f.kind == _V_IMM:
            value = np.where(mask, t.value, f.value)
            return _Val(
                _V_IMM, value=value, sample=_tiny(value), shape=value.shape
            )
        tiny_mask = _tiny(mask)
        with np.errstate(all="ignore"):
            sample = np.where(
                tiny_mask, self._operand(t), self._operand(f)
            )
        # np.where broadcasts over the mask too, and condition_mask
        # always yields the full box shape
        shape = np.broadcast_shapes(mask.shape, t.shape, f.shape)
        dtype = sample.dtype
        nbytes = _volume(shape) * dtype.itemsize
        # copyto(dest, f); copyto(dest, t, where=mask): dest must not
        # alias an operand, so never reuse their slots in place
        avoid = {v.slot for v in (t, f) if v.kind == _V_TEMP}
        slot = self._alloc(nbytes, avoid)
        self._release((t, f))
        instr = _Instr(
            K_SELECT, None, (self._desc(t), self._desc(f)),
            slot, shape, dtype, nbytes, mask=mask,
        )
        j = len(self.instrs)
        self.instrs.append(instr)
        return _Val(_V_TEMP, idx=j, slot=slot, sample=_tiny(sample),
                    shape=shape)

    def finish(self, expr: Expr, out_dtype: np.dtype) -> Tape:
        root = self.emit(expr)
        if root.kind == _V_TEMP:
            ins = self.instrs[root.idx]
            # the root's producing instruction is always last (post
            # order); retarget it at the output view when the store
            # cast matches what the interpreter's assignment would do
            if ins.kind == K_SELECT or np.can_cast(
                ins.dtype, out_dtype, casting="same_kind"
            ):
                ins.to_out = True
            else:
                self.instrs.append(
                    _Instr(K_WRITE, None, ((A_RES, root.idx),),
                           None, None, None, 0)
                )
        else:
            self.instrs.append(
                _Instr(K_WRITE, None, (self._desc(root),),
                       None, None, None, 0)
            )
        return Tape(tuple(self.refs), tuple(self.instrs))


def _build_ref_spec(ref, box, variables, bindings, resolver):
    """Compose the hull read, strides, constant-axis drops, axis
    permutation, and broadcast expansion of one ``Ref`` into a
    :class:`RefSpec` (mirrors ``evaluate._eval_ref`` exactly)."""
    hull: list[ConcreteInterval] = []
    drivers: list[int | None] = []
    steps: list[int] = []
    for ix in ref.indices:
        var = ix.single_variable()
        if var is None:
            if not ix.is_constant():
                raise ValueError(f"unsupported subscript {ix!r}")
            c = ix.const.int_value(bindings)
            hull.append(ConcreteInterval(c, c))
            drivers.append(None)
            steps.append(1)
            continue
        coeff = ix.coeff_of(var)
        if coeff.denominator != 1 or coeff <= 0:
            raise ValueError(
                f"non-integral subscript coefficient in {ix!r}; sampling "
                "constructs must be parity-expanded before evaluation"
            )
        a = coeff.numerator
        c = ix.const.int_value(bindings)
        k = variables.index(var)
        iv = box.intervals[k]
        hull.append(ConcreteInterval(a * iv.lb + c, a * iv.ub + c))
        drivers.append(k)
        steps.append(a)

    live = [d for d in drivers if d is not None]
    if len(set(live)) != len(live):
        raise ValueError(
            f"diagonal access (one consumer dim drives two producer dims) "
            f"in {ref!r}"
        )

    kind, key, origin, np_dtype = resolver(ref.func)
    index = []
    for j, (iv, drv, st) in enumerate(zip(hull, drivers, steps)):
        o = origin[j]
        if drv is None:
            index.append(iv.lb - o)  # integer index drops the axis
        else:
            index.append(slice(iv.lb - o, iv.ub - o + 1, st))

    order = sorted(range(len(live)), key=lambda i: live[i])
    order_t = tuple(order) if order != list(range(len(live))) else None

    used = sorted(live)
    expand = []
    shape = []
    src = 0
    for k in range(box.ndim):
        if src < len(used) and used[src] == k:
            expand.append(slice(None))
            shape.append(box.intervals[k].size())
            src += 1
        else:
            expand.append(None)
            shape.append(1)
    expand_t = tuple(expand) if src < box.ndim else None
    return (
        RefSpec(kind, key, tuple(index), order_t, expand_t),
        tuple(shape),
        np_dtype,
    )


def compile_tape(expr, box, variables, bindings, resolver, slot_bytes,
                 out_dtype) -> Tape:
    builder = _TapeBuilder(box, variables, bindings, resolver, slot_bytes)
    return builder.finish(expr, out_dtype)


# ---------------------------------------------------------------------------
# stage / group / pipeline planning
# ---------------------------------------------------------------------------


def tile_grid(anchor_dom: Box, tile_shape) -> list[Box]:
    """Rectangular tile decomposition of a group's anchor domain."""
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


def build_group_tile_plan(
    group: "Group",
    splan: "GroupScratchPlan",
    anchor_dom: Box,
    tile_shape,
) -> GroupTilePlan:
    """Hoist the tile grid, per-tile regions, and scratch shape
    reductions of one tiled group out of the execution loop."""
    tiles = tile_grid(anchor_dom, tile_shape)
    regions_per_tile: list[dict] = []
    buf_shapes_per_tile: list[dict[int, tuple[int, ...]]] = []
    buf_dtypes: dict[int, np.dtype] = {}
    tile_scratch_bytes: list[int] = []
    max_buf_shapes: dict[int, tuple[int, ...]] = {}
    internal = list(group.internal_stages())
    for tile in tiles:
        regions = group.tile_regions(tile)
        buf_shape: dict[int, tuple[int, ...]] = {}
        for stage in internal:
            region = regions.get(stage)
            if region is None:
                continue
            bid = splan.buffer_of[stage]
            shape = region.shape()
            old = buf_shape.get(bid)
            if old is None:
                buf_shape[bid] = shape
                buf_dtypes.setdefault(bid, stage.dtype.np_dtype)
            else:
                buf_shape[bid] = tuple(
                    max(a, b) for a, b in zip(old, shape)
                )
        regions_per_tile.append(regions)
        buf_shapes_per_tile.append(buf_shape)
        tile_scratch_bytes.append(
            sum(
                _volume(shape) * buf_dtypes[bid].itemsize
                for bid, shape in buf_shape.items()
            )
        )
        for bid, shape in buf_shape.items():
            old = max_buf_shapes.get(bid)
            max_buf_shapes[bid] = (
                shape if old is None
                else tuple(max(a, b) for a, b in zip(old, shape))
            )
    return GroupTilePlan(
        tiles=tiles,
        regions=regions_per_tile,
        buf_shapes=buf_shapes_per_tile,
        buf_dtypes=buf_dtypes,
        tile_scratch_bytes=tile_scratch_bytes,
        max_buf_shapes=max_buf_shapes,
    )


def _compile_stage_kernel(
    stage,
    region: Box,
    scratch_target,  # None for live-outs, else (workspace key, origin)
    out_origin,
    out_dtype,
    bindings,
    resolver,
    slot_bytes,
) -> StageKernel | None:
    writes = []
    points = 0
    variables = stage.variables
    if isinstance(stage, Interp):
        for parity, expr, qbox in interp_parity_pieces(stage, region):
            tape = compile_tape(
                expr, qbox, variables, bindings, resolver, slot_bytes,
                out_dtype,
            )
            index = interp_write_slices(qbox, parity, out_origin)
            if scratch_target is None:
                writes.append(_Write(False, stage, index, tape))
            else:
                writes.append(_Write(True, scratch_target[0], index, tape))
            points += qbox.volume()
    else:
        for tbox, expr in stage_piece_targets(stage, region, bindings):
            tape = compile_tape(
                expr, tbox, variables, bindings, resolver, slot_bytes,
                out_dtype,
            )
            index = tbox.slices(out_origin)
            if scratch_target is None:
                writes.append(_Write(False, stage, index, tape))
            else:
                writes.append(_Write(True, scratch_target[0], index, tape))
            points += tbox.volume()
    if not writes:
        return None
    return StageKernel(stage, writes, points)


def build_kernel_plan(compiled: "CompiledPipeline") -> KernelPlan | None:
    """Lower a compiled pipeline into a :class:`KernelPlan`.

    Returns ``None`` when the plan's per-thread temp arena would exceed
    ``config.temp_arena_limit`` (the executor then falls back to the
    unplanned interpreter).  Diamond-tiled groups are never planned —
    they run through :mod:`repro.pluto.executor` unchanged.
    """
    from ..lang.types import dtype_of

    config = compiled.config
    bindings = compiled.bindings
    storage = compiled.storage
    plan = KernelPlan()
    slot_bytes = plan.slot_bytes

    dom_lower: dict = {}

    def lower_of(func):
        lo = dom_lower.get(func)
        if lo is None:
            lo = func.domain_box(bindings).lower()
            dom_lower[func] = lo
        return lo

    array_dtype = {
        aid: dtype_of(name).np_dtype
        for aid, name in storage.array_dtypes.items()
    }

    for gi, group in enumerate(compiled.grouping.groups):
        if gi in compiled._diamond_groups:
            continue
        live = set(group.live_outs())
        splan = storage.group_scratch(gi)

        def make_resolver(scratch_origins):
            def resolver(func):
                entry = scratch_origins.get(func)
                if entry is not None:
                    key, origin = entry
                    return R_SCRATCH, key, origin, func.dtype.np_dtype
                if func.is_input:
                    return (
                        R_INPUT, func, (0,) * func.ndim,
                        func.dtype.np_dtype,
                    )
                aid = storage.array_of[func]
                return R_ARRAY, aid, lower_of(func), array_dtype[aid]

            return resolver

        if config.tile and group.size > 1:
            anchor_dom = group.anchor.domain_box(bindings)
            tile_shape = config.tile_shape(group.anchor.ndim)
            tp = build_group_tile_plan(group, splan, anchor_dom, tile_shape)
            for bid, shape in tp.max_buf_shapes.items():
                plan.scratch_specs[(gi, bid)] = (shape, tp.buf_dtypes[bid])
            tile_kernels: list[list[StageKernel]] = []
            for regions in tp.regions:
                scratch_origins: dict = {}
                resolver = make_resolver(scratch_origins)
                kernels: list[StageKernel] = []
                for stage in group.stages:
                    region = regions.get(stage)
                    if region is None or region.is_empty():
                        continue
                    if stage in live:
                        scratch_target = None
                        out_origin = lower_of(stage)
                    else:
                        bid = splan.buffer_of[stage]
                        key = (gi, bid)
                        out_origin = region.lower()
                        scratch_target = (key, out_origin)
                        scratch_origins[stage] = (key, out_origin)
                    kernel = _compile_stage_kernel(
                        stage, region, scratch_target, out_origin,
                        stage.dtype.np_dtype, bindings, resolver,
                        slot_bytes,
                    )
                    if kernel is not None:
                        kernels.append(kernel)
                tile_kernels.append(kernels)
            plan.groups[gi] = GroupPlan(
                tiled=True, tile_kernels=tile_kernels, tile_plan=tp
            )
        else:
            scratch_origins = {}
            resolver = make_resolver(scratch_origins)
            kernels = []
            for stage in group.stages:
                dom = stage.domain_box(bindings)
                if stage in live:
                    scratch_target = None
                    out_origin = dom.lower()
                else:
                    key = ("s", gi, stage.uid)
                    out_origin = dom.lower()
                    scratch_target = (key, out_origin)
                    scratch_origins[stage] = (key, out_origin)
                    plan.scratch_specs[key] = (
                        dom.shape(), stage.dtype.np_dtype
                    )
                kernel = _compile_stage_kernel(
                    stage, dom, scratch_target, out_origin,
                    stage.dtype.np_dtype, bindings, resolver, slot_bytes,
                )
                if kernel is not None:
                    kernels.append(kernel)
            plan.groups[gi] = GroupPlan(tiled=False, kernels=kernels)

    limit = config.temp_arena_limit
    if limit is not None and plan.arena_bytes() > limit:
        return None
    return plan
