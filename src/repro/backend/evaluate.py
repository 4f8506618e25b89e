"""Vectorized evaluation of stage definitions over box regions.

This is the interpreter half of the backend, split into two halves:

* **plan-build**: region decomposition — :func:`stage_piece_targets`
  lowers a piecewise ``Case`` definition over a region into concrete
  ``(box, expr)`` targets (if/elif chain semantics with box
  subtraction) and :func:`interp_parity_pieces` lowers a parity-expanded
  ``Interp`` stage into per-parity-class coarse boxes.  These are pure
  geometry and are reused by the ahead-of-time kernel planner
  (:mod:`repro.backend.kernels`), which pays them once per compile;

* **tape-exec fallback**: :func:`evaluate_stage` — the unplanned
  tree-walking interpreter over those targets, one vectorized
  expression evaluation per (piece, sub-box), never per point.  The
  fault-injection and verification paths always run through this
  fallback, so their semantics are independent of the kernel planner.

Handles strided reads for ``Restrict``-scaled subscripts, constant
subscripts, and dimension permutation/broadcast for refs that do not
use every stage variable.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

from ..ir.domain import Box
from ..ir.interval import ConcreteInterval
from ..lang.expr import (
    BinOp,
    Call,
    Case,
    Condition,
    Const,
    Expr,
    IndexExpr,
    Maximum,
    Minimum,
    Ref,
    Select,
    UnOp,
    VarExpr,
)
from ..lang.sampling import Interp

if TYPE_CHECKING:  # pragma: no cover
    from ..lang.function import Function

__all__ = [
    "Reader",
    "evaluate_stage",
    "eval_expr",
    "condition_mask",
    "condition_intervals",
    "stage_piece_targets",
    "interp_parity_pieces",
    "interp_write_slices",
]

# reader(func, box) -> ndarray of exactly box.shape() (a view is fine)
Reader = Callable[["Function", Box], np.ndarray]

_CALL_FNS = {
    "sqrt": np.sqrt,
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
    "abs": np.abs,
    "log": np.log,
}


def _index_grid(
    index: IndexExpr,
    box: Box,
    variables: tuple,
    bindings: Mapping[str, int],
):
    """Evaluate an index expression over a box; returns a broadcastable
    array (or scalar for constant indices)."""
    value = float(index.const.value(bindings))
    total = value
    ndim = box.ndim
    for var, coeff in index.coeffs.items():
        d = variables.index(var)
        iv = box.intervals[d]
        ax = np.arange(iv.lb, iv.ub + 1, dtype=np.float64) * float(coeff)
        shape = [1] * ndim
        shape[d] = ax.shape[0]
        total = total + ax.reshape(shape)
    return total


def _eval_ref(
    ref: Ref,
    box: Box,
    variables: tuple,
    reader: Reader,
    bindings: Mapping[str, int],
) -> np.ndarray:
    """Evaluate a read of another function over ``box``.

    Computes the producer hull box, reads it, applies per-dimension
    strides, removes constant-subscript axes, permutes remaining axes to
    consumer order, and inserts broadcast axes for unused consumer
    dimensions.
    """
    producer = ref.func
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

    arr = reader(producer, Box(hull))
    # stride producer axes for coefficients > 1
    arr = arr[tuple(slice(None, None, s) for s in steps)]
    # drop constant axes (each has size 1 after the hull read)
    const_axes = tuple(j for j, d in enumerate(drivers) if d is None)
    if const_axes:
        arr = np.squeeze(arr, axis=const_axes)
    live_drivers = [d for d in drivers if d is not None]
    if len(set(live_drivers)) != len(live_drivers):
        raise ValueError(
            f"diagonal access (one consumer dim drives two producer dims) "
            f"in {ref!r}"
        )
    # permute producer axes into consumer-dimension order
    order = sorted(range(len(live_drivers)), key=lambda i: live_drivers[i])
    if order != list(range(len(live_drivers))):
        arr = np.transpose(arr, order)
    # broadcast axes for consumer dims the ref does not vary along
    used = sorted(live_drivers)
    shape = []
    src = 0
    for k in range(box.ndim):
        if src < len(used) and used[src] == k:
            shape.append(arr.shape[src])
            src += 1
        else:
            shape.append(1)
    return arr.reshape(shape)


def eval_expr(
    expr: Expr,
    box: Box,
    variables: tuple,
    reader: Reader,
    bindings: Mapping[str, int],
):
    """Evaluate an expression tree over ``box``; result broadcasts to
    ``box.shape()``."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, VarExpr):
        return _index_grid(expr.index, box, variables, bindings)
    if isinstance(expr, Ref):
        return _eval_ref(expr, box, variables, reader, bindings)
    if isinstance(expr, BinOp):
        left = eval_expr(expr.left, box, variables, reader, bindings)
        right = eval_expr(expr.right, box, variables, reader, bindings)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        return left / right
    if isinstance(expr, UnOp):
        return -eval_expr(expr.operand, box, variables, reader, bindings)
    if isinstance(expr, Minimum):
        return np.minimum(
            eval_expr(expr.left, box, variables, reader, bindings),
            eval_expr(expr.right, box, variables, reader, bindings),
        )
    if isinstance(expr, Maximum):
        return np.maximum(
            eval_expr(expr.left, box, variables, reader, bindings),
            eval_expr(expr.right, box, variables, reader, bindings),
        )
    if isinstance(expr, Call):
        args = [
            eval_expr(a, box, variables, reader, bindings) for a in expr.args
        ]
        if expr.fn == "pow":
            return np.power(args[0], args[1])
        return _CALL_FNS[expr.fn](*args)
    if isinstance(expr, Select):
        mask = condition_mask(expr.condition, box, variables, bindings)
        t = eval_expr(expr.true_expr, box, variables, reader, bindings)
        f = eval_expr(expr.false_expr, box, variables, reader, bindings)
        return np.where(mask, t, f)
    raise TypeError(f"cannot evaluate {type(expr).__name__}")


def condition_mask(
    cond: Condition,
    box: Box,
    variables: tuple,
    bindings: Mapping[str, int],
) -> np.ndarray:
    mask = np.ones((1,) * box.ndim, dtype=bool)
    for lhs, op, rhs in cond.atoms:
        l = _index_grid(lhs, box, variables, bindings)
        r = _index_grid(rhs, box, variables, bindings)
        if op == "<=":
            mask = mask & (l <= r)
        elif op == ">=":
            mask = mask & (l >= r)
        else:
            mask = mask & (l == r)
    return np.broadcast_to(mask, box.shape()) if mask.shape != box.shape() else mask


def condition_intervals(
    cond: Condition,
    variables: tuple,
    bindings: Mapping[str, int],
) -> dict[int, tuple[int | None, int | None]]:
    """Per constrained dimension, the inclusive integer ``(lo, hi)``
    where ``cond`` holds (``None`` = unbounded on that side; conditions
    are axis-aligned in GMG pipelines).  The planner's boxes and the C
    emitter's loop bounds are both cut from these."""
    out: dict[int, tuple[int | None, int | None]] = {}
    for var, (lo, hi) in cond.constraint_bounds(dict(bindings)).items():
        out[variables.index(var)] = (
            None if lo == float("-inf") else math.ceil(lo),
            None if hi == float("inf") else math.floor(hi),
        )
    return out


def _condition_box(
    cond: Condition,
    region: Box,
    variables: tuple,
    bindings: Mapping[str, int],
) -> Box:
    """The sub-box of ``region`` where ``cond`` holds."""
    intervals = list(region.intervals)
    for d, (lo, hi) in condition_intervals(cond, variables, bindings).items():
        ilo = intervals[d].lb if lo is None else lo
        ihi = intervals[d].ub if hi is None else hi
        intervals[d] = intervals[d].intersect(ConcreteInterval(ilo, ihi))
    return Box(intervals)


def stage_piece_targets(
    stage: "Function",
    region: Box,
    bindings: Mapping[str, int],
) -> list[tuple[Box, Expr]]:
    """Lower a (non-``Interp``) stage's piecewise definition over
    ``region`` into concrete ``(box, expr)`` targets.

    Exactly the if/elif chain semantics of ``Case`` lists: each ``Case``
    claims the sub-box of the still-unclaimed region where its condition
    holds; a plain trailing expression claims everything left.  The
    boxes are pairwise disjoint and their union is the subset of
    ``region`` the definition covers.  Both the unplanned interpreter
    and the kernel planner consume this decomposition, so planned and
    fallback execution write the same boxes in the same order.
    """
    variables = stage.variables
    out: list[tuple[Box, Expr]] = []
    remaining = [region]
    for piece in stage.defn:
        if not remaining:
            break
        if isinstance(piece, Case):
            targets = []
            next_remaining: list[Box] = []
            for rbox in remaining:
                cbox = _condition_box(
                    piece.condition, rbox, variables, bindings
                )
                if not cbox.is_empty():
                    targets.append(cbox)
                next_remaining.extend(rbox.subtract(cbox))
            expr = piece.expr
            remaining = next_remaining
        else:
            targets = remaining
            expr = piece
            remaining = []
        for tbox in targets:
            out.append((tbox, expr))
    return out


def interp_parity_pieces(
    stage: Interp,
    region: Box,
) -> list[tuple[tuple[int, ...], Expr, Box]]:
    """Per-parity-class lowering of an ``Interp`` stage over ``region``:
    for each output parity class ``x_d = 2 q_d + r_d``, the coarse box
    of ``q`` whose stride-2 image lies in ``region`` (empty classes are
    dropped)."""
    pieces: list[tuple[tuple[int, ...], Expr, Box]] = []
    for parity, expr in stage.parity_cases.items():
        qiv: list[ConcreteInterval] = []
        for d, r in enumerate(parity):
            iv = region.intervals[d]
            qlo = -((-(iv.lb - r)) // 2)  # ceil((lb - r)/2)
            qhi = (iv.ub - r) // 2
            qiv.append(ConcreteInterval(qlo, qhi))
        qbox = Box(qiv)
        if qbox.is_empty():
            continue
        pieces.append((parity, expr, qbox))
    return pieces


def interp_write_slices(
    qbox: Box,
    parity: tuple[int, ...],
    out_origin: tuple[int, ...],
) -> tuple[slice, ...]:
    """Stride-2 output slices of one interp parity class relative to an
    array whose element ``out_origin`` is index 0."""
    return tuple(
        slice(2 * q.lb + r - o, 2 * q.ub + r - o + 1, 2)
        for q, r, o in zip(qbox.intervals, parity, out_origin)
    )


def evaluate_stage(
    stage: "Function",
    region: Box,
    reader: Reader,
    out: np.ndarray,
    out_origin: tuple[int, ...],
    bindings: Mapping[str, int],
) -> int:
    """Evaluate ``stage`` over ``region``, writing into ``out`` (whose
    element ``out_origin`` is index 0).  Returns the number of points
    computed (for statistics).

    This is the *unplanned* tree-walking path; the planned path
    (:mod:`repro.backend.kernels`) precompiles the same targets into op
    tapes.  Fault-injection and verification always run through here.
    """
    if region.is_empty():
        return 0
    variables = stage.variables
    points = 0
    if isinstance(stage, Interp):
        for parity, expr, qbox in interp_parity_pieces(stage, region):
            value = eval_expr(expr, qbox, variables, reader, bindings)
            out[interp_write_slices(qbox, parity, out_origin)] = value
            points += qbox.volume()
        return points
    for tbox, expr in stage_piece_targets(stage, region, bindings):
        value = eval_expr(expr, tbox, variables, reader, bindings)
        out[tbox.slices(out_origin)] = value
        points += tbox.volume()
    return points
