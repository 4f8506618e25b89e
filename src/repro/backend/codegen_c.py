"""C/OpenMP code emitter (paper Figure 8, section 3.2.5).

Emits, for a compiled pipeline, the C code PolyMG would generate:

* a pipeline function taking the parameters, input grids, and a
  reference to the output array,
* ``pool_allocate``/``pool_deallocate`` calls for live-out full arrays
  placed at first definition / after last use,
* one ``#pragma omp parallel for schedule(static) collapse(d)`` tile
  loop nest per fused group (collapse depth = number of tiled
  dimensions, determined the way section 3.2.5 describes),
* constant-size scratchpad declarations sunk inside the tile loop (one
  per *reused* buffer, annotated with the users it serves — exactly the
  ``/* users: [...] */`` comments of Figure 8),
* per-stage loop nests with clamped tile bounds hoisted into ``const``
  temporaries and ``PMG_IVDEP``-annotated innermost loops.

Two emission modes share one emitter:

* :func:`generate_c` — the Figure-8 artifact: the generated
  lines-of-code column of Table 3 is measured on it, the structural
  tests assert its shape, and the smoke test compiles it with
  ``-Wall -Wextra -Werror``;
* :func:`generate_native_c` — the JIT source: *one* pipeline body
  (``pipeline_<name>_ws``, stage loops as orphaned ``omp for``
  worksharing constructs) entered by two C ABI entry points taking
  pointer/shape/stride descriptors validated against the geometry
  baked at compile time — ``polymg_run`` (one cycle, one parallel
  region) and, for eligible pipelines, ``polymg_drive`` (the
  whole-solve cycle loop in one persistent region).  Every distinct
  fused-group text is a non-inlined function over its buffers, called
  per visit (a W-cycle revisiting a level calls the same one again):
  its tile loops and footprint prologue, and one call per stage.
  Every stage loop nest is a *stage function* whose operands (base
  pointer, row strides, origin), region bounds, ``Case`` intervals and
  level constants are arguments, emitted once per distinct text and
  compiled as its own unit (:data:`UNIT_MARKER`); the group functions
  share one unit.  A stage function is branch-free loop nests
  over the planner's own decomposition: a boundary ``Case`` becomes
  loop bounds (:meth:`_Emitter.emit_case_row`), an ``Interp`` parity
  table loops over coarse indices (:meth:`_Emitter.emit_interp_nests`)
  — the per-point ``if``/``% 2`` chains of the listing do not
  vectorize.  :mod:`repro.backend.native` compiles this into a shared
  object and invokes it zero-copy on numpy buffers.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import TYPE_CHECKING

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
from .evaluate import condition_intervals

if TYPE_CHECKING:  # pragma: no cover
    from ..backend.executor import CompiledPipeline
    from ..lang.function import Function

__all__ = [
    "generate_c",
    "generate_native_c",
    "generated_loc",
    "POOL_RUNTIME",
    "NATIVE_ENTRY_NAME",
    "DRIVER_ENTRY_NAME",
    "UNIT_MARKER",
    "driver_emitted",
]

#: exported symbol name of the native ABI entry point
NATIVE_ENTRY_NAME = "polymg_run"

#: exported symbol name of the whole-solve driver entry point
DRIVER_ENTRY_NAME = "polymg_drive"

#: opens each separately compiled unit of the native source (its name
#: follows); what precedes the first is the preamble every unit repeats
UNIT_MARKER = "/* @pmg-unit "


def driver_emitted(compiled: "CompiledPipeline") -> bool:
    """Whether the native translation unit for this pipeline carries the
    whole-solve ``polymg_drive`` entry.  The driver ping-pongs a single
    iterate grid through the pipeline and measures the interior defect
    of its output, so it is emitted exactly for single-output pipelines
    whose output grid has a non-empty interior (every dimension at
    least one boundary layer around one interior point); callers use
    this instead of probing the shared object for the symbol."""
    dag = compiled.dag
    if len(dag.outputs) != 1:
        return False
    shape = dag.outputs[0].domain_box(compiled.bindings).shape()
    return len(shape) >= 1 and all(s >= 3 for s in shape)

POOL_RUNTIME = """\
/* pooled memory allocator (paper section 3.2.3) */
#include <stdlib.h>
#include <string.h>

#define POOL_MAX 256
static void *pool_ptrs[POOL_MAX];
static size_t pool_sizes[POOL_MAX];
static int pool_free[POOL_MAX];
static int pool_count = 0;

static inline void *pool_allocate(size_t bytes) {
  int best = -1;
  for (int i = 0; i < pool_count; i++) {
    if (pool_free[i] && pool_sizes[i] >= bytes &&
        (best < 0 || pool_sizes[i] < pool_sizes[best]))
      best = i;
  }
  if (best >= 0) { pool_free[best] = 0; return pool_ptrs[best]; }
  void *p = malloc(bytes);
  if (p && pool_count < POOL_MAX) {
    pool_ptrs[pool_count] = p;
    pool_sizes[pool_count] = bytes;
    pool_free[pool_count] = 0;
    pool_count++;
  }
  return p;
}

static inline void pool_deallocate(void *p) {
  for (int i = 0; i < pool_count; i++)
    if (pool_ptrs[i] == p) { pool_free[i] = 1; return; }
  free(p);
}
"""

# portable innermost-loop vectorization hint: `#pragma ivdep` is an
# unknown pragma under gcc -Wall -Werror, so the emitted code carries a
# compiler-dispatched macro instead
IVDEP_MACRO = """\
#if defined(__clang__)
#define PMG_IVDEP _Pragma("clang loop vectorize(enable)")
#elif defined(__GNUC__)
#define PMG_IVDEP _Pragma("GCC ivdep")
#else
#define PMG_IVDEP
#endif
"""

# Scratchpads state their alignment (a cache line, at least the widest
# vector).  Left at the ABI's 16 bytes, gcc's vectorizer raises it
# itself wherever that buys aligned loads ("force alignment" in its
# dump), and with gcc 12 the array does not always get it: 3-D N=64
# with default tiles died on an aligned AVX load from a scratchpad that
# sat 16 bytes off a 32-byte boundary, every index in range.
_SCRATCH_ALIGN = "__attribute__((aligned(64)))"

# numpy expression functions whose C spelling differs (``abs`` on a
# double operand must be ``fabs``; everything else matches <math.h>)
_C_FN_NAMES = {"abs": "fabs"}

# Whole-solve driver support runtime.  The driver's in-kernel residual
# norm must be bitwise identical to the numpy norm the per-cycle path
# computes in Python (repro.multigrid.kernels.norm_residual), so the
# supervisor's convergence/stagnation decisions are invariant to which
# tier served a cycle:
#
# * ``pmg_pairwise`` replicates numpy's pairwise summation over a
#   contiguous float64 buffer structurally (naive under 8, an
#   8-accumulator block up to 128, recursive halving rounded down to a
#   multiple of 8 above) — the same sequence of IEEE additions in the
#   same order.
# * The norm never materializes the squared defects: ``pmg_resid_tree``
#   walks the same halving tree over interior indices, and each leaf of
#   at most 128 points (``pmg_resid_leaf``, emitted per geometry by
#   :meth:`_Emitter.emit_driver_norm_leaf`) computes its defects from
#   ``u`` and ``f`` into an aligned stack block that ``pmg_pairwise``
#   then sums — same leaves, same tree, same additions as numpy over
#   the whole squared-defect array.
# * The team shares the tree's top nodes (``pmg_resid_split``: depth
#   ``d`` with ``2**d`` at least the team size) and one thread adds
#   their partial sums back in tree order (``pmg_resid_join``), so the
#   norm is bitwise independent of the thread count.
# * FP contraction is pinned off for the residual helpers
#   (``PMG_NOCONTRACT``): ``-march=native`` would otherwise fuse
#   the center-coefficient multiply-add into an FMA, which rounds once
#   where numpy's per-operation arithmetic rounds twice.
DRIVER_RUNTIME = """\
/* ---- whole-solve driver runtime (repro.backend.native) ---- */
#if defined(__clang__)
#define PMG_NOCONTRACT
#else
#define PMG_NOCONTRACT __attribute__((optimize("fp-contract=off")))
#endif

/* structural replica of numpy's pairwise float64 summation */
static PMG_NOCONTRACT double pmg_pairwise(const double *a, int64_t n) {
#if defined(__clang__)
#pragma clang fp contract(off)
#endif
  if (n < 8) {
    double res = 0.0;
    for (int64_t i = 0; i < n; i++) res += a[i];
    return res;
  }
  if (n <= 128) {
    double r0 = a[0], r1 = a[1], r2 = a[2], r3 = a[3];
    double r4 = a[4], r5 = a[5], r6 = a[6], r7 = a[7];
    int64_t i;
    for (i = 8; i < n - (n % 8); i += 8) {
      r0 += a[i + 0]; r1 += a[i + 1]; r2 += a[i + 2]; r3 += a[i + 3];
      r4 += a[i + 4]; r5 += a[i + 5]; r6 += a[i + 6]; r7 += a[i + 7];
    }
    double res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));
    for (; i < n; i++) res += a[i];
    return res;
  }
  {
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pmg_pairwise(a, n2) + pmg_pairwise(a + n2, n - n2);
  }
}
"""

# The fused residual norm's tree, after the emitted ``pmg_resid_leaf``:
# the halving of ``pmg_pairwise`` above 128, over interior indices.
DRIVER_NORM_TREE = """\
/* sum of squared interior defects over interior indices [lo, lo + n):
   pmg_pairwise's tree, each leaf computed in place */
static double pmg_resid_tree(const double *restrict u,
                             const double *restrict f,
                             const double inv_h2, int64_t lo, int64_t n) {
  if (n <= 128) return pmg_resid_leaf(u, f, inv_h2, lo, n);
  int64_t n2 = n / 2;
  n2 -= n2 % 8;
  return pmg_resid_tree(u, f, inv_h2, lo, n2)
       + pmg_resid_tree(u, f, inv_h2, lo + n2, n - n2);
}

/* the tree's nodes at `depth` (a leaf above it stands for itself),
   left to right, into los/ns from slot k; returns the next slot */
static int pmg_resid_split(int64_t lo, int64_t n, int depth,
                           int64_t *los, int64_t *ns, int k) {
  if (depth == 0 || n <= 128) {
    los[k] = lo;
    ns[k] = n;
    return k + 1;
  }
  int64_t n2 = n / 2;
  n2 -= n2 % 8;
  k = pmg_resid_split(lo, n2, depth - 1, los, ns, k);
  return pmg_resid_split(lo + n2, n - n2, depth - 1, los, ns, k);
}

/* the partial sums of pmg_resid_split's nodes, added in tree order */
static double pmg_resid_join(int64_t n, int depth, const double *part,
                             int *k) {
  if (depth == 0 || n <= 128) return part[(*k)++];
  int64_t n2 = n / 2;
  n2 -= n2 % 8;
  const double left = pmg_resid_join(n2, depth - 1, part, k);
  return left + pmg_resid_join(n - n2, depth - 1, part, k);
}
"""

#: deepest tree level the driver's team splits its residual norm at
#: (``2**depth`` partial sums, one stack slot each)
_NORM_MAX_DEPTH = 6


def _offset(base: str, k: int) -> str:
    """Render ``base + k`` with normalized sign."""
    if k == 0:
        return base
    if k < 0:
        return f"{base} - {-k}"
    return f"{base} + {k}"


# C declarator of a buffer a group function takes, by storage kind
_BUFFER_DECL = {
    "input": "const double *restrict",
    "array": "double *",
    "output": "double *restrict",
}


def _structural(value: float) -> bool:
    """Whether a float constant stays literal in a stage function: zero
    and the powers of two (the transfer weights, the boundary value)
    scale exactly; any other (a level's ``1/h**2`` and ``omega h**2 /
    2d``) is an argument, passed as its ``repr`` so the value is
    exact."""
    return not value or math.frexp(abs(value))[0] == 0.5


class _StageArgs:
    """The parameters of the stage function being rendered, in first-use
    order: ``decl name`` of each and the C value the call site passes."""

    def __init__(self, stage: "Function") -> None:
        self.stage = stage
        self.params: list[str] = []
        self.values: list[str] = []
        self.operands: dict[tuple, tuple] = {}
        self.counts: dict[str, int] = {}
        self.libm = False

    def add(self, decl: str, prefix: str, value) -> str:
        k = self.counts[prefix] = self.counts.get(prefix, -1) + 1
        name = f"pmg_{prefix}{k}"
        self.params.append(f"{decl} {name}")
        self.values.append(str(value))
        return name

    def operand(self, func: "Function", name: str, strides, origin):
        """An operand as base pointer, row strides (the innermost is a
        literal 1) and origin; the stage's own storage is the only one
        written."""
        key = (name, tuple(origin))
        if key not in self.operands:
            const = "" if func is self.stage else "const "
            p = self.add(f"{const}double *", "p", name)
            self.operands[key] = (
                p,
                [self.add("int", f"{p[4:]}_s", s) for s in strides[:-1]] + [1],
                [self.add("int", f"{p[4:]}_o", o or 0) for o in origin],
            )
        return self.operands[key]


class _Emitter:
    def __init__(
        self, compiled: "CompiledPipeline", native: bool = False
    ) -> None:
        self.compiled = compiled
        self.native = native
        self.lines: list[str] = []
        self.indent = 0
        self.array_names: dict[int, str] = {}
        self.stage_store: dict["Function", tuple[str, str]] = {}
        # (array-name, kind) where kind in {input, output, array, temp,
        # scratch}
        self.scratch_shape: dict["Function", tuple[int, ...]] = {}
        self.scratch_origin: dict["Function", tuple[str, ...]] = {}
        #: ``(name, kind)`` of each buffer the group function being
        #: rendered reads or writes but does not declare -> parameter
        #: slot, in first-use order (``None`` in the listing, which
        #: names a buffer directly)
        self._buffers: dict[tuple[str, str], int] | None = None
        #: the parameters of the stage function being rendered (native
        #: only), and each distinct ``(header, body)`` -> its name
        self._args: _StageArgs | None = None
        self._stage_fns: dict[tuple, str] = {}

    @property
    def driver(self) -> bool:
        return self.native and driver_emitted(self.compiled)

    # -- OpenMP emission --------------------------------------------------
    def _proc_bind(self) -> str:
        """``proc_bind`` clause from the thread-affinity knob, rendered
        with a leading space (empty for the default ``none``)."""
        affinity = getattr(self.compiled.config, "native_affinity", "none")
        if affinity == "compact":
            return " proc_bind(close)"
        if affinity == "scatter":
            return " proc_bind(spread)"
        return ""

    def omp_loop_pragma(self, tail: str) -> str:
        """A stage loop's worksharing pragma: a fresh parallel region in
        the Figure-8 listing, an orphaned ``for`` (binding to the team
        of whichever ABI entry called the native body) in native
        code."""
        if self.native:
            return f"#pragma omp for {tail}"
        return f"#pragma omp parallel for {tail}{self._proc_bind()}"

    def emit_pool_alloc(self, name: str, elems) -> None:
        """Pool-allocate ``name`` (with the native failure check).  In
        worksharing mode exactly one thread of the enclosing team calls
        the allocator and ``copyprivate`` broadcasts the pointer, so
        every thread sees the same buffer and takes the same early
        return on exhaustion."""
        alloc = (
            f"{name} = (double *) (pool_allocate("
            f"sizeof(double) * {elems}));"
        )
        if self.native:
            self.emit(f"double * {name};")
            self.emit(f"#pragma omp single copyprivate({name})")
            self.emit(alloc)
        else:
            self.emit(f"double * {alloc}")
        if self.native:
            self.emit(f"if (!{name}) return -1;")

    def emit_pool_dealloc(self, name: str) -> None:
        if self.native:
            self.emit("#pragma omp single")
        self.emit(f"pool_deallocate({name});")

    # -- emission helpers -------------------------------------------------
    def emit(self, text: str = "") -> None:
        if not text:
            self.lines.append("")
            return
        self.lines.append("  " * self.indent + text)

    def emit_raw(self, text: str) -> None:
        """Emit a preformatted multi-line block at column zero."""
        self.lines.extend(text.splitlines())

    def block(self):
        emitter = self

        class _Block:
            def __enter__(self_inner):
                emitter.indent += 1

            def __exit__(self_inner, *exc):
                emitter.indent -= 1

        return _Block()

    # -- naming -------------------------------------------------------------
    @staticmethod
    def cname(name: str) -> str:
        out = "".join(c if c.isalnum() else "_" for c in name)
        if out and out[0].isdigit():
            out = "_" + out
        return out

    def array_name(self, aid: int) -> str:
        if aid not in self.array_names:
            self.array_names[aid] = f"_arr_{aid}"
        return self.array_names[aid]

    # -- expression rendering ------------------------------------------------
    def index_c(
        self, ix: IndexExpr, coarse: bool = False
    ) -> str:
        """Render a subscript; integral coefficients only."""
        parts = []
        for var, coeff in ix.coeffs.items():
            if coeff.denominator != 1:
                raise ValueError(
                    f"non-integral coefficient in emitted subscript {ix!r}"
                )
            c = coeff.numerator
            if c == 1:
                parts.append(var.name)
            else:
                parts.append(f"{c}*{var.name}")
        const = ix.const
        if const.is_constant():
            k = const.constant_value()
            if k != 0 or not parts:
                parts.append(str(int(k)))
        else:
            c = const.coeff("N")
            if c.denominator == 1 and not self.native:
                rendered = f"{int(c)}*N"
                if const.const:
                    rendered += f" + {int(const.const)}"
                parts.append(rendered)
            else:
                # fractional parameter coefficients (coarse-level
                # bounds like N/2) have no integral C rendering, and a
                # stage function has no N; bindings are concrete, so
                # evaluate them exactly
                parts.append(
                    str(int(const.int_value(self.compiled.bindings)))
                )
        return " + ".join(parts).replace("+ -", "- ")

    def linearize_subs(self, func: "Function", subs: list[str]) -> str:
        """Row-major linearized access into the stage's storage given
        already-rendered subscript strings: full arrays are subscripted
        with domain-relative coordinates, scratchpads with tile-relative
        ones (Figure 8's hoisted-origin form)."""
        name, kind = self.stage_store[func]
        if kind == "scratch":
            dims = list(self.scratch_shape[func])
            origin = self.scratch_origin[func]
        else:
            if kind != "temp" and self._buffers is not None:
                slot = self._buffers.setdefault(
                    (name, kind), len(self._buffers)
                )
                name = f"pmg_b{slot}"
            dims = [
                iv.size().int_value(self.compiled.bindings)
                for iv in func.domain.intervals
            ]
            lower = func.domain_box(self.compiled.bindings).lower()
            origin = [str(l) if l else "" for l in lower]
        strides = [math.prod(dims[d + 1 :]) for d in range(len(dims))]
        if self._args is not None:
            name, strides, origin = self._args.operand(
                func, name, strides, origin
            )
        terms = []
        for sub, o, stride in zip(subs, origin, strides):
            sub = f"({sub} - {o})" if o else f"({sub})"
            terms.append(sub if stride == 1 else f"{sub}*{stride}")
        return f"{name}[{' + '.join(terms)}]"

    def linearize(self, func: "Function", indices) -> str:
        return self.linearize_subs(
            func, [self.index_c(ix) for ix in indices]
        )

    def expr_c(self, expr: Expr) -> str:
        if isinstance(expr, Const):
            v = expr.value
            if not isinstance(v, float):
                return f"{v}"
            if self._args is not None and not _structural(v):
                return self._args.add("double", "k", repr(v))
            return repr(v)
        if isinstance(expr, VarExpr):
            return f"({self.index_c(expr.index)})"
        if isinstance(expr, Ref):
            return self.linearize(expr.func, expr.indices)
        if isinstance(expr, BinOp):
            return (
                f"({self.expr_c(expr.left)} {expr.op} "
                f"{self.expr_c(expr.right)})"
            )
        if isinstance(expr, UnOp):
            return f"(-{self.expr_c(expr.operand)})"
        if isinstance(expr, (Minimum, Maximum, Call)) and self._args:
            self._args.libm = True
        if isinstance(expr, Minimum):
            return f"fmin({self.expr_c(expr.left)}, {self.expr_c(expr.right)})"
        if isinstance(expr, Maximum):
            return f"fmax({self.expr_c(expr.left)}, {self.expr_c(expr.right)})"
        if isinstance(expr, Call):
            args = ", ".join(self.expr_c(a) for a in expr.args)
            fn = _C_FN_NAMES.get(expr.fn, expr.fn)
            return f"{fn}({args})"
        if isinstance(expr, Select):
            return (
                f"({self.cond_c(expr.condition)} ? "
                f"{self.expr_c(expr.true_expr)} : "
                f"{self.expr_c(expr.false_expr)})"
            )
        raise TypeError(f"cannot emit {type(expr).__name__}")

    def cond_c(self, cond: Condition) -> str:
        atoms = []
        for lhs, op, rhs in cond.atoms:
            atoms.append(f"({self.index_c(lhs)} {op} {self.index_c(rhs)})")
        return " && ".join(atoms)

    # -- loop nests --------------------------------------------------------
    def emit_nest(self, names, bounds, body, omp=None, ivdep=True) -> None:
        """One perfect loop nest over inclusive ``(lb, ub)`` bounds;
        ``body()`` emits its innermost statements.  ``omp`` is the
        worksharing collapse depth of a straight group's nest (``None``
        inside a tile loop).  The ivdep hint must not separate an
        omp-for or collapsed loop from its successor, so it only
        applies to an innermost loop strictly inside the parallel
        nest."""
        if omp is not None:
            # a nest without loops (what is outside the rows of a 1-D
            # stage) has nothing to share out: one thread runs it
            self.emit(
                self.omp_loop_pragma(
                    "schedule(static)"
                    + (f" collapse({omp})" if omp > 1 else "")
                )
                if names
                else "#pragma omp single"
            )
        heads = [
            f"for (int {name} = {lb}; {name} <= {ub}; {name}++) {{"
            for name, (lb, ub) in zip(names, bounds)
        ] or ["{"]
        for d, head in enumerate(heads):
            if (
                ivdep
                and names
                and d == len(heads) - 1
                and (omp is None or d >= omp)
            ):
                self.emit("PMG_IVDEP")
            self.emit(head)
            self.indent += 1
        body()
        for _ in heads:
            self.indent -= 1
            self.emit("}")

    def emit_stage(self, stage: "Function", bounds, omp=None) -> None:
        """Emit ``stage`` over inclusive per-dimension ``(lb, ub)``
        bounds (C text: literals in a straight group, a tile's region
        variables in a tiled one): its loop nests in the listing, a call
        of its stage function in native code.  The function's text is
        the nests rendered over parameters (bounds, operands, ``Case``
        intervals, level constants; :class:`_StageArgs`), so every
        stage that differs only in those — one smoother step at each
        level, before and after the coarse grid — calls one function."""
        if not self.native:
            return self.emit_stage_loops(stage, bounds, omp)
        outer = self.lines, self.indent
        self.lines, self.indent = [], 1
        self._args = args = _StageArgs(stage)
        bounds = [(args.add("int", "lb", lb), args.add("int", "ub", ub))
                  for lb, ub in bounds]
        self.emit_stage_loops(stage, bounds, omp)
        key = (f"void {{}}({', '.join(args.params)})", tuple(self.lines))
        (self.lines, self.indent), self._args = outer, None
        fn = self._stage_fns.setdefault(
            key + (args.libm,), f"pmg_stage_{len(self._stage_fns)}"
        )
        self.emit(f"{fn}({', '.join(args.values)});")

    def emit_stage_loops(self, stage: "Function", bounds, omp=None) -> None:
        """The loop nests of ``stage`` over ``bounds``.  The listing is
        Figure 8: one nest, a piecewise definition or parity table
        tested per point, which no compiler vectorizes; native code
        lowers both to the bounds of branch-free inner loops."""
        names = [v.name for v in stage.variables]
        if self.native and isinstance(stage, Interp):
            self.emit_interp_nests(stage, names, bounds, omp)
        elif self.native and any(isinstance(p, Case) for p in stage.defn):
            self.emit_nest(
                names[:-1],
                bounds[:-1],
                lambda: self.emit_case_row(stage, names, *bounds[-1]),
                omp,
                ivdep=False,
            )
        else:
            self.emit_nest(
                names, bounds, lambda: self.emit_stage_body(stage), omp
            )

    def emit_case_row(
        self, stage: "Function", names, lb: str, ub: str
    ) -> None:
        """One row ``[lb, ub]`` of a piecewise stage (the loops of the
        outer dimensions are open) as consecutive branch-free loops:
        the decomposition of
        :func:`~repro.backend.evaluate.stage_piece_targets`, cut from
        the same :func:`~repro.backend.evaluate.condition_intervals`,
        taken row by row.  A ``Case`` claims the segment of the row
        inside its condition — empty when the row fails the
        condition's tests on the outer dimensions, which are evaluated
        once per row — and the segments left and right of it fall to
        the pieces after it."""
        x = names[-1]
        lhs = self.linearize(
            stage, [IndexExpr.of_var(v) for v in stage.variables]
        )
        serial = itertools.count()

        def loop(a: str, b: str, expr: Expr) -> None:
            store = f"{lhs} = {self.expr_c(expr)};"
            self.emit_nest([x], [(a, b)], lambda: self.emit(store))

        def segment(pieces, a: str, b: str) -> None:
            if not pieces:
                return
            if not isinstance(pieces[0], Case):
                loop(a, b, pieces[0])
                return
            cond = condition_intervals(
                pieces[0].condition, stage.variables, self.compiled.bindings
            )
            clo, chi = cond.pop(len(names) - 1, (None, None))
            # the intervals are stage-function arguments
            arg = functools.partial(self._args.add, "int", "c")
            row = " && ".join(
                f"{names[d]} {op} {arg(k)}"
                for d, ks in sorted(cond.items())
                for op, k in zip((">=", "<="), ks)
                if k is not None
            )
            # the claimed segment [xa, xb], a <= xa <= b + 1
            xa = a if clo is None else f"min(max({a}, {arg(clo)}), {b} + 1)"
            xb = b if chi is None else f"min({b}, {arg(chi)})"
            if row:
                xa, xb = f"({row}) ? {xa} : {b} + 1", f"({row}) ? {xb} : {b}"
            k = next(serial)
            self.emit(f"const int _xa{k} = {xa}, _xb{k} = {xb};")
            segment(pieces[1:], a, f"_xa{k} - 1")
            loop(f"_xa{k}", f"_xb{k}", pieces[0].expr)
            segment(pieces[1:], f"max(_xb{k} + 1, _xa{k})", b)

        segment(stage.defn, lb, ub)

    def emit_interp_nests(self, stage: Interp, names, bounds, omp) -> None:
        """The parity classes of
        :func:`~repro.backend.evaluate.interp_parity_pieces` as loops
        over the *coarse* index.  Per parity ``r`` of the outer
        dimensions, the outer loops run over the coarse ``q`` with
        ``2q + r`` inside the region; the innermost loop runs over the
        coarse index of a fine pair and stores its even and its odd
        point (unit-stride, interleaved), with the region's odd first
        and even last point peeled.  Coarse reads are subscripted
        directly, there is no ``% 2`` and no ``/ 2`` per point."""
        x = names[-1]
        lb, ub = bounds[-1]

        def store(parity) -> str:
            fine = [_offset(f"2*{n}", r) for n, r in zip(names, parity)]
            lhs = self.linearize_subs(stage, fine)
            return f"{lhs} = {self.expr_c(stage.parity_cases[parity])};"

        self.emit("{")
        self.indent += 1
        # fine pairs (2q, 2q + 1) inside [lb, ub]
        self.emit(
            f"const int _qlo = pmg_fdiv({_offset(lb, 1)}, 2), "
            f"_qhi = pmg_fdiv({_offset(ub, -1)}, 2);"
        )
        self.emit(
            f"const int _lead = {lb} <= {ub} && 2*_qlo - 1 == {lb}, "
            f"_trail = {lb} <= {ub} && 2*_qhi + 2 == {ub};"
        )
        for outer in itertools.product((0, 1), repeat=len(names) - 1):
            even, odd = store(outer + (0,)), store(outer + (1,))

            def row():
                self.emit(
                    f"if (_lead) {{ const int {x} = _qlo - 1; {odd} }}"
                )
                self.emit_nest(
                    [x],
                    [("_qlo", "_qhi")],
                    lambda: (self.emit(even), self.emit(odd)),
                )
                self.emit(
                    f"if (_trail) {{ const int {x} = _qhi + 1; {even} }}"
                )

            self.emit_nest(
                names[:-1],
                [
                    (
                        f"pmg_fdiv({_offset(lo, 1 - r)}, 2)",
                        f"pmg_fdiv({_offset(hi, -r)}, 2)",
                    )
                    for (lo, hi), r in zip(bounds, outer)
                ],
                row,
                omp,
                ivdep=False,
            )
        self.indent -= 1
        self.emit("}")

    def emit_stage_body(self, stage: "Function") -> None:
        lhs = self.linearize(
            stage, [IndexExpr.of_var(v) for v in stage.variables]
        )
        if isinstance(stage, Interp):
            # parity dispatch rendered as a chain of parity tests
            first = True
            for parity, expr in stage.parity_cases.items():
                test = " && ".join(
                    f"(({v.name}) % 2 == {r})"
                    for v, r in zip(stage.variables, parity)
                )
                kw = "if" if first else "else if"
                self.emit(f"{kw} ({test}) {{")
                with self.block():
                    body = self._coarse_interp_expr(stage, expr)
                    self.emit(f"{lhs} = {body};")
                self.emit("}")
                first = False
            return
        first = True
        for piece in stage.defn:
            if isinstance(piece, Case):
                kw = "if" if first else "else if"
                self.emit(f"{kw} ({self.cond_c(piece.condition)}) {{")
                with self.block():
                    self.emit(f"{lhs} = {self.expr_c(piece.expr)};")
                self.emit("}")
            else:
                if first:
                    self.emit(f"{lhs} = {self.expr_c(piece)};")
                else:
                    self.emit("else {")
                    with self.block():
                        self.emit(f"{lhs} = {self.expr_c(piece)};")
                    self.emit("}")
            first = False

    def _coarse_interp_expr(self, stage: Interp, expr: Expr) -> str:
        """Interp expressions subscript the coarse producer with the
        halved fine index."""

        def rewrite(e: Expr) -> str:
            if isinstance(e, Ref):
                halved = []
                for ix in e.indices:
                    var = ix.single_variable()
                    if var is None:
                        halved.append(self.index_c(ix))
                        continue
                    off = int(ix.const.constant_value())
                    term = f"({var.name}) / 2"
                    if off:
                        term += f" + {off}"
                    halved.append(term)
                return self.linearize_subs(e.func, halved)
            if isinstance(e, BinOp):
                return f"({rewrite(e.left)} {e.op} {rewrite(e.right)})"
            if isinstance(e, UnOp):
                return f"(-{rewrite(e.operand)})"
            return self.expr_c(e)

        return rewrite(expr)

    # -- top level -----------------------------------------------------------
    def generate(self) -> str:
        native = self.native

        if native:
            # the preamble every unit repeats: no header, the macros
            # only; stage functions are shared between units, not
            # exported by the object
            self.emit(
                '#define PMG_HIDDEN __attribute__((visibility("hidden")))'
            )
        else:
            self.emit(POOL_RUNTIME)
            self.emit("#include <math.h>")
        self.emit_raw(IVDEP_MACRO)
        self.emit("#define max(a, b) ((a) > (b) ? (a) : (b))")
        self.emit("#define min(a, b) ((a) < (b) ? (a) : (b))")
        # floor division for the scaled access maps (C '/' truncates)
        self.emit("static inline int pmg_fdiv(int a, int b) {")
        self.emit("  int q = a / b;")
        self.emit("  return (a % b != 0 && a < 0) ? q - 1 : q;")
        self.emit("}")
        self.emit()
        self.emit_pipeline_function()
        if native:
            if self.driver:
                self.emit()
                self.emit_raw(DRIVER_RUNTIME)
                self.emit()
                self.emit_driver_norm_leaf()
                self.emit()
                self.emit_raw(DRIVER_NORM_TREE)
            self.emit()
            self.emit_native_entry()
            if self.driver:
                self.emit()
                self.emit_driver_entry()
        return "\n".join(self.lines) + "\n"

    def pipeline_name(self) -> str:
        """C name of the pipeline body: ``pipeline_<name>`` in the
        Figure-8 listing, ``pipeline_<name>_ws`` for the native
        worksharing body both ABI entries call."""
        suffix = "_ws" if self.native else ""
        return f"pipeline_{self.cname(self.compiled.dag.name)}{suffix}"

    def emit_group(self, gi: int, group) -> None:
        """One fused group's loop nests (no live-out pool traffic)."""
        if self.compiled.config.tile and group.size > 1:
            self.emit_tiled_group(gi, group)
        else:
            self.emit_straight_group(group)

    def emit_group_functions(self) -> list[tuple[str, list[str]]]:
        """Render every group, emit each distinct stage function as its
        own unit (:data:`UNIT_MARKER`), then the unit of group
        functions — every distinct group text as one function over the
        buffers it reads and writes but does not declare, returning
        non-zero where a pool allocation failed — and open the main
        unit with its headers, the pool and the group prototypes.
        Returns, per group visit, the function and the buffers to call
        it with.  Two visits whose code lines agree (a W-cycle
        revisiting a level) differ only in those buffers and share a
        function.  A group function holds tile loops, footprint
        prologue and calls; the stage loops it calls, the vectorized
        code, are compiled once per distinct shape, one ``cc`` per
        core."""
        texts: dict[tuple, tuple[list[str], list[tuple[int, list]]]] = {}
        for gi, group in enumerate(self.compiled.grouping.groups):
            outer = self.lines, self.indent
            self.lines, self.indent, self._buffers = [], 1, {}
            self.emit_group(gi, group)
            lines, buffers = self.lines, list(self._buffers)
            (self.lines, self.indent), self._buffers = outer, None
            # comments carry stage names and are not compared
            key = tuple(
                ln for ln in lines if not ln.lstrip().startswith("/*")
            )
            texts.setdefault(key, (lines, []))[1].append((gi, buffers))

        for (header, body, libm), fn in self._stage_fns.items():
            self.emit(f"{UNIT_MARKER}{fn} */")
            if libm:
                self.emit("#include <math.h>")
            self.emit(f"PMG_HIDDEN {header.format(fn)}")
            self.emit("{")
            self.lines.extend(body)
            self.emit("}")
            self.emit()
        self.emit(f"{UNIT_MARKER}pmg_groups */")
        self.emit("#include <stddef.h>")
        self.emit("PMG_HIDDEN void *pool_allocate(size_t bytes);")
        self.emit("PMG_HIDDEN void pool_deallocate(void *p);")
        for (header, _, _), fn in self._stage_fns.items():
            self.emit(f"PMG_HIDDEN {header.format(fn)};")
        self.emit()
        calls: list = [None] * len(self.compiled.grouping.groups)
        prototypes = []
        for lines, visits in texts.values():
            fn = f"pmg_group_{visits[0][0]}"
            sig = []
            for k in range(len(visits[0][1])):
                # a slot keeps its declarator when every visit agrees on
                # the kind; otherwise the qualifiers all of them satisfy
                # (a slot some visit binds to an input is only read)
                kinds = {buffers[k][1] for _, buffers in visits}
                if len(kinds) == 1:
                    decl = _BUFFER_DECL[kinds.pop()]
                else:
                    decl = "const double *" if "input" in kinds else "double *"
                sig.append(f"{decl} pmg_b{k}")
            gis = ", ".join(str(gi) for gi, _ in visits)
            header = f"PMG_HIDDEN int {fn}({', '.join(sig) or 'void'})"
            prototypes.append(f"{header};")
            self.emit(f"/* tile loops of group(s) {gis} */")
            self.emit(header)
            self.emit("{")
            self.lines.extend(lines)
            self.emit("  return 0;")
            self.emit("}")
            self.emit()
            for gi, buffers in visits:
                calls[gi] = (fn, [name for name, _ in buffers])
        self.emit(f"{UNIT_MARKER}main */")
        self.emit_raw(POOL_RUNTIME.replace("static inline ", "PMG_HIDDEN "))
        self.emit("#include <math.h>")
        self.emit("#include <stdint.h>")
        self.emit("#ifdef _OPENMP")
        self.emit("#include <omp.h>")
        self.emit("#endif")
        self.lines.extend(prototypes)
        self.emit()
        return calls

    def emit_pipeline_function(self) -> None:
        """Emit the pipeline body as a C function: the Figure-8 form
        (``pipeline_<name>``, every group's nests inline, each stage
        its own parallel region), or — in native mode — the worksharing
        form (``pipeline_<name>_ws``) executed by the calling entry's
        team: pool traffic plus one call per group visit into the group
        functions emitted before it."""
        compiled = self.compiled
        dag = compiled.dag
        storage = compiled.storage
        native = self.native
        groups = compiled.grouping.groups

        param_names = sorted(compiled.bindings)
        sig_parts = [f"int {p}" for p in param_names]
        sig_parts += [
            f"{_BUFFER_DECL['input']} {self.cname(g.name)}"
            for g in dag.inputs
        ]
        if native:
            sig_parts += [
                f"{_BUFFER_DECL['output']} out_{self.cname(o.name)}"
                for o in dag.outputs
            ]
            ret = "static int"
        else:
            sig_parts += [
                f"double **restrict out_{self.cname(o.name)}"
                for o in dag.outputs
            ]
            ret = "void"

        for grid in dag.inputs:
            self.stage_store[grid] = (self.cname(grid.name), "input")

        # in native mode, pipeline outputs write directly into the
        # caller-provided buffers (storage gives every output a
        # dedicated exact-shape array, so the mapping is 1:1)
        output_funcs = set(dag.outputs) if native else set()
        for out in output_funcs:
            self.stage_store[out] = (
                f"out_{self.cname(out.name)}", "output"
            )

        # plan array names for live-outs
        for group in groups:
            for stage in group.live_outs():
                if stage in output_funcs:
                    continue
                aid = storage.array_of[stage]
                self.stage_store[stage] = (self.array_name(aid), "array")

        calls = self.emit_group_functions() if native else []

        self.emit(
            f"{ret} {self.pipeline_name()}"
            f"({', '.join(sig_parts) or 'void'})"
        )
        self.emit("{")
        self.indent += 1
        for p in param_names:
            # parameters are baked into the emitted bounds; keep them in
            # the signature for ABI parity but silence -Wunused-parameter
            self.emit(f"(void) {p};")

        emitted_alloc: set[int] = set()
        for gi, group in enumerate(groups):
            self.emit(f"/* group {gi}: anchor {group.anchor.name} */")
            for stage in group.live_outs():
                if stage in output_funcs:
                    continue
                aid = storage.array_of[stage]
                if aid in emitted_alloc:
                    continue
                emitted_alloc.add(aid)
                shape = storage.array_shapes[aid]
                elems = 1
                for s in shape:
                    elems *= s
                users = [
                    s.name
                    for s, a in storage.array_of.items()
                    if a == aid
                ]
                self.emit(f"/* users : {users} */")
                self.emit_pool_alloc(self.array_name(aid), elems)

            if native:
                fn, buffers = calls[gi]
                self.emit(f"if ({fn}({', '.join(buffers)}) != 0) return -1;")
            else:
                self.emit_group(gi, group)

            for aid, last in compiled._free_after.items():
                if last == gi and aid in emitted_alloc:
                    self.emit_pool_dealloc(self.array_name(aid))
            self.emit()

        if native:
            self.emit("return 0;")
        else:
            for out in dag.outputs:
                aid = storage.array_of[out]
                self.emit(
                    f"*out_{self.cname(out.name)} = "
                    f"{self.array_name(aid)};"
                )
        self.indent -= 1
        self.emit("}")

    def emit_straight_group(self, group) -> None:
        bindings = self.compiled.bindings
        live = set(group.live_outs())
        temporaries: list[str] = []
        for stage in group.stages:
            dom = stage.domain_box(bindings)
            if stage not in live:
                # full-size temporary for an unfused internal stage
                name = f"_tmp_{self.cname(stage.name)}"
                self.emit_pool_alloc(name, dom.volume())
                self.stage_store[stage] = (name, "temp")
                temporaries.append(name)
            if self.native:
                self.emit(f"/* stage {stage.name} */")
            self.emit_stage(
                stage,
                [(str(iv.lb), str(iv.ub)) for iv in dom.intervals],
                omp=self.collapse_depth(stage),
            )
        # internal temporaries die with the group: return them to the
        # pool so repeated invocations recycle instead of growing it
        for name in temporaries:
            self.emit_pool_dealloc(name)

    @staticmethod
    def _scaled_map(num: int, den: int, off: int, var: str) -> str:
        """C rendering of ``floor((num*var + off) / den)``."""
        scaled = var if num == 1 else f"{num}*{var}"
        inner = _offset(scaled, off)
        if den == 1:
            return inner
        return f"pmg_fdiv({inner}, {den})"

    def _emit_region_fold(
        self, lbs, ubs, nlo, nhi, kind: str, first: bool
    ) -> None:
        """Fold one region contribution (``nlo``/``nhi`` expressions per
        dimension) into the accumulator variables ``lbs``/``ubs``,
        mirroring ``Box.union_hull``'s empty-box identities.

        ``kind`` picks the operand order: ``"footprint"`` is
        ``new.union_hull(acc)`` (an empty new box keeps the
        accumulator), ``"ownership"`` is ``acc.union_hull(new)`` (an
        empty accumulator is replaced even by an empty new box).
        """
        nd = len(lbs)
        if first:
            for d in range(nd):
                self.emit(f"{lbs[d]} = {nlo[d]};")
                self.emit(f"{ubs[d]} = {nhi[d]};")
            return
        self.emit("{")
        self.indent += 1
        for d in range(nd):
            self.emit(f"const int _nlo{d} = {nlo[d]};")
            self.emit(f"const int _nhi{d} = {nhi[d]};")
        ne = " || ".join(f"_nlo{d} > _nhi{d}" for d in range(nd))
        ae = " || ".join(f"{lbs[d]} > {ubs[d]}" for d in range(nd))
        assign = [
            f"{lbs[d]} = _nlo{d}; {ubs[d]} = _nhi{d};" for d in range(nd)
        ]
        hull = [
            f"{lbs[d]} = min({lbs[d]}, _nlo{d}); "
            f"{ubs[d]} = max({ubs[d]}, _nhi{d});"
            for d in range(nd)
        ]
        if kind == "footprint":
            self.emit(f"if (!({ne})) {{")
            self.indent += 1
            self.emit(f"if ({ae}) {{")
            self.indent += 1
            for line in assign:
                self.emit(line)
            self.indent -= 1
            self.emit("} else {")
            self.indent += 1
            for line in hull:
                self.emit(line)
            self.indent -= 1
            self.emit("}")
            self.indent -= 1
            self.emit("}")
        else:  # ownership
            self.emit(f"if ({ae}) {{")
            self.indent += 1
            for line in assign:
                self.emit(line)
            self.indent -= 1
            self.emit(f"}} else if (!({ne})) {{")
            self.indent += 1
            for line in hull:
                self.emit(line)
            self.indent -= 1
            self.emit("}")
        self.indent -= 1
        self.emit("}")

    def emit_tiled_group(self, gi: int, group) -> None:
        compiled = self.compiled
        bindings = compiled.bindings
        cfg = compiled.config
        anchor = group.anchor
        anchor_dom = anchor.domain_box(bindings)
        tile_shape = cfg.tile_shape(anchor.ndim)
        splan = compiled.storage.group_scratch(gi)
        scales = group.scales()
        tp = compiled._group_tile_plan(gi, group)
        # the listing's one function names a group's locals by its
        # index; a native group function's are its own
        g = "" if self.native else f"{gi}_"

        # Static mirror of Group.tile_regions' bookkeeping: which stages
        # acquire a region at all (anchor, live-outs, and anything
        # feeding one), and which consumer footprints fold into each
        # producer's region, in the interpreter's processing order.
        stages = list(group.stages)
        sindex = {s: i for i, s in enumerate(stages)}
        live = set(group.live_outs())
        in_group = set(stages)
        present: set = set()
        contribs: dict = {}
        for s in reversed(stages):
            if s is anchor or s in live or s in present:
                present.add(s)
                for producer, acc in group.dag.accesses_of(s).items():
                    if producer in in_group:
                        present.add(producer)
                        contribs.setdefault(producer, []).append(
                            (sindex[s], acc)
                        )

        ndim = anchor.ndim
        depth = ndim  # perfect tile loops collapse over every dimension
        self.emit(
            self.omp_loop_pragma(f"schedule(static) collapse({depth})")
        )
        tvars = [f"T_{d}" for d in range(ndim)]
        for d in range(ndim):
            lo = anchor_dom.intervals[d].lb
            hi = anchor_dom.intervals[d].ub
            self.emit(
                f"for (int {tvars[d]} = {lo}; {tvars[d]} <= {hi}; "
                f"{tvars[d]} += {tile_shape[d]}) {{"
            )
            self.indent += 1

        # scratchpads sunk to the innermost tile loop (section 3.2.5);
        # sized to the exact per-tile region maxima hoisted by the
        # executor's tile plan, so region writes can never overrun
        self.emit("/* Scratchpads */")
        by_buffer: dict[int, list[str]] = {}
        for stage, bid in splan.buffer_of.items():
            by_buffer.setdefault(bid, []).append(stage.name)
        for bid, users in sorted(by_buffer.items()):
            shape = tp.max_buf_shapes.get(bid) or splan.buffer_shapes[bid]
            elems = " * ".join(str(s) for s in shape)
            self.emit(f"/* users : {users} */")
            self.emit(
                f"double _buf_{g}{bid}[({elems})] {_SCRATCH_ALIGN};"
            )
            for stage in splan.buffer_of:
                if splan.buffer_of[stage] == bid:
                    self.stage_store[stage] = (
                        f"_buf_{g}{bid}",
                        "scratch",
                    )
                    self.scratch_shape[stage] = shape

        # Per-stage tile regions, computed by replaying the backward
        # footprint propagation of Group.tile_regions in C: consumers
        # first (reverse topological order), each region the clamped
        # union-hull of its consumers' footprints plus (for live-outs)
        # the tile's ownership slice.  The lower bounds double as the
        # scratchpad origins, exactly like the interpreter's.
        self.emit("/* tile regions (backward footprint propagation) */")
        for si in reversed(range(len(stages))):
            stage = stages[si]
            if stage not in present:
                continue
            nd = stage.ndim
            dom = stage.domain_box(bindings)
            lbs = [f"_s{g}{si}_lb{d}" for d in range(nd)]
            ubs = [f"_s{g}{si}_ub{d}" for d in range(nd)]
            decl = ", ".join(
                f"{lb} = 0, {ub} = -1" for lb, ub in zip(lbs, ubs)
            )
            self.emit(f"/* region of {stage.name} */")
            self.emit(f"int {decl};")
            first = True
            if stage is anchor:
                nlo = [tvars[d] for d in range(nd)]
                nhi = [
                    f"min({tvars[d]} + {tile_shape[d] - 1}, "
                    f"{anchor_dom.intervals[d].ub})"
                    for d in range(nd)
                ]
                self._emit_region_fold(lbs, ubs, nlo, nhi, "footprint", first)
                first = False
            for csi, acc in contribs.get(stage, ()):
                nlo, nhi = [], []
                for j in range(nd):
                    da = acc.dims[j]
                    if da.consumer_dim is None:
                        nlo.append(str(da.const_lo))
                        nhi.append(str(da.const_hi))
                        continue
                    k = da.consumer_dim
                    rng = da.rng
                    clb = f"_s{g}{csi}_lb{k}"
                    cub = f"_s{g}{csi}_ub{k}"
                    lo_m = self._scaled_map(rng.num, rng.den, rng.omin, clb)
                    hi_m = self._scaled_map(rng.num, rng.den, rng.omax, cub)
                    # empty consumer intervals pass through unmapped
                    # (ConcreteInterval semantics in AccessRange.image)
                    nlo.append(f"({clb} > {cub} ? {clb} : {lo_m})")
                    nhi.append(f"({clb} > {cub} ? {cub} : {hi_m})")
                self._emit_region_fold(lbs, ubs, nlo, nhi, "footprint", first)
                first = False
            if stage in live:
                nlo, nhi = [], []
                for d in range(nd):
                    s = scales[stage][d]
                    slb = dom.intervals[d].lb
                    sub = dom.intervals[d].ub
                    if s == 0:
                        nlo.append(str(slb))
                        nhi.append(str(sub))
                        continue
                    num, den = s.numerator, s.denominator
                    alb = anchor_dom.intervals[d].lb
                    aub = anchor_dom.intervals[d].ub
                    t = tile_shape[d]
                    lo_val = self._scaled_map(num, den, 0, tvars[d])
                    bp1 = f"min({tvars[d]} + {t}, {aub + 1})"
                    hi_val = f"{self._scaled_map(num, den, 0, f'({bp1})')} - 1"
                    lo = f"({tvars[d]} <= {alb} ? {slb} : {lo_val})"
                    hi = (
                        f"({tvars[d]} + {t - 1} >= {aub} ? {sub} : {hi_val})"
                    )
                    nlo.append(f"max({lo}, {slb})")
                    nhi.append(f"min({hi}, {sub})")
                self._emit_region_fold(lbs, ubs, nlo, nhi, "ownership", first)
                first = False
            for d in range(nd):
                self.emit(
                    f"{lbs[d]} = max({lbs[d]}, {dom.intervals[d].lb});"
                )
                self.emit(
                    f"{ubs[d]} = min({ubs[d]}, {dom.intervals[d].ub});"
                )

        # per-stage loop nests over the computed regions
        for si, stage in enumerate(stages):
            if stage not in present:
                continue
            self.emit(f"/* stage {stage.name} */")
            bounds = [
                (f"_s{g}{si}_lb{d}", f"_s{g}{si}_ub{d}")
                for d in range(stage.ndim)
            ]
            if self.stage_store.get(stage, ("", ""))[1] == "scratch":
                self.scratch_origin[stage] = tuple(
                    f"_s{g}{si}_lb{d}" for d in range(stage.ndim)
                )
            self.emit_stage(stage, bounds)

        for _ in range(ndim):
            self.indent -= 1
            self.emit("}")

    def collapse_depth(self, stage: "Function") -> int:
        """Parallel-collapse depth: the number of outer dimensions whose
        loop is perfectly nested (a piecewise boundary definition leaves
        only the outermost loop perfect, per section 3.2.5)."""
        if len(stage.defn) == 1 and not isinstance(stage.defn[0], Case):
            return stage.ndim
        return max(1, stage.ndim - 1)

    # -- native ABI entry point ---------------------------------------------
    def _emit_entry_head(self, name: str, tail: str) -> None:
        """Signature (``tail`` closes it) and descriptor-validation
        prologue shared by ``polymg_run`` and ``polymg_drive``: count
        checks, baked parameter values, per-buffer geometry, and the
        OpenMP thread-count handoff."""
        dag = self.compiled.dag
        param_names = sorted(self.compiled.bindings)
        self.emit_raw(
            f"int {name}(const int64_t *params, int64_t n_params, "
            "int64_t nthreads,\n"
            "               const pmg_buffer *inputs, int64_t n_inputs,\n"
            "               const pmg_buffer *outputs, int64_t n_outputs"
            + tail
        )
        self.emit("{")
        self.indent += 1
        self.emit(f"if (n_params != {len(param_names)}) return 1;")
        self.emit(f"if (n_inputs != {len(dag.inputs)}) return 2;")
        self.emit(f"if (n_outputs != {len(dag.outputs)}) return 3;")
        if param_names:
            self.emit(f"for (int i = 0; i < {len(param_names)}; i++)")
            with self.block():
                self.emit(
                    "if (params[i] != pmg_param_values[i]) return 10 + i;"
                )
        else:
            self.emit("(void) params;")
        for side, funcs, base in (
            ("in", dag.inputs, 100), ("out", dag.outputs, 200)
        ):
            for k, func in enumerate(funcs):
                self.emit(
                    f"if (pmg_check_buffer(&{side}puts[{k}], "
                    f"pmg_{side}_shape_{k}, {func.ndim})) return {base + k};"
                )
        self.emit("#ifdef _OPENMP")
        self.emit("if (nthreads > 0) omp_set_num_threads((int) nthreads);")
        self.emit("#else")
        self.emit("(void) nthreads;")
        self.emit("#endif")

    def _driver_geometry(self):
        """(shape, full strides, interior strides, elems, interior
        elems) of the single output grid, all in elements."""
        out = self.compiled.dag.outputs[0]
        shape = list(out.domain_box(self.compiled.bindings).shape())
        interior = [s - 2 for s in shape]
        strides = [math.prod(shape[d + 1 :]) for d in range(len(shape))]
        int_strides = [
            math.prod(interior[d + 1 :]) for d in range(len(shape))
        ]
        return (
            shape, strides, int_strides, math.prod(shape),
            math.prod(interior),
        )

    def emit_driver_norm_leaf(self) -> None:
        """Emit ``pmg_resid_leaf``: the squares of ``f - A_h u`` at up to
        128 consecutive interior indices (interior C order, so a leaf
        may straddle rows), written into an aligned stack block one
        contiguous row segment at a time and summed by
        ``pmg_pairwise``.  Each defect replicates
        ``repro.multigrid.kernels.apply_operator`` operation for
        operation (each binary op a separate rounding, FP contraction
        pinned off), so the fused norm is bitwise the numpy norm."""
        shape, strides, int_strides, _, _ = self._driver_geometry()
        nd = len(shape)
        row = shape[-1] - 2
        self.emit(
            "static PMG_NOCONTRACT double pmg_resid_leaf("
            "const double *restrict u,"
        )
        self.emit(
            "    const double *restrict f, const double inv_h2, "
            "int64_t lo, int64_t n) {"
        )
        self.emit("#if defined(__clang__)")
        self.emit("#pragma clang fp contract(off)")
        self.emit("#endif")
        self.indent += 1
        self.emit(f"double pmg_blk[128] {_SCRATCH_ALIGN};")
        self.emit("for (int64_t pmg_k = 0; pmg_k < n; ) {")
        self.indent += 1
        self.emit("const int64_t pmg_q = lo + pmg_k;")
        self.emit(f"const int64_t pmg_col = pmg_q % {row};")
        self.emit(
            f"const int64_t pmg_seg = min(n - pmg_k, {row} - pmg_col);"
        )
        # interior row index -> offset of the row's first point in u/f
        off_terms = [
            f"(pmg_q / {int_strides[d]}"
            + (f" % {shape[d] - 2}" if d else "")
            + f" + 1) * {strides[d]}"
            for d in range(nd - 1)
        ]
        self.emit(
            "const int64_t pmg_off = "
            + " + ".join([*off_terms, "pmg_col + 1"])
            + ";"
        )
        self.emit("const double *restrict pmg_u = u + pmg_off;")
        self.emit("const double *restrict pmg_f = f + pmg_off;")
        self.emit("double *restrict pmg_r2 = pmg_blk + pmg_k;")
        self.emit("PMG_IVDEP")
        self.emit("for (int64_t j = 0; j < pmg_seg; j++) {")
        self.indent += 1
        # mirror apply_operator: -pre[0], + -pre[1..], + (2d)*centre,
        # + -post[d-1..0], * inv_h2 — C's left-to-right sum, one
        # rounding per binary op
        terms = [
            *(f"(-pmg_u[j - {strides[d]}])" for d in range(nd)),
            f"{2.0 * nd!r} * pmg_u[j]",
            *(f"(-pmg_u[j + {strides[d]}])" for d in reversed(range(nd))),
        ]
        self.emit("const double pmg_r = pmg_f[j] - (")
        self.emit("    " + terms[0])
        for term in terms[1:]:
            self.emit(f"    + {term}")
        self.emit(") * inv_h2;")
        self.emit("pmg_r2[j] = pmg_r * pmg_r;")
        self.indent -= 1
        self.emit("}")
        self.emit("pmg_k += pmg_seg;")
        self.indent -= 1
        self.emit("}")
        self.emit("return pmg_pairwise(pmg_blk, n);")
        self.indent -= 1
        self.emit("}")

    def _emit_injected_fault(self) -> None:
        """Test-only crash injection (``PolyMgConfig.native_fault``):
        emit a deliberate fault into the entry point *after* descriptor
        validation and *before* the pipeline call, so the artifact
        compiles, loads, and validates like a healthy one — then takes
        the process down on invocation.  This is how the sandbox's
        crash/hang/abort classification is exercised against real
        native faults instead of simulated ones."""
        fault = getattr(self.compiled.config, "native_fault", None)
        if fault is None:
            return
        self.emit(f"/* injected fault ({fault}): test-only */")
        if fault == "segfault":
            # write through a near-null address via a volatile pointer:
            # a literal NULL store can be folded into a trap instruction
            # (SIGILL) by the optimizer, this stays a plain wild store
            self.emit(
                "volatile double *pmg_bad = "
                "(volatile double *)(intptr_t) 8;"
            )
            self.emit("*pmg_bad = 1.0;")
        elif fault == "spin":
            self.emit("for (volatile int pmg_spin = 1; pmg_spin; ) {}")
        elif fault == "abort":
            self.emit("abort();")

    def _emit_team_call(self, args: list[str], then: str = "") -> None:
        """Inside an entry's parallel region: every thread of the team
        runs the pipeline body, and a non-zero return is funneled into
        the shared ``pmg_rc`` (followed by ``then`` on every thread)."""
        self.emit(f"int pmg_rc_l = {self.pipeline_name()}(")
        with self.block():
            for i, arg in enumerate(args):
                tail = ");" if i == len(args) - 1 else ","
                self.emit(f"{arg}{tail}")
        # the body broadcasts allocation outcomes via copyprivate, so
        # pmg_rc_l is identical on every thread and the branch uniform
        self.emit("if (pmg_rc_l != 0) {")
        with self.block():
            self.emit("#pragma omp single")
            self.emit("pmg_rc = pmg_rc_l;")
            if then:
                self.emit(then)
        self.emit("}")

    def emit_native_entry(self) -> None:
        """Emit the exported C ABI: the descriptor-validating
        ``polymg_run`` entry point and ``polymg_pool_release``."""
        compiled = self.compiled
        dag = compiled.dag
        bindings = compiled.bindings
        param_names = sorted(bindings)

        self.emit_raw(
            """\
/* ---- native ABI (repro.backend.native) ---- */
typedef struct {
  double *data;
  int64_t ndim;
  const int64_t *shape;
  const int64_t *strides; /* in elements, dense row-major expected */
} pmg_buffer;

static int pmg_check_buffer(const pmg_buffer *b, const int64_t *shape,
                            int64_t ndim) {
  int64_t stride = 1;
  if (!b->data || b->ndim != ndim) return 1;
  for (int64_t d = ndim - 1; d >= 0; d--) {
    if (b->shape[d] != shape[d]) return 1;
    if (b->strides[d] != stride) return 1;
    stride *= shape[d];
  }
  return 0;
}
"""
        )
        if param_names:
            values = ", ".join(str(bindings[p]) for p in param_names)
            self.emit(
                f"static const int64_t pmg_param_values[{len(param_names)}]"
                f" = {{{values}}};"
            )
        for side, funcs in (("in", dag.inputs), ("out", dag.outputs)):
            for k, func in enumerate(funcs):
                shape = func.domain_box(bindings).shape()
                dims = ", ".join(str(s) for s in shape)
                self.emit(
                    f"static const int64_t pmg_{side}_shape_{k}"
                    f"[{len(shape)}] = {{{dims}}};"
                )
        self.emit()
        self._emit_entry_head(NATIVE_ENTRY_NAME, ")")
        self._emit_injected_fault()
        args = (
            [f"(int) params[{i}]" for i in range(len(param_names))]
            + [f"inputs[{k}].data" for k in range(len(dag.inputs))]
            + [f"outputs[{k}].data" for k in range(len(dag.outputs))]
        )
        # one cycle of the worksharing body in one team
        self.emit("int pmg_rc = 0;")
        self.emit(f"#pragma omp parallel{self._proc_bind()}")
        self.emit("{")
        with self.block():
            self._emit_team_call(args)
        self.emit("}")
        self.emit("return pmg_rc != 0 ? 500 : 0;")
        self.indent -= 1
        self.emit("}")
        self.emit_raw(
            """\

/* frees the pooled buffers, every one of them free between calls */
void polymg_pool_release(void) {
  for (int i = 0; i < pool_count; i++) free(pool_ptrs[i]);
  pool_count = 0;
}"""
        )

    def emit_driver_entry(self) -> None:
        """Emit the whole-solve ``polymg_drive`` ABI: the multigrid
        cycle loop, per-cycle residual-norm convergence test, and
        iterate ping-pong all inside one persistent ``omp parallel``
        team.  Returns after at most ``ctrl->max_cycles`` cycles (the
        supervisor's hook granularity) with the per-cycle norms, and
        writes the output buffer only on success, so a faulted burst
        never corrupts the caller's iterate."""
        compiled = self.compiled
        dag = compiled.dag
        param_names = sorted(compiled.bindings)
        shape, _, _, elems, nint = self._driver_geometry()
        nd = len(shape)

        self.emit_raw(
            """\
/* ---- whole-solve driver ABI (repro.backend.native) ---- */
typedef struct {
  int64_t max_cycles;         /* in : burst length (hook granularity) */
  int64_t iterate_index;      /* in : iterate grid's slot in inputs[] */
  int64_t rhs_index;          /* in : right-hand side's slot in inputs[] */
  double tol;                 /* in : converge when norm < tol (<=0 off) */
  double norm_scale;          /* in : h**(ndim/2), caller-computed */
  double inv_h2;              /* in : 1/(h*h), caller-computed */
  double *norms;              /* out: per-cycle norms, len max_cycles */
  volatile int64_t *progress; /* out: bumped once per cycle (may be 0) */
  int64_t cycles_done;        /* out: cycles accepted this call */
  int64_t converged;          /* out: 1 when tol was reached */
} pmg_drive_ctrl;
"""
        )
        self._emit_entry_head(
            DRIVER_ENTRY_NAME, ",\n               pmg_drive_ctrl *ctrl)"
        )
        self.emit("if (!ctrl || ctrl->max_cycles < 1 || !ctrl->norms)")
        with self.block():
            self.emit("return 4;")
        # the iterate and rhs grids must live on the output grid's
        # geometry for the ping-pong and the defect to make sense
        for index in ("ctrl->iterate_index", "ctrl->rhs_index"):
            self.emit(f"if ({index} < 0 || {index} >= n_inputs) return 4;")
        for index in ("ctrl->iterate_index", "ctrl->rhs_index"):
            self.emit(
                f"if (pmg_check_buffer(&inputs[{index}], "
                f"pmg_out_shape_0, {nd})) return 4;"
            )
        self._emit_injected_fault()
        self.emit_raw(
            f"""\
  double * pmg_u_a = (double *) (pool_allocate(sizeof(double) * {elems}));
  double * pmg_u_b = (double *) (pool_allocate(sizeof(double) * {elems}));
  if (!pmg_u_a || !pmg_u_b) {{
    if (pmg_u_a) pool_deallocate(pmg_u_a);
    if (pmg_u_b) pool_deallocate(pmg_u_b);
    return 500;
  }}
  const int64_t pmg_it = ctrl->iterate_index;
  const double *pmg_f = (const double *) inputs[ctrl->rhs_index].data;
  const double pmg_tol = ctrl->tol;
  const double pmg_scale = ctrl->norm_scale;
  const double pmg_inv_h2 = ctrl->inv_h2;
  const int64_t pmg_cycles = ctrl->max_cycles;
  double *const pmg_norms = ctrl->norms;
  volatile int64_t *const pmg_progress = ctrl->progress;
  int pmg_rc = 0;
  int64_t pmg_done = 0;
  double *pmg_result = 0;
  double pmg_part[1 << {_NORM_MAX_DEPTH}];"""
        )
        self.emit(f"#pragma omp parallel{self._proc_bind()}")
        self.emit("{")
        self.indent += 1
        # per-thread ping-pong pointers: every thread executes the same
        # deterministic swap sequence, so no cross-thread communication
        # is needed for buffer identity — only the norms/result handoff
        # goes through the single-with-barrier below
        self.emit(
            "const double *pmg_src = "
            "(const double *) inputs[pmg_it].data;"
        )
        self.emit("double *pmg_dst = pmg_u_a;")
        self.emit("double *pmg_alt = pmg_u_b;")
        # the norm tree's top nodes, one partial sum each: every thread
        # derives the same table from the team size
        self.emit(f"int64_t pmg_tlo[1 << {_NORM_MAX_DEPTH}];")
        self.emit(f"int64_t pmg_tn[1 << {_NORM_MAX_DEPTH}];")
        self.emit("int pmg_depth = 0;")
        self.emit("#ifdef _OPENMP")
        self.emit(
            f"while (pmg_depth < {_NORM_MAX_DEPTH} "
            "&& (1 << pmg_depth) < omp_get_num_threads()) pmg_depth++;"
        )
        self.emit("#endif")
        self.emit(
            f"const int pmg_tasks = pmg_resid_split(0, {nint}, pmg_depth, "
            "pmg_tlo, pmg_tn, 0);"
        )
        self.emit(
            "for (int64_t pmg_c = 0; pmg_c < pmg_cycles; pmg_c++) {"
        )
        self.indent += 1
        call_args = [f"(int) params[{i}]" for i in range(len(param_names))]
        for k in range(len(dag.inputs)):
            call_args.append(
                f"(pmg_it == {k} ? pmg_src : "
                f"(const double *) inputs[{k}].data)"
            )
        call_args.append("pmg_dst")
        self._emit_team_call(call_args, then="break;")
        self.emit("#pragma omp for schedule(static)")
        self.emit("for (int pmg_k = 0; pmg_k < pmg_tasks; pmg_k++)")
        with self.block():
            self.emit(
                "pmg_part[pmg_k] = pmg_resid_tree(pmg_dst, pmg_f, "
                "pmg_inv_h2, pmg_tlo[pmg_k], pmg_tn[pmg_k]);"
            )
        self.emit("#pragma omp single")
        self.emit("{")
        with self.block():
            self.emit("int pmg_k = 0;")
            self.emit(
                f"pmg_norms[pmg_c] = sqrt(pmg_resid_join({nint}, pmg_depth,"
                " pmg_part, &pmg_k)) * pmg_scale;"
            )
            self.emit("pmg_done = pmg_c + 1;")
            self.emit("pmg_result = pmg_dst;")
            self.emit("if (pmg_progress) *pmg_progress += 1;")
        self.emit("}")
        # the single's implicit barrier publishes pmg_norms[pmg_c]; the
        # convergence decision below is then uniform across the team
        self.emit(
            "if (pmg_tol > 0.0 && pmg_norms[pmg_c] < pmg_tol) break;"
        )
        self.emit("{")
        with self.block():
            self.emit(
                "double *pmg_next = (pmg_c == 0) ? pmg_alt "
                ": (double *) pmg_src;"
            )
            self.emit("pmg_src = pmg_dst;")
            self.emit("pmg_dst = pmg_next;")
        self.emit("}")
        self.indent -= 1
        self.emit("}")
        self.indent -= 1
        self.emit("}")
        self.emit_raw(
            f"""\
  ctrl->cycles_done = pmg_done;
  ctrl->converged = 0;
  int pmg_ret = 0;
  if (pmg_rc != 0) {{
    pmg_ret = 500;
  }} else if (pmg_done > 0) {{
    memcpy(outputs[0].data, pmg_result, sizeof(double) * {elems});
    if (pmg_tol > 0.0 && pmg_norms[pmg_done - 1] < pmg_tol)
      ctrl->converged = 1;
  }}
  pool_deallocate(pmg_u_b);
  pool_deallocate(pmg_u_a);
  return pmg_ret;
}}"""
        )
        self.indent -= 1


def generate_c(compiled: "CompiledPipeline") -> str:
    """Emit Figure-8-style C/OpenMP code for a compiled pipeline."""
    return _Emitter(compiled).generate()


def generate_native_c(compiled: "CompiledPipeline") -> str:
    """Emit the JIT source: one worksharing pipeline body plus the
    exported descriptor ABI that enters it (``polymg_run``, and
    ``polymg_drive`` where :func:`driver_emitted`) — one translation
    unit, cut into units at its :data:`UNIT_MARKER` lines."""
    return _Emitter(compiled, native=True).generate()


def generated_loc(compiled: "CompiledPipeline") -> int:
    """Generated lines of code (Table 3 column)."""
    text = generate_c(compiled)
    return sum(1 for line in text.splitlines() if line.strip())
