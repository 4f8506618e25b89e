#!/usr/bin/env python
"""Gate: the compiler vectorizes the generated stage loops.

The native tiers are as fast as their innermost loops.  Until PR 15 the
emitter tested a stage's boundary ``Case`` and an ``Interp``'s parity
per point, and gcc 12 vectorized 8 of the 52 innermost loops of the
benchmark suite's kernel spec (2-D N=1024 V(4,4,4), 5 levels) — the
restrictions — with every test, fuzz suite and benchmark green.  This
check compiles that translation unit with the default flags plus the
compiler's vectorizer report and fails when a stage loop that does
arithmetic is not in it: in every stage function, the claimed segment
of a piecewise stage, the pair loop of an interpolation, the loop of a
plain stage.  The boundary segments left and right of a claimed
segment are not required (gcc turns those copies into
``memcpy``/``memset`` before its vectorizer sees them).  The
whole-solve driver's residual norm runs once per cycle over the finest
grid, so its leaf's defect loop (``pmg_resid_leaf``) is required too,
and the check fails if the emitted source no longer carries it.  Stage
loops belong in stage functions only: the check also fails on a
``PMG_IVDEP`` loop anywhere else (a group function, the pipeline
body).

The source is built the way the JIT builds it: one object per unit
(:func:`repro.backend.native.compile_units`), each unit carrying a
``#line`` directive so the report's line numbers are lines of the
whole emitted source and map back to its stage loops.

Run from the repository root (``REPRO_CC`` picks the compiler)::

    PYTHONPATH=src python scripts/check_vectorized.py
"""

from __future__ import annotations

import pathlib
import re
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))

#: a loop left or right of a claimed segment (see ``emit_case_row``)
BOUNDARY_SEGMENT = re.compile(r"<= _xa\d+ - 1;|= max\(_xb\d+ \+ 1, ")
#: the defect loop of the driver's fused residual-norm leaf
NORM_LEAF_LOOP = "for (int64_t j = 0; j < pmg_seg; j++) {"
#: gcc ``-fopt-info-vec-optimized`` / clang ``-Rpass=loop-vectorize``
REPORTED = re.compile(
    r":(\d+):\d+: (?:optimized: loop vectorized|remark: vectorized loop)"
)


def main() -> int:
    from benchmarks.suite.specs import KERNEL_SPEC, tile_overrides
    from repro.backend.codegen_c import UNIT_MARKER, generate_native_c
    from repro.backend.native import (
        compile_units,
        compiler_ident,
        default_cflags,
        discover_compiler,
    )
    from repro.errors import NativeCompileError
    from repro.multigrid.cycles import build_poisson_cycle
    from repro.variants import polymg_opt_plus

    cc = discover_compiler()
    if cc is None:
        print("no C compiler: nothing to check")
        return 0
    ident = compiler_ident(cc)
    report = (
        "-Rpass=loop-vectorize"
        if "clang" in ident.lower()
        else "-fopt-info-vec-optimized"
    )
    pipe = build_poisson_cycle(
        KERNEL_SPEC.ndim, KERNEL_SPEC.n, KERNEL_SPEC.options()
    )
    # the emitted source does not depend on the serving tier
    compiled = pipe.compile(polymg_opt_plus(**tile_overrides()))
    source = generate_native_c(compiled)
    compiled.close()

    lines = source.splitlines()
    required, stray, unit = {}, [], None
    for i, line in enumerate(lines):
        if line.startswith(UNIT_MARKER):
            unit = line[len(UNIT_MARKER):].split()[0]
        if line.strip() != "PMG_IVDEP":
            continue
        loop = lines[i + 1].strip()
        if unit.startswith("pmg_stage_") or loop == NORM_LEAF_LOOP:
            if not BOUNDARY_SEGMENT.search(loop):
                required[i + 2] = loop  # 1-based line of the ``for``
        else:
            stray.append((i + 2, unit, loop))
    with tempfile.TemporaryDirectory() as td:
        try:
            diagnostics = compile_units(
                cc, (*default_cflags(ident), report), source,
                pathlib.Path(td), timeout=600,
            )
        except NativeCompileError as exc:
            print(exc)
            return 1
    reported = {int(n) for n in REPORTED.findall(diagnostics)}
    missed = sorted(set(required) - reported)
    has_leaf = NORM_LEAF_LOOP in required.values()
    print(
        f"{KERNEL_SPEC.label()} under {ident}: "
        f"{len(required) - len(missed)} of {len(required)} stage-function "
        "and norm-leaf loops vectorized"
    )
    for n in missed:
        print(f"  not vectorized, line {n}: {required[n]}")
    for n, where, loop in stray:
        print(f"  stage loop outside a stage function ({where}), line {n}: "
              f"{loop}")
    if not has_leaf:
        print(f"  driver norm leaf loop not checked: {NORM_LEAF_LOOP}")
    return 1 if missed or stray or not required or not has_leaf else 0


if __name__ == "__main__":
    sys.exit(main())
