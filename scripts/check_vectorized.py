#!/usr/bin/env python
"""Gate: the compiler vectorizes the generated stage loops.

The native tiers are as fast as their innermost loops.  Until PR 15 the
emitter tested a stage's boundary ``Case`` and an ``Interp``'s parity
per point, and gcc 12 vectorized 8 of the 52 innermost loops of the
benchmark suite's kernel spec (2-D N=1024 V(4,4,4), 5 levels) — the
restrictions — with every test, fuzz suite and benchmark green.  This
check compiles that translation unit with the default flags plus the
compiler's vectorizer report and fails when a stage loop that does
arithmetic is not in it: the claimed segment of every piecewise stage,
the pair loop of every interpolation, every plain stage.  The boundary
segments left and right of a claimed segment are not required (gcc
turns those copies into ``memcpy``/``memset`` before its vectorizer
sees them).

Run from the repository root (``REPRO_CC`` picks the compiler)::

    PYTHONPATH=src python scripts/check_vectorized.py
"""

from __future__ import annotations

import pathlib
import re
import subprocess
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))

#: a loop left or right of a claimed segment (see ``emit_case_row``)
BOUNDARY_SEGMENT = re.compile(r"<= _xa\d+ - 1;|= max\(_xb\d+ \+ 1, ")
#: gcc ``-fopt-info-vec-optimized`` / clang ``-Rpass=loop-vectorize``
REPORTED = re.compile(
    r":(\d+):\d+: (?:optimized: loop vectorized|remark: vectorized loop)"
)


def main() -> int:
    from benchmarks.suite.specs import KERNEL_SPEC, tile_overrides
    from repro.backend.codegen_c import generate_native_c
    from repro.backend.native import (
        compiler_ident,
        default_cflags,
        discover_compiler,
    )
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
    required = {
        i + 2: lines[i + 1].strip()  # 1-based line of the ``for``
        for i, line in enumerate(lines)
        if line.strip() == "PMG_IVDEP"
        and not BOUNDARY_SEGMENT.search(lines[i + 1])
    }
    with tempfile.TemporaryDirectory() as td:
        src = pathlib.Path(td) / "kernel.c"
        src.write_text(source)
        proc = subprocess.run(
            [cc, *default_cflags(ident), report, str(src),
             "-o", str(src.with_suffix(".so")), "-lm"],
            capture_output=True, text=True,
        )
    if proc.returncode != 0:
        print(proc.stderr[-2000:])
        return 1
    reported = {int(n) for n in REPORTED.findall(proc.stdout + proc.stderr)}
    missed = sorted(set(required) - reported)
    print(
        f"{KERNEL_SPEC.label()} under {ident}: "
        f"{len(required) - len(missed)} of {len(required)} stage loops "
        "vectorized"
    )
    for n in missed:
        print(f"  not vectorized, line {n}: {required[n]}")
    return 1 if missed or not required else 0


if __name__ == "__main__":
    sys.exit(main())
