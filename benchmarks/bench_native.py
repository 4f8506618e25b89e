"""PR 5 benchmark: native C/OpenMP JIT backend vs the planned numpy
backend.

Measures wall-clock cycle time for the laptop-scale tiled workloads —
2-D Poisson V-cycle, 3-D Poisson V-cycle, and NAS MG — executing the
same compiled pipeline through the native JIT backend
(:mod:`repro.backend.native`) and the PR-4 planned numpy backend, at
``num_threads`` 1/2/4/8, and emits ``BENCH_PR5.json`` at the
repository root.  The headline number is the geometric-mean speedup of
native over planned execution per thread count; the acceptance gate is
native >= 1.5x at threads=4 on the 2-D V-cycle and NAS MG rows.

Run directly::

    PYTHONPATH=src python benchmarks/bench_native.py            # full
    PYTHONPATH=src python benchmarks/bench_native.py --small    # CI
    PYTHONPATH=src python benchmarks/bench_native.py --check 1.10

``--small`` shrinks the grids for the CI perf-smoke job; ``--check R``
exits non-zero if native execution is slower than planned by more than
the given ratio on any workload (the CI perf-smoke assertion).  Every
native cell is numerically cross-checked against its planned twin
before it is timed.  On a machine without a C toolchain the native
cells fall back to planned execution; the JSON records the fallback
incidents and ``--check`` still passes (fallback == planned speed).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

import numpy as np

from repro.backend.native import discover_compiler
from repro.backend.registry import NATIVE
from repro.bench.workloads import SMALL_TILES, geomean
from repro.compiler import compile_pipeline
from repro.multigrid.cycles import build_poisson_cycle
from repro.multigrid.nas_mg import build_nas_mg_cycle
from repro.multigrid.reference import MultigridOptions
from repro.variants import polymg_native, polymg_opt_plus

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

THREAD_COUNTS = (1, 2, 4, 8)

#: the acceptance gate: native must be at least this much faster than
#: planned at threads=4 on these workloads (skipped when no toolchain)
GATE_THREADS = 4
GATE_WORKLOADS = ("V-2D-4-4-4", "NAS-MG")
GATE_SPEEDUP = 1.5


def _poisson_case(ndim: int, n: int):
    pipe = build_poisson_cycle(
        ndim, n, MultigridOptions(cycle="V", n1=4, n2=4, n3=4, levels=4)
    )
    rng = np.random.default_rng(20170712)
    shape = (n + 2,) * ndim
    inputs = pipe.make_inputs(
        rng.standard_normal(shape), rng.standard_normal(shape)
    )
    return pipe, inputs


def _nas_case(n: int):
    pipe = build_nas_mg_cycle(n)
    rng = np.random.default_rng(20170712)
    shape = (n + 2,) * 3
    inputs = pipe.make_inputs(
        rng.standard_normal(shape), rng.standard_normal(shape)
    )
    return pipe, inputs


def cases(small: bool):
    if small:
        return [
            ("V-2D-4-4-4", *_poisson_case(2, 64)),
            ("V-3D-4-4-4", *_poisson_case(3, 16)),
            ("NAS-MG", *_nas_case(16)),
        ]
    return [
        ("V-2D-4-4-4", *_poisson_case(2, 256)),
        ("V-3D-4-4-4", *_poisson_case(3, 32)),
        ("NAS-MG", *_nas_case(32)),
    ]


def _config(native: bool, threads: int):
    factory = polymg_native if native else polymg_opt_plus
    return factory(tile_sizes=dict(SMALL_TILES), num_threads=threads)


def time_case(pipe, inputs, config, cycles: int) -> tuple[dict, dict]:
    """Time one cell; returns (row, outputs-of-last-execute)."""
    compiled = compile_pipeline(
        pipe.output, pipe.params, config=config, name=pipe.name,
        cache=False,
    )
    try:
        from repro.backend.registry import TIERS

        # charge JIT-style builds to warm-up, not to the timed cycles
        TIERS.resolve(config.backend).ensure_ready(compiled)
        t0 = time.perf_counter()
        out = compiled.execute(dict(inputs))  # warm-up: pools, arenas
        warmup = time.perf_counter() - t0
        times = []
        for _ in range(cycles):
            t0 = time.perf_counter()
            out = compiled.execute(dict(inputs))
            times.append(time.perf_counter() - t0)
        stats = compiled.stats.tier(NATIVE.name)
        row = {
            "cycle_time_s": min(times),
            "mean_cycle_time_s": sum(times) / len(times),
            "warmup_s": warmup,
            "native_executions": stats.executions,
            "native_compile_time_s": stats.compile_time_s,
            "native_cache_hits": stats.cache_hits,
            "native_fallbacks": stats.fallbacks,
            "incidents": [
                dict(rec)
                for rec in compiled.report.incidents
                if rec.get("kind") == "native-fallback"
            ],
        }
        return row, out
    finally:
        compiled.close()


def run(small: bool, cycles: int, threads_list=THREAD_COUNTS) -> dict:
    cc = discover_compiler()
    results: dict = {
        "benchmark": "bench_native",
        "small": small,
        "cycles_timed": cycles,
        "compiler": cc,
        "tile_sizes": {str(k): list(v) for k, v in SMALL_TILES.items()},
        "workloads": {},
        "geomean": {},
        "gate": {
            "threads": GATE_THREADS,
            "workloads": list(GATE_WORKLOADS),
            "required_speedup": GATE_SPEEDUP,
        },
    }
    workloads = cases(small)
    for threads in threads_list:
        speedups = []
        native_times = []
        planned_times = []
        for name, pipe, inputs in workloads:
            row = results["workloads"].setdefault(name, {})
            cell: dict = {}
            baseline = None
            for native in (False, True):
                label = "native" if native else "planned"
                cell[label], out = time_case(
                    pipe, inputs, _config(native, threads), cycles
                )
                result = out[pipe.output.name]
                if baseline is None:
                    baseline = result
                else:
                    # numerical cross-check: native twin vs planned twin
                    if not np.allclose(
                        result, baseline, rtol=1e-9, atol=1e-11
                    ):
                        raise AssertionError(
                            f"{name} threads={threads}: native output "
                            "diverges from planned"
                        )
            pl = cell["planned"]["cycle_time_s"]
            nat = cell["native"]["cycle_time_s"]
            cell["speedup"] = pl / nat
            row[f"threads={threads}"] = cell
            speedups.append(pl / nat)
            native_times.append(nat)
            planned_times.append(pl)
            print(
                f"{name:12s} threads={threads}  planned {pl * 1e3:8.1f} ms"
                f"  native {nat * 1e3:8.1f} ms  speedup {pl / nat:5.2f}x"
            )
        results["geomean"][f"threads={threads}"] = {
            "planned_cycle_time_s": geomean(planned_times),
            "native_cycle_time_s": geomean(native_times),
            "speedup": geomean(speedups),
        }
        print(
            f"geomean      threads={threads}  "
            f"speedup {geomean(speedups):5.2f}x"
        )
    return results


def gate_status(results: dict) -> list[str]:
    """The acceptance-criteria rows (informational when no toolchain)."""
    lines = []
    for name in GATE_WORKLOADS:
        cell = results["workloads"][name].get(f"threads={GATE_THREADS}")
        if cell is None:
            continue
        ok = cell["speedup"] >= GATE_SPEEDUP
        lines.append(
            f"gate {name} threads={GATE_THREADS}: "
            f"{cell['speedup']:.2f}x "
            f"({'PASS' if ok else 'below'} {GATE_SPEEDUP:.1f}x)"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--small", action="store_true",
        help="CI-sized grids (perf-smoke job)",
    )
    parser.add_argument(
        "--cycles", type=int, default=3,
        help="timed cycles per cell (after one warm-up)",
    )
    parser.add_argument(
        "--check", type=float, default=None, metavar="RATIO",
        help="fail if native > planned * RATIO on any workload",
    )
    parser.add_argument(
        "--threads", type=int, nargs="*", default=list(THREAD_COUNTS),
        help="thread counts to sweep",
    )
    parser.add_argument(
        "--out", type=pathlib.Path,
        default=REPO_ROOT / "BENCH_PR5.json",
        help="output JSON path",
    )
    args = parser.parse_args(argv)

    results = run(args.small, args.cycles, tuple(args.threads))
    for line in gate_status(results):
        print(line)
    args.out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.out}")

    if args.check is not None:
        failed = []
        for name, row in results["workloads"].items():
            for tkey, cell in row.items():
                if cell["speedup"] < 1.0 / args.check:
                    failed.append((name, tkey, cell["speedup"]))
        if failed:
            for name, tkey, s in failed:
                print(
                    f"FAIL: {name} {tkey}: native is {1 / s:.2f}x slower "
                    f"than planned (allowed {args.check:.2f}x)",
                    file=sys.stderr,
                )
            return 1
        print(f"check passed: native <= planned x {args.check:.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
