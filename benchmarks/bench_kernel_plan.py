"""PR 4 benchmark: ahead-of-time kernel plans vs the tree-walking
interpreter.

Measures wall-clock cycle time for the laptop-scale tiled workloads —
2-D Poisson V-cycle, 3-D Poisson V-cycle, and NAS MG — with the kernel
planner on and off, at ``num_threads`` 1 and 4, and emits
``BENCH_PR4.json`` at the repository root (the first datapoint of the
BENCH_* perf trajectory).  The headline number is the geometric-mean
speedup of planned over unplanned execution per thread count.

Run directly::

    PYTHONPATH=src python benchmarks/bench_kernel_plan.py            # full
    PYTHONPATH=src python benchmarks/bench_kernel_plan.py --small    # CI
    PYTHONPATH=src python benchmarks/bench_kernel_plan.py --check 1.10

``--small`` shrinks the grids for the CI perf-smoke job; ``--check R``
exits non-zero if planned execution is slower than unplanned by more
than the given ratio on any workload (plan-overhead regression guard).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

import numpy as np

from repro.backend.registry import PLANNED
from repro.bench.workloads import SMALL_TILES, geomean
from repro.compiler import compile_pipeline
from repro.config import PolyMgConfig
from repro.multigrid.cycles import build_poisson_cycle
from repro.multigrid.nas_mg import build_nas_mg_cycle
from repro.multigrid.reference import MultigridOptions

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

THREAD_COUNTS = (1, 4)


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


def time_case(pipe, inputs, config, cycles: int) -> dict:
    compiled = compile_pipeline(
        pipe.output, pipe.params, config=config, name=pipe.name,
        cache=False,
    )
    try:
        t0 = time.perf_counter()
        compiled.execute(dict(inputs))  # warm-up: pools, arenas, caches
        warmup = time.perf_counter() - t0
        times = []
        for _ in range(cycles):
            t0 = time.perf_counter()
            compiled.execute(dict(inputs))
            times.append(time.perf_counter() - t0)
        return {
            "cycle_time_s": min(times),
            "mean_cycle_time_s": sum(times) / len(times),
            "warmup_s": warmup,
            "plan_time_s": compiled.stats.tier(PLANNED.name).plan_time_s,
            "temp_bytes_peak": compiled.stats.temp_bytes_peak,
            "pool_reuse_count": compiled.stats.pool_reuse_count,
            "planned": compiled._kernel_plan is not None,
        }
    finally:
        compiled.close()


def run(small: bool, cycles: int) -> dict:
    results: dict = {
        "benchmark": "bench_kernel_plan",
        "small": small,
        "cycles_timed": cycles,
        "tile_sizes": {str(k): list(v) for k, v in SMALL_TILES.items()},
        "workloads": {},
        "geomean": {},
    }
    workloads = cases(small)
    for threads in THREAD_COUNTS:
        speedups = []
        planned_times = []
        unplanned_times = []
        for name, pipe, inputs in workloads:
            row = results["workloads"].setdefault(name, {})
            cell: dict = {}
            for planned in (False, True):
                config = PolyMgConfig(
                    tile_sizes=dict(SMALL_TILES),
                    num_threads=threads,
                    kernel_plan=planned,
                )
                label = "planned" if planned else "unplanned"
                cell[label] = time_case(pipe, inputs, config, cycles)
            up = cell["unplanned"]["cycle_time_s"]
            pl = cell["planned"]["cycle_time_s"]
            cell["speedup"] = up / pl
            row[f"threads={threads}"] = cell
            speedups.append(up / pl)
            planned_times.append(pl)
            unplanned_times.append(up)
            print(
                f"{name:12s} threads={threads}  unplanned {up * 1e3:8.1f} ms"
                f"  planned {pl * 1e3:8.1f} ms  speedup {up / pl:5.2f}x"
            )
        results["geomean"][f"threads={threads}"] = {
            "unplanned_cycle_time_s": geomean(unplanned_times),
            "planned_cycle_time_s": geomean(planned_times),
            "speedup": geomean(speedups),
        }
        print(
            f"geomean      threads={threads}  "
            f"speedup {geomean(speedups):5.2f}x"
        )
    return results


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
        help="fail if planned > unplanned * RATIO on any workload",
    )
    parser.add_argument(
        "--out", type=pathlib.Path,
        default=REPO_ROOT / "BENCH_PR4.json",
        help="output JSON path",
    )
    args = parser.parse_args(argv)

    results = run(args.small, args.cycles)
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
                    f"FAIL: {name} {tkey}: planned is {1 / s:.2f}x slower "
                    f"than unplanned (allowed {args.check:.2f}x)",
                    file=sys.stderr,
                )
            return 1
        print(f"check passed: planned <= unplanned x {args.check:.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
