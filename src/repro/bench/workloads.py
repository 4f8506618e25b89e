"""Benchmark workload definitions (paper Table 2) and the shared runner.

Defines the paper's benchmark matrix — V/W-cycle x 2-D/3-D x 4-4-4 /
10-0-0 smoothing, classes B and C, plus NAS MG — and the machinery the
per-figure benchmark files use:

* ``model_speedups``: compile every variant at paper scale, autotune the
  tunable ones over the paper's configuration spaces, and evaluate the
  Table-1 machine model — this regenerates the *paper-shape* numbers;
* ``measured_time``: wall-clock execution of the numpy backend at laptop
  scale (each benchmark file pairs both, per DESIGN.md section 5).

Environment knobs: ``REPRO_FULL_TUNE=0`` shrinks the tuning space for
quick runs (default is the paper's full 80/135-point search);
``REPRO_CLASS_C=0`` skips class C rows.

All compiles route through the content-addressed compile cache
(:mod:`repro.cache`), so figures sharing workload rows pay the
compiler passes once per distinct (spec, params, config) fingerprint.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache

from ..model import PAPER_MACHINE, PipelineCostModel
from ..multigrid.cycles import build_poisson_cycle
from ..multigrid.reference import MultigridOptions
from ..tuning import autotune_model
from ..variants import (
    handopt_model,
    handopt_pluto_model,
    polymg_dtile_opt_plus,
    polymg_naive,
    polymg_opt,
    polymg_opt_plus,
)

__all__ = [
    "Workload",
    "POISSON_WORKLOADS",
    "NAS_WORKLOADS",
    "VARIANT_ORDER",
    "SMALL_TILES",
    "model_speedups",
    "geomean",
    "full_tuning",
]

#: laptop-scale tile sizes for wall-clock runs
SMALL_TILES = {1: (64,), 2: (16, 64), 3: (8, 8, 16)}

VARIANT_ORDER = (
    "handopt",
    "handopt+pluto",
    "polymg-opt",
    "polymg-opt+",
    "polymg-dtile-opt+",
)


@dataclass(frozen=True)
class Workload:
    """One benchmark row of Table 2."""

    name: str  # e.g. "V-2D-4-4-4"
    ndim: int
    cycle: str
    smoothing: tuple[int, int, int]
    levels: int
    size: dict[str, int]  # class -> N
    iters: dict[str, int]  # class -> cycle iterations

    def options(self) -> MultigridOptions:
        n1, n2, n3 = self.smoothing
        return MultigridOptions(
            cycle=self.cycle, n1=n1, n2=n2, n3=n3, levels=self.levels
        )

    def pipeline(self, cls: str):
        return build_poisson_cycle(
            self.ndim, self.size[cls], self.options()
        )

    def label(self, cls: str) -> str:
        return f"{self.name} class {cls}"


def _poisson(name, ndim, cycle, smoothing) -> Workload:
    # Table 2: 2-D B=8192^2 x10, C=16384^2 x10; 3-D B=256^3 x25,
    # C=512^3 x10 (paper levels: 4, per the Table 3 stage counts)
    if ndim == 2:
        size = {"B": 8192, "C": 16384, "laptop": 256}
        iters = {"B": 10, "C": 10, "laptop": 3}
    else:
        size = {"B": 256, "C": 512, "laptop": 32}
        iters = {"B": 25, "C": 10, "laptop": 3}
    return Workload(name, ndim, cycle, smoothing, 4, size, iters)


POISSON_WORKLOADS: tuple[Workload, ...] = (
    _poisson("V-2D-4-4-4", 2, "V", (4, 4, 4)),
    _poisson("V-2D-10-0-0", 2, "V", (10, 0, 0)),
    _poisson("W-2D-4-4-4", 2, "W", (4, 4, 4)),
    _poisson("W-2D-10-0-0", 2, "W", (10, 0, 0)),
    _poisson("V-3D-4-4-4", 3, "V", (4, 4, 4)),
    _poisson("V-3D-10-0-0", 3, "V", (10, 0, 0)),
    _poisson("W-3D-4-4-4", 3, "W", (4, 4, 4)),
    _poisson("W-3D-10-0-0", 3, "W", (10, 0, 0)),
)

#: NAS MG rows: class -> (N, iterations, levels)
NAS_WORKLOADS = {
    "B": (256, 20, 7),
    "C": (512, 20, 8),
    "laptop": (32, 4, 4),
}


def full_tuning() -> bool:
    return os.environ.get("REPRO_FULL_TUNE", "1") != "0"


def include_class_c() -> bool:
    return os.environ.get("REPRO_CLASS_C", "1") != "0"


def _tuned_time(pipe, base_cfg, threads, cycles) -> tuple[float, object]:
    if full_tuning():
        res = autotune_model(
            pipe, base_cfg, PAPER_MACHINE, threads=threads, cycles=cycles
        )
        return res.best.score, res
    # quick mode: a small representative sub-space
    best = math.inf
    ndim = pipe.ndim
    tiles2 = [(16, 256), (32, 256), (64, 128)]
    tiles3 = [(8, 16, 128), (16, 16, 64), (8, 32, 256)]
    for tiles in tiles2 if ndim == 2 else tiles3:
        for limit in (4, 8):
            cfg = base_cfg.with_(
                tile_sizes={**base_cfg.tile_sizes, ndim: tiles},
                group_size_limit=limit,
            )
            compiled = pipe.compile(cfg)
            t = PipelineCostModel(compiled, PAPER_MACHINE).run_time(
                threads, cycles
            )
            best = min(best, t)
    return best, None


def model_speedups(
    workload: Workload,
    cls: str,
    threads: int = 24,
    variants: tuple[str, ...] = VARIANT_ORDER,
) -> dict[str, float]:
    """Speedups over ``polymg-naive`` at paper scale under the machine
    model; tunable variants are autotuned like the paper's section
    3.2.4."""
    pipe = workload.pipeline(cls)
    cycles = workload.iters[cls]
    times: dict[str, float] = {}
    times["polymg-naive"] = PipelineCostModel(
        pipe.compile(polymg_naive()), PAPER_MACHINE
    ).run_time(threads, cycles)
    fixed = {
        "handopt": handopt_model,
        "handopt+pluto": handopt_pluto_model,
    }
    tunable = {
        "polymg-opt": polymg_opt,
        "polymg-opt+": polymg_opt_plus,
        "polymg-dtile-opt+": polymg_dtile_opt_plus,
    }
    for name in variants:
        if name in fixed:
            times[name] = PipelineCostModel(
                pipe.compile(fixed[name]()), PAPER_MACHINE
            ).run_time(threads, cycles)
        elif name in tunable:
            times[name], _ = _tuned_time(
                pipe, tunable[name](), threads, cycles
            )
        else:
            raise KeyError(name)
    base = times["polymg-naive"]
    return {
        name: base / t for name, t in times.items() if name != "polymg-naive"
    } | {"polymg-naive-time": base}


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


_BY_NAME = {w.name: w for w in POISSON_WORKLOADS}


def workload(name: str) -> Workload:
    return _BY_NAME[name]


@lru_cache(maxsize=None)
def cached_speedups(
    name: str, cls: str, threads: int = 24
) -> dict[str, float]:
    """Memoized :func:`model_speedups` (several figures share rows)."""
    return model_speedups(_BY_NAME[name], cls, threads)
