"""Figure 11a — smoother-only comparison, overlapped vs diamond tiling.

Regenerates the paper's Jacobi-smoother-only study on the 3-D class C
grid (512^3) with 4 and 10 smoothing steps: overlapped tiling with
local buffers (polymg-opt+, tuned) against Pluto-style diamond tiling.
Paper shape: overlapped slightly better at 4 steps, diamond better at
10 steps; in 2-D overlapped always wins.

Wall-clock: the overlapped-tiled executor runs a laptop-scale smoother
chain, verified bit-equal to the reference sweep.  Diamond tiling is
priced by the model only; its one executor is the ``handopt+pluto``
baseline (:mod:`repro.baselines.handopt_pluto`).
"""

from __future__ import annotations

import io

import numpy as np

from conftest import write_result
from repro.bench import SMALL_TILES
from repro.model import PAPER_MACHINE, PipelineCostModel
from repro.multigrid.cycles import build_smoother_chain
from repro.multigrid.kernels import jacobi_step
from repro.tuning import autotune_model
from repro.variants import handopt_pluto_model, polymg_opt_plus

CASES = [
    (3, 512, 4),
    (3, 512, 10),
    (2, 8192, 4),
    (2, 8192, 10),
]


def _model_rows():
    rows = []
    for ndim, n, steps in CASES:
        pipe = build_smoother_chain(ndim, n, steps)
        tuned = autotune_model(
            pipe, polymg_opt_plus(), PAPER_MACHINE, threads=24, cycles=10
        )
        diamond = PipelineCostModel(
            pipe.compile(handopt_pluto_model()), PAPER_MACHINE
        ).run_time(24, 10)
        rows.append((ndim, n, steps, tuned.best.score, diamond))
    return rows


def test_fig11a_smoother_comparison(benchmark, rng):
    # wall-clock: the overlapped-tiled smoother chain at laptop scale
    n, steps = 64, 4
    pipe = build_smoother_chain(2, n, steps)
    over = pipe.compile(polymg_opt_plus(tile_sizes=SMALL_TILES))
    f = np.zeros((n + 2, n + 2))
    f[1:-1, 1:-1] = rng.standard_normal((n, n))
    v = rng.standard_normal((n + 2, n + 2))
    inputs = pipe.make_inputs(v, f)
    benchmark(lambda: over.execute(inputs))
    want = v
    for _ in range(steps):
        want = jacobi_step(want, f, 1.0 / (n + 1), pipe.opts.omega)
    assert np.array_equal(over.execute(inputs)[pipe.output.name], want)

    rows = _model_rows()
    out = io.StringIO()
    out.write(
        "Figure 11a: smoother-only, overlapped (tuned opt+) vs diamond "
        "(Pluto), 10 sweeps of the chain (model)\n"
    )
    out.write(
        f"{'grid':>12s} {'steps':>6s} {'overlapped(s)':>14s} "
        f"{'diamond(s)':>11s} {'winner':>11s}\n"
    )
    winners = {}
    for ndim, n_, steps_, t_over, t_dia in rows:
        winner = "overlapped" if t_over < t_dia else "diamond"
        winners[(ndim, steps_)] = winner
        out.write(
            f"{f'{ndim}D {n_}':>12s} {steps_:6d} {t_over:14.3f} "
            f"{t_dia:11.3f} {winner:>11s}\n"
        )
    out.write(
        "paper: overlapped slightly better at 4 steps (3-D), diamond "
        "better at 10 steps; 2-D overlapped always better\n"
    )
    write_result("fig11a_smoother", out.getvalue())

    assert winners[(3, 4)] == "overlapped"
    assert winners[(3, 10)] == "diamond"
    assert winners[(2, 4)] == "overlapped"
    assert winners[(2, 10)] == "overlapped"
