"""``handopt+pluto`` — hand-optimized code with diamond-tiled smoothers.

The paper's strongest baseline: the Ghysels & Vanroose hand-optimized
multigrid further optimized by time-tiling the smoothing steps with
Pluto's diamond tiling.  Here the smoother sweep of
:class:`~repro.baselines.handopt.HandOptSolver` is replaced by a
diamond-tiled traversal (same two modulo buffers, time-parity
addressing) over the :mod:`repro.pluto.diamond` schedule.  Results stay
bit-identical to the straight sweep — tiling only reorders independent
work — which the tests assert.
"""

from __future__ import annotations

import numpy as np

from ..pluto.diamond import diamond_schedule, diamond_width_for
from .handopt import HandOptSolver, LevelBuffers

__all__ = ["HandOptPlutoSolver", "diamond_jacobi_rows"]


def diamond_jacobi_rows(
    dst: np.ndarray,
    src: np.ndarray,
    f: np.ndarray,
    h: float,
    omega: float,
    lo: int,
    hi: int,
) -> None:
    """One Jacobi step restricted to outer-dimension rows ``[lo, hi]``
    (interior rows relaxed, boundary rows copied), matching
    :func:`repro.multigrid.kernels.jacobi_step` bit-for-bit on those
    rows."""
    n = src.shape[0] - 2
    lo_i = max(lo, 1)
    hi_i = min(hi, n)
    if lo_i <= hi_i:
        from ..multigrid.kernels import jacobi_step

        view_src = src[lo_i - 1 : hi_i + 2]
        view_f = f[lo_i - 1 : hi_i + 2]
        stepped = jacobi_step(view_src, view_f, h, omega)
        dst[lo_i : hi_i + 1] = stepped[1:-1]
    if lo <= 0:
        dst[0] = src[0]
    if hi >= n + 1:
        dst[n + 1] = src[n + 1]


class HandOptPlutoSolver(HandOptSolver):
    """handopt with the smoothing sweeps executed under the diamond-tile
    schedule (time-tiled along the outermost grid dimension)."""

    def __init__(self, *args, diamond_width: int | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.diamond_width = diamond_width

    def _smooth(
        self, lv: LevelBuffers, cur: int, steps: int, h: float
    ) -> int:
        if steps == 0:
            return cur
        extent = lv.u[0].shape[0] - 2  # interior rows
        from ..ir.interval import ConcreteInterval

        rows = ConcreteInterval(0, extent + 1)  # include boundary rows
        width = self.diamond_width or diamond_width_for(extent + 2, steps)
        phases = diamond_schedule(steps, rows, width)
        base = cur
        for phase in phases:
            for tile in phase:
                for t, interval in tile.steps():
                    src = lv.u[(base + t - 1) % 2]
                    dst = lv.u[(base + t) % 2]
                    diamond_jacobi_rows(
                        dst,
                        src,
                        lv.f,
                        h,
                        self.opts.omega,
                        interval.lb,
                        interval.ub,
                    )
        return (base + steps) % 2
