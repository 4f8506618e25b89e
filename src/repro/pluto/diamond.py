"""Diamond-tile schedule geometry for time-iterated stencils.

This module stands in for libPluto's diamond tiling (Bandishti et al.,
SC'12) for the restricted program class PolyMG feeds it: ``T``
applications of a near-neighbour stencil over a rectangular grid (the
pre-/post-smoothing ``TStencil`` chains).

We generate the classic two-phase concurrent-start decomposition along
the outermost space dimension (remaining dimensions are kept full-width
and vectorized, as practical implementations do):

* **Phase A** — shrinking triangles: base ``[k*w, (k+1)*w - 1]`` at the
  first step, shrinking by one point per side per time step;
* **Phase B** — growing (inverted) triangles between them, executable
  once all phase-A triangles of the slab are done.

Every grid point of every time step is computed exactly once (no
redundant computation, unlike overlapped tiling), all tiles within a
phase are independent (concurrent start), and a slab costs two global
synchronizations.  These are precisely the properties the paper
contrasts against overlapped tiling (Figure 5, Figure 11a).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..ir.interval import ConcreteInterval

__all__ = [
    "DiamondTile",
    "diamond_schedule",
    "diamond_stats",
    "diamond_width_for",
]


@dataclass(frozen=True)
class DiamondTile:
    """One triangle of the two-phase decomposition.

    ``steps`` yields, for each time step of the slab the tile covers,
    the interval of outer-dimension grid points it must compute.
    """

    phase: int  # 0 = shrinking (A), 1 = growing (B)
    index: int  # tile position k along the outer dimension
    slab_start: int  # first time step of the slab (1-based)
    slab_height: int
    width: int
    extent: ConcreteInterval  # outer-dimension domain

    def steps(self) -> Iterator[tuple[int, ConcreteInterval]]:
        k, w = self.index, self.width
        for s in range(self.slab_height):
            t = self.slab_start + s
            if self.phase == 0:
                lo = k * w + s
                hi = (k + 1) * w - 1 - s
            else:
                lo = (k + 1) * w - s
                hi = (k + 1) * w + s - 1
            iv = ConcreteInterval(lo, hi).intersect(self.extent)
            if not iv.is_empty():
                yield t, iv


def diamond_width_for(extent_size: int, timesteps: int) -> int:
    """Pick a diamond base width: wide enough for non-degenerate slabs
    over all timesteps, narrow enough to produce parallelism."""
    width = max(4, 2 * timesteps)
    # aim for at least ~8 tiles across the extent when possible
    while width > 2 * timesteps and extent_size // width < 8:
        width //= 2
    width = max(width, 2 * min(timesteps, max(1, extent_size // 4)))
    return max(4, min(width, max(4, extent_size)))


def diamond_schedule(
    timesteps: int,
    extent: ConcreteInterval,
    width: int,
    slab_height: int | None = None,
) -> list[list[DiamondTile]]:
    """The full schedule: a list of *phases*; tiles within a phase are
    mutually independent, phases are separated by barriers.

    ``slab_height`` defaults to ``min(timesteps, width // 2)`` — the
    tallest slab whose shrinking triangles stay non-degenerate.
    """
    if timesteps <= 0:
        return []
    if width < 2:
        raise ValueError("diamond width must be >= 2")
    if slab_height is None:
        slab_height = max(1, min(timesteps, width // 2))
    phases: list[list[DiamondTile]] = []
    t = 1
    while t <= timesteps:
        height = min(slab_height, timesteps - t + 1)
        k_lo = (extent.lb // width) - 1
        k_hi = extent.ub // width + 1
        phase_a = []
        phase_b = []
        for k in range(k_lo, k_hi + 1):
            a = DiamondTile(0, k, t, height, width, extent)
            if any(True for _ in a.steps()):
                phase_a.append(a)
            b = DiamondTile(1, k, t, height, width, extent)
            if any(True for _ in b.steps()):
                phase_b.append(b)
        phases.append(phase_a)
        phases.append(phase_b)
        t += height
    return phases


@dataclass(frozen=True)
class DiamondStats:
    """Schedule statistics consumed by the machine cost model."""

    timesteps: int
    slabs: int
    barriers: int
    tiles: int
    max_concurrency: int
    points: int  # total points computed (== timesteps * extent size)


def diamond_stats(
    timesteps: int,
    extent: ConcreteInterval,
    width: int,
    slab_height: int | None = None,
) -> DiamondStats:
    phases = diamond_schedule(timesteps, extent, width, slab_height)
    tiles = sum(len(p) for p in phases)
    concurrency = max((len(p) for p in phases), default=0)
    return DiamondStats(
        timesteps=timesteps,
        slabs=len(phases) // 2,
        barriers=len(phases),
        tiles=tiles,
        max_concurrency=concurrency,
        points=timesteps * extent.size(),
    )
