"""Diamond tiling for time-iterated stencils (libPluto substitute):
the schedule geometry, priced by :mod:`repro.model.costs` and executed
by the ``handopt+pluto`` baseline
(:mod:`repro.baselines.handopt_pluto`)."""

from .diamond import (
    DiamondTile,
    diamond_schedule,
    diamond_stats,
    diamond_width_for,
)

__all__ = [
    "DiamondTile",
    "diamond_schedule",
    "diamond_stats",
    "diamond_width_for",
]
