"""The problem specifications the four workloads solve.

Every spec is 2-D/3-D Poisson with weighted Jacobi (omega = 0.8).  The
sets below are fixed by the suite, not drawn by the seed: an operation's
cost is decided by its structure (stage count sets the ``cc`` time, the
hierarchy depth sets the cycle count), so a seeded draw of structures
would change the work from run to run and the medians with it.  The
seed decides the right-hand sides and the order of operations; see
README.md, "what the seed changes".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Spec",
    "KERNEL_SPEC",
    "COLD_SPECS",
    "COLD_WARMUP_SPEC",
    "SERVICE_POOL",
    "BURST_SPEC",
    "cold_order",
]


@dataclass(frozen=True)
class Spec:
    ndim: int
    n: int
    cycle: str = "V"
    smoothing: tuple[int, int, int] = (4, 4, 4)
    levels: int = 4
    omega: float = 0.8

    def options(self):
        from repro.multigrid.reference import MultigridOptions

        n1, n2, n3 = self.smoothing
        return MultigridOptions(
            cycle=self.cycle, n1=n1, n2=n2, n3=n3,
            levels=self.levels, omega=self.omega,
        )

    def label(self) -> str:
        sm = "-".join(str(s) for s in self.smoothing)
        return (
            f"{self.ndim}D-N{self.n}-{self.cycle}-{sm}-L{self.levels}"
            f"-w{self.omega:g}"
        )

    def small(self) -> bool:
        """Small enough (<= 64**2 / 32**3 points) to re-solve with the
        numpy reference inside the correctness gate."""
        return self.n <= (64 if self.ndim == 2 else 32)


def tile_overrides() -> dict:
    """3-D specs pin the laptop-scale tiles: the seed segfaults on the
    native tiers at 3-D N=64 with the default 3-D tile sizes (README,
    "known at seed")."""
    from repro.bench.workloads import SMALL_TILES
    from repro.config import DEFAULT_TILE_SIZES

    return {"tile_sizes": {**DEFAULT_TILE_SIZES, 3: SMALL_TILES[3]}}


#: kernel-2d-1024: 8.4 MB per array against 2 MiB of L2 per core
KERNEL_SPEC = Spec(2, 1024, "V", (4, 4, 4), levels=5)

#: cold-specs: one lap.  Covers V and W, the three smoothing settings,
#: 3 and 4 levels, every 2-D and 3-D size of the issue's pool; the
#: first two differ only in N (they could share one artifact).  The
#: 98-100-stage W/4-level specs (5-10 s of ``cc`` each) are left out:
#: one of them would be a quarter of the window.
COLD_SPECS: tuple[Spec, ...] = (
    Spec(2, 64, "V", (4, 4, 4), 4),
    Spec(2, 256, "V", (4, 4, 4), 4),
    Spec(2, 128, "W", (2, 2, 2), 4),
    Spec(2, 128, "V", (10, 0, 0), 3),
    Spec(2, 64, "W", (4, 4, 4), 3),
    Spec(3, 16, "V", (2, 2, 2), 3),
    Spec(3, 32, "V", (4, 4, 4), 3),
    Spec(3, 16, "W", (10, 0, 0), 3),
)

#: the discarded warm-up operation of cold-specs (first ``cc`` run,
#: OpenMP runtime start): not one of the measured specs
COLD_WARMUP_SPEC = Spec(2, 64, "V", (2, 2, 2), 3)

#: service-mixed: client 0 draws from the first half, client 1 from the
#: second, so two queued requests never share a spec and coalescing
#: cannot trigger.  Each half is (fast, middle, slow) and the two
#: middles are twins (same structure, omega 0.80 / 0.78): whatever the
#: two clients' rates, a third of all requests are faster than the
#: twins and a third slower, so the median request lies inside one
#: latency cluster instead of on the boundary between two.
#: Hierarchies are deep enough to reach rtol in 3-16 cycles (so the
#: kernel stays a small part of a request) and to contract faster than
#: the supervisor's stagnation floor (0.95/cycle); shallower ones make
#: it rebuild the cycle mid-request.
SERVICE_POOL: tuple[Spec, ...] = (
    Spec(3, 16, levels=3),
    Spec(2, 64, levels=4),
    Spec(2, 256, levels=5),
    Spec(2, 64, levels=5),
    Spec(2, 64, levels=4, omega=0.78),
    Spec(3, 32, levels=4),
)

#: service-burst: every request of every burst
BURST_SPEC = Spec(2, 128, levels=4)


def cold_order(seed: int, lap: int) -> list[Spec]:
    """The order in which lap ``lap`` of run ``seed`` compiles
    ``COLD_SPECS`` (a seeded permutation)."""
    rng = np.random.default_rng([seed, lap, 0xC01D])
    return [COLD_SPECS[i] for i in rng.permutation(len(COLD_SPECS))]
