"""Runtime sentinels.

Verification at compile time (``repro.verify.invariants``) cannot catch
everything: a numerically unstable smoother, a corrupted buffer, or a
latent backend bug only shows up in the data.  This module provides

* :func:`scan_nonfinite` — NaN/Inf scan over an array, raising
  :class:`~repro.errors.NumericalDivergenceError` with structured
  context.  The executor calls it on every group's live-outs when
  ``PolyMgConfig.runtime_guards`` is on.
* :class:`ResidualMonitor` — residual-divergence detection across
  multigrid cycle invocations: raises when the residual norm turns
  non-finite or grows past ``growth_factor`` times the best norm seen.

Graceful degradation on a detected fault — re-executing the invocation
on a slower, trusted variant and recording an incident — is
:class:`~repro.resilience.pipeline.ResilientPipeline`'s job.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..errors import NumericalDivergenceError

__all__ = ["scan_nonfinite", "ResidualMonitor"]


def scan_nonfinite(
    name: str,
    array: np.ndarray,
    *,
    pipeline: str | None = None,
    group: int | None = None,
) -> None:
    """Raise :class:`NumericalDivergenceError` if ``array`` contains any
    NaN or Inf entries."""
    if np.isfinite(array).all():
        return
    bad = int(array.size - np.count_nonzero(np.isfinite(array)))
    raise NumericalDivergenceError(
        "non-finite values detected in live-out",
        pipeline=pipeline,
        group=group,
        stage=name,
        nonfinite_count=bad,
        total=int(array.size),
    )


class ResidualMonitor:
    """Detects residual divergence across multigrid cycle iterations.

    Feed each cycle's residual norm to :meth:`observe`; raises
    :class:`NumericalDivergenceError` when the norm is non-finite or
    exceeds ``growth_factor`` times the smallest norm observed so far
    (a converging solver shrinks monotonically up to stagnation, so a
    100x blow-up is unambiguous divergence).

    ``history`` is a ring buffer of the most recent ``history_limit``
    norms (long-running service solves must not grow memory without
    bound); the running best norm and the total observation count are
    retained separately, so divergence is still judged against the
    best norm *ever* seen even after it has left the window.
    """

    def __init__(
        self,
        growth_factor: float = 100.0,
        *,
        pipeline: str | None = None,
        history_limit: int = 512,
    ) -> None:
        if growth_factor <= 1.0:
            raise ValueError("growth_factor must exceed 1")
        if history_limit < 1:
            raise ValueError("history_limit must be positive")
        self.growth_factor = growth_factor
        self.pipeline = pipeline
        self.history: deque[float] = deque(maxlen=history_limit)
        self.observed = 0
        self.best = float("inf")

    def observe(self, norm: float) -> None:
        norm = float(norm)
        self.observed += 1
        self.history.append(norm)
        if not np.isfinite(norm):
            raise NumericalDivergenceError(
                "residual norm is non-finite",
                pipeline=self.pipeline,
                cycle=self.observed - 1,
                norm=norm,
            )
        self.best = min(self.best, norm)
        if self.best > 0 and norm > self.growth_factor * self.best:
            raise NumericalDivergenceError(
                "residual norm diverged",
                pipeline=self.pipeline,
                cycle=self.observed - 1,
                norm=norm,
                best=self.best,
                growth_factor=self.growth_factor,
            )

    def reduction_factor(self) -> float | None:
        """Most recent cycle's residual reduction factor (``None``
        before two observations)."""
        if len(self.history) < 2 or self.history[-2] == 0:
            return None
        return self.history[-1] / self.history[-2]
