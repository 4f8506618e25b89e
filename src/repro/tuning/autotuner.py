"""Auto-tuning (paper section 3.2.4).

Searches the paper's configuration space for the best-performing
compiled variant:

* 2-D: outermost tile size 8..64, innermost 64..512, powers of two
  (16 tile-size points), five grouping-limit values -> 80 configurations;
* 3-D: two outermost 8..32, innermost 64..256, powers of two (27 points),
  five grouping limits -> 135 configurations.

Each configuration is compiled and scored.  Trials are fault-isolated:
a configuration that raises (or exceeds the optional per-trial
wall-clock timeout) is quarantined into ``TuneResult.failed`` as a
:class:`~repro.errors.TrialFailure` and the search continues — one bad
candidate never aborts the space sweep (the regime evolutionary/search
-based generators like ExaStencils rely on).  Two scoring backends exist:
the machine cost model (used for paper-scale experiments — the paper's
own tuner measures on the machine; ours evaluates the Table-1 model) and
wall-clock execution of the numpy backend (used at laptop scale).

Trial compiles route through the content-addressed compile cache
(:mod:`repro.cache`): a configuration whose fingerprint already
compiled successfully — in an earlier sweep, another scoring backend,
or the bench harness — is a cache hit and skips every compiler pass.
Each :class:`TunePoint` reports its compile-time vs. score-time split
and whether the compile was served from cache.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..backend.registry import TIERS
from ..cache import compile_cache, compile_fingerprint
from ..config import PolyMgConfig
from ..errors import TrialFailure
from ..model.costs import PipelineCostModel
from ..model.machine import MachineSpec

__all__ = [
    "TrialMeasurement",
    "TuneMemo",
    "TuneResult",
    "TunePoint",
    "tile_space",
    "group_limit_space",
    "config_space",
    "autotune_model",
    "autotune_measured",
]

GROUP_LIMITS = (1, 2, 4, 6, 8)  # five grouping-limit values


def _pow2_range(lo: int, hi: int) -> list[int]:
    out = []
    v = lo
    while v <= hi:
        out.append(v)
        v *= 2
    return out


def tile_space(ndim: int) -> list[tuple[int, ...]]:
    """The paper's tile-size search space per dimensionality."""
    if ndim == 2:
        return [
            (outer, inner)
            for outer in _pow2_range(8, 64)
            for inner in _pow2_range(64, 512)
        ]
    if ndim == 3:
        return [
            (o1, o2, inner)
            for o1 in _pow2_range(8, 32)
            for o2 in _pow2_range(8, 32)
            for inner in _pow2_range(64, 256)
        ]
    raise ValueError(f"no tuning space for rank {ndim}")


def group_limit_space() -> tuple[int, ...]:
    return GROUP_LIMITS


def config_space(
    base: PolyMgConfig, ndim: int
) -> Iterable[tuple[PolyMgConfig, tuple[int, ...], int]]:
    """All (config, tile_shape, group_limit) tuning points."""
    for limit in GROUP_LIMITS:
        for tiles in tile_space(ndim):
            cfg = base.with_(
                tile_sizes={**base.tile_sizes, ndim: tiles},
                group_size_limit=limit,
            )
            yield cfg, tiles, limit


@dataclass
class TrialMeasurement:
    """What one trial's ``score`` callable measured.

    Score callables may return a bare float (scored-only, no split) or
    a ``TrialMeasurement`` to report the compile/score breakdown; the
    built-in :func:`autotune_model` / :func:`autotune_measured` scorers
    report the full split."""

    score: float
    compile_time: float = 0.0
    execute_time: float = 0.0
    cache_hit: bool = False


@dataclass
class TunePoint:
    tile_shape: tuple[int, ...]
    group_limit: int
    score: float  # seconds (lower is better)
    compile_time: float = 0.0  # wall time spent compiling this config
    execute_time: float = 0.0  # wall time spent scoring (model/exec)
    cache_hit: bool = False  # compile served from the compile cache

    def fingerprint(self) -> str:
        """Stable identity of this configuration within a sweep — the
        tie-break key for equal scores (never dict/insertion order)."""
        return f"tiles={self.tile_shape};limit={self.group_limit}"


class TuneMemo:
    """Fingerprint-keyed memo of trial outcomes, shared across sweeps.

    The evolutionary cycle search and repeated autotune calls revisit
    identical (pipeline spec, params, config, scoring mode) points;
    handing the same ``TuneMemo`` to each call dedupes those
    evaluations.  Failures are latched too — a configuration that
    already failed is re-quarantined without re-running it (the same
    don't-retry-a-known-bad-variant semantics the fallback breakers
    apply to execution tiers)."""

    def __init__(self) -> None:
        self.entries: dict[str, TrialMeasurement | TrialFailure] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self.entries)

    def key(self, pipe, cfg: PolyMgConfig, mode: str) -> str:
        """Content-addressed key: the compile fingerprint of this
        (spec, params, config) point qualified by the scoring mode."""
        outputs = (
            pipe.output
            if isinstance(pipe.output, (list, tuple))
            else [pipe.output]
        )
        fp = compile_fingerprint(outputs, pipe.params, cfg, pipe.name)
        return f"{mode}:{fp}"

    def lookup(self, key: str) -> "TrialMeasurement | TrialFailure | None":
        found = self.entries.get(key)
        if found is None:
            self.misses += 1
        else:
            self.hits += 1
        return found

    def store(
        self, key: str, outcome: "TrialMeasurement | TrialFailure"
    ) -> None:
        self.entries[key] = outcome


@dataclass
class TuneResult:
    best: TunePoint
    points: list[TunePoint]
    configurations: int
    failed: list[TrialFailure] = field(default_factory=list)
    memo_hits: int = 0  # trials served from a shared TuneMemo

    def best_config(self, base: PolyMgConfig, ndim: int) -> PolyMgConfig:
        return base.with_(
            tile_sizes={**base.tile_sizes, ndim: self.best.tile_shape},
            group_size_limit=self.best.group_limit,
        )

    # -- compile/execute split across the sweep -------------------------
    @property
    def compile_time_total(self) -> float:
        return sum(p.compile_time for p in self.points)

    @property
    def execute_time_total(self) -> float:
        return sum(p.execute_time for p in self.points)

    @property
    def cache_hit_count(self) -> int:
        return sum(1 for p in self.points if p.cache_hit)


def _measure(value: "TrialMeasurement | float") -> TrialMeasurement:
    """Normalize a score callable's return value (bare floats carry no
    compile/execute split)."""
    if isinstance(value, TrialMeasurement):
        return value
    return TrialMeasurement(score=float(value))


def _timed_compile(pipe, cfg: PolyMgConfig):
    """Compile one trial configuration through the compile cache,
    returning (compiled, wall_time, served_from_cache)."""
    stats = compile_cache().stats
    hits_before = stats.hits
    t0 = time.perf_counter()
    compiled = pipe.compile(cfg)
    # block on any tier-specific background build work (the native
    # JIT's cc invocation) so every configuration is charged its full
    # readiness wall time, whatever tier it selects
    TIERS.resolve(cfg.backend).ensure_ready(compiled)
    elapsed = time.perf_counter() - t0
    return compiled, elapsed, stats.hits > hits_before


def _run_trial(
    score: Callable[[PolyMgConfig], "TrialMeasurement | float"],
    cfg: PolyMgConfig,
    tiles: tuple[int, ...],
    limit: int,
    trial_timeout: float | None,
) -> TrialMeasurement:
    """One compile+measure trial; every failure mode (exception or
    wall-clock timeout) surfaces as :class:`TrialFailure`."""
    start = time.perf_counter()
    if trial_timeout is None:
        try:
            return _measure(score(cfg))
        except Exception as exc:
            raise TrialFailure(
                "trial raised",
                tile_shape=tiles,
                group_limit=limit,
                cause=f"{type(exc).__name__}: {exc}",
                elapsed=round(time.perf_counter() - start, 3),
            ) from exc

    # run the trial on a worker thread so a hung configuration cannot
    # stall the search; on timeout the worker is abandoned (daemonized
    # by shutdown(wait=False)) and the config quarantined
    pool = ThreadPoolExecutor(1)
    future = pool.submit(score, cfg)
    try:
        return _measure(future.result(timeout=trial_timeout))
    except FutureTimeout:
        raise TrialFailure(
            "trial exceeded wall-clock timeout",
            tile_shape=tiles,
            group_limit=limit,
            timeout=trial_timeout,
        ) from None
    except Exception as exc:
        raise TrialFailure(
            "trial raised",
            tile_shape=tiles,
            group_limit=limit,
            cause=f"{type(exc).__name__}: {exc}",
            elapsed=round(time.perf_counter() - start, 3),
        ) from exc
    finally:
        pool.shutdown(wait=False)


def _tune(
    pipe,
    base: PolyMgConfig,
    score: Callable[[PolyMgConfig], float],
    trial_timeout: float | None = None,
    memo: TuneMemo | None = None,
    mode: str = "",
) -> TuneResult:
    """Search the space; a failing configuration is quarantined into
    ``TuneResult.failed`` and never aborts the search.

    With a shared ``memo``, points whose (spec, params, config, mode)
    fingerprint was already evaluated — by an earlier sweep or another
    caller holding the same memo — are served from it without
    re-running; ``TuneResult.memo_hits`` counts them.  Memoized
    failures stay failures."""
    points: list[TunePoint] = []
    failed: list[TrialFailure] = []
    memo_hits = 0
    for cfg, tiles, limit in config_space(base, pipe.ndim):
        key = memo.key(pipe, cfg, mode) if memo is not None else None
        cached = memo.lookup(key) if key is not None else None
        if cached is not None:
            memo_hits += 1
            if isinstance(cached, TrialFailure):
                failed.append(cached)
                continue
            m = cached
        else:
            try:
                m = _run_trial(score, cfg, tiles, limit, trial_timeout)
            except TrialFailure as failure:
                if key is not None:
                    memo.store(key, failure)
                failed.append(failure)
                continue
            if key is not None:
                memo.store(key, m)
        points.append(
            TunePoint(
                tiles,
                limit,
                m.score,
                compile_time=m.compile_time,
                execute_time=m.execute_time,
                cache_hit=m.cache_hit,
            )
        )
    if not points:
        raise TrialFailure(
            "every configuration in the search space failed",
            attempted=len(failed),
        )
    # ties resolve by the stable config fingerprint, not insertion
    # order, so equal-scoring sweeps always pick the same winner
    best = min(points, key=lambda p: (p.score, p.fingerprint()))
    return TuneResult(
        best, points, len(points) + len(failed), failed, memo_hits
    )


def autotune_model(
    pipe,
    base: PolyMgConfig,
    machine: MachineSpec,
    threads: int,
    cycles: int = 10,
    trial_timeout: float | None = None,
    memo: TuneMemo | None = None,
) -> TuneResult:
    """Tune against the machine cost model (paper-scale problems)."""

    def score(cfg: PolyMgConfig) -> TrialMeasurement:
        # the model reads the schedule, never a kernel plan: skip it
        compiled, compile_time, hit = _timed_compile(
            pipe, cfg.with_(kernel_plan=False)
        )
        t0 = time.perf_counter()
        value = TIERS.resolve(cfg.backend).cost_hint(
            compiled, machine, threads=threads, cycles=cycles
        )
        if value is None:  # a tier with no model: fall back directly
            value = PipelineCostModel(compiled, machine).run_time(
                threads, cycles
            )
        return TrialMeasurement(
            score=value,
            compile_time=compile_time,
            execute_time=time.perf_counter() - t0,
            cache_hit=hit,
        )

    return _tune(
        pipe,
        base,
        score,
        trial_timeout,
        memo=memo,
        mode=f"model:t{threads}c{cycles}",
    )


def autotune_measured(
    pipe,
    base: PolyMgConfig,
    inputs_factory: Callable[[], dict],
    repeats: int = 1,
    trial_timeout: float | None = None,
    trial_byte_budget: int | None = None,
    memo: TuneMemo | None = None,
) -> TuneResult:
    """Tune by wall-clock execution (laptop-scale problems; the
    paper's 'minimum of five runs' protocol, scaled).

    Every trial scores *per-cycle* wall time, so configurations remain
    comparable across execution tiers: when the base config selects a
    whole-solve tier, each repeat times one ``driver_hook_cycles``
    burst through ``polymg_drive`` and divides by the cycles served —
    tile sizes are searched under the exact dispatch regime the solve
    will use.  A trial whose driver cannot serve (toolchain missing,
    build failed, artifact without the driver entry) degrades to
    per-invocation ``execute`` timing within the same trial.

    ``trial_byte_budget`` caps each trial's pooled-allocator backing
    memory (see :class:`~repro.config.PolyMgConfig.pool_byte_budget`):
    a configuration whose execution would blow past the budget raises
    the typed :class:`~repro.errors.PoolExhaustedError` and is
    quarantined as a :class:`~repro.errors.TrialFailure` instead of
    OOMing the whole sweep."""

    def score(cfg: PolyMgConfig) -> TrialMeasurement:
        if trial_byte_budget is not None:
            cfg = cfg.with_(pool_byte_budget=trial_byte_budget)
        compiled, compile_time, hit = _timed_compile(pipe, cfg)
        inputs = inputs_factory()
        whole_solve = getattr(
            TIERS.resolve(cfg.backend), "whole_solve", False
        )
        spec = (
            pipe.drive_spec()
            if whole_solve and hasattr(pipe, "drive_spec")
            else None
        )
        burst = max(1, getattr(cfg, "driver_hook_cycles", 1))
        best = float("inf")
        total = 0.0
        for _ in range(repeats):
            t0 = time.perf_counter()
            served = (
                compiled.drive(
                    inputs, max_cycles=burst, tol=0.0, spec=spec
                )
                if spec is not None
                else None
            )
            if served is None or served.cycles == 0:
                # driver unavailable: latch onto per-invocation timing
                # for the remaining repeats of this trial
                spec = None
                compiled.execute(inputs)
                cycles = 1
            else:
                cycles = served.cycles
            elapsed = (time.perf_counter() - t0) / cycles
            best = min(best, elapsed)
            total += elapsed * cycles
        return TrialMeasurement(
            score=best,
            compile_time=compile_time,
            execute_time=total,
            cache_hit=hit,
        )

    return _tune(
        pipe,
        base,
        score,
        trial_timeout,
        memo=memo,
        mode=f"measured:r{repeats}",
    )
