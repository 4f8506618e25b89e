"""Analytic cost model over compiled schedules.

Evaluates a :class:`~repro.backend.executor.CompiledPipeline` — compiled
at *paper scale* (compilation never materializes arrays) — against a
:class:`~repro.model.machine.MachineSpec` with a roofline-plus-overheads
model:

for every group, time = max(compute, memory) + synchronization, where

* **compute** counts the flops of each stage's definition over its exact
  per-tile region volumes (overlapped-tile redundancy included, from the
  same geometry the executor uses),
* **memory** counts DRAM traffic: live-in footprints (halo redundancy
  included), live-out writes with write-allocate, and scratchpad spill
  beyond the per-core L2 (which the intra-group reuse pass shrinks),
  through a bandwidth degraded by total resident footprint (which the
  inter-group reuse pass shrinks) and boosted for L3-resident working
  sets,
* **synchronization** charges one parallel region + barrier per group
  (per stage when unfused), and the two-barriers-per-slab cost of
  diamond-tiled smoother chains,
* **allocation** charges malloc + first-touch page faults for fresh
  full-array allocations and a table update for pooled hits, using the
  storage plan's actual allocation counts.

The absolute times are a model; the *relativities* that the paper's
figures are built from (fusion removes intermediate traffic, storage
reuse removes spill and allocation, diamond vs overlapped crossover with
smoothing depth and dimensionality) all derive from real schedule
artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..ir.domain import Box
from ..lang.expr import count_flops
from ..pluto.diamond import diamond_stats, diamond_width_for
from .machine import MachineSpec

if TYPE_CHECKING:  # pragma: no cover
    from ..backend.executor import CompiledPipeline
    from ..lang.function import Function
    from ..passes.groups import Group

__all__ = [
    "CostBreakdown",
    "diamond_groups",
    "GroupCost",
    "PipelineCostModel",
    "NATIVE_DISPATCH_OVERHEAD_S",
]

#: Per-invocation overhead of crossing the Python → shared-object
#: boundary on the native tiers: ctypes marshalling of the buffer
#: descriptors, the module lock, output allocation, and the Python-side
#: residual-norm bookkeeping between cycles.  Measured at a few tens of
#: microseconds on commodity hardware; the exact value matters less
#: than its *presence* — it is what makes the roofline predictor rank
#: the whole-solve driver (one crossing per ``driver_hook_cycles``
#: burst) above per-cycle native dispatch on small grids, where a cycle
#: itself costs comparably little.
NATIVE_DISPATCH_OVERHEAD_S = 5e-5


@dataclass
class CostBreakdown:
    compute_s: float = 0.0
    memory_s: float = 0.0
    sync_s: float = 0.0
    alloc_s: float = 0.0
    copy_s: float = 0.0

    def total(self) -> float:
        return (
            self.compute_s
            + self.memory_s
            + self.sync_s
            + self.alloc_s
            + self.copy_s
        )

    def add(self, other: "CostBreakdown") -> None:
        self.compute_s += other.compute_s
        self.memory_s += other.memory_s
        self.sync_s += other.sync_s
        self.alloc_s += other.alloc_s
        self.copy_s += other.copy_s


@dataclass
class GroupCost:
    name: str
    style: str  # "straight" | "tiled" | "diamond"
    flops: float
    traffic_bytes: float
    time_s: float
    sync_s: float


def diamond_groups(compiled: "CompiledPipeline") -> set[int]:
    """Indices of the groups ``polymg-dtile-opt+`` diamond-tiles: under
    ``diamond_smoothing`` every group that is a chain of two or more
    steps of one ``TStencil`` (the grouping pass isolates them).  The
    executors run these groups like any other; only the model prices
    them as diamond-tiled."""
    if not compiled.config.diamond_smoothing:
        return set()
    out = set()
    for gi, group in enumerate(compiled.grouping.groups):
        stages = group.stages
        t0 = getattr(stages[0], "tstencil", None)
        if len(stages) >= 2 and t0 is not None and all(
            getattr(s, "tstencil", None) is t0 for s in stages
        ):
            out.add(gi)
    return out


def _stage_flops_per_point(stage: "Function") -> float:
    exprs = stage.defn_exprs()
    if not exprs:
        return 0.0
    from ..lang.sampling import Interp

    if isinstance(stage, Interp):
        return sum(count_flops(e) for e in exprs) / len(exprs)
    return float(max(count_flops(e) for e in exprs))


class PipelineCostModel:
    """Cost evaluation of one compiled pipeline on one machine."""

    def __init__(
        self, compiled: "CompiledPipeline", machine: MachineSpec
    ) -> None:
        self.compiled = compiled
        self.machine = machine
        self.bindings = compiled.bindings
        self._fpp: dict["Function", float] = {}

    # ------------------------------------------------------------------
    def flops_per_point(self, stage: "Function") -> float:
        if stage not in self._fpp:
            self._fpp[stage] = _stage_flops_per_point(stage)
        return self._fpp[stage]

    def resident_bytes(self) -> int:
        storage = self.compiled.storage
        inputs = sum(
            g.domain_box(self.bindings).volume() * g.dtype.size_bytes
            for g in self.compiled.dag.inputs
        )
        return storage.full_array_bytes_with_reuse + inputs

    # ------------------------------------------------------------------
    # per-group costs
    # ------------------------------------------------------------------
    def _rep_tile(self, group: "Group") -> Box:
        dom = group.anchor.domain_box(self.bindings)
        shape = self.compiled.config.tile_shape(group.anchor.ndim)
        return Box.from_bounds(
            [
                (iv.lb, min(iv.ub, iv.lb + t - 1))
                for iv, t in zip(dom.intervals, shape)
            ]
        )

    def _tile_count(self, group: "Group") -> int:
        dom = group.anchor.domain_box(self.bindings)
        shape = self.compiled.config.tile_shape(group.anchor.ndim)
        n = 1
        for iv, t in zip(dom.intervals, shape):
            n *= -(-iv.size() // t)
        return n

    def _group_working_set(self, group: "Group") -> int:
        """Bytes of full arrays the group streams (live-ins from outside
        the group plus its live-outs)."""
        dag = self.compiled.dag
        seen: set[int] = set()
        total = 0
        for stage in group.stages:
            for producer in dag.producers_of(stage):
                if producer in group or producer.uid in seen:
                    continue
                seen.add(producer.uid)
                total += (
                    producer.domain_box(self.bindings).volume()
                    * producer.dtype.size_bytes
                )
        for out in group.live_outs():
            total += (
                out.domain_box(self.bindings).volume()
                * out.dtype.size_bytes
            )
        return total

    def _cost_straight(self, group: "Group", threads: int) -> GroupCost:
        m = self.machine
        dag = self.compiled.dag
        flops = 0.0
        traffic = 0.0
        sync = 0.0
        for stage in group.stages:
            dom = stage.domain_box(self.bindings)
            vol = dom.volume()
            flops += vol * self.flops_per_point(stage)
            for producer, acc in dag.accesses_of(stage).items():
                fp = acc.footprint(dom).intersect(
                    producer.domain_box(self.bindings)
                )
                traffic += fp.volume() * producer.dtype.size_bytes
            traffic += 2 * vol * stage.dtype.size_bytes  # write-allocate
            sync += m.parallel_region_s + m.barrier_s(threads)
        bw = (
            m.effective_bw(
                threads,
                self._group_working_set(group),
                self.resident_bytes(),
            )
            * m.straight_stream_efficiency
        )
        time = max(flops / m.peak_flops(threads), traffic / bw) + sync
        return GroupCost(
            group.anchor.name, "straight", flops, traffic, time, sync
        )

    def _cost_tiled(self, group: "Group", threads: int) -> GroupCost:
        m = self.machine
        dag = self.compiled.dag
        tile = self._rep_tile(group)
        n_tiles = self._tile_count(group)
        regions = group.tile_regions(tile)
        live = set(group.live_outs())

        flops = 0.0
        traffic = 0.0
        scratch_by_buffer: dict[int, int] = {}
        gi = self.compiled.grouping.groups.index(group)
        splan = self.compiled.storage.group_scratch(gi)

        # live-in reads from outside the group: one streamed footprint
        # per producer per tile (the tile's halo region stays cached
        # across all fused stages that read it), with the overlap-zone
        # redundancy across tiles included
        live_in_fp: dict["Function", Box] = {}
        for stage in group.stages:
            region = regions.get(stage)
            if region is None or region.is_empty():
                continue
            r_vol = region.volume()
            flops += r_vol * self.flops_per_point(stage) * n_tiles
            for producer, acc in dag.accesses_of(stage).items():
                if producer in group:
                    continue
                fp = acc.footprint(region).intersect(
                    producer.domain_box(self.bindings)
                )
                if producer in live_in_fp:
                    fp = fp.union_hull(live_in_fp[producer])
                live_in_fp[producer] = fp
            if stage in live:
                traffic += 2 * r_vol * stage.dtype.size_bytes * n_tiles
            else:
                bid = splan.buffer_of.get(stage)
                if bid is not None:
                    bytes_ = r_vol * stage.dtype.size_bytes
                    scratch_by_buffer[bid] = max(
                        scratch_by_buffer.get(bid, 0), bytes_
                    )

        for producer, fp in live_in_fp.items():
            traffic += fp.volume() * producer.dtype.size_bytes * n_tiles

        # Rolling-window spill: a fused stencil chain streams through
        # the tile along the outermost dimension, so the cache-resident
        # working set is ~3 planes per scratch buffer, not the whole
        # tile.  When that window exceeds L2 the overflow fraction of
        # all scratch traffic bounces through the socket L3 — this is
        # what makes deep fused chains (large halos -> large planes)
        # stop paying off, the depth crossover of Figure 11a.
        scratch_tile = sum(scratch_by_buffer.values())
        window = 0
        for stage in group.internal_stages():
            region = regions.get(stage)
            if region is None or region.is_empty():
                continue
            plane = stage.dtype.size_bytes
            for iv in region.intervals[1:]:
                plane *= iv.size()
            window += 3 * plane
        frac = max(0.0, 1.0 - m.l2_per_core / window) if window else 0.0
        spill_traffic = 2 * scratch_tile * frac * n_tiles

        eff_threads = max(1, min(threads, n_tiles))
        inner_row = tile.intervals[-1].size()
        bw = (
            m.effective_bw(
                eff_threads,
                self._group_working_set(group),
                self.resident_bytes(),
            )
            * m.tiled_stream_efficiency
            * m.row_efficiency(inner_row)
        )
        sync = m.parallel_region_s + m.barrier_s(threads)
        mem_s = traffic / bw + spill_traffic / (bw * m.l3_bw_factor)
        time = max(flops / m.peak_flops(eff_threads), mem_s) + sync
        return GroupCost(
            group.anchor.name,
            "tiled",
            flops,
            traffic + spill_traffic,
            time,
            sync,
        )

    def _cost_diamond(self, group: "Group", threads: int) -> GroupCost:
        m = self.machine
        first = group.stages[0]
        dom = first.domain_box(self.bindings)
        timesteps = group.size
        vol = dom.volume()
        width = diamond_width_for(dom.intervals[0].size(), timesteps)
        # diamond tiles must fit in cache like overlapped tiles do: two
        # time-parity buffers of (width x inner-tile) elements within L2
        # bound the usable width, and slab height is width/2 — deep
        # smoothing chains therefore need multiple slabs (and passes
        # over the grid) in 3-D, which is where overlapped tiling's
        # redundant compute trades against diamond's extra passes
        inner_shape = self.compiled.config.tile_shape(first.ndim)
        inner_elems = 1
        for t in inner_shape[1:]:
            inner_elems *= t
        itemsize0 = first.dtype.size_bytes
        max_width = max(
            4, m.l2_per_core // max(1, 2 * inner_elems * itemsize0)
        )
        width = min(width, max_width)
        stats = diamond_stats(timesteps, dom.intervals[0], width)

        flops = timesteps * vol * self.flops_per_point(first)
        slabs = max(1, stats.slabs)
        itemsize = first.dtype.size_bytes
        # per slab: stream u in, f in, u out (+ write allocate)
        traffic = slabs * vol * itemsize * 4.0
        # per-step halo traffic at tile faces: diamond tiles are sized to
        # fit cache (width along the diamond dim, the configured tile
        # sizes along the inner dims); every time step re-reads one halo
        # layer per face, so the surface-to-volume ratio — which grows
        # with dimensionality — erodes diamond's traffic advantage
        # (this is the 2-D-vs-3-D asymmetry of Figure 11a)
        inner = self.compiled.config.tile_shape(first.ndim)
        halo_frac = 2.0 / width + sum(2.0 / t for t in inner[1:])
        traffic += timesteps * vol * itemsize * halo_frac

        copy_traffic = 0.0
        if self.compiled.config.dtile_conservative_copies:
            copy_traffic = 4.0 * vol * itemsize  # in-copy + out-copy

        eff_threads = max(1, min(threads, stats.max_concurrency))
        bw = (
            m.effective_bw(
                eff_threads,
                self._group_working_set(group),
                self.resident_bytes(),
            )
            * m.diamond_stream_efficiency(first.ndim)
        )
        sync = stats.barriers * (
            m.parallel_region_s + m.barrier_s(threads)
        )
        time = (
            max(flops / m.peak_flops(eff_threads), traffic / bw)
            + copy_traffic / m.dram_bw(threads)
            + sync
        )
        cost = GroupCost(
            group.anchor.name,
            "diamond",
            flops,
            traffic + copy_traffic,
            time,
            sync,
        )
        return cost

    # ------------------------------------------------------------------
    # pipeline-level costs
    # ------------------------------------------------------------------
    def group_costs(self, threads: int) -> list[GroupCost]:
        out = []
        cfg = self.compiled.config
        diamond = diamond_groups(self.compiled)
        for gi, group in enumerate(self.compiled.grouping.groups):
            if gi in diamond:
                out.append(self._cost_diamond(group, threads))
            elif cfg.tile and group.size > 1:
                out.append(self._cost_tiled(group, threads))
            else:
                out.append(self._cost_straight(group, threads))
        return out

    def alloc_cost(self, threads: int, steady: bool) -> float:
        """Per-cycle allocation cost; ``steady`` = pool warm."""
        m = self.machine
        storage = self.compiled.storage
        cfg = self.compiled.config
        total = 0.0
        page_bw = m.page_touch_bw(threads)
        for aid, shape in storage.array_shapes.items():
            nbytes = 1
            for s in shape:
                nbytes *= s
            from ..lang.types import dtype_of

            nbytes *= dtype_of(storage.array_dtypes[aid]).size_bytes
            # Figure 8 allocates the live-out (the pipeline output W)
            # from the pool too; only *reuse* excludes inputs/outputs
            fresh = m.alloc_base_s + nbytes / page_bw
            if cfg.pooled_allocation:
                total += m.pool_hit_s if steady else fresh
            else:
                total += fresh
        return total

    def cycle_breakdown(
        self, threads: int, steady: bool = True
    ) -> CostBreakdown:
        m = self.machine
        bd = CostBreakdown()
        for cost in self.group_costs(threads):
            mem_flop = cost.time_s - cost.sync_s
            # attribute roofline time to its binding resource
            if cost.flops / m.peak_flops(threads) >= cost.traffic_bytes / max(
                m.dram_bw(threads), 1.0
            ):
                bd.compute_s += mem_flop
            else:
                bd.memory_s += mem_flop
            bd.sync_s += cost.sync_s
        bd.alloc_s += self.alloc_cost(threads, steady)
        return bd

    def cycle_time(self, threads: int, steady: bool = True) -> float:
        return self.cycle_breakdown(threads, steady).total()

    def run_time(self, threads: int, cycles: int) -> float:
        """Time for ``cycles`` pipeline invocations (first cycle pays
        cold allocation)."""
        if cycles <= 0:
            return 0.0
        first = self.cycle_time(threads, steady=False)
        if cycles == 1:
            return first
        return first + (cycles - 1) * self.cycle_time(threads, steady=True)
