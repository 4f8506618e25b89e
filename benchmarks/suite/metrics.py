"""Names, units and directions of every metric the suite reports.

``BENCHMARK.json`` repeats the bounded end-to-end metrics and the
per-layer list; ``tests/test_harness.py`` holds the two together.
"""

from __future__ import annotations

#: name -> (unit, better, regression bound or None).  ``solve_p90_ms``
#: and ``failed_share`` carry no bound and are not in BENCHMARK.json's
#: ``end_to_end``: the first is withheld below 100 samples (two of the
#: four workloads), the second is 0 at seed and the contract's
#: ``failed``/``attempted``/``correct`` already gate on any increase.
#: Both are printed with the others and reported by the traced run as
#: ``e2e.solve_p90_ms`` / ``e2e.failed_share``.
END_TO_END: dict[str, tuple[str, str, float | None]] = {
    "setup_s": ("s", "lower", 0.25),
    "solve_p50_ms": ("ms", "lower", 0.20),
    "solve_p90_ms": ("ms", "lower", None),
    "solves_per_s": ("1/s", "higher", 0.20),
    "failed_share": ("ratio", "lower", None),
    "peak_rss_mb": ("MB", "lower", 0.10),
}

BOUNDED = {k: v for k, v in END_TO_END.items() if v[2] is not None}

#: name -> (unit, better).  Every traced run reports all of them; a
#: layer the workload never enters reads 0.
PER_LAYER: dict[str, tuple[str, str]] = {
    "lang.build_ms": ("ms", "lower"),
    "lang.stages": ("count", "lower"),
    "passes.compile_ms": ("ms", "lower"),
    "passes.grouping_ms": ("ms", "lower"),
    "passes.storage_ms": ("ms", "lower"),
    "passes.groups": ("count", "lower"),
    "kernels.plan_ms": ("ms", "lower"),
    "native.codegen_ms": ("ms", "lower"),
    "native.c_bytes": ("B", "lower"),
    "native.cc_ms": ("ms", "lower"),
    "native.so_bytes": ("B", "lower"),
    "native.load_ms": ("ms", "lower"),
    "cache.compile_hit_ms": ("ms", "lower"),
    "cache.native_store_hit_ms": ("ms", "lower"),
    "cache.native_store_hits": ("count", "higher"),
    "driver.cycle_ms": ("ms", "lower"),
    "driver.cycle_1t_ms": ("ms", "lower"),
    "driver.call_overhead_us": ("us", "lower"),
    "driver.parallel_eff": ("ratio", "higher"),
    "native.cycle_ms": ("ms", "lower"),
    "planned.cycle_ms": ("ms", "lower"),
    "batched.cycle_ms_per_rhs": ("ms", "lower"),
    "kernel.flops_per_cycle": ("flop", "lower"),
    "kernel.bytes_per_cycle": ("B", "lower"),
    "kernel.gbytes_s": ("GB/s", "higher"),
    "kernel.bw_fraction": ("ratio", "higher"),
    "kernel.time_share": ("ratio", "higher"),
    "host.triad_gbytes_s": ("GB/s", "higher"),
    "host.barrier_us": ("us", "lower"),
    "model.pred_over_meas": ("ratio", "higher"),
    "multigrid.cycles_to_tol": ("count", "lower"),
    "multigrid.loop_overhead_ms": ("ms", "lower"),
    "resilience.overhead_ms": ("ms", "lower"),
    "resilience.demotions": ("count", "lower"),
    "sandbox.crossing_us": ("us", "lower"),
    "sandbox.solve_overhead_ms": ("ms", "lower"),
    "sandbox.jobs": ("count", "lower"),
    "sandbox.respawns": ("count", "lower"),
    "service.submit_us": ("us", "lower"),
    "service.queue_wait_ms": ("ms", "lower"),
    "service.overhead_ms": ("ms", "lower"),
    "service.coalesced_share": ("ratio", "higher"),
    "service.rung_share.driver": ("ratio", "higher"),
    "service.rung_share.planned": ("ratio", "lower"),
    "service.refused": ("count", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
    "trace.unaccounted_share": ("ratio", "lower"),
    "e2e.solve_p90_ms": ("ms", "lower"),
    "e2e.failed_share": ("ratio", "lower"),
}

#: tracing may cost this share of ``solve_p50_ms`` before the traced
#: numbers are flagged
TRACE_OVERHEAD_LIMIT = 0.05
