"""Calls into the layers, with spans, and the per-layer metrics.

The first half is what every workload runs, traced or not: a cold
pipeline build and a solve, each layer's public call under its own
span (free when the tracer is the null one).  The second half runs
only in a traced run, after the windows: explicit probes of single
layers on the workload's primary spec.  A layer a workload never
enters reads 0 there.

Run as a module (``python -m benchmarks.suite.layers SPEC THREADS``)
this file is the fresh-process half of the native-store probe.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .harness import (
    NullTracer,
    Tracer,
    durations_by_name,
    eprint,
    flat_rhs,
    self_times,
)
from .specs import Spec, tile_overrides

#: relative residual reduction every operation solves to
RTOL = 1e-3

NULL = NullTracer()


@dataclass
class Context:
    name: str
    seed: int
    seconds: float
    traced: bool
    workdir: Path
    threads: int
    tracer: object = NULL

    def store(self, tag: str) -> str:
        """Point the native artifact store at a fresh directory."""
        path = self.workdir / f"store-{tag}"
        path.mkdir(parents=True, exist_ok=True)
        os.environ["REPRO_NATIVE_CACHE_DIR"] = str(path)
        return str(path)


@dataclass
class OpLog:
    """What one measured window did."""

    latencies_ms: list[float] = field(default_factory=list)
    cycles: list[int] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    window_s: float = 0.0
    #: what the service workloads keep for their layer metrics
    extra: dict = field(default_factory=dict)

    def record(self, latency_s: float, cycles: int, failure: str | None):
        self.attempted += 1
        self.latencies_ms.append(latency_s * 1e3)
        self.cycles.append(cycles)
        if failure is not None:
            self.failures.append(failure)

    def fail(self, failure: str) -> None:
        """An operation that produced no result (error, refusal)."""
        self.attempted += 1
        self.failures.append(failure)

    @property
    def correct(self) -> int:
        return self.attempted - len(self.failures)

    def merge(self, other: "OpLog") -> None:
        """Pool another window of the same kind into this one."""
        self.latencies_ms += other.latencies_ms
        self.cycles += other.cycles
        self.failures += other.failures
        self.attempted += other.attempted
        self.window_s += other.window_s
        if other.extra:
            mine = self.extra.setdefault("health", {})
            for key, delta in other.extra["health"].items():
                mine[key] = mine.get(key, 0) + delta
            self.extra.setdefault("served", []).extend(other.extra["served"])


# ---------------------------------------------------------------------------
# the calls every workload makes
# ---------------------------------------------------------------------------

def problem(spec: Spec, rng) -> tuple[np.ndarray, float]:
    """A seeded right-hand side and the absolute tolerance that is
    ``RTOL`` times its initial residual."""
    from repro.multigrid.kernels import norm_residual

    f = flat_rhs(spec.ndim, spec.n, rng)
    norm0 = norm_residual(np.zeros_like(f), f, 1.0 / (spec.n + 1))
    return f, RTOL * norm0


def cold_pipeline(spec: Spec, threads: int, tracer, **config):
    """Build, compile and JIT one spec with nothing cached:
    ``build_poisson_cycle`` -> ``compile_pipeline(cache=False)`` ->
    ``ensure_ready``.  Returns ``(pipeline, compiled)``."""
    from repro.backend.registry import TIERS
    from repro.compiler import compile_pipeline
    from repro.multigrid.cycles import build_poisson_cycle
    from repro.variants import polymg_driver

    with tracer.span("lang.build"):
        pipe = build_poisson_cycle(spec.ndim, spec.n, spec.options())
    cfg = polymg_driver(num_threads=threads, **tile_overrides(), **config)
    with tracer.span("passes.compile") as rec:
        compiled = compile_pipeline(
            pipe.output, pipe.params, config=cfg, name=pipe.name, cache=False
        )
        if rec is not None:
            # compile_pipeline plans kernels as its last step; the
            # split is the program's own report of how long that took
            now = time.perf_counter()
            tracer.add(
                "kernels.plan", now - compiled.report.plan_time_s, now,
                parent=rec["id"], op=rec["op"],
            )
    with tracer.span("native.ensure_ready"):
        TIERS.resolve(cfg.backend).ensure_ready(compiled)
    return pipe, compiled


class _DriveSpans:
    """Stand-in handed to ``solve_compiled`` as ``compiled`` in a traced
    window: forwards to the real pipeline and wraps each driver burst
    (and each per-cycle fallback execute) in a span."""

    def __init__(self, compiled, tracer) -> None:
        self._compiled, self._tracer = compiled, tracer
        self.config = compiled.config

    def drive(self, inputs, **kwargs):
        with self._tracer.span("driver.drive"):
            return self._compiled.drive(inputs, **kwargs)

    def execute(self, inputs):
        with self._tracer.span("backend.execute"):
            return self._compiled.execute(inputs)


def timed_solve(pipe, compiled, f, tol, max_cycles, tracer):
    from repro.multigrid.cycles import solve_compiled

    target = _DriveSpans(compiled, tracer) if tracer.enabled else compiled
    with tracer.span("multigrid.solve"):
        return solve_compiled(
            pipe, f, compiled=target, cycles=max_cycles, tol=tol
        )


def ticket_spans(tracer, ticket, root) -> None:
    """Spans for what happened inside the service, from the stamps the
    ticket carries (program-reported; the service runs on the same
    ``perf_counter`` clock as the tracer)."""
    if root is None or isinstance(ticket, Exception):
        return
    stamps = (ticket.admitted_at, ticket.started_at, ticket.finished_at)
    if None in stamps:
        return
    for name, start, end in (
        ("service.queued", stamps[0], stamps[1]),
        ("service.executing", stamps[1], stamps[2]),
    ):
        tracer.add(name, start, end, parent=root["id"], op=root["op"])


# ---------------------------------------------------------------------------
# per-layer metrics (traced run only)
# ---------------------------------------------------------------------------

def _median_of(spans, name: str, *, own: bool = False) -> float:
    """Median duration (or self time) in seconds of the spans called
    ``name``; 0 when there are none."""
    if own:
        per_span = self_times(spans)
        values = [per_span[s["id"]] for s in spans if s["name"] == name]
    else:
        values = durations_by_name(spans).get(name, [])
    return statistics.median(values) if values else 0.0


def pipeline_span_metrics(spans) -> dict:
    """What the cold pipeline's layers cost, from its spans."""
    out = {}
    if any(s["name"] == "lang.build" for s in spans):
        out["lang.build_ms"] = _median_of(spans, "lang.build") * 1e3
        out["passes.compile_ms"] = (
            _median_of(spans, "passes.compile", own=True) * 1e3
        )
        out["kernels.plan_ms"] = _median_of(spans, "kernels.plan") * 1e3
    return out


def _timed_median(fn, budget_s: float = 0.4, min_reps: int = 3) -> float:
    """Median wall time of ``fn`` after one discarded call: at least
    ``min_reps`` calls, more while the budget lasts."""
    fn()
    times = []
    t_end = time.perf_counter() + budget_s
    while len(times) < min_reps or (
        time.perf_counter() < t_end and len(times) < 200
    ):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _store_hit_in_fresh_process(spec: Spec, threads: int) -> dict:
    """``ensure_native`` on the warm store in a process that has never
    loaded the artifact."""
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "benchmarks.suite.layers",
             json.dumps(asdict(spec)), str(threads)],
            capture_output=True, text=True, timeout=120,
        )
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (OSError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        eprint(f"native-store probe failed: {exc!r}")
        return {"ms": 0.0, "hits": 0}


def spec_layers(
    ctx: Context, spec: Spec, pipe, compiled, traced: OpLog, *,
    f, tol, max_cycles, pipeline_spans=None,
) -> dict:
    """Probe every layer below the service on ``spec``.  ``compiled``
    is its warm ``polymg-driver`` pipeline, built cold into the current
    (otherwise empty) native store; ``pipeline_spans`` are the spans of
    that build (default: the run's own, i.e. the set-up's)."""
    from repro.backend.codegen_c import generate_native_c
    from repro.backend.native import (
        DEFAULT_CFLAGS,
        compiler_ident,
        discover_compiler,
        native_artifact_key,
    )
    from repro.backend.registry import TIERS
    from repro.cache import native_artifact_store
    from repro.model import PipelineCostModel
    from repro.variants import polymg_native, polymg_opt_plus

    from .probes import host_machine, host_probes

    threads = ctx.threads
    spans = ctx.tracer.spans if pipeline_spans is None else pipeline_spans
    m = pipeline_span_metrics(spans)
    miss_s = _median_of(spans, "native.ensure_ready")
    detail: dict = {"primary_spec": spec.label(), "kernel_threads": threads}

    # -- lang / passes: counts and the program-reported per-pass split --
    report = compiled.report
    m["lang.stages"] = len(compiled.dag.stages)
    m["passes.groups"] = len(compiled.grouping.groups)
    m["passes.grouping_ms"] = report.pass_time("grouping") * 1e3
    m["passes.storage_ms"] = report.pass_time("storage") * 1e3

    # -- native: emission, the artifact, store miss against store hit ---
    t0 = time.perf_counter()
    source = generate_native_c(compiled)
    codegen_s = time.perf_counter() - t0
    m["native.codegen_ms"] = codegen_s * 1e3
    m["native.c_bytes"] = len(source.encode())
    cc = discover_compiler()
    cfg = compiled.config
    if cc is not None:
        key = native_artifact_key(
            source, tuple(cfg.native_cflags or DEFAULT_CFLAGS),
            compiler_ident(cc),
        )
        artifact = native_artifact_store().get(key)
        m["native.so_bytes"] = artifact.stat().st_size if artifact else 0
    warm = pipe.compile(cfg)  # compile-cache miss; its JIT is a store hit
    t0 = time.perf_counter()
    TIERS.resolve(cfg.backend).ensure_ready(warm)
    hit_s = time.perf_counter() - t0
    m["native.load_ms"] = max(0.0, hit_s - codegen_s) * 1e3
    m["native.cc_ms"] = max(0.0, miss_s - hit_s) * 1e3

    # -- cache: a seen spec again, here and in a fresh process ----------
    t0 = time.perf_counter()
    clone = pipe.compile(cfg)
    m["cache.compile_hit_ms"] = (time.perf_counter() - t0) * 1e3
    clone.close()
    warm.close()
    fresh = _store_hit_in_fresh_process(spec, threads)
    m["cache.native_store_hit_ms"] = fresh["ms"]
    m["cache.native_store_hits"] = fresh["hits"]

    # -- driver: bursts of 8 and of 1 ------------------------------------
    inputs = pipe.make_inputs(np.zeros_like(f), f)
    drive_spec = pipe.drive_spec()

    def burst(target, cycles):
        return lambda: target.drive(
            inputs, max_cycles=cycles, tol=0.0, spec=drive_spec
        )

    cycle_s = 0.0
    if burst(compiled, 1)() is not None:
        t8 = _timed_median(burst(compiled, 8))
        t1 = _timed_median(burst(compiled, 1))
        cycle_s = t8 / 8
        detail["drive_1_s"] = t1
        m["driver.cycle_ms"] = cycle_s * 1e3
        m["driver.call_overhead_us"] = (t1 - cycle_s) * 1e6
        # the plain baseline: the same problem on one thread
        t8_single = t8
        if threads > 1:
            _, single = cold_pipeline(spec, 1, NULL)
            t8_single = _timed_median(burst(single, 8))
            single.close()
        m["driver.cycle_1t_ms"] = t8_single / 8 * 1e3
        m["driver.parallel_eff"] = t8_single / (threads * t8)

    # -- the tiers below the driver --------------------------------------
    tiles = tile_overrides()
    native = pipe.compile(polymg_native(num_threads=threads, **tiles))
    TIERS.resolve(native.config.backend).ensure_ready(native)
    m["native.cycle_ms"] = _timed_median(lambda: native.execute(inputs)) * 1e3
    native.close()
    planned = pipe.compile(polymg_opt_plus(num_threads=threads, **tiles))
    m["planned.cycle_ms"] = (
        _timed_median(lambda: planned.execute(inputs), 0.3, 2) * 1e3
    )
    batched = TIERS.resolve("batched")
    per_rhs = {}
    for width in (1, 4, 16):
        if width > 1 and width * spec.n**spec.ndim > 1 << 22:
            break  # a 16-wide stack of 1024**2 grids is not a probe
        t = _timed_median(
            lambda: batched.execute_batch(planned, [inputs] * width), 0.3, 2
        )
        per_rhs[width] = t / width * 1e3
    planned.close()
    detail["batched_cycle_ms_per_rhs"] = per_rhs
    m["batched.cycle_ms_per_rhs"] = per_rhs[max(per_rhs)]

    # -- kernel against the host's roofline; the cost model's error ------
    probe = host_probes(ctx.workdir, threads)
    machine = host_machine(probe)
    model = PipelineCostModel(compiled, machine)
    costs = model.group_costs(threads)
    flops = sum(c.flops for c in costs)
    moved = sum(c.traffic_bytes for c in costs)
    detail["host_probe"] = probe
    detail["model_machine"] = machine.name
    m["kernel.flops_per_cycle"] = flops
    m["kernel.bytes_per_cycle"] = moved
    m["host.triad_gbytes_s"] = probe["triad_gbytes_s"]
    m["host.barrier_us"] = probe["barrier_us"]
    if cycle_s:
        m["kernel.gbytes_s"] = moved / cycle_s / 1e9
        if probe["triad_gbytes_s"]:
            m["kernel.bw_fraction"] = (
                m["kernel.gbytes_s"] / probe["triad_gbytes_s"]
            )
        m["model.pred_over_meas"] = model.cycle_time(threads) / cycle_s

    # -- multigrid: the loop around the bursts ---------------------------
    tracer = Tracer()
    timed_solve(pipe, compiled, f, tol, max_cycles, tracer)
    m["multigrid.loop_overhead_ms"] = (
        _median_of(tracer.spans, "multigrid.solve", own=True) * 1e3
    )
    m["multigrid.cycles_to_tol"] = (
        statistics.median(traced.cycles) if traced.cycles else 0
    )
    by_name = durations_by_name(ctx.tracer.spans)
    if "driver.drive" in by_name:
        m["kernel.time_share"] = sum(by_name["driver.drive"]) / sum(
            by_name["op"]
        )
    detail["direct_drive_s"] = sum(
        durations_by_name(tracer.spans).get("driver.drive", ())
    )
    m["_detail"] = detail
    return m


def service_layers(workload, traced: OpLog) -> dict:
    """The service workloads' layers: everything below the service on
    the primary spec, then supervisor, sandbox and service on top."""
    from repro.multigrid.cycles import solve_compiled
    from repro.resilience import SolveSupervisor, SupervisorPolicy

    ctx, spec = workload.ctx, workload.primary
    max_cycles = workload.max_cycles
    f, tol = workload.problems[spec][0]
    ctx.store("layers")
    build = Tracer()
    pipe, compiled = cold_pipeline(spec, ctx.threads, build)
    m = spec_layers(
        ctx, spec, pipe, compiled, traced, f=f, tol=tol,
        max_cycles=max_cycles, pipeline_spans=build.spans,
    )
    detail = m["_detail"]

    # -- the same solve, one layer at a time -----------------------------
    direct_s = _timed_median(
        lambda: solve_compiled(
            pipe, f, compiled=compiled, cycles=max_cycles, tol=tol
        )
    )

    def supervised_s(isolation: str) -> float:
        supervisor = SolveSupervisor(
            pipe, SupervisorPolicy(max_cycles=max_cycles, tol=tol),
            config_overrides={**tile_overrides(), "native_isolation": isolation},
        )
        supervisor.solve(f)  # compiles its rung; the JIT is a store hit
        return _timed_median(lambda: supervisor.solve(f))

    in_process_s = supervised_s("none")
    sandboxed_s = supervised_s("sandbox")
    m["resilience.overhead_ms"] = (in_process_s - direct_s) * 1e3
    m["sandbox.solve_overhead_ms"] = (sandboxed_s - in_process_s) * 1e3
    _, boxed = cold_pipeline(spec, ctx.threads, NULL, native_isolation="sandbox")
    inputs = pipe.make_inputs(np.zeros_like(f), f)
    crossing_s = _timed_median(
        lambda: boxed.drive(
            inputs, max_cycles=1, tol=0.0, spec=pipe.drive_spec()
        )
    )
    boxed.close()
    compiled.close()
    m["sandbox.crossing_us"] = (crossing_s - detail.get("drive_1_s", 0.0)) * 1e6
    detail["direct_solve_ms"] = direct_s * 1e3

    # -- the service itself, from the traced window ----------------------
    spans = ctx.tracer.spans
    served = traced.extra["served"]
    primary_ms = [
        lat * 1e3 for s, ticket, lat in served
        if s == spec and not isinstance(ticket, Exception)
    ]
    detail["primary_p50_ms"] = statistics.median(primary_ms)
    # the service runs the kernel out of sight: the primary spec's
    # direct driver time stands in for it
    m["kernel.time_share"] = (
        detail["direct_drive_s"] * 1e3 / detail["primary_p50_ms"]
    )
    m["service.overhead_ms"] = detail["primary_p50_ms"] - sandboxed_s * 1e3
    m["service.submit_us"] = _median_of(spans, "service.submit") * 1e6
    m["service.queue_wait_ms"] = _median_of(spans, "service.queued") * 1e3
    m["service.refused"] = sum(
        1 for _, ticket, _ in served if isinstance(ticket, Exception)
    )
    health = traced.extra["health"]  # counter deltas over the traced windows
    m["service.coalesced_share"] = health["coalesced"] / max(
        1, health["completed"]
    )
    executed = {k: v for k, v in health.items() if k.startswith("tier:")}
    total = max(1, sum(executed.values()))
    m["service.rung_share.driver"] = executed.get("tier:native-driver", 0) / total
    m["service.rung_share.planned"] = executed.get("tier:planned", 0) / total
    m["sandbox.jobs"] = health["sandbox_jobs"]
    m["sandbox.respawns"] = health["sandbox_respawns"]
    m["resilience.demotions"] = sum(
        1 for rec in workload.service.log.records if rec.kind == "demote"
    )
    return m


if __name__ == "__main__":
    _spec = json.loads(sys.argv[1])
    _spec["smoothing"] = tuple(_spec["smoothing"])
    _, _compiled = cold_pipeline(Spec(**_spec), int(sys.argv[2]), NULL)
    _stats = _compiled.stats.tier("native")
    # program-reported: what this process paid to get the runner
    # (emission + store lookup + load), and whether the store served it
    print(json.dumps(
        {"ms": _stats.compile_time_s * 1e3, "hits": _stats.cache_hits}
    ))
