"""The four workloads.

An *operation* is always one solve to the relative residual reduction
``RTOL`` as its caller sees it.  Each workload object sets itself up,
runs measured windows (one untraced; in a traced run short ones,
alternately untraced and traced, whose difference is the tracing
overhead), gates every result on correctness, and — traced only —
reports what its layers did.  All spans are recorded here, around calls into the
layers' public functions; nothing inside ``src/`` is instrumented.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from pathlib import Path

import numpy as np

from . import layers
from .harness import Tracer, check_solution, latency_summary
from .layers import NULL, RTOL, Context, OpLog, cold_pipeline, timed_solve
from .layers import problem as _problem
from .specs import (
    BURST_SPEC,
    COLD_SPECS,
    COLD_WARMUP_SPEC,
    KERNEL_SPEC,
    SERVICE_POOL,
    Spec,
    cold_order,
    tile_overrides,
)


def _native_failure(compiled) -> str | None:
    """The workloads measure the generated kernel; a pipeline whose JIT
    build failed would silently measure numpy instead."""
    if compiled.ensure_native() is None:
        return "native build unavailable (no toolchain or compile failed)"
    return None


class Workload:
    """Common shape: ``setup`` -> ``window``\\* -> ``layers`` -> ``close``."""

    #: cycle budget of one operation
    max_cycles = 200
    #: number of operations a crashed run is charged with
    planned_ops = 1
    #: a traced pass splits its time into this many windows,
    #: alternately untraced and traced
    trace_windows = 4

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx

    @staticmethod
    def kernel_threads() -> int:
        """OpenMP team size of the generated kernels."""
        return min(os.cpu_count() or 1, 4)

    def setup(self) -> None:
        raise NotImplementedError

    def window(self, tracer, seconds: float) -> OpLog:
        raise NotImplementedError

    def layers(self, traced: OpLog) -> dict:
        raise NotImplementedError

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# kernel-2d-1024
# ---------------------------------------------------------------------------

class Kernel2D1024(Workload):
    """Warm ``solve_compiled`` on the whole-solve driver, 2-D N=1024."""

    spec = KERNEL_SPEC
    planned_ops = 20
    warmups = 2

    def setup(self) -> None:
        ctx = self.ctx
        ctx.store("run")
        rng = np.random.default_rng([ctx.seed, 1024])
        self.f, self.tol = _problem(self.spec, rng)
        with ctx.tracer.span("setup", op="setup"):
            self.pipe, self.compiled = cold_pipeline(
                self.spec, ctx.threads, ctx.tracer
            )
            self.broken = _native_failure(self.compiled)
            for _ in range(self.warmups):
                timed_solve(
                    self.pipe, self.compiled, self.f, self.tol,
                    self.max_cycles, NULL,
                )

    def window(self, tracer, seconds: float) -> OpLog:
        log = OpLog()
        while log.window_s < seconds:
            with tracer.span("op", op=f"solve-{log.attempted}"):
                t0 = time.perf_counter()
                result = timed_solve(
                    self.pipe, self.compiled, self.f, self.tol,
                    self.max_cycles, tracer,
                )
                dt = time.perf_counter() - t0
            log.window_s += dt
            failure = self.broken or check_solution(
                self.spec, self.f, result.u, result.cycles, RTOL,
                self.max_cycles,
            )
            log.record(dt, result.cycles, failure)
        return log

    def layers(self, traced: OpLog) -> dict:
        return layers.spec_layers(
            self.ctx, self.spec, self.pipe, self.compiled, traced,
            f=self.f, tol=self.tol, max_cycles=self.max_cycles,
        )

    def close(self) -> None:
        self.compiled.close()


# ---------------------------------------------------------------------------
# cold-specs
# ---------------------------------------------------------------------------

class ColdSpecs(Workload):
    """Every operation builds, compiles, JITs and solves a spec nobody
    has seen: the traffic of ``autotune``/``evolve``."""

    max_cycles = 1000
    planned_ops = len(COLD_SPECS)
    #: a window is at least a lap: one untraced, one traced
    trace_windows = 2
    #: the spec whose explicit layer probes the traced run reports
    primary = COLD_SPECS[2]

    def setup(self) -> None:
        ctx = self.ctx
        self.lap = 0
        self.rng = np.random.default_rng([ctx.seed, 0xC01D])
        ctx.store("warmup")
        with ctx.tracer.span("setup", op="setup"):
            self._operation(COLD_WARMUP_SPEC, NULL, OpLog(), "warmup")

    def _operation(self, spec: Spec, tracer, log: OpLog, op: str) -> float:
        f, tol = _problem(spec, self.rng)
        with tracer.span("op", op=op):
            t0 = time.perf_counter()
            pipe, compiled = cold_pipeline(spec, self.ctx.threads, tracer)
            result = timed_solve(
                pipe, compiled, f, tol, self.max_cycles, tracer
            )
            dt = time.perf_counter() - t0
        failure = _native_failure(compiled) or check_solution(
            spec, f, result.u, result.cycles, RTOL, self.max_cycles
        )
        compiled.close()
        log.record(dt, result.cycles, failure)
        return dt

    def window(self, tracer, seconds: float) -> OpLog:
        """Whole laps over ``COLD_SPECS``, each lap on an empty native
        store.  Another lap starts only while at least half a lap's
        time is left, so a run never ends on a partial lap whose
        median would be taken over different specs."""
        log = OpLog()
        lap_s = 0.0
        while not log.attempted or seconds - log.window_s >= lap_s / 2:
            self.ctx.store(f"lap{self.lap}")
            lap_s = 0.0
            for i, spec in enumerate(cold_order(self.ctx.seed, self.lap)):
                lap_s += self._operation(
                    spec, tracer, log, f"lap{self.lap}-{i}-{spec.label()}"
                )
            log.window_s += lap_s
            self.lap += 1
        return log

    def layers(self, traced: OpLog) -> dict:
        ctx = self.ctx
        ctx.store("layers")
        tracer = Tracer()
        pipe, compiled = cold_pipeline(self.primary, ctx.threads, tracer)
        f, tol = _problem(self.primary, self.rng)
        try:
            out = layers.spec_layers(
                ctx, self.primary, pipe, compiled, traced,
                f=f, tol=tol, max_cycles=self.max_cycles,
                pipeline_spans=tracer.spans,
            )
        finally:
            compiled.close()
        # what the operations themselves paid, over the whole traced
        # window, replaces the single-spec numbers where both exist
        out.update(layers.pipeline_span_metrics(ctx.tracer.spans))
        return out


# ---------------------------------------------------------------------------
# service workloads
# ---------------------------------------------------------------------------

class _ServiceWorkload(Workload):
    """``SolveService`` with its defaults (ladder, sandbox isolation,
    ``batch_max``, one kernel thread per solve); only the 3-D tile
    sizes are pinned."""

    #: right-hand sides pre-generated per spec, so the load generator —
    #: which shares the cores with the service — does no numpy work
    #: inside the window
    rhs_per_spec = 4
    primary: Spec

    @staticmethod
    def kernel_threads() -> int:
        """The service's own default: one thread per solve (it runs
        ``workers`` solves side by side instead)."""
        return 1

    def _start(self, specs) -> None:
        from repro.service import ServiceConfig, SolveService

        ctx = self.ctx
        self.store_dir = Path(ctx.store("run"))
        rng = np.random.default_rng([ctx.seed, 0x5E21])
        self.problems = {
            spec: [_problem(spec, rng) for _ in range(self.rhs_per_spec)]
            for spec in specs
        }
        self.service = SolveService(
            ServiceConfig(config_overrides=tile_overrides()),
            clock=time.perf_counter,
        )

    def _request(self, spec: Spec, k: int, tenant: str):
        from repro.service import SolveRequest

        f, tol = self.problems[spec][k % self.rhs_per_spec]
        return SolveRequest(
            tenant=tenant, ndim=spec.ndim, N=spec.n, f=f,
            opts=spec.options(), max_cycles=self.max_cycles, tol=tol,
        )

    def _submit(self, request, tracer):
        """``submit`` under a span; a refusal is a failed operation."""
        from repro.errors import AdmissionRejected

        try:
            with tracer.span("service.submit"):
                return self.service.submit(request)
        except AdmissionRejected as exc:
            return exc

    def _artifacts(self) -> int:
        return len(list(self.store_dir.glob("*.so")))

    @staticmethod
    def _builds_running() -> bool:
        """Whether a background JIT build is still in flight.  Requests
        are served from numpy tapes meanwhile, so nothing else shows
        that a ``cc`` is still taking a core away from the window."""
        return any(
            t.name == "polymg-native-build" for t in threading.enumerate()
        )

    def _warm(self, one_pass, passes: int, cap_s: float = 60.0) -> None:
        """Run ``one_pass`` at least ``passes`` times and until a whole
        pass adds no native artifact with no JIT build in flight, or
        the cap runs out."""
        t_end = time.perf_counter() + cap_s
        done = 0
        while True:
            before = self._artifacts()
            one_pass()
            done += 1
            if time.perf_counter() >= t_end or (
                done >= passes
                and self._artifacts() == before
                and not self._builds_running()
            ):
                return

    def _health_counts(self) -> dict:
        from repro.backend.sandbox import sandbox_state

        health = self.service.healthz()
        sandbox = sandbox_state()
        counts = {
            "completed": health["counters"]["completed"],
            "coalesced": health["counters"]["coalesced"],
            "sandbox_jobs": sandbox.get("jobs", 0),
            "sandbox_respawns": sandbox.get("respawns", 0),
        }
        for tier, state in health["tiers"].items():
            counts[f"tier:{tier}"] = state["executions"]
        return counts

    def _finish(self, log: OpLog, served, before: dict) -> OpLog:
        """Close a window: counter deltas, then the correctness gate."""
        after = self._health_counts()
        log.extra = {
            "served": served,
            "health": {k: after[k] - before.get(k, 0) for k in after},
        }
        self._gate(log, served)
        return log

    def _gate(self, log: OpLog, served) -> None:
        """Correctness of every served request, after the window.
        ``served`` holds ``(spec, ticket_or_refusal, latency_s)``; the
        reference comparison runs on the first request of each small
        spec (the remaining ones differ only in their data)."""
        referenced: set[Spec] = set()
        resolved = 0
        for spec, ticket, latency in served:
            if isinstance(ticket, Exception):
                log.fail(f"refused: {type(ticket).__name__}")
                continue
            try:
                result = ticket.result(timeout=0)
            except Exception as exc:  # typed service errors and timeouts
                log.fail(f"{type(exc).__name__}: {exc}")
                continue
            resolved += 1
            failure = check_solution(
                spec, ticket.request.f, result.u, result.cycles, RTOL,
                self.max_cycles, reference=spec not in referenced,
            )
            referenced.add(spec)
            log.record(latency, result.cycles, failure)
        refusals = sum(1 for _, t, _ in served if isinstance(t, Exception))
        if resolved + refusals != len(served):
            log.failures.append(
                f"accounting: resolved {resolved} + refused {refusals} "
                f"!= submitted {len(served)}"
            )

    def layers(self, traced: OpLog) -> dict:
        return layers.service_layers(self, traced)

    def close(self) -> None:
        from repro.backend.sandbox import reset_sandbox_pool

        self.service.drain(timeout=10.0)
        reset_sandbox_pool()


class ServiceMixed(_ServiceWorkload):
    """Two closed-loop clients over disjoint halves of a six-spec pool:
    admission, queue, supervisor, sandbox crossings; no coalescing."""

    primary = SERVICE_POOL[1]
    planned_ops = 100
    clients = 2

    def setup(self) -> None:
        with self.ctx.tracer.span("setup", op="setup"):
            self._start(SERVICE_POOL)

            def one_pass():
                for spec in SERVICE_POOL:
                    self.service.submit(
                        self._request(spec, 0, "warmup")
                    ).result(timeout=120)

            self._warm(one_pass, passes=1)

    def window(self, tracer, seconds: float) -> OpLog:
        half = len(SERVICE_POOL) // self.clients
        served: list[list] = [[] for _ in range(self.clients)]
        before = self._health_counts()
        t_start = time.perf_counter()
        t_stop = t_start + seconds

        def client(idx: int) -> None:
            mine = SERVICE_POOL[idx * half:(idx + 1) * half]
            k = 0
            while time.perf_counter() < t_stop:
                spec = mine[k % len(mine)]
                request = self._request(spec, k // len(mine), f"client{idx}")
                k += 1
                with tracer.span("op", op=request.request_id) as root:
                    t0 = time.perf_counter()
                    ticket = self._submit(request, tracer)
                    if not isinstance(ticket, Exception):
                        with tracer.span("service.wait"):
                            ticket.wait(timeout=120)
                    dt = time.perf_counter() - t0
                layers.ticket_spans(tracer, ticket, root)
                served[idx].append((spec, ticket, dt))

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(self.clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        log = OpLog(window_s=time.perf_counter() - t_start)
        flat = [item for per_client in served for item in per_client]
        return self._finish(log, flat, before)


class ServiceBurst(_ServiceWorkload):
    """One client submitting same-spec bursts and waiting for all: the
    service coalesces them onto the batched numpy tier."""

    primary = BURST_SPEC
    planned_ops = 100
    #: 12 requests from 4 tenants x 3: with two workers and
    #: ``batch_max`` 4 that is two batches at once and then one, so the
    #: median request sits inside the first round.  16 would be two
    #: even rounds with the median on the boundary between them.
    width = 12
    tenants = 4

    def setup(self) -> None:
        from repro.backend.sandbox import sandbox_state

        with self.ctx.tracer.span("setup", op="setup"):
            self._start([BURST_SPEC])
            self.bursts = 0
            # Overlapping single requests first, until every sandbox
            # worker is up: a request on its own goes to the driver
            # rung, which builds the native artifact and then starts a
            # sandbox worker per concurrent solve.  Left to chance that
            # happens in some runs only — whenever a worker pops a
            # burst's first request before its peers are queued — and
            # set-up time and peak RSS come out multimodal.
            t_end = time.perf_counter() + 60.0
            while time.perf_counter() < t_end:
                state = sandbox_state()
                if state.get("enabled") and state["alive"] >= state["size"]:
                    break
                self._overlapping_singles()
            self._warm(lambda: self._burst(NULL), passes=2)

    def _overlapping_singles(self) -> None:
        """Two requests that cannot coalesce (the second is submitted
        once the first is running) and that overlap (a millionth of the
        tolerance triples the cycle count)."""
        tickets = []
        for tenant in ("warmup-a", "warmup-b"):
            request = self._request(BURST_SPEC, 0, tenant)
            request.tol *= 1e-6
            ticket = self.service.submit(request)
            while ticket.started_at is None and not ticket.done():
                time.sleep(0.001)
            tickets.append(ticket)
        for ticket in tickets:
            ticket.wait(timeout=120)

    def _burst(self, tracer) -> list:
        """Submit one burst, wait for all of it; every request's
        latency counts from the burst's submit instant."""
        self.bursts += 1
        t0 = time.perf_counter()
        tickets = []
        for i in range(self.width):
            request = self._request(
                BURST_SPEC, self.bursts * self.width + i,
                f"tenant{i % self.tenants}",
            )
            with tracer.span("op", op=request.request_id) as root:
                tickets.append((self._submit(request, tracer), root))
        served = []
        for ticket, root in tickets:
            if isinstance(ticket, Exception):
                served.append((BURST_SPEC, ticket, 0.0))
                continue
            ticket.wait(timeout=120)
            end = ticket.finished_at or time.perf_counter()
            if root is not None:
                # the operation ends when its ticket resolves, not when
                # submit returned
                root["start"], root["end"] = t0, end
            layers.ticket_spans(tracer, ticket, root)
            served.append((BURST_SPEC, ticket, end - t0))
        return served

    def window(self, tracer, seconds: float) -> OpLog:
        before = self._health_counts()
        served: list = []
        t_start = time.perf_counter()
        while time.perf_counter() - t_start < seconds:
            served.extend(self._burst(tracer))
        log = OpLog(window_s=time.perf_counter() - t_start)
        return self._finish(log, served, before)


WORKLOADS: dict[str, type[Workload]] = {
    "kernel-2d-1024": Kernel2D1024,
    "cold-specs": ColdSpecs,
    "service-mixed": ServiceMixed,
    "service-burst": ServiceBurst,
}

WHY = {
    "kernel-2d-1024": (
        "warm whole-solve driver on one 8.4 MB-per-array grid: generated "
        "kernel and the passes' fusion/tiling/storage choices do the work"
    ),
    "cold-specs": (
        "every solve builds, compiles and JITs an unseen spec (tuner "
        "traffic): passes, kernel planning, C emission and cc dominate"
    ),
    "service-mixed": (
        "2 closed-loop clients on disjoint specs through SolveService: "
        "admission, queue, supervisor and sandbox crossings, no coalescing"
    ),
    "service-burst": (
        "same-spec bursts through the same service: coalesced onto the "
        "batched numpy tier instead of singles on the driver"
    ),
}


def end_to_end(log: OpLog, setup_s: float, rss_mb: float) -> dict:
    """The six end-to-end numbers of one window (``None`` where the
    sample-count rule withholds one)."""
    summary = latency_summary(log.latencies_ms)
    return {
        "setup_s": setup_s,
        "solve_p50_ms": summary["p50"],
        "solve_p90_ms": summary["p90"],
        "solves_per_s": log.correct / log.window_s if log.window_s else 0.0,
        "failed_share": len(log.failures) / max(1, log.attempted),
        "peak_rss_mb": rss_mb,
        "samples": summary["n"],
        "window_s": log.window_s,
        "cycles_to_tol": (
            statistics.median(log.cycles) if log.cycles else None
        ),
    }
