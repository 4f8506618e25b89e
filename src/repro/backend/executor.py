"""Execution of compiled pipelines (the numpy backend).

A :class:`CompiledPipeline` executes the *exact schedule* produced by
the compiler passes: groups in topological order; overlapped tiles over
each multi-stage group's anchor domain; internal stages into (reused)
scratchpads; live-outs into (reused) full arrays served by the pooled
allocator; arrays freed as soon as their last consumer group finishes
(the generated ``pool_deallocate`` placement of paper 3.2.3).

The backend exists to make every optimization *observable*: outputs are
bit-compared against an independent reference solver in the tests, and
execution statistics (tiles, redundant points, allocation traffic) feed
the machine cost model.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait as futures_wait
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..config import PolyMgConfig
from ..errors import InputShapeError, MissingInputError
from ..ir.domain import Box
from ..lang.types import dtype_of
from .buffers import DirectAllocator, MemoryPool
from .evaluate import evaluate_stage
from .guards import scan_nonfinite
from .registry import NATIVE, PLANNED, TIERS, BackendStats, FallbackPolicy
from .kernels import (
    ExecEnv,
    KernelPlan,
    Workspace,
    build_group_tile_plan,
    build_kernel_plan,
    run_kernel,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..ir.dag import PipelineDAG
    from ..lang.function import Function
    from ..passes.grouping import GroupingResult
    from ..passes.groups import Group
    from ..passes.manager import CompileReport
    from ..passes.schedule import PipelineSchedule
    from ..passes.storage import StoragePlan
    from .kernels import GroupPlan, GroupTilePlan

__all__ = ["ExecutionStats", "CompiledPipeline", "DriveSpec"]


@dataclass(frozen=True)
class DriveSpec:
    """Solve-level geometry the whole-solve native driver needs beyond
    the per-cycle call: which input grid is the iterate (ping-ponged
    across cycles), which is the right-hand side (of the residual), and
    the two scalars the in-kernel residual norm uses —
    ``norm_scale = h**(ndim/2)`` and ``inv_h2 = 1/(h*h)``.  Built once
    per solve by :meth:`repro.multigrid.cycles.MultigridPipeline.drive_spec`."""

    iterate: str
    rhs: str
    norm_scale: float
    inv_h2: float


class _PlanSlot:
    """One kernel plan, ``built`` by the one build run under ``lock``."""

    def __init__(self) -> None:
        self.lock, self.built = threading.Lock(), False
        self.plan: KernelPlan | None = None


@dataclass
class ExecutionStats:
    """Counters from one or more ``execute`` calls.

    Backend-specific counters live in per-tier
    :class:`~repro.backend.registry.BackendStats` records keyed by tier
    name on :attr:`tiers`; read them through :meth:`tier`.
    """

    executions: int = 0
    groups_executed: int = 0
    tiles_executed: int = 0
    points_computed: int = 0
    ideal_points: int = 0
    scratch_bytes_peak: int = 0
    #: bytes held by the persistent per-thread execution arenas (temp
    #: slots + planned scratch buffers), high-water mark
    temp_bytes_peak: int = 0
    #: times the persistent worker pool was reused after creation
    pool_reuse_count: int = 0
    #: per-tier counters, keyed by registry tier name
    tiers: dict[str, BackendStats] = field(default_factory=dict)

    def tier(self, name: str) -> BackendStats:
        """The (lazily created) counter record of one execution tier."""
        record = self.tiers.get(name)
        if record is None:
            record = self.tiers[name] = BackendStats(tier=name)
        return record

    def redundancy(self) -> float:
        if self.ideal_points == 0:
            return 0.0
        return self.points_computed / self.ideal_points - 1.0


class CompiledPipeline:
    """A fully scheduled pipeline ready to run on numpy arrays."""

    def __init__(
        self,
        dag: "PipelineDAG",
        config: PolyMgConfig,
        grouping: "GroupingResult",
        schedule: "PipelineSchedule",
        storage: "StoragePlan",
    ) -> None:
        self.dag = dag
        self.config = config
        self.grouping = grouping
        self.schedule = schedule
        self.storage = storage
        self.bindings = dag.param_bindings
        self.allocator = (
            MemoryPool(byte_budget=config.pool_byte_budget)
            if config.pooled_allocation
            else DirectAllocator()
        )
        self.stats = ExecutionStats()
        # per-compile instrumentation, attached by ``compile_pipeline``
        # (None only for hand-constructed pipelines)
        self.report: "CompileReport | None" = None
        # fault-injection hook (repro.verify.faults): when set, called
        # as ``hook(stage, out_array)`` after every stage evaluation
        self.fault_injector = None
        # the registry tier selected by ``config.backend`` (resolved
        # lazily; the config is frozen so it never changes)
        self._backend_obj = None
        # ahead-of-time kernel plan, built by ``plan()`` into a slot a
        # compile-cache entry shares with all its clones
        self._plan_slot = _PlanSlot()
        # native JIT build state (repro.backend.native): the build
        # handle, whether its outcome was folded into the stats, and a
        # latch that permanently disables the native path after a
        # runtime failure or verification mismatch
        self._native_handle = None
        self._native_accounted = False
        self._native_disabled: str | None = None
        self._native_incident_logged = False
        # the last crash-class native fault (sandbox kill/quarantine),
        # held for the resilience layer to consume: the fallback output
        # is correct, but the rung's circuit breaker must still hear
        # about the crash
        self._native_fault_pending = None
        # persistent worker pool + per-thread workspaces
        self._pool: ThreadPoolExecutor | None = None
        self._tls = threading.local()
        self._temp_bytes = 0
        self._temp_lock = threading.Lock()
        # hoisted per-group tiling geometry (interpreter, planner, C)
        self._tile_plans: dict[int, "GroupTilePlan"] = {}
        self._plan_array_lifetimes()

    # ------------------------------------------------------------------
    # compile-time planning helpers
    # ------------------------------------------------------------------
    def _plan_array_lifetimes(self) -> None:
        """First-definition and last-use group index per array id."""
        alloc_at: dict[int, int] = {}
        free_after: dict[int, int] = {}
        for gi, group in enumerate(self.grouping.groups):
            for stage in group.live_outs():
                aid = self.storage.array_of[stage]
                alloc_at.setdefault(aid, gi)
                last = gi
                for consumer in self.dag.consumers_of(stage):
                    cg = self.grouping.group_of[consumer]
                    last = max(last, self.schedule.time_of_group(cg))
                if self.dag.is_output(stage):
                    last = len(self.grouping.groups)  # never freed
                free_after[aid] = max(free_after.get(aid, -1), last)
        self._alloc_at = alloc_at
        self._free_after = free_after

    # ------------------------------------------------------------------
    # ahead-of-time kernel planning
    # ------------------------------------------------------------------
    @property
    def _kernel_plan(self) -> "KernelPlan | None":
        """The kernel plan if one has been built, else ``None``."""
        return self._plan_slot.plan

    def plan(self) -> "KernelPlan | None":
        """Build (or return the already built or shared) ahead-of-time
        kernel plan.

        Idempotent and thread-safe: of all the executors sharing the
        plan slot the first caller builds it — ``compile_pipeline`` for
        the numpy tiers; for the JIT tiers, which never run tapes
        otherwise, the first execute that falls back to them.  ``None``
        when planning is disabled (``config.kernel_plan`` False), the
        arena would exceed ``config.temp_arena_limit``, or the pipeline
        uses a construct the planner cannot lower — in all of which
        cases execution falls back to the unplanned interpreter.
        """
        slot = self._plan_slot
        with slot.lock:
            if slot.built:
                return slot.plan
            t0 = time.perf_counter()
            if self.config.kernel_plan and self._backend().plans_kernels:
                try:
                    slot.plan = build_kernel_plan(self)
                except Exception:
                    # any construct the planner cannot lower degrades to
                    # the (always correct) tree-walking interpreter; the
                    # construct's own errors still surface there
                    pass
            slot.built = True
        elapsed = time.perf_counter() - t0
        self.stats.tier(PLANNED.name).plan_time_s += elapsed
        if self.report is not None:
            self.report.plan_time_s += elapsed
        return slot.plan

    def _inherit_plan(self, other: "CompiledPipeline") -> None:
        """Share another executor's plan slot (compile-cache clone
        path); a plan already in it counts as a cache hit.  The plan is
        immutable and safely shared; workspaces and pools are
        per-executor."""
        self._plan_slot = other._plan_slot
        if self._kernel_plan is not None:
            self.stats.tier(PLANNED.name).cache_hits += 1

    # ------------------------------------------------------------------
    # native JIT backend plumbing
    # ------------------------------------------------------------------
    def start_native_build(self, background: bool = True):
        """Kick off (once) the background JIT build when the config
        selects a native tier; returns the build handle or ``None``.
        Called by ``compile_pipeline`` as its last step, so the
        toolchain overlaps whatever the caller does next — numpy-served
        cycles included, which plan kernels on first use."""
        if not self._backend().jit_build:
            return None
        if self._native_handle is None:
            from .native import start_native_build

            self._native_handle = start_native_build(
                self, background=background
            )
        return self._native_handle

    def _inherit_native(self, other: "CompiledPipeline") -> None:
        """Adopt another executor's native build (compile-cache clone
        path).  The runner wraps an immutable shared object guarded by
        a per-module lock, so sharing it is safe; a served build counts
        as a native cache hit for the clone."""
        if other._native_handle is None:
            return
        if self._native_handle is other._native_handle:
            # every native-family tier adopts the same shared artifact
            # (the driver tier rides the native build); charge one hit
            return
        self._native_handle = other._native_handle
        self._native_handle.share(1)
        self._native_disabled = other._native_disabled
        # the clone did not pay the compile, so only the hit is charged
        self._native_accounted = True
        if self._native_handle.ready_runner() is not None:
            self.stats.tier(NATIVE.name).cache_hits += 1

    def ensure_native(self, timeout: float | None = None):
        """Start the native build if needed, wait up to ``timeout`` for
        it, and return the ready :class:`NativeRunner` or ``None``.
        Used by benchmarks and the autotuner's timed compile region."""
        handle = self.start_native_build()
        if handle is None:
            return None
        handle.wait(timeout)
        self._absorb_native_result()
        if self._native_disabled is not None:
            return None
        return handle.ready_runner()

    def _absorb_native_result(self) -> None:
        """Fold a finished build's outcome into the stats/report
        exactly once per executor."""
        handle = self._native_handle
        if handle is None or handle.state == "pending":
            return
        if self._native_accounted:
            return
        self._native_accounted = True
        self.stats.tier(NATIVE.name).compile_time_s += handle.compile_time_s
        if self.report is not None:
            self.report.native_compile_time_s += handle.compile_time_s
        if handle.info.get("cache_hit"):
            self.stats.tier(NATIVE.name).cache_hits += 1
        if handle.error is not None:
            self._disable_native("build-failed", handle.error)

    def _disable_native(self, action: str, error: Exception) -> None:
        """Latch the native path off and log one structured incident —
        the fallback must be visible, never a silent downgrade."""
        self._native_disabled = f"{action}: {error}"
        from ..errors import (
            NativeCrashError,
            NativeHangError,
            NativeQuarantinedError,
        )

        if isinstance(
            error,
            (NativeCrashError, NativeHangError, NativeQuarantinedError),
        ):
            self._native_fault_pending = error
        if not self._native_incident_logged:
            self._native_incident_logged = True
            FallbackPolicy().fault(
                error,
                kind="native-fallback",
                action=action,
                report=self.report,
                fallback=TIERS.fallback_for(NATIVE).name,
                pipeline=self.dag.name,
            )

    def consume_native_fault(self):
        """Pop the pending crash-class native fault (or ``None``).

        The sandbox turns a kernel crash into a correct fallback-served
        execute, so the resilience layer's attempt *succeeds* — this
        hook lets it still demote the rung's circuit breaker for the
        crash that happened along the way."""
        fault, self._native_fault_pending = (
            self._native_fault_pending, None,
        )
        return fault

    def _native_tier_stats(self):
        """The serving native-family tier's stats bucket: the driver
        tier when the config selects it, else the per-cycle native
        tier — so executions/fallbacks land on the tier that actually
        served (what the registry-parity and health plumbing read)."""
        backend = self._backend()
        name = backend.name if backend.jit_build else NATIVE.name
        return self.stats.tier(name)

    def _native_runner_for_execute(self):
        """The runner to use for this execute, or ``None`` (fall back
        to the numpy backends).  Never blocks on a pending build."""
        if self.fault_injector is not None:
            # per-stage hook points only exist in the interpreter
            self._native_tier_stats().fallbacks += 1
            return None
        handle = self.start_native_build()
        if handle is None:  # pragma: no cover - guarded by tier dispatch
            return None
        self._absorb_native_result()
        if self._native_disabled is not None:
            self._native_tier_stats().fallbacks += 1
            return None
        runner = handle.ready_runner()
        if runner is None:  # build still in flight
            self._native_tier_stats().fallbacks += 1
            return None
        return runner

    def _invoke_native(self, runner, input_arrays: dict, ctrl=None):
        """One zero-copy invocation of the shared object: the per-cycle
        entry, or a whole-solve driver burst when ``ctrl`` (a
        :class:`~repro.backend.native.DriveCtrl`) is given.

        Returns what the runner returned — the output dict, or the
        burst's :class:`~repro.backend.native.DriveResult` — or ``None``
        after a :class:`~repro.errors.NativeBackendError`: that is a
        fallback counted on the serving tier and latches the native
        path off with one incident, and the caller serves the
        invocation from the next tier."""
        from ..errors import (
            NativeBackendError,
            NativeCrashError,
            NativeHangError,
        )

        stats = self._native_tier_stats()
        threads = self.config.num_threads
        try:
            if ctrl is None:
                result = outputs = runner.run(input_arrays, threads)
                cycles = 1
            else:
                result = runner.drive(input_arrays, threads, ctrl)
                outputs, cycles = result.outputs, result.cycles
        except NativeBackendError as exc:
            stats.fallbacks += 1
            action = (
                "crash-isolated"
                if isinstance(exc, (NativeCrashError, NativeHangError))
                else "runtime-rejected"
            )
            self._disable_native(action, exc)
            return None
        stats.executions += 1
        if ctrl is not None:
            # a burst is its own invocation (``execute`` counts its own)
            self.stats.executions += 1
            stats.hook_returns += 1
            stats.cycles_in_native += cycles
        if self.config.runtime_guards:
            for name, arr in outputs.items():
                scan_nonfinite(name, arr, pipeline=self.dag.name)
        for stage in self.dag.stages:
            self.stats.ideal_points += cycles * (
                stage.domain_box(self.bindings).volume()
            )
        return result

    def drive(
        self,
        inputs: dict[str, np.ndarray],
        *,
        max_cycles: int,
        tol: float,
        spec: DriveSpec,
    ):
        """One whole-solve driver burst: up to ``max_cycles`` multigrid
        cycles (with the in-kernel ``norm < tol`` convergence test) in
        a single native invocation with persistent OpenMP threads.

        Returns a :class:`~repro.backend.native.DriveResult`, or
        ``None`` whenever the driver cannot serve — tier not
        whole-solve-capable, build pending/failed/latched-off, artifact
        without the driver entry, fault injector attached, or an
        unverified runner under ``verify_level="full"`` — so the caller
        runs the same attempt per-cycle instead.  A crash-class native
        fault latches the tier off exactly like a per-cycle fault and
        also answers ``None``.  Never mutates the caller's arrays, and
        the result's output arrays are fresh — allocated for this call
        in-process, copied out of shared memory from the sandbox — so
        the caller owns them and need not copy."""
        if not getattr(self._backend(), "whole_solve", False):
            return None
        runner = self._native_runner_for_execute()
        if runner is None or not getattr(runner, "can_drive", False):
            return None
        if self.config.verify_level == "full" and not runner.verified:
            # the first result must cross-check against the numpy
            # tiers; only the per-cycle path hosts that comparison
            return None
        input_arrays = self._validated_input_arrays(inputs)
        names = [g.name for g in self.dag.inputs]
        if spec.iterate not in names or spec.rhs not in names:
            return None
        from .native import DriveCtrl

        ctrl = DriveCtrl(
            max_cycles=max_cycles,
            iterate_index=names.index(spec.iterate),
            rhs_index=names.index(spec.rhs),
            tol=tol,
            norm_scale=spec.norm_scale,
            inv_h2=spec.inv_h2,
        )
        return self._invoke_native(runner, input_arrays, ctrl)

    def _workspace(self) -> Workspace:
        """The calling thread's persistent execution arena."""
        ws = getattr(self._tls, "ws", None)
        if ws is None or ws.plan is not self._kernel_plan:
            ws = Workspace(self._kernel_plan, self._account_temp_bytes)
            self._tls.ws = ws
        return ws

    def _account_temp_bytes(self, nbytes: int) -> None:
        with self._temp_lock:
            self._temp_bytes += nbytes
            if self._temp_bytes > self.stats.temp_bytes_peak:
                self.stats.temp_bytes_peak = self._temp_bytes

    # ------------------------------------------------------------------
    # persistent worker pool
    # ------------------------------------------------------------------
    def _executor_pool(self) -> ThreadPoolExecutor:
        """The pipeline's lazily created worker pool, reused across
        groups and cycles (only ever acquired from the driving
        thread)."""
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.config.num_threads
            )
            return self._pool
        self.stats.pool_reuse_count += 1
        return self._pool

    def _pool_map(self, pool: ThreadPoolExecutor, fn, items) -> list:
        """``pool.map`` that never leaks stragglers: on any failure,
        unstarted tasks are cancelled and running ones are awaited
        *before* the exception propagates, so no worker can touch
        pooled arrays after the caller's cleanup deallocates them."""
        futures = [pool.submit(fn, item) for item in items]
        try:
            return [f.result() for f in futures]
        except BaseException:
            for f in futures:
                f.cancel()
            futures_wait(futures)
            raise

    def close(self) -> None:
        """Shut down the persistent worker pool, drop the per-thread
        execution arenas and free the native module's pooled buffers.
        Idempotent; the pipeline remains usable (all of them are
        recreated lazily on the next execute)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        handle = self._native_handle
        if handle is not None:
            # bounded: the build thread is a daemon, so an unfinished
            # compile cannot block shutdown — but give a finished one a
            # moment to land so its outcome is not silently dropped
            handle.join(timeout=0.5)
            module = getattr(handle.ready_runner(), "module", None)
            if module is not None:
                module.release_pool()
            if handle.state == "pending":
                # a later execute builds afresh; the last pipeline to
                # let go of the build kills its compilers
                self._native_handle, self._native_accounted = None, False
                handle.share(-1)
        self._tls = threading.local()
        with self._temp_lock:
            self._temp_bytes = 0

    def __enter__(self) -> "CompiledPipeline":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        pool = getattr(self, "_pool", None)
        if pool is not None:
            pool.shutdown(wait=False)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(self, inputs: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Run one pipeline invocation (e.g. one multigrid cycle).

        Validates the inputs, then dispatches through the registry tier
        selected by ``config.backend``; a tier that cannot serve the
        invocation (pending native build, fault-injection hook, no
        kernel plan) delegates down its registry fallback edge, with
        every downgrade counted and recorded.
        """
        self.stats.executions += 1
        input_arrays = self._validated_input_arrays(inputs)
        return self._backend().run(self, input_arrays)

    def _validated_input_arrays(
        self, inputs: dict[str, np.ndarray]
    ) -> dict["Function", np.ndarray]:
        """Shape-check the caller's input dict against the compiled
        geometry; returns it keyed by input grid."""
        dag = self.dag
        input_arrays: dict["Function", np.ndarray] = {}
        for grid in dag.inputs:
            if grid.name not in inputs:
                raise MissingInputError(
                    f"missing input {grid.name!r}",
                    pipeline=dag.name,
                    provided=sorted(inputs),
                )
            arr = np.asarray(inputs[grid.name])
            expected = grid.domain_box(self.bindings).shape()
            if arr.shape != expected:
                raise InputShapeError(
                    f"input {grid.name!r} has shape {arr.shape}, expected "
                    f"{expected}",
                    pipeline=dag.name,
                )
            input_arrays[grid] = arr
        return input_arrays

    def _backend(self):
        """The registry tier selected by ``config.backend``."""
        backend = self._backend_obj
        if backend is None:
            backend = self._backend_obj = TIERS.resolve(
                self.config.backend
            )
        return backend

    def _execute_numpy(
        self,
        input_arrays: dict["Function", np.ndarray],
        plan: "KernelPlan | None",
        batch: int | None = None,
    ) -> dict[str, np.ndarray]:
        """The numpy group loop: planned kernels where ``plan`` covers
        a group, the tiled/straight interpreter elsewhere (``plan``
        ``None`` runs everything through the interpreter — the
        fault-injection and verification paths need its per-stage hook
        points).

        ``batch`` set, every input array carries that many stacked
        requests on a leading axis and so does every output; the plan
        must cover every group (the caller checks); the work counters
        advance by ``batch`` invocations; and the batch-wide arenas
        live for this call only."""
        dag = self.dag
        lead = () if batch is None else (batch,)
        skip = (slice(None),) * len(lead)
        width = batch or 1
        arrays: dict[int, np.ndarray] = {}
        outputs: dict[str, np.ndarray] = {}

        output_ids = {
            self.storage.array_of[out]
            for out in dag.outputs
            if out in self.storage.array_of
        }

        def ensure_array(aid: int) -> np.ndarray:
            if aid not in arrays:
                shape = lead + self.storage.array_shapes[aid]
                npdt = dtype_of(self.storage.array_dtypes[aid]).np_dtype
                if aid in output_ids:
                    # program outputs are owned by the caller, never by
                    # the pool (paper 3.2.2: inputs/outputs are not
                    # reuse buffers)
                    arrays[aid] = np.empty(shape, dtype=npdt)
                else:
                    arrays[aid] = self.allocator.allocate(shape, npdt)
            return arrays[aid]

        if batch is None:
            workspace = self._workspace
        else:
            call_arenas: dict[int, Workspace] = {}

            def workspace() -> Workspace:
                ident = threading.get_ident()
                ws = call_arenas.get(ident)
                if ws is None:
                    ws = call_arenas[ident] = Workspace(plan, batch=batch)
                return ws

        try:
            for gi, group in enumerate(self.grouping.groups):
                self.stats.groups_executed += 1
                # materialize live-out arrays of this group
                stage_arrays: dict["Function", np.ndarray] = {}
                for stage in group.live_outs():
                    aid = self.storage.array_of[stage]
                    full = ensure_array(aid)
                    shape = stage.domain_box(self.bindings).shape()
                    view = full[skip + tuple(slice(0, s) for s in shape)]
                    stage_arrays[stage] = view
                    if dag.is_output(stage):
                        outputs[stage.name] = view

                if plan is not None and gi in plan.groups:
                    self._execute_group_planned(
                        plan.groups[gi], stage_arrays, input_arrays,
                        arrays, workspace, width,
                    )
                elif self.config.tile and group.size > 1:
                    self._execute_group_tiled(
                        gi, group, stage_arrays, input_arrays, arrays
                    )
                else:
                    self._execute_group_straight(
                        group, stage_arrays, input_arrays, arrays
                    )

                if self.config.runtime_guards:
                    for stage, view in stage_arrays.items():
                        scan_nonfinite(
                            stage.name, view, pipeline=dag.name, group=gi
                        )

                # free arrays whose last consumer group has completed
                for aid, last in self._free_after.items():
                    if last == gi and aid in arrays:
                        self.allocator.deallocate(arrays.pop(aid))
        except BaseException:
            # an aborted invocation must not strand pooled arrays: every
            # still-lent buffer goes back to the allocator so the
            # resilience layer's end-of-solve leak accounting only
            # flags genuine leaks
            for aid in list(arrays):
                if aid not in output_ids:
                    self.allocator.deallocate(arrays.pop(aid))
            raise

        # ideal (non-redundant) work for redundancy accounting
        for stage in dag.stages:
            self.stats.ideal_points += width * stage.domain_box(
                self.bindings
            ).volume()
        return outputs

    def _finish_native_cross_check(
        self,
        runner,
        native_out: dict[str, np.ndarray],
        reference: dict[str, np.ndarray],
    ) -> None:
        """``verify_level=full``: compare the native invocation against
        the numpy backends' outputs; a match marks the runner healthy,
        a mismatch latches the native path off with an incident."""
        from ..errors import NativeVerificationError

        for name, ref in reference.items():
            nat = native_out.get(name)
            if nat is None or nat.shape != ref.shape or not np.allclose(
                nat, ref, rtol=1e-9, atol=1e-11, equal_nan=True
            ):
                delta = (
                    float(np.max(np.abs(nat - ref)))
                    if nat is not None and nat.shape == ref.shape
                    else None
                )
                err = NativeVerificationError(
                    "native output diverged from the numpy backend in "
                    "the one-cycle cross-check",
                    pipeline=self.dag.name,
                    output=name,
                    max_abs_delta=delta,
                )
                self._native_tier_stats().fallbacks += 1
                self._disable_native("verify-mismatch", err)
                return
        runner.verified = True

    # -- readers -----------------------------------------------------------
    def _make_reader(
        self,
        group: "Group",
        input_arrays: dict["Function", np.ndarray],
        arrays: dict[int, np.ndarray],
        scratch: dict["Function", tuple[np.ndarray, tuple[int, ...]]],
    ):
        storage = self.storage
        bindings = self.bindings

        def read(func: "Function", box: Box) -> np.ndarray:
            if func.is_input:
                arr = input_arrays[func]
                return arr[box.slices(origin=(0,) * box.ndim)]
            if func in scratch:
                arr, origin = scratch[func]
                return arr[box.slices(origin=origin)]
            aid = storage.array_of[func]
            full = arrays[aid]
            dom = func.domain_box(bindings)
            view = full[tuple(slice(0, s) for s in dom.shape())]
            return view[box.slices(origin=dom.lower())]

        return read

    # -- straight (untiled) execution ---------------------------------------
    def _execute_group_straight(
        self,
        group: "Group",
        stage_arrays: dict["Function", np.ndarray],
        input_arrays: dict["Function", np.ndarray],
        arrays: dict[int, np.ndarray],
    ) -> None:
        bindings = self.bindings
        scratch: dict["Function", tuple[np.ndarray, tuple[int, ...]]] = {}
        reader = self._make_reader(group, input_arrays, arrays, scratch)
        live = set(group.live_outs())
        for stage in group.stages:
            dom = stage.domain_box(bindings)
            if stage in live:
                out = stage_arrays[stage]
                origin = dom.lower()
            else:
                out = np.empty(dom.shape(), dtype=stage.dtype.np_dtype)
                origin = dom.lower()
                scratch[stage] = (out, origin)
            self.stats.points_computed += evaluate_stage(
                stage, dom, reader, out, origin, bindings
            )
            if self.fault_injector is not None:
                self.fault_injector(stage, out)

    # -- planned execution --------------------------------------------------
    def _execute_group_planned(
        self,
        gp: "GroupPlan",
        stage_arrays: dict["Function", np.ndarray],
        input_arrays: dict["Function", np.ndarray],
        arrays: dict[int, np.ndarray],
        workspace,
        width: int,
    ) -> None:
        """Run one planned group; ``workspace()`` answers the calling
        thread's arena, ``width`` invocations wide (1 unbatched) — the
        tile and scratch counters advance by that many."""
        if not gp.tiled:
            env = ExecEnv(input_arrays, arrays, stage_arrays, workspace())
            for kernel in gp.kernels:
                self.stats.points_computed += run_kernel(kernel, env)
            return

        tile_kernels = gp.tile_kernels

        def run_tile(kernels) -> int:
            env = ExecEnv(input_arrays, arrays, stage_arrays, workspace())
            return sum(run_kernel(k, env) for k in kernels)

        if self.config.num_threads > 1 and len(tile_kernels) > 1:
            # overlapped tiles are independent (communication-avoiding):
            # writes to live-out overlap zones are redundant writes of
            # identical values, so a thread pool over tiles is safe
            pool = self._executor_pool()
            points = self._pool_map(pool, run_tile, tile_kernels)
        else:
            points = [run_tile(kernels) for kernels in tile_kernels]
        self.stats.tiles_executed += width * len(tile_kernels)
        self.stats.points_computed += sum(points)
        scratch_bytes = gp.tile_plan.tile_scratch_bytes
        if scratch_bytes:
            peak = width * max(scratch_bytes)
            if peak > self.stats.scratch_bytes_peak:
                self.stats.scratch_bytes_peak = peak

    # -- overlapped-tile execution (unplanned fallback) ---------------------
    def _group_tile_plan(self, gi: int, group: "Group") -> "GroupTilePlan":
        """Hoisted (and memoized) tiling geometry of one group: tile
        grid, per-tile regions, and scratch shape reductions are paid
        once per compile instead of once per cycle."""
        tp = self._tile_plans.get(gi)
        if tp is None:
            anchor_dom = group.anchor.domain_box(self.bindings)
            tile_shape = self.config.tile_shape(group.anchor.ndim)
            tp = build_group_tile_plan(
                group, self.storage.group_scratch(gi), anchor_dom,
                tile_shape,
            )
            self._tile_plans[gi] = tp
        return tp

    def _execute_group_tiled(
        self,
        gi: int,
        group: "Group",
        stage_arrays: dict["Function", np.ndarray],
        input_arrays: dict["Function", np.ndarray],
        arrays: dict[int, np.ndarray],
    ) -> None:
        live = set(group.live_outs())
        splan = self.storage.group_scratch(gi)
        tp = self._group_tile_plan(gi, group)

        def run_tile(ti: int) -> tuple[int, int]:
            return self._execute_one_tile(
                group, tp, ti, splan, live, stage_arrays, input_arrays,
                arrays,
            )

        if self.config.num_threads > 1 and len(tp.tiles) > 1:
            # overlapped tiles are independent (communication-avoiding):
            # writes to live-out overlap zones are redundant writes of
            # identical values, so a thread pool over tiles is safe
            pool = self._executor_pool()
            results = self._pool_map(pool, run_tile, range(len(tp.tiles)))
        else:
            results = [run_tile(ti) for ti in range(len(tp.tiles))]
        for points, scratch_bytes in results:
            self.stats.tiles_executed += 1
            self.stats.points_computed += points
            self.stats.scratch_bytes_peak = max(
                self.stats.scratch_bytes_peak, scratch_bytes
            )

    def _execute_one_tile(
        self,
        group: "Group",
        tp: "GroupTilePlan",
        ti: int,
        splan,
        live: set,
        stage_arrays: dict,
        input_arrays: dict,
        arrays: dict,
    ) -> tuple[int, int]:
        """Execute one overlapped tile; returns (points, scratch bytes)."""
        bindings = self.bindings
        regions = tp.regions[ti]
        buffers = {
            bid: np.empty(shape, dtype=tp.buf_dtypes[bid])
            for bid, shape in tp.buf_shapes[ti].items()
        }

        points = 0
        scratch: dict["Function", tuple[np.ndarray, tuple[int, ...]]] = {}
        reader = self._make_reader(group, input_arrays, arrays, scratch)
        for stage in group.stages:
            region = regions.get(stage)
            if region is None or region.is_empty():
                continue
            if stage in live:
                out = stage_arrays[stage]
                origin = stage.domain_box(bindings).lower()
            else:
                bid = splan.buffer_of[stage]
                buf = buffers[bid]
                view = buf[tuple(slice(0, s) for s in region.shape())]
                out = view
                origin = region.lower()
                scratch[stage] = (view, origin)
            points += evaluate_stage(
                stage, region, reader, out, origin, bindings
            )
            if self.fault_injector is not None:
                self.fault_injector(stage, out)
        return points, tp.tile_scratch_bytes[ti]

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def summary_line(self) -> str:
        """One-line artifact summary for pass records."""
        return f"CompiledPipeline: {len(self.grouping.groups)} groups"

    def artifact_summary(self) -> dict:
        """Compile-time artifact summary for the cost model and docs
        (distinct from ``self.report``, the per-pass
        :class:`~repro.passes.manager.CompileReport`)."""
        groups = []
        for gi, group in enumerate(self.grouping.groups):
            tile_shape = (
                self.config.tile_shape(group.anchor.ndim)
                if self.config.tile and group.size > 1
                else None
            )
            splan = self.storage.group_scratch(gi)
            groups.append(
                {
                    "stages": [s.name for s in group.stages],
                    "kinds": [s.stage_kind() for s in group.stages],
                    "anchor": group.anchor.name,
                    "live_outs": [s.name for s in group.live_outs()],
                    "tiled": tile_shape is not None,
                    "tile_shape": tile_shape,
                    "scratch_buffers": splan.buffer_count(),
                    "scratch_stages": len(splan.buffer_of),
                    "redundancy": (
                        group.redundancy(tile_shape) if tile_shape else 0.0
                    ),
                }
            )
        return {
            "pipeline": self.dag.name,
            "stage_count": self.dag.stage_count(),
            "group_count": len(self.grouping.groups),
            "groups": groups,
            "full_arrays": self.storage.full_arrays_with_reuse,
            "full_arrays_without_reuse": self.storage.full_arrays_without_reuse,
            "full_array_bytes": self.storage.full_array_bytes_with_reuse,
            "full_array_bytes_without_reuse": (
                self.storage.full_array_bytes_without_reuse
            ),
            "scratch_bytes": self.storage.scratch_bytes_with_reuse,
            "scratch_bytes_without_reuse": (
                self.storage.scratch_bytes_without_reuse
            ),
        }
