"""Typed error taxonomy for the PolyMG compiler and runtime.

Every invariant failure in the compiler passes, the execution backend,
and the tuning loop raises a :class:`ReproError` subclass carrying
*structured context* (pipeline name, group index, stage/buffer names,
measured values), so a failure is diagnosable from the message alone —
no debugger required.  The hierarchy:

``ReproError``
    root of everything this package raises deliberately.
``CompileError``
    a compiler pass produced (or was given) an ill-formed artifact.
    Specialized into ``PassOrderingError`` (a mis-wired pass pipeline:
    requirements not produced by any earlier pass, duplicate artifact
    producers), ``ScheduleLegalityError`` (ordering violations),
    ``StorageSoundnessError`` (illegal scratchpad / full-array
    remapping, mis-sized buffers), and ``TileCoverageError`` (the
    overlapped-tile grid leaves a gap in a live-out's domain).
``ExecutionError``
    a runtime fault.  ``MissingInputError`` / ``InputShapeError`` also
    subclass ``KeyError`` / ``ValueError`` so pre-existing callers keep
    working; ``AllocatorError`` flags pool misuse and
    ``PoolExhaustedError`` (a subclass) a breached pool byte budget or
    a failed backing allocation; ``NumericalDivergenceError`` is raised
    by the runtime sentinels (NaN/Inf live-outs, residual blow-up
    across cycles); ``SolveAbortedError`` is raised by the solve
    supervisor (:mod:`repro.resilience`) when every remediation —
    checkpoint restore, ladder demotion, stagnation remediation — is
    exhausted.
``NativeBackendError``
    the native C/OpenMP JIT backend could not produce or run a shared
    object.  Specialized into ``NativeToolchainError`` (no usable C
    compiler), ``NativeLoweringError`` (the pipeline uses a construct
    the C emitter cannot lower — non-double dtypes, oversized tile
    scratch), ``NativeCompileError`` (the out-of-process compile failed
    or timed out), ``NativeABIError`` (the loaded shared object rejected the
    buffers handed across the ctypes boundary), and
    ``NativeVerificationError`` (the ``verify_level=full`` one-cycle
    cross-check against the numpy backend diverged).  The sandboxed
    out-of-process executor (:mod:`repro.backend.sandbox`) adds the
    crash classes — ``NativeCrashError`` (the worker died on a signal
    or unexpected exit), ``NativeHangError`` (the watchdog hard-killed
    a worker that missed its deadline or stopped heartbeating), and
    ``NativeAbortError`` (the kernel called ``abort()``) — plus
    ``NativeQuarantinedError`` (the artifact's content hash is
    blacklisted on disk after repeated crashes and is never reloaded).
    All of these are recoverable: the executor logs an incident and
    falls back to the planned numpy backend.
``ServiceError``
    the multi-tenant solve service (:mod:`repro.service`) refused or
    interrupted a request — *by design, loudly, and typed*: the
    service never hangs a caller and never drops work silently.
    ``AdmissionRejected`` is the root of every admission-time refusal
    (carrying the tenant, the reason, and — where meaningful — a
    ``retry_after`` hint): ``QueueSaturated`` (bounded request queue
    full and the request did not outrank a queued victim),
    ``TenantRateLimited`` (token bucket empty),
    ``TenantConcurrencyExceeded`` (per-tenant concurrent-solve cap),
    ``AdmissionDeferred`` (fleet overload: graded response deferred
    this priority class), ``ServiceOverloaded`` (fleet at shed level),
    and ``ServiceDraining`` (shutdown in progress).
    ``SolvePreempted`` resolves an admitted-but-unfinished request at
    drain time, carrying the path of its persisted checkpoint so the
    solve is recoverable by a later service instance.
``TrialFailure``
    one autotuning trial failed (compile error, runtime fault, or
    wall-clock timeout); the search quarantines it and continues.

These checks guard production behaviour, so none of them hide behind
``assert`` — they survive ``python -O``.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "CompileError",
    "PassOrderingError",
    "ScheduleLegalityError",
    "StorageSoundnessError",
    "TileCoverageError",
    "ExecutionError",
    "MissingInputError",
    "InputShapeError",
    "AllocatorError",
    "PoolExhaustedError",
    "NumericalDivergenceError",
    "SolveAbortedError",
    "NativeBackendError",
    "NativeToolchainError",
    "NativeLoweringError",
    "NativeCompileError",
    "NativeABIError",
    "NativeVerificationError",
    "NativeCrashError",
    "NativeHangError",
    "NativeAbortError",
    "NativeQuarantinedError",
    "ServiceError",
    "AdmissionRejected",
    "QueueSaturated",
    "TenantRateLimited",
    "TenantConcurrencyExceeded",
    "AdmissionDeferred",
    "ServiceOverloaded",
    "ServiceDraining",
    "SolvePreempted",
    "TrialFailure",
]


class ReproError(Exception):
    """Root error; keyword arguments become structured context.

    ``None``-valued context entries are dropped, the rest are appended
    to the message as a sorted ``[key=value, ...]`` suffix and kept in
    ``self.context`` for programmatic inspection.
    """

    def __init__(self, message: str, **context) -> None:
        self.context = {
            k: v for k, v in context.items() if v is not None
        }
        if self.context:
            suffix = ", ".join(
                f"{k}={v!r}" for k, v in sorted(self.context.items())
            )
            message = f"{message} [{suffix}]"
        super().__init__(message)
        self.message = message


# ---------------------------------------------------------------------------
# compile-time
# ---------------------------------------------------------------------------


class CompileError(ReproError):
    """A compiler pass produced or received an ill-formed artifact."""


class PassOrderingError(CompileError):
    """The pass pipeline is mis-wired: a pass requires an artifact no
    earlier pass produces, two passes claim the same artifact, or an
    artifact was requested before any pass produced it."""


class ScheduleLegalityError(CompileError):
    """Producer/consumer ordering violated at group or stage level."""


class StorageSoundnessError(CompileError):
    """Illegal storage remapping: a slot reassigned while its previous
    tenant is still live, a buffer smaller than a tenant's footprint,
    or a dtype mismatch."""


class TileCoverageError(CompileError):
    """The overlapped-tile decomposition does not cover a live-out's
    domain (a gap would leave uninitialized points in the output)."""


# ---------------------------------------------------------------------------
# runtime
# ---------------------------------------------------------------------------


class ExecutionError(ReproError):
    """A fault while executing a compiled pipeline."""


class MissingInputError(ExecutionError, KeyError):
    """An input grid required by the pipeline was not provided."""

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.message


class InputShapeError(ExecutionError, ValueError):
    """An input array's shape does not match its grid's domain."""


class AllocatorError(ExecutionError, ValueError):
    """Pooled-allocator protocol violation (e.g. foreign deallocate,
    buffers still outstanding at solve end)."""


class PoolExhaustedError(AllocatorError):
    """The pooled allocator cannot serve a request: the configured byte
    budget would be breached, or the backing allocation itself failed
    (``MemoryError``).  Subclasses :class:`AllocatorError` so guarded
    execution treats memory pressure like any other runtime fault."""


class NumericalDivergenceError(ExecutionError):
    """A runtime sentinel detected numerical divergence: non-finite
    values in a group's live-outs, or residual blow-up across cycles."""


class SolveAbortedError(ExecutionError):
    """The solve supervisor gave up: the checkpoint-restore budget was
    exhausted with every degradation-ladder rung faulting, so there is
    no variant left to make progress on."""


# ---------------------------------------------------------------------------
# native JIT backend
# ---------------------------------------------------------------------------


class NativeBackendError(ReproError):
    """The native C/OpenMP JIT backend failed; always recoverable by
    falling back to the planned numpy backend (incident-logged)."""


class NativeToolchainError(NativeBackendError):
    """No usable C compiler was found (``REPRO_CC``, ``cc``, ``gcc``,
    ``clang``), or the discovered one could not produce a probe
    object."""


class NativeLoweringError(NativeBackendError):
    """The pipeline uses a construct the native backend cannot lower:
    non-double dtypes, tile scratch too large for the thread stack, or
    an attached fault-injection hook."""


class NativeCompileError(NativeBackendError):
    """The out-of-process ``cc`` invocation failed, timed out, or
    produced an unloadable shared object."""


class NativeABIError(NativeBackendError, ValueError):
    """The loaded shared object rejected the buffers handed across the
    ctypes boundary (geometry/stride/dtype mismatch), or the caller
    passed arrays the runner cannot safely normalize."""


class NativeVerificationError(NativeBackendError):
    """The ``verify_level=full`` one-cycle cross-check between the
    native and numpy backends diverged beyond tolerance."""


class NativeCrashError(NativeBackendError):
    """A sandboxed executor worker died while running a native kernel
    (fatal signal or unexpected exit code).  Context carries the
    ``exitcode``/``signal`` and the artifact key so the store can
    quarantine a repeat offender."""


class NativeHangError(NativeBackendError):
    """The sandbox watchdog hard-killed a worker: either the job missed
    its absolute deadline or the worker's heartbeat went stale while a
    native call held the process."""


class NativeAbortError(NativeCrashError):
    """The native kernel terminated the worker via ``abort()``
    (``SIGABRT``) — distinguished from a plain crash because it usually
    marks a deliberate runtime assertion inside the generated C."""


class NativeQuarantinedError(NativeBackendError):
    """The artifact's content hash is quarantined on disk (its verdict
    sidecar records repeated crashes), so the store refuses to hand the
    shared object to any process again."""


# ---------------------------------------------------------------------------
# multi-tenant solve service
# ---------------------------------------------------------------------------


class ServiceError(ReproError):
    """The solve service refused or interrupted a request.  Every
    refusal is synchronous and typed — the service's contract is that a
    caller is never hung and work is never dropped silently."""


class AdmissionRejected(ServiceError):
    """Root of every admission-time refusal.  Context carries the
    tenant, the structured reason, and — for refusals worth retrying —
    a ``retry_after`` hint in seconds."""

    @property
    def retry_after(self) -> float | None:
        return self.context.get("retry_after")


class QueueSaturated(AdmissionRejected):
    """The bounded request queue is full and the incoming request did
    not outrank any queued victim, so load was shed at the door."""


class TenantRateLimited(AdmissionRejected):
    """The tenant's token bucket is empty; ``retry_after`` says when
    the next token lands."""


class TenantConcurrencyExceeded(AdmissionRejected):
    """The tenant already has its maximum number of solves admitted
    (queued + running)."""


class AdmissionDeferred(AdmissionRejected):
    """The fleet budget entered a graded overload level that defers
    this request's priority class; retry after the hint or escalate
    the priority."""


class ServiceOverloaded(AdmissionRejected):
    """The fleet budget reached the shed level: only the highest
    priority class is being admitted."""


class ServiceDraining(AdmissionRejected):
    """The service is draining (graceful shutdown): no new admissions."""


class SolvePreempted(ServiceError):
    """An admitted solve was preempted by drain or a worker loss and
    could not be finished in time; ``checkpoint_path`` in the context
    locates its persisted :class:`~repro.resilience.SolveCheckpoint`
    for recovery by a later service instance."""

    @property
    def checkpoint_path(self) -> str | None:
        return self.context.get("checkpoint_path")


# ---------------------------------------------------------------------------
# tuning
# ---------------------------------------------------------------------------


class TrialFailure(ReproError):
    """One autotuning trial failed; carries the configuration point and
    the underlying cause so the search can quarantine it."""
