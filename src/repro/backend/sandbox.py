"""Sandboxed out-of-process execution of native kernels.

The native JIT tier's headline risk is that it runs *machine-generated*
C in-process: one bad kernel — a wild store, an ``abort()``, an
infinite loop Python cannot interrupt — kills or wedges the whole
multi-tenant solve service, defeating every guarantee the resilience
ladder makes.  This module closes that hole with a persistent pool of
subprocess executors:

* **Workers** are long-lived ``spawn`` subprocesses (no forked locks,
  no inherited state).  Each owns a :class:`multiprocessing.shared_memory`
  data segment; the parent stages input grids into it once, the worker
  maps ``pmg_buffer`` descriptors straight onto the shared pages (no
  copy on the worker side, the kernel writes its outputs in place),
  and the parent copies the outputs out — one staging copy in, one
  copy out, regardless of grid count.
* **Watchdog**: every worker heartbeats a shared counter from a daemon
  thread (the GIL is released during the ctypes call, so the beat
  survives a long-running kernel).  The parent hard-kills a worker
  whose job misses its absolute deadline (``REPRO_SANDBOX_TIMEOUT``)
  or whose heartbeat goes stale, and classifies the outcome:
  :class:`~repro.errors.NativeHangError` for deadline/heartbeat kills,
  :class:`~repro.errors.NativeAbortError` for ``SIGABRT``, and
  :class:`~repro.errors.NativeCrashError` for any other fatal signal
  or unexpected exit.  A killed worker is respawned in place; the pool
  (and the service above it) never dies with a kernel.
* **Quarantine**: every crash/hang is recorded against the artifact's
  content hash in the :class:`~repro.cache.NativeArtifactStore`'s
  verdict sidecar; a hash that crashes
  :func:`~repro.cache.quarantine_threshold` times is blacklisted on
  disk and never reloaded by any process again.

Whole-solve driver bursts (``polymg_drive``) run through the same
pool.  A burst of ``k`` cycles legitimately holds a worker ``k`` times
longer than one kernel invocation, so its watchdog deadline scales
with the cycle budget — ``k x REPRO_SANDBOX_CYCLE_TIMEOUT`` (default:
the flat ``REPRO_SANDBOX_TIMEOUT``) — instead of the flat per-job
bound.  The driver additionally bumps a kernel-progress counter in the
heartbeat segment after every completed cycle, and a drive job whose
counter stalls is killed early (a wedged cycle must not ride out the
whole scaled deadline).

Environment switches: ``REPRO_NATIVE_ISOLATION`` forces the isolation
mode (overriding :attr:`repro.config.PolyMgConfig.native_isolation`),
``REPRO_SANDBOX_WORKERS`` sizes the pool (default 2),
``REPRO_SANDBOX_TIMEOUT`` bounds one kernel invocation in seconds
(default 60), ``REPRO_SANDBOX_CYCLE_TIMEOUT`` bounds one driver cycle
(default: the flat timeout), ``REPRO_SANDBOX_HEARTBEAT`` tunes the
beat interval (default 0.1 s; staleness trips at 10 beats or 1 s,
whichever is larger), and ``REPRO_NATIVE_AFFINITY``
(``compact``/``scatter``) is translated into
``OMP_PROC_BIND``/``OMP_PLACES`` inside each worker before its OpenMP
runtime initializes.
"""

from __future__ import annotations

import atexit
import ctypes
import os
import signal
import struct
import threading
import time
from multiprocessing import get_context
from multiprocessing.shared_memory import SharedMemory
from typing import TYPE_CHECKING

import numpy as np

from ..cache import native_artifact_store
from ..errors import (
    NativeAbortError,
    NativeBackendError,
    NativeCrashError,
    NativeHangError,
)
from .codegen_c import driver_emitted
from .native import NativeRunner

if TYPE_CHECKING:  # pragma: no cover
    from .executor import CompiledPipeline
    from .native import DriveCtrl

__all__ = [
    "SandboxRunner",
    "SandboxPool",
    "sandbox_pool",
    "sandbox_state",
    "reset_sandbox_pool",
]

# heartbeat segment layout: offset 0 holds the worker's Python-thread
# beat counter (uint64), offset 8 the kernel-progress counter a driver
# burst bumps once per completed cycle (int64, via ``ctrl->progress``)
_HB_BYTES = 16
_HB_PROGRESS_OFF = 8


def _env_float(name: str, default: float) -> float:
    try:
        return float(os.environ.get(name, str(default)))
    except ValueError:
        return default


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, str(default)))
    except ValueError:
        return default


def sandbox_workers() -> int:
    return max(1, _env_int("REPRO_SANDBOX_WORKERS", 2))


def sandbox_timeout() -> float:
    return max(0.05, _env_float("REPRO_SANDBOX_TIMEOUT", 60.0))


def sandbox_cycle_timeout() -> float:
    """Per-cycle allowance for whole-solve driver bursts: a burst of
    ``k`` cycles gets an absolute deadline of ``k`` times this instead
    of the flat :func:`sandbox_timeout`."""
    return max(
        0.05,
        _env_float("REPRO_SANDBOX_CYCLE_TIMEOUT", sandbox_timeout()),
    )


def heartbeat_interval() -> float:
    return max(0.01, _env_float("REPRO_SANDBOX_HEARTBEAT", 0.1))


def _heartbeat_stale_after(interval: float) -> float:
    return max(10.0 * interval, 1.0)


# ---------------------------------------------------------------------------
# worker process
# ---------------------------------------------------------------------------


def _apply_affinity_env() -> None:
    """Translate the ``REPRO_NATIVE_AFFINITY`` override into the OpenMP
    binding variables.  Must run before the worker's OpenMP runtime
    initializes (i.e. before any shared object is loaded); explicit
    ``OMP_*`` settings in the environment win."""
    mode = os.environ.get("REPRO_NATIVE_AFFINITY", "").strip().lower()
    bind = {"compact": "close", "scatter": "spread"}.get(mode)
    if bind is not None:
        os.environ.setdefault("OMP_PROC_BIND", bind)
        os.environ.setdefault("OMP_PLACES", "cores")


def _worker_main(conn, hb_name: str, hb_interval: float) -> None:
    """Entry point of one sandbox worker subprocess.

    Protocol (parent → worker over the pipe): one dict per job with the
    shared-object path, the data-segment name, parameter values, thread
    count, ``(offset, shape)`` placements for every input/output inside
    the segment, and the driver control block (``None`` for the
    per-cycle entry) with the offset of its norms region.  Worker →
    parent: ``("ok", rc, cycles_done, converged)`` after the kernel
    returns, or ``("err", kind, message)`` for a Python-level failure
    (e.g. the .so would not load).  A crash never replies — the parent
    reads the exit code instead.
    """
    # NOTE on the resource tracker: spawn children inherit the parent's
    # tracker, and attaching registers the same name it already holds
    # (set semantics — deduped), so the parent's unlink at pool close
    # is the single cleanup point.  No child-side unregister needed.
    _apply_affinity_env()
    hb = SharedMemory(name=hb_name)
    hb_base = ctypes.addressof(ctypes.c_char.from_buffer(hb.buf))

    def beat() -> None:
        n = 0
        while True:
            n += 1
            struct.pack_into("<Q", hb.buf, 0, n)
            time.sleep(hb_interval)

    threading.Thread(target=beat, name="sandbox-heartbeat", daemon=True).start()

    from .native import NativeModule

    modules: dict[str, NativeModule] = {}
    segments: dict[str, SharedMemory] = {}
    conn.send(("ready",))

    def segment(name: str) -> SharedMemory:
        seg = segments.get(name)
        if seg is None:
            seg = SharedMemory(name=name)
            segments[name] = seg
        return seg

    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError):
            return
        if job is None:  # clean shutdown
            return
        try:
            module = modules.get(job["so"])
            if module is None:
                module = NativeModule(job["so"])
                modules[job["so"]] = module
            seg = segment(job["shm"])
            base = ctypes.addressof(
                ctypes.c_char.from_buffer(seg.buf)
            )
            rc, done, converged = module.invoke(
                job["params"],
                job["nthreads"],
                [(base + off, shape, None) for off, shape in job["inputs"]],
                [(base + off, shape, None) for off, shape in job["outputs"]],
                job["ctrl"],
                base + job["norms_offset"],
                hb_base + _HB_PROGRESS_OFF,
            )
            conn.send(("ok", rc, done, converged))
        except Exception as exc:  # Python-level failure: stay alive
            conn.send(("err", type(exc).__name__, str(exc)))


# ---------------------------------------------------------------------------
# parent-side worker handle + watchdog
# ---------------------------------------------------------------------------


class SandboxWorker:
    """Parent-side handle of one executor subprocess."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.jobs = 0
        self.hb_interval = heartbeat_interval()
        self._ctx = get_context("spawn")
        self.hb = SharedMemory(create=True, size=_HB_BYTES)
        struct.pack_into("<Q", self.hb.buf, 0, 0)
        self.conn, child_conn = self._ctx.Pipe()
        self.proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self.hb.name, self.hb_interval),
            name=f"polymg-sandbox-{index}",
            daemon=True,
        )
        self.proc.start()
        child_conn.close()
        self.data: SharedMemory | None = None
        # spawn + import handshake; generous because a cold spawn
        # re-imports numpy and this package
        try:
            if not self.conn.poll(60.0):
                raise NativeBackendError(
                    "sandbox worker failed to start", worker=index
                )
            self.conn.recv()  # ("ready",)
        except (EOFError, OSError):
            exitcode = self.proc.exitcode
            self.close()
            raise NativeBackendError(
                "sandbox worker died during startup",
                worker=index,
                exitcode=exitcode,
            )
        except NativeBackendError:
            self.close()
            raise
        self._beat = 0
        self._beat_seen_at = time.monotonic()

    # -- shared data segment --------------------------------------------
    def ensure_segment(self, nbytes: int) -> SharedMemory:
        if self.data is not None and self.data.size >= nbytes:
            return self.data
        if self.data is not None:
            old = self.data
            self.data = None
            try:
                old.close()
                old.unlink()
            except OSError:
                pass
        self.data = SharedMemory(create=True, size=max(nbytes, 4096))
        return self.data

    # -- watchdog ---------------------------------------------------------
    def _heartbeat_stale(self, now: float) -> bool:
        beat = struct.unpack_from("<Q", self.hb.buf, 0)[0]
        if beat != self._beat:
            self._beat = beat
            self._beat_seen_at = now
            return False
        return (
            now - self._beat_seen_at
            > _heartbeat_stale_after(self.hb_interval)
        )

    def _kill(self) -> None:
        try:
            self.proc.kill()
        except (OSError, ValueError):
            pass
        self.proc.join(5.0)

    def _classify_death(self, key: str, pipeline: str) -> NativeCrashError:
        exitcode = self.proc.exitcode
        if exitcode is not None and exitcode < 0:
            signum = -exitcode
            cls = (
                NativeAbortError
                if signum == signal.SIGABRT
                else NativeCrashError
            )
            try:
                signame = signal.Signals(signum).name
            except ValueError:
                signame = str(signum)
            return cls(
                "sandbox worker killed by signal while running "
                "native kernel",
                pipeline=pipeline,
                artifact_key=key,
                signal=signame,
                worker=self.index,
            )
        return NativeCrashError(
            "sandbox worker exited unexpectedly while running "
            "native kernel",
            pipeline=pipeline,
            artifact_key=key,
            exitcode=exitcode,
            worker=self.index,
        )

    def run_job(
        self,
        job: dict,
        key: str,
        pipeline: str,
        *,
        deadline_s: float | None = None,
        cycle_stale_s: float | None = None,
    ):
        """Send one job and watchdog it to completion.

        ``deadline_s`` overrides the flat :func:`sandbox_timeout` (drive
        jobs scale it with their cycle budget).  ``cycle_stale_s``, when
        given, arms the kernel-progress watch: the job is killed early
        if the driver's per-cycle progress counter stops advancing for
        that long, so a wedged cycle does not ride out the whole scaled
        deadline.  Returns the worker's reply tuple; raises the
        crash-class typed error (after hard-killing the worker where
        needed).  The caller must treat any raise as "this worker is
        dead"."""
        budget = deadline_s if deadline_s is not None else sandbox_timeout()
        now = time.monotonic()
        deadline = now + budget
        self._beat_seen_at = now  # fresh staleness window
        if cycle_stale_s is not None:
            # zero the kernel-progress counter before the burst starts
            # (only one job is in flight per worker at a time)
            struct.pack_into("<q", self.hb.buf, _HB_PROGRESS_OFF, 0)
            progress_seen, progress_seen_at = 0, now
        try:
            self.conn.send(job)
        except (OSError, ValueError, BrokenPipeError):
            self.proc.join(5.0)
            raise self._classify_death(key, pipeline)
        self.jobs += 1
        while True:
            if self.conn.poll(min(0.05, self.hb_interval)):
                try:
                    return self.conn.recv()
                except (EOFError, OSError):
                    self.proc.join(5.0)
                    raise self._classify_death(key, pipeline)
            if not self.proc.is_alive():
                self.proc.join(5.0)
                raise self._classify_death(key, pipeline)
            now = time.monotonic()
            if now > deadline:
                self._kill()
                raise NativeHangError(
                    "native kernel missed its sandbox deadline",
                    pipeline=pipeline,
                    artifact_key=key,
                    timeout_s=budget,
                    worker=self.index,
                )
            if cycle_stale_s is not None:
                progress = struct.unpack_from(
                    "<q", self.hb.buf, _HB_PROGRESS_OFF
                )[0]
                if progress != progress_seen:
                    progress_seen, progress_seen_at = progress, now
                elif now - progress_seen_at > cycle_stale_s:
                    self._kill()
                    raise NativeHangError(
                        "native driver stopped making cycle progress",
                        pipeline=pipeline,
                        artifact_key=key,
                        reason="stalled-cycle",
                        cycles_done=progress,
                        worker=self.index,
                    )
            if self._heartbeat_stale(now):
                self._kill()
                raise NativeHangError(
                    "sandbox worker stopped heartbeating",
                    pipeline=pipeline,
                    artifact_key=key,
                    reason="missed-heartbeat",
                    worker=self.index,
                )

    def close(self) -> None:
        try:
            if self.proc.is_alive():
                self.conn.send(None)
                self.proc.join(2.0)
        except (OSError, ValueError, BrokenPipeError):
            pass
        if self.proc.is_alive():
            self._kill()
        self.conn.close()
        for shm in (self.hb, self.data):
            if shm is None:
                continue
            try:
                shm.close()
                shm.unlink()
            except (OSError, BufferError):
                pass


# ---------------------------------------------------------------------------
# the pool
# ---------------------------------------------------------------------------


class SandboxPool:
    """Fixed-size pool of sandbox workers with crash accounting.

    Workers are spawned lazily (the first native execute pays the
    spawn, subsequent ones reuse the warm worker) and respawned in
    place after every kill, so the pool's capacity is constant from
    the service's point of view.
    """

    def __init__(self, size: int | None = None) -> None:
        self.size = size if size is not None else sandbox_workers()
        self._lock = threading.Lock()
        self._free = threading.Condition(self._lock)
        self._workers: dict[int, SandboxWorker | None] = {}
        self._busy: set[int] = set()
        self._closed = False
        self.stats_lock = threading.Lock()
        self.jobs = 0
        self.crashes = 0
        self.hangs = 0
        self.aborts = 0
        self.respawns = 0

    # -- worker lifecycle -------------------------------------------------
    def _acquire(self) -> SandboxWorker:
        while True:
            with self._free:
                if self._closed:
                    raise NativeBackendError("sandbox pool is closed")
                empty = None
                for idx in range(self.size):
                    if idx in self._busy:
                        continue
                    worker = self._workers.get(idx)
                    if worker is not None:
                        self._busy.add(idx)
                        return worker
                    if empty is None:
                        empty = idx
                if empty is None:
                    self._free.wait()
                    continue
                # reserve the empty slot; spawn outside the lock (a
                # cold spawn re-imports numpy — healthz must not block
                # behind it)
                self._busy.add(empty)
                respawn = empty in self._workers
            try:
                worker = SandboxWorker(empty)
            except Exception:
                with self._free:
                    self._busy.discard(empty)
                    self._free.notify()
                raise
            if respawn:
                with self.stats_lock:
                    self.respawns += 1
            with self._free:
                if self._closed:
                    self._busy.discard(empty)
                    try:
                        worker.close()
                    except Exception:
                        pass
                    raise NativeBackendError("sandbox pool is closed")
                self._workers[empty] = worker
            return worker

    def _release(self, worker: SandboxWorker, dead: bool) -> None:
        with self._free:
            self._busy.discard(worker.index)
            if dead:
                self._workers[worker.index] = None
                try:
                    worker.close()
                except Exception:
                    pass
            self._free.notify()

    # -- execution --------------------------------------------------------
    def invoke(
        self,
        runner: "SandboxRunner",
        arrays: list[np.ndarray],
        num_threads: int,
        ctrl: "DriveCtrl | None" = None,
    ) -> tuple[list[np.ndarray], list[float], bool]:
        """Run one kernel invocation out-of-process: the per-cycle
        entry, or a whole-solve driver burst when ``ctrl`` is given.

        ``arrays`` are the normalized input grids in DAG order; returns
        ``(outputs, norms, converged)`` with the output grids in DAG
        order (fresh arrays the caller owns) and the burst's per-cycle
        residual norms, which the kernel writes into a region of the
        shared segment behind the outputs.  A burst's watchdog deadline
        scales with its cycle budget (``max_cycles x``
        :func:`sandbox_cycle_timeout`) and the kernel-progress watch
        kills one whose cycle counter stalls.  Crash-class errors
        propagate typed; the worker involved is already
        respawn-scheduled when they do.
        """
        placements_in, placements_out = [], []
        offset = 0
        for arr in arrays:
            placements_in.append((offset, tuple(arr.shape)))
            offset += arr.nbytes
        for _out, shape in runner.outputs:
            placements_out.append((offset, tuple(shape)))
            offset += int(np.prod(shape)) * 8
        norms_offset = offset
        deadline_s = cycle_stale_s = None  # the flat per-job bound
        if ctrl is not None:
            offset += ctrl.max_cycles * 8
            cycle_s = sandbox_cycle_timeout()
            deadline_s = ctrl.max_cycles * cycle_s
            cycle_stale_s = 2.0 * cycle_s

        def staged(seg, off, shape) -> np.ndarray:
            return np.frombuffer(
                seg.buf, dtype=np.float64,
                count=int(np.prod(shape)), offset=off,
            ).reshape(shape)

        worker = self._acquire()
        dead = False
        try:
            seg = worker.ensure_segment(offset)
            for arr, (off, shape) in zip(arrays, placements_in):
                staged(seg, off, shape)[...] = arr
            job = {
                "so": runner.so_path,
                "shm": seg.name,
                "params": list(runner.param_values),
                "nthreads": int(num_threads),
                "inputs": placements_in,
                "outputs": placements_out,
                "ctrl": ctrl,
                "norms_offset": norms_offset,
            }
            with self.stats_lock:
                self.jobs += 1
            try:
                reply = worker.run_job(
                    job,
                    runner.key,
                    runner.pipeline,
                    deadline_s=deadline_s,
                    cycle_stale_s=cycle_stale_s,
                )
            except NativeBackendError as exc:
                dead = True
                with self.stats_lock:
                    if isinstance(exc, NativeHangError):
                        self.hangs += 1
                    elif isinstance(exc, NativeAbortError):
                        self.aborts += 1
                    else:
                        self.crashes += 1
                raise
            if reply[0] == "err":
                raise NativeBackendError(
                    "sandbox worker could not run the native kernel",
                    pipeline=runner.pipeline,
                    artifact_key=runner.key,
                    kind=reply[1],
                    error=reply[2],
                )
            _ok, rc, done, converged = reply
            if rc != 0:
                raise runner._error_for(rc)
            # the one copy out
            outputs = [
                np.array(staged(seg, off, shape))
                for off, shape in placements_out
            ]
            norms = staged(seg, norms_offset, (done,)).tolist()
            return outputs, norms, converged
        finally:
            self._release(worker, dead)

    # -- introspection / shutdown ----------------------------------------
    def state(self) -> dict:
        with self._lock:
            alive = sum(
                1
                for w in self._workers.values()
                if w is not None and w.proc.is_alive()
            )
            busy = len(self._busy)
        with self.stats_lock:
            return {
                "enabled": True,
                "size": self.size,
                "alive": alive,
                "busy": busy,
                "jobs": self.jobs,
                "crashes": self.crashes,
                "hangs": self.hangs,
                "aborts": self.aborts,
                "respawns": self.respawns,
            }

    def close(self) -> None:
        with self._free:
            self._closed = True
            workers = [
                w for w in self._workers.values() if w is not None
            ]
            self._workers.clear()
            self._busy.clear()
            self._free.notify_all()
        for worker in workers:
            try:
                worker.close()
            except Exception:
                pass


# ---------------------------------------------------------------------------
# the runner served to the executor
# ---------------------------------------------------------------------------


class SandboxRunner(NativeRunner):
    """Drop-in :class:`NativeRunner` that never dlopens the artifact.

    Holds the same baked call geometry but routes every invocation
    through the process-wide :class:`SandboxPool`; the shared object is
    only ever mapped inside a disposable worker.  A crash-class fault
    is recorded against the artifact's content hash before it
    propagates, so repeat offenders cross the quarantine threshold and
    are refused on every future load — in this process and the next.
    """

    def __init__(
        self, compiled: "CompiledPipeline", so_path: str, key: str
    ) -> None:
        super().__init__(None, compiled)
        self.so_path = str(so_path)
        self.key = key
        # the parent never dlopens the artifact, so driver capability
        # is decided from the emission predicate, not a symbol probe
        self._driver_capable = driver_emitted(compiled)

    def _call(self, arrays, num_threads, ctrl):
        try:
            return sandbox_pool().invoke(self, arrays, num_threads, ctrl)
        except (NativeCrashError, NativeHangError) as exc:
            kind = type(exc).__name__
            quarantined = native_artifact_store().record_crash(
                self.key, kind
            )
            exc.context["quarantined"] = quarantined
            raise

    @property
    def can_drive(self) -> bool:
        return self._driver_capable

    def pool_bytes(self) -> int:
        # the emitted pool statics live inside the worker processes;
        # the parent has no in-process native allocations to report
        return 0


# ---------------------------------------------------------------------------
# process-wide singleton
# ---------------------------------------------------------------------------


_POOL: SandboxPool | None = None
_POOL_LOCK = threading.Lock()


def sandbox_pool() -> SandboxPool:
    """The process-wide sandbox pool (lazily created)."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = SandboxPool()
            # workers are daemons, so exiting kills them either way —
            # but only an explicit close() unlinks the heartbeat/data
            # shm segments (idempotent: a second registration is a
            # no-op reset of an already-cleared singleton)
            atexit.register(reset_sandbox_pool)
        return _POOL


def sandbox_state() -> dict:
    """Pool state for health reporting — never *creates* the pool, so
    a service that has not executed natively reports ``enabled=False``
    instead of paying worker spawns inside ``healthz()``."""
    with _POOL_LOCK:
        pool = _POOL
    if pool is None:
        return {"enabled": False}
    state = pool.state()
    state["quarantined"] = len(
        native_artifact_store().quarantined_keys()
    )
    return state


def reset_sandbox_pool() -> None:
    """Close and forget the singleton (test isolation)."""
    global _POOL
    with _POOL_LOCK:
        pool, _POOL = _POOL, None
    if pool is not None:
        pool.close()
