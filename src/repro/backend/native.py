"""Native C/OpenMP JIT backend: compile and run the emitted PolyMG C.

The paper's headline speedups come from *compiled* C++/OpenMP; this
module closes the loop on our reproduction by taking the source
:func:`repro.backend.codegen_c.generate_native_c` emits — one
worksharing pipeline body plus the descriptor-validating entry points
that call it (``polymg_run``, ``polymg_drive``) — compiling it
out-of-process with the system toolchain, one object per unit
(:func:`native_units`: each stage function, the group functions, the
main unit) on every core at once, then linking them
(``cc -O2`` plus the loop vectorizer, ``-march=native -fopenmp -fPIC
-shared``, see :data:`DEFAULT_CFLAGS`; auto-discovered, flags
overridable via :attr:`repro.config.PolyMgConfig.native_cflags`),
loading the shared object via :mod:`ctypes`, and invoking it zero-copy
on the numpy buffers the executor already manages.

Shared objects are cached on disk in the content-addressed
:class:`~repro.cache.NativeArtifactStore` — the key hashes the emitted
source, the compiler flags, and the compiler's identity line, so a
warm process (or a warm cache directory) pays zero compile time.

Everything here is *fallible by design*: a missing toolchain, a failed
or timed-out compile, an unlowerable construct (non-double dtypes,
tile scratchpads too large for the thread stack, attached fault
injectors), or a rejected
ABI descriptor raises a typed
:class:`~repro.errors.NativeBackendError` subclass, and the executor
degrades to the planned numpy backend with a structured incident —
never a crash, never a silent wrong answer.

Environment switches: ``REPRO_CC`` pins the compiler (a nonexistent
value simulates a toolchain-less host); ``REPRO_NATIVE_TIMEOUT``
bounds the out-of-process compile in seconds (default 120);
``REPRO_NATIVE_CACHE_DIR`` relocates the artifact store.
"""

from __future__ import annotations

import atexit
import contextlib
import ctypes
import hashlib
import math
import os
import resource
import shlex
import shutil
import signal
import subprocess
import tempfile
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from ..cache import native_artifact_store
from ..errors import (
    NativeABIError,
    NativeBackendError,
    NativeCompileError,
    NativeLoweringError,
    NativeQuarantinedError,
    NativeToolchainError,
)
from .codegen_c import (
    DRIVER_ENTRY_NAME,
    NATIVE_ENTRY_NAME,
    UNIT_MARKER,
    generate_native_c,
)

if TYPE_CHECKING:  # pragma: no cover
    from .executor import CompiledPipeline

__all__ = [
    "DEFAULT_CFLAGS",
    "default_cflags",
    "discover_compiler",
    "compiler_ident",
    "unlowerable_reason",
    "native_artifact_key",
    "native_units",
    "compile_units",
    "NativeModule",
    "NativeRunner",
    "DriveCtrl",
    "DriveResult",
    "NativeBuildHandle",
    "build_native_runner",
    "start_native_build",
    "native_isolation_mode",
]

#: what gcc needs spelled out on top of ``-O2`` and clang neither needs
#: nor takes.  The loop vectorizer under the *dynamic* cost model:
#: plain ``-O2`` (gcc 12's very-cheap model) refuses every loop with a
#: runtime trip count, i.e. every emitted stage loop, and runs the 2-D
#: N=1024 cycle at ~11 ms instead of ~6.5 ms; ``-O3`` runs it no faster
#: and spends 14.7 s instead of 10.9 s of ``cc`` on the benchmark
#: suite's eight cold specs.  No vectorized epilogues (rows are long or
#: a tile wide; two more copies of every loop body bought nothing
#: measurable and ~10 % of ``cc`` time).  A collector that runs: with
#: the default thresholds (an eighth of RAM before the first
#: collection) ``cc1`` peaks at 109-132 MB on the suite's 3-D specs
#: whatever the size of the largest function, with these at ~60 MB in
#: the same time — and the compiler's peak is part of every process
#: that JITs.
_GCC_ONLY_CFLAGS = (
    "-ftree-vectorize",
    "-fvect-cost-model=dynamic",
    "--param=vect-epilogues-nomask=0",
    "--param=ggc-min-heapsize=16384",
    "--param=ggc-min-expand=20",
)

#: default out-of-process compile flags (overridable per config), in
#: gcc's spelling
DEFAULT_CFLAGS = (
    "-O2", *_GCC_ONLY_CFLAGS, "-march=native", "-fopenmp", "-fPIC", "-shared"
)


def default_cflags(ident: str) -> tuple[str, ...]:
    """:data:`DEFAULT_CFLAGS` as the compiler identified by ``ident``
    (:func:`compiler_ident`) takes them: clang vectorizes loops at
    ``-O2`` already and rejects gcc's cost-model flag and params."""
    if "clang" in ident.lower():
        return tuple(
            flag for flag in DEFAULT_CFLAGS if flag not in _GCC_ONLY_CFLAGS
        )
    return DEFAULT_CFLAGS


def _compile_timeout() -> float:
    try:
        return float(os.environ.get("REPRO_NATIVE_TIMEOUT", "120"))
    except ValueError:
        return 120.0


# ---------------------------------------------------------------------------
# toolchain discovery
# ---------------------------------------------------------------------------

def discover_compiler() -> str | None:
    """Absolute path of the C compiler to use, or ``None``.

    ``REPRO_CC`` wins when set (and resolves strictly — pointing it at
    a nonexistent binary deliberately simulates a toolchain-less
    host); otherwise the first of ``cc``/``gcc``/``clang`` on PATH.
    """
    env = os.environ.get("REPRO_CC")
    if env is not None:
        if os.path.sep in env and os.access(env, os.X_OK):
            return env
        return shutil.which(env)
    for candidate in ("cc", "gcc", "clang"):
        path = shutil.which(candidate)
        if path:
            return path
    return None


_IDENT_MEMO: dict[str, str] = {}
_IDENT_LOCK = threading.Lock()


def compiler_ident(cc: str) -> str:
    """First ``--version`` line of the compiler (part of the artifact
    content address: a toolchain upgrade must bust the .so cache)."""
    with _IDENT_LOCK:
        hit = _IDENT_MEMO.get(cc)
        if hit is not None:
            return hit
    try:
        proc = subprocess.run(
            [cc, "--version"], capture_output=True, text=True, timeout=10
        )
        ident = (proc.stdout or proc.stderr).splitlines()[0].strip()
    except (OSError, subprocess.TimeoutExpired, IndexError):
        ident = f"unknown:{cc}"
    with _IDENT_LOCK:
        _IDENT_MEMO[cc] = ident
    return ident


# ---------------------------------------------------------------------------
# lowerability gate
# ---------------------------------------------------------------------------

def _thread_stack_bytes() -> int:
    """The stack an OpenMP thread runs the group functions on:
    ``OMP_STACKSIZE`` (``<n>[B|K|M|G]``, KiB by default) if it is set,
    else the soft ``RLIMIT_STACK`` — which glibc also gives new
    threads, or 2 MiB when it is unlimited."""
    env = os.environ.get("OMP_STACKSIZE", "").strip().upper()
    digits = env.rstrip("BKMG")
    shift = {"B": 0, "": 10, "K": 10, "M": 20, "G": 30}.get(env[len(digits):])
    if digits.isdigit() and shift is not None:
        return int(digits) << shift
    soft = resource.getrlimit(resource.RLIMIT_STACK)[0]
    return 2 << 20 if soft == resource.RLIM_INFINITY else soft


def unlowerable_reason(compiled: "CompiledPipeline") -> str | None:
    """Why this pipeline cannot run natively, or ``None`` if it can.

    The C emitter renders every schedule, but non-double dtypes would
    execute *differently* from the numpy backend (the emitted kernels
    are ``double`` throughout) and therefore stay on it.  One construct
    would crash: a tiled group's scratchpads are stack arrays, one set
    per thread, so a tile whose scratch exceeds half the thread stack
    is refused rather than run into SIGSEGV.  Fault-injection hooks are a per-execute runtime
    condition, checked by the executor, not here.
    """
    for func in list(compiled.dag.inputs) + list(compiled.dag.stages):
        if func.dtype.np_dtype != np.float64:
            return (
                f"stage {func.name!r} has non-double dtype "
                f"{func.dtype.name}"
            )
    budget = _thread_stack_bytes() // 2
    for gi, group in enumerate(compiled.grouping.groups):
        if not (compiled.config.tile and group.size > 1):
            continue
        shapes = compiled._group_tile_plan(gi, group).max_buf_shapes
        scratch = 8 * sum(math.prod(shape) for shape in shapes.values())
        if scratch > budget:
            return (
                f"group {gi}'s tile scratchpads take {scratch} bytes of "
                f"stack, over half the {2 * budget}-byte thread stack"
            )
    return None


# ---------------------------------------------------------------------------
# content address + out-of-process compile
# ---------------------------------------------------------------------------

def native_artifact_key(
    source: str, cflags: tuple[str, ...], ident: str
) -> str:
    """Content address of a shared object: source + flags + compiler."""
    h = hashlib.sha256()
    h.update(source.encode())
    h.update(repr(tuple(cflags)).encode())
    h.update(ident.encode())
    return h.hexdigest()


def native_units(source: str) -> list[tuple[str, str]]:
    """Cut :func:`~repro.backend.codegen_c.generate_native_c`'s source
    at its unit markers: ``(name, text)`` per unit, each text the
    shared preamble plus the unit, with a ``#line`` directive so the
    compiler's diagnostics cite lines of ``source``."""
    lines = source.splitlines(keepends=True)
    marks = [i for i, ln in enumerate(lines) if ln.startswith(UNIT_MARKER)]
    preamble = "".join(lines[: marks[0]])
    return [
        (
            lines[a][len(UNIT_MARKER):].split()[0],
            f"{preamble}#line {a + 2}\n" + "".join(lines[a + 1 : b]),
        )
        for a, b in zip(marks, marks[1:] + [len(lines)])
    ]


#: builds in flight, by the thread waiting on each: ``(directory, sh)``
_BUILDS: dict[int, tuple[Path, subprocess.Popen]] = {}
_BUILDS_LOCK = threading.Lock()


def _kill_builds(threads=None, remove: bool = True) -> None:
    """SIGKILL the process group of every build in flight (only those
    waited on by ``threads``, if given) and, with ``remove``, delete
    its directory.  Registered for interpreter exit: the build threads
    are daemons, so otherwise their compilers outlive the process and
    their directories stay in the store."""
    with _BUILDS_LOCK:
        builds = [
            b for t, b in _BUILDS.items() if threads is None or t in threads
        ]
    for workdir, proc in builds:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        if remove:
            with contextlib.suppress(subprocess.TimeoutExpired):
                proc.wait(5)
            shutil.rmtree(workdir, ignore_errors=True)


atexit.register(_kill_builds)


def compile_units(
    cc: str,
    cflags: tuple[str, ...],
    source: str,
    workdir: Path,
    timeout: float,
) -> str:
    """Build ``source`` into ``workdir/pipeline.so``: every unit of
    :func:`native_units` to its own object, one lane of ``cc -c`` per
    core taking the largest unit no lane has claimed yet, then one
    link — all run by a single ``sh`` in its own process group, which
    a timeout kills whole.  Returns the compilers' stderr; raises
    :class:`NativeCompileError` naming the units that failed (on
    timeout: those without an object) and carrying their stderr."""
    units = dict(native_units(source))
    for name, text in units.items():
        (workdir / f"{name}.c").write_text(text)
    cores = getattr(os, "sched_getaffinity", lambda _: [1])(0)
    cmd = shlex.join((cc, *cflags))
    script = [
        "lane() { for n in "
        + " ".join(sorted(units, key=lambda n: -len(units[n])))
        + "; do",
        # a unit belongs to the lane whose mkdir claims it first
        "  mkdir $n.claim 2>/dev/null || continue",
        f"  {cmd} -c $n.c -o $n.o 2>$n.err || echo $n >>failed",
        "done; }",
        *["lane &"] * len(cores),
        "wait",
        "[ -e failed ] && exit 1",
        f"exec {cmd} {' '.join(n + '.o' for n in units)} -o pipeline.so"
        " -lm 2>link.err",
    ]

    def stderr(names) -> str:
        files = [workdir / f"{n}.err" for n in names]
        return "".join(f.read_text() for f in files if f.exists())

    proc = subprocess.Popen(
        ["sh", "-c", "\n".join(script)], cwd=workdir,
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        start_new_session=True,
    )
    thread = threading.get_ident()
    with _BUILDS_LOCK:
        _BUILDS[thread] = (workdir, proc)
    try:
        rc = proc.wait(timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # sh is unreaped: never gone
        proc.wait()
        rc = None
    finally:
        with _BUILDS_LOCK:
            _BUILDS.pop(thread, None)
    if rc == 0:
        return stderr(units)
    failed = workdir / "failed"
    if rc is None:
        names = [n for n in units if not (workdir / f"{n}.o").exists()]
    else:
        names = failed.read_text().split() if failed.exists() else ["link"]
    raise NativeCompileError(
        "C compiler failed on emitted source" if rc else
        "native compile timed out",
        cc=cc,
        units=names,
        returncode=rc,
        timeout_s=None if rc else timeout,
        stderr=stderr(names)[-2000:],
    )


def _compile_shared_object(
    cc: str,
    cflags: tuple[str, ...],
    source: str,
    key: str,
    timeout: float,
) -> Path:
    """Compile ``source`` out-of-process (:func:`compile_units`) and
    rename the result into the artifact store.  Raises
    :class:`NativeCompileError` on any failure."""
    store = native_artifact_store()
    store.root.mkdir(parents=True, exist_ok=True)
    # stage the build inside the store root so the final rename is
    # same-filesystem (atomic)
    workdir = Path(tempfile.mkdtemp(dir=store.root, prefix=".build-"))
    try:
        compile_units(cc, cflags, source, workdir, timeout)
        return store.put(
            key,
            workdir / "pipeline.so",
            meta={
                "cc": cc,
                "ident": compiler_ident(cc),
                "cflags": list(cflags),
                "source_bytes": len(source),
            },
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# ctypes module wrapper
# ---------------------------------------------------------------------------


class _PmgBuffer(ctypes.Structure):
    """Mirror of the emitted ``pmg_buffer`` descriptor struct."""

    _fields_ = [
        ("data", ctypes.POINTER(ctypes.c_double)),
        ("ndim", ctypes.c_int64),
        ("shape", ctypes.POINTER(ctypes.c_int64)),
        ("strides", ctypes.POINTER(ctypes.c_int64)),
    ]


class PmgDriveCtrl(ctypes.Structure):
    """Mirror of the emitted ``pmg_drive_ctrl`` struct (whole-solve
    driver ABI, see :func:`~repro.backend.codegen_c.generate_native_c`)."""

    _fields_ = [
        ("max_cycles", ctypes.c_int64),
        ("iterate_index", ctypes.c_int64),
        ("rhs_index", ctypes.c_int64),
        ("tol", ctypes.c_double),
        ("norm_scale", ctypes.c_double),
        ("inv_h2", ctypes.c_double),
        ("norms", ctypes.POINTER(ctypes.c_double)),
        ("progress", ctypes.POINTER(ctypes.c_int64)),
        ("cycles_done", ctypes.c_int64),
        ("converged", ctypes.c_int64),
    ]


@dataclass(frozen=True)
class DriveCtrl:
    """What one whole-solve driver burst is asked to do — the input
    half of :class:`PmgDriveCtrl` as one picklable value, built once in
    :meth:`~repro.backend.executor.CompiledPipeline.drive` and carried
    unchanged to wherever ``polymg_drive`` is entered (this process or a
    sandbox worker).  ``iterate_index``/``rhs_index`` are positions in
    the pipeline's input list; ``norm_scale`` and ``inv_h2`` are
    :class:`~repro.backend.executor.DriveSpec`'s residual-norm scalars."""

    max_cycles: int
    iterate_index: int
    rhs_index: int
    tol: float
    norm_scale: float
    inv_h2: float


@dataclass(slots=True)
class DriveResult:
    """Outcome of one whole-solve driver burst.

    ``outputs`` maps output names to arrays holding the iterate after
    the last *accepted* cycle; ``norms`` is the per-cycle residual-norm
    history (length ``cycles``); ``converged`` reports whether the
    in-kernel ``norm < tol`` test fired."""

    outputs: dict[str, np.ndarray]
    norms: list[float]
    cycles: int
    converged: bool


class NativeModule:
    """A loaded pipeline shared object.

    The emitted translation unit keeps its memory pool in module
    statics (the paper's cross-cycle pooling), which are not
    thread-safe — every invocation holds :attr:`lock`.  Modules are
    process-global (one per .so path) and never unloaded: dlopen
    handles are reference-counted and an unlinked-but-open .so stays
    valid on Linux, so eviction of the backing file is safe.
    """

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self.lock = threading.Lock()
        try:
            self._lib = ctypes.CDLL(str(path))
        except OSError as exc:
            raise NativeCompileError(
                "could not load compiled shared object",
                path=str(path),
                error=str(exc),
            )
        try:
            self._run = getattr(self._lib, NATIVE_ENTRY_NAME)
            self._release = self._lib.polymg_pool_release
        except AttributeError as exc:
            raise NativeCompileError(
                "shared object is missing the native ABI entry points",
                path=str(path),
                error=str(exc),
            )
        abi = [
            ctypes.POINTER(ctypes.c_int64),  # params
            ctypes.c_int64,                  # n_params
            ctypes.c_int64,                  # nthreads
            ctypes.POINTER(_PmgBuffer),      # inputs
            ctypes.c_int64,                  # n_inputs
            ctypes.POINTER(_PmgBuffer),      # outputs
            ctypes.c_int64,                  # n_outputs
        ]
        self._run.restype = ctypes.c_int
        self._run.argtypes = abi
        self._release.restype = None
        self._release.argtypes = []
        # the whole-solve driver entry is emitted only for eligible
        # pipelines (single output, non-degenerate interior) — older
        # cached artifacts and ineligible shapes simply lack the symbol
        self._drive = getattr(self._lib, DRIVER_ENTRY_NAME, None)
        if self._drive is not None:
            self._drive.restype = ctypes.c_int
            self._drive.argtypes = [*abi, ctypes.POINTER(PmgDriveCtrl)]

    def invoke(
        self,
        params: list[int],
        num_threads: int,
        inputs: list,
        outputs: list,
        ctrl: DriveCtrl | None = None,
        norms_address: int = 0,
        progress_address: int = 0,
    ) -> tuple[int, int, bool]:
        """Enter the shared object once: ``polymg_run``, or
        ``polymg_drive`` when ``ctrl`` is given.  ``inputs``/``outputs``
        describe the buffers as ``(address, shape, strides)`` with
        strides in elements (``None``: dense row-major);
        ``norms_address`` is room for ``ctrl.max_cycles`` doubles and
        ``progress_address`` an optional int64 the driver bumps once per
        cycle.  Returns ``(rc, cycles_done, converged)``."""
        keepalive: list = []

        def descriptors(specs) -> ctypes.Array:
            bufs = (_PmgBuffer * max(1, len(specs)))()
            for k, (address, shape, strides) in enumerate(specs):
                if strides is None:
                    strides = [1] * len(shape)
                    for d in range(len(shape) - 2, -1, -1):
                        strides[d] = strides[d + 1] * shape[d + 1]
                c_shape = (ctypes.c_int64 * len(shape))(*shape)
                c_strides = (ctypes.c_int64 * len(shape))(*strides)
                keepalive.extend((c_shape, c_strides))
                bufs[k] = _PmgBuffer(
                    ctypes.cast(address, ctypes.POINTER(ctypes.c_double)),
                    len(shape),
                    c_shape,
                    c_strides,
                )
            return bufs

        args = [
            (ctypes.c_int64 * max(1, len(params)))(*(params or [0])),
            len(params),
            int(num_threads),
            descriptors(inputs),
            len(inputs),
            descriptors(outputs),
            len(outputs),
        ]
        if ctrl is None:
            with self.lock:
                return int(self._run(*args)), 0, False
        if self._drive is None:
            raise NativeABIError(
                "shared object does not export the whole-solve driver",
                path=str(self.path),
            )
        block = PmgDriveCtrl(
            **asdict(ctrl),
            norms=ctypes.cast(
                norms_address, ctypes.POINTER(ctypes.c_double)
            ),
            progress=ctypes.cast(
                progress_address, ctypes.POINTER(ctypes.c_int64)
            ),
        )
        with self.lock:
            rc = int(self._drive(*args, ctypes.byref(block)))
        return rc, int(block.cycles_done), bool(block.converged)

    def release_pool(self) -> None:
        """Free the buffers the module's pool keeps across calls (the
        module itself is never unloaded); the next call allocates
        afresh."""
        with self.lock:
            self._release()


_MODULES: dict[str, NativeModule] = {}
_MODULES_LOCK = threading.Lock()


def _load_module(path: Path) -> NativeModule:
    key = str(Path(path).resolve())
    with _MODULES_LOCK:
        mod = _MODULES.get(key)
        if mod is None:
            mod = NativeModule(path)
            _MODULES[key] = mod
        return mod


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------


class NativeRunner:
    """Zero-copy invoker of a loaded pipeline shared object.

    Holds the baked call geometry (parameter values in sorted-name
    order, input/output functions in DAG order with their concrete
    shapes) and translates numpy arrays into ``pmg_buffer``
    descriptors.  C-contiguous float64 inputs are passed by pointer;
    anything else (sliced, Fortran-ordered, float32, misaligned) is
    normalized with ``np.ascontiguousarray(..., dtype=float64)`` —
    semantically the same upcast/copy the numpy backend performs — so
    the shared object only ever sees dense row-major doubles.
    """

    def __init__(self, module: NativeModule, compiled: "CompiledPipeline"):
        self.module = module
        dag = compiled.dag
        bindings = compiled.bindings
        self.pipeline = dag.name
        self.param_values = [
            int(bindings[p]) for p in sorted(bindings)
        ]
        self.inputs = [
            (grid, grid.domain_box(bindings).shape())
            for grid in dag.inputs
        ]
        self.outputs = [
            (out, out.domain_box(bindings).shape())
            for out in dag.outputs
        ]
        #: set once the verify_level=full cross-check has passed
        self.verified = False

    # -- descriptor marshalling -----------------------------------------
    def _normalize(self, func, arr: np.ndarray) -> np.ndarray:
        if (
            arr.dtype == np.float64
            and arr.flags.c_contiguous
            and arr.flags.aligned
        ):
            return arr
        try:
            return np.ascontiguousarray(arr, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise NativeABIError(
                f"input {func.name!r} cannot be normalized to dense "
                "row-major float64",
                pipeline=self.pipeline,
                dtype=str(arr.dtype),
                error=str(exc),
            )

    def _staged_arrays(self, input_arrays: dict) -> list[np.ndarray]:
        """The inputs in DAG order, normalized and shape-checked."""
        arrays = []
        for grid, shape in self.inputs:
            arr = self._normalize(grid, input_arrays[grid])
            if arr.shape != shape:
                raise NativeABIError(
                    f"input {grid.name!r} has shape {arr.shape}, the "
                    f"shared object was compiled for {shape}",
                    pipeline=self.pipeline,
                )
            arrays.append(arr)
        return arrays

    def _call(
        self,
        arrays: list[np.ndarray],
        num_threads: int,
        ctrl: DriveCtrl | None,
    ) -> tuple[list[np.ndarray], list[float], bool]:
        """Enter the loaded module on ``arrays`` (zero-copy); returns
        ``(outputs in DAG order, per-cycle norms, converged)``."""
        outputs = [
            np.empty(shape, dtype=np.float64) for _out, shape in self.outputs
        ]
        norms = np.empty(ctrl.max_cycles if ctrl is not None else 0)

        def spec(arr: np.ndarray):
            return (
                arr.ctypes.data,
                arr.shape,
                [s // arr.itemsize for s in arr.strides],
            )

        rc, done, converged = self.module.invoke(
            self.param_values,
            num_threads,
            [spec(arr) for arr in arrays],
            [spec(arr) for arr in outputs],
            ctrl,
            norms.ctypes.data,
        )
        if rc != 0:
            raise self._error_for(rc)
        return outputs, norms[:done].tolist(), converged

    def _invoke(
        self, input_arrays: dict, num_threads: int, ctrl=None
    ) -> tuple[dict[str, np.ndarray], list[float], bool]:
        outputs, norms, converged = self._call(
            self._staged_arrays(input_arrays), int(num_threads), ctrl
        )
        named = {
            out.name: arr
            for (out, _shape), arr in zip(self.outputs, outputs)
        }
        return named, norms, converged

    def run(
        self,
        input_arrays: dict,
        num_threads: int,
    ) -> dict[str, np.ndarray]:
        """One pipeline invocation; returns ``{output name: array}``."""
        return self._invoke(input_arrays, num_threads)[0]

    # -- whole-solve driver ---------------------------------------------
    @property
    def can_drive(self) -> bool:
        """Whether the loaded artifact exports ``polymg_drive``."""
        return getattr(self.module, "_drive", None) is not None

    def drive(
        self, input_arrays: dict, num_threads: int, ctrl: DriveCtrl
    ) -> DriveResult:
        """One multi-cycle driver burst: run up to ``ctrl.max_cycles``
        multigrid cycles (with the in-kernel ``norm < tol`` convergence
        test) inside the shared object's persistent OpenMP team.

        Returns the iterate after the last accepted cycle plus the full
        per-cycle residual-norm history; never mutates the caller's
        input arrays (the driver ping-pongs through pool buffers and
        copies out only on success)."""
        if not self.can_drive:
            raise NativeABIError(
                "shared object does not export the whole-solve driver",
                pipeline=self.pipeline,
            )
        outputs, norms, converged = self._invoke(
            input_arrays, num_threads, ctrl
        )
        return DriveResult(outputs, norms, len(norms), converged)

    def _error_for(self, rc: int) -> NativeBackendError:
        if rc == 500 or rc == -1:
            return NativeBackendError(
                "native pool allocation failed",
                pipeline=self.pipeline,
                returncode=rc,
            )
        what = "the call geometry"
        if rc == 4:  # only ``polymg_drive`` answers 4
            what = "the driver control block"
        elif 100 <= rc < 300:
            kind, funcs = ("input", self.inputs) if rc < 200 else (
                "output", self.outputs
            )
            which = funcs[rc % 100][0].name if rc % 100 < len(funcs) else "?"
            what = f"{kind} descriptor {which!r}"
        return NativeABIError(
            f"shared object rejected {what}",
            pipeline=self.pipeline,
            returncode=rc,
        )


# ---------------------------------------------------------------------------
# build orchestration
# ---------------------------------------------------------------------------


def native_isolation_mode(config) -> str:
    """The effective isolation mode for native invocations:
    ``REPRO_NATIVE_ISOLATION`` wins when set (and names a known mode),
    otherwise :attr:`~repro.config.PolyMgConfig.native_isolation`."""
    from ..config import ISOLATION_MODES

    env = os.environ.get("REPRO_NATIVE_ISOLATION")
    if env in ISOLATION_MODES:
        return env
    return getattr(config, "native_isolation", "none")


def build_native_runner(
    compiled: "CompiledPipeline", timeout: float | None = None
) -> tuple[NativeRunner, dict]:
    """Lower, compile (or fetch from the artifact store), load, and
    wrap one pipeline.  Returns ``(runner, info)`` where ``info``
    records provenance (``cache_hit``, ``artifact``, ``cc``).  Raises
    a typed :class:`~repro.errors.NativeBackendError` on any failure.

    Under ``native_isolation="sandbox"`` the artifact is *never*
    dlopened here: the returned runner routes every invocation through
    the out-of-process executor pool (:mod:`repro.backend.sandbox`),
    and a content hash the store has quarantined (crashed too many
    times, see :meth:`~repro.cache.NativeArtifactStore.record_crash`)
    is refused before compile or load with
    :class:`~repro.errors.NativeQuarantinedError`.
    """
    reason = unlowerable_reason(compiled)
    if reason is not None:
        raise NativeLoweringError(
            "pipeline cannot be lowered to native code",
            pipeline=compiled.dag.name,
            reason=reason,
        )
    cc = discover_compiler()
    if cc is None:
        raise NativeToolchainError(
            "no C compiler found (REPRO_CC, cc, gcc, clang)",
            pipeline=compiled.dag.name,
            repro_cc=os.environ.get("REPRO_CC"),
        )
    ident = compiler_ident(cc)
    cflags = tuple(compiled.config.native_cflags or default_cflags(ident))
    source = generate_native_c(compiled)
    key = native_artifact_key(source, cflags, ident)
    store = native_artifact_store()
    if store.is_quarantined(key):
        raise NativeQuarantinedError(
            "artifact is quarantined after repeated crashes; "
            "refusing to reload it",
            pipeline=compiled.dag.name,
            artifact_key=key,
        )
    so_path = store.get(key)
    cache_hit = so_path is not None
    if so_path is None:
        so_path = _compile_shared_object(
            cc, cflags, source, key,
            timeout if timeout is not None else _compile_timeout(),
        )
    isolation = native_isolation_mode(compiled.config)
    if isolation == "sandbox":
        from .sandbox import SandboxRunner

        runner: NativeRunner = SandboxRunner(
            compiled, str(so_path), key
        )
    else:
        runner = NativeRunner(_load_module(so_path), compiled)
    info = {
        "cache_hit": cache_hit,
        "artifact": str(so_path),
        "key": key,
        "cc": cc,
        "cflags": list(cflags),
        "isolation": isolation,
    }
    return runner, info


class NativeBuildHandle:
    """State of one (possibly background) native build.

    States: ``pending`` → ``ready`` | ``failed``.  The executor polls
    :meth:`ready_runner` on each execute — no blocking on the hot path
    — and :meth:`wait` joins the build when a caller needs the answer
    (benchmarks, ``verify_level=full``, the autotuner's timed region).
    """

    def __init__(self) -> None:
        self._done = threading.Event()
        self.runner: NativeRunner | None = None
        self.error: NativeBackendError | None = None
        self.info: dict = {}
        self.compile_time_s: float = 0.0
        #: the background build thread (``None`` for inline builds) —
        #: always a *daemon* so a compile outliving the process can
        #: never block interpreter shutdown; retained here so
        #: ``CompiledPipeline.close()`` can :meth:`join` it bounded
        self.thread: threading.Thread | None = None
        #: pipelines sharing the build (compile-cache clones adopt it)
        self.users = 1
        self._users_lock = threading.Lock()

    @property
    def state(self) -> str:
        if not self._done.is_set():
            return "pending"
        return "ready" if self.runner is not None else "failed"

    def wait(self, timeout: float | None = None) -> bool:
        return self._done.wait(timeout)

    def join(self, timeout: float | None = None) -> bool:
        """Join the background build thread (bounded); returns whether
        the thread is no longer running.  A no-op for inline builds."""
        thread = self.thread
        if thread is None:
            return True
        thread.join(timeout)
        return not thread.is_alive()

    def share(self, users: int) -> None:
        """``users`` more (fewer, if negative) pipelines share the
        build; once none does, a pending build's compilers are killed,
        and the build fails and removes its directory."""
        with self._users_lock:
            self.users += users
            last = self.users <= 0
        if last and self.thread is not None:
            _kill_builds({self.thread.ident}, remove=False)

    def ready_runner(self) -> NativeRunner | None:
        if self._done.is_set():
            return self.runner
        return None

    def _finish(self, runner, error, info, elapsed) -> None:
        self.runner = runner
        self.error = error
        self.info = info
        self.compile_time_s = elapsed
        self._done.set()


def start_native_build(
    compiled: "CompiledPipeline",
    background: bool = True,
    timeout: float | None = None,
) -> NativeBuildHandle:
    """Kick off a native build for ``compiled``.

    ``background=True`` (the default, used by ``compile_pipeline``)
    runs the toolchain on a daemon thread so compilation overlaps the
    caller's next steps and the first (numpy-executed) cycles;
    ``background=False`` builds inline.
    """
    handle = NativeBuildHandle()

    def build() -> None:
        t0 = time.perf_counter()
        runner, error, info = None, None, {}
        try:
            runner, info = build_native_runner(compiled, timeout=timeout)
        except NativeBackendError as exc:
            error = exc
        except Exception as exc:  # defensive: never kill the process
            error = NativeBackendError(
                "unexpected native build failure", error=repr(exc)
            )
        handle._finish(runner, error, info, time.perf_counter() - t0)

    if background:
        thread = threading.Thread(
            target=build, name="polymg-native-build", daemon=True
        )
        handle.thread = thread
        thread.start()
    else:
        build()
    return handle
