"""Measurement plumbing shared by the workloads: the percentile rule,
the span recorder, seeded right-hand sides, the correctness gate, peak
RSS and the host envelope.

Nothing here imports ``repro`` at module level, so the harness's own
unit tests and ``compare`` run without ``src`` on the path.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]

#: a percentile is reported only when at least this many samples lie
#: beyond it (choosing-metrics §1); p90 therefore needs >= 100 samples
MIN_BEYOND = 10


# ---------------------------------------------------------------------------
# percentiles
# ---------------------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def latency_summary(samples_ms) -> dict:
    """Median always; p90 only with >= ``MIN_BEYOND`` samples beyond it
    (``None`` otherwise); the sample count is always stated."""
    n = len(samples_ms)
    beyond_p90 = n - math.ceil(0.9 * n)
    return {
        "n": n,
        "p50": statistics.median(samples_ms) if n else None,
        "p90": (
            percentile(samples_ms, 90) if beyond_p90 >= MIN_BEYOND else None
        ),
    }


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

class Tracer:
    """In-memory span recorder.

    A span is ``{id, name, op, parent, start, end}`` on the
    ``time.perf_counter`` clock; ``op`` is the operation id every span
    of one solve shares.  Nesting follows the ``with`` structure per
    thread.  Spans are written out only when the run ends."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._tls = threading.local()

    def _push(self, rec: dict) -> dict:
        with self._lock:
            rec["id"] = len(self.spans)
            self.spans.append(rec)
        return rec

    def span(self, name: str, op=None) -> "_Span":
        return _Span(self, name, op)

    def add(self, name, start, end, parent=None, op=None) -> dict:
        """Record a span from timestamps the program itself reported
        (e.g. a ticket's admitted/started/finished stamps)."""
        return self._push(
            {"name": name, "op": op, "parent": parent,
             "start": start, "end": end}
        )

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str, op) -> None:
        self.tracer, self.name, self.op = tracer, name, op
        self.rec: dict | None = None

    def __enter__(self) -> dict:
        tls = self.tracer._tls
        stack = getattr(tls, "stack", None)
        if stack is None:
            stack = tls.stack = []
        parent = stack[-1] if stack else None
        op = self.op
        if op is None and parent is not None:
            op = parent["op"]
        self.rec = self.tracer._push(
            {"name": self.name, "op": op,
             "parent": parent["id"] if parent else None,
             "start": time.perf_counter(), "end": None}
        )
        stack.append(self.rec)
        return self.rec

    def __exit__(self, *exc) -> bool:
        self.rec["end"] = time.perf_counter()
        self.tracer._tls.stack.pop()
        return False


class _NullSpan:
    def __enter__(self):
        return None

    def __exit__(self, *exc) -> bool:
        return False


class NullTracer:
    """The untraced run's tracer: every call is a no-op."""

    enabled = False
    spans: tuple = ()
    _null = _NullSpan()

    def span(self, name: str, op=None) -> _NullSpan:
        return self._null

    def add(self, *args, **kwargs) -> None:
        return None


def self_times(spans) -> dict[int, float]:
    """Self time of every span: its duration minus the part of its
    interval that its direct children cover (overlapping children are
    merged, children are clipped to the parent)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for rec in spans:
        if rec["parent"] is not None:
            children.setdefault(rec["parent"], []).append(
                (rec["start"], rec["end"])
            )
    out: dict[int, float] = {}
    for rec in spans:
        lo, hi = rec["start"], rec["end"]
        covered, cursor = 0.0, lo
        for start, end in sorted(children.get(rec["id"], ())):
            start, end = max(start, cursor), min(end, hi)
            if end > start:
                covered += end - start
                cursor = end
        out[rec["id"]] = (hi - lo) - covered
    return out


def durations_by_name(spans) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for rec in spans:
        out.setdefault(rec["name"], []).append(rec["end"] - rec["start"])
    return out


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def flat_rhs(ndim: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Right-hand side on the ``(n+2)**ndim`` grid whose sine-mode
    amplitudes are all 1 in magnitude with seeded random signs.

    Why not white noise: at seed the hierarchy's asymptotic contraction
    is ~0.99/cycle while rough modes die in a few cycles, so the cycle
    count to a relative tolerance is decided by how much energy the
    draw happens to put into the few smoothest modes — 27 to 72 cycles
    across seeds at 2-D N=1024.  A flat spectrum fixes every mode's
    energy, so the cycle count is the same for every seed and only the
    data differ."""
    k = np.arange(1, n + 1)
    sines = np.sin(np.pi * np.outer(k, k) / (n + 1))
    interior = rng.choice((-1.0, 1.0), size=(n,) * ndim)
    for axis in range(ndim):
        interior = np.moveaxis(
            np.tensordot(sines, interior, axes=([1], [axis])), 0, axis
        )
    f = np.zeros((n + 2,) * ndim)
    f[(slice(1, -1),) * ndim] = interior
    return f


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

#: iterate-vs-reference agreement demanded of small specs, relative to
#: max|u|; the repository's own tests hold the tiers to 1e-12
REFERENCE_RTOL = 1e-9


def check_solution(
    spec, f, u, cycles, rtol, max_cycles, reference: bool = True
) -> str | None:
    """Why this solve is wrong, or ``None`` when it is right.

    The final residual is recomputed from scratch and must meet the
    relative tolerance; with ``reference`` a small spec's iterate must
    also agree with the independent numpy reference solver run for the
    same cycle count."""
    from repro.multigrid.kernels import norm_residual
    from repro.multigrid.reference import solve as reference_solve

    h = 1.0 / (spec.n + 1)
    norm0 = norm_residual(np.zeros_like(f), f, h)
    norm = norm_residual(u, f, h)
    if not np.isfinite(norm):
        return "non-finite residual"
    if norm >= rtol * norm0:
        hit = "cycle budget" if cycles >= max_cycles else "early stop"
        return f"residual {norm / norm0:.3e} misses rtol {rtol:g} ({hit})"
    if reference and spec.small():
        ref = reference_solve(f, spec.options(), cycles=cycles)
        scale = float(np.max(np.abs(ref.u))) or 1.0
        err = float(np.max(np.abs(ref.u - u))) / scale
        if not err <= REFERENCE_RTOL:
            return f"iterate differs from reference by {err:.3e}"
    return None


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------

def _status_kb(pid, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def live_descendants(pid: int) -> list[int]:
    parent_of: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                tail = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        parent_of[int(entry)] = int(tail[1])
    found, frontier = [], [pid]
    while frontier:
        cur = frontier.pop()
        kids = [p for p, parent in parent_of.items() if parent == cur]
        found.extend(kids)
        frontier.extend(kids)
    return found


def peak_rss_mb() -> float:
    """Peak RSS of this process, plus the peaks of its live
    descendants (sandbox workers), plus the largest descendant already
    reaped (the C compiler).  The three need not have coincided, so
    this is an upper bound on the peak of the sum."""
    me = os.getpid()
    live = _status_kb(me, "VmHWM") + sum(
        _status_kb(pid, "VmHWM") for pid in live_descendants(me)
    )
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (live + reaped) / 1024.0


# ---------------------------------------------------------------------------
# host envelope
# ---------------------------------------------------------------------------

def cache_sizes() -> dict[str, int]:
    """``{"L1d": bytes, "L2": ..., "L3": ...}`` of cpu0 from sysfs."""
    sizes: dict[str, int] = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            raw = (index / "size").read_text().strip()
        except OSError:
            continue
        mult = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(raw[-1], 1)
        value = int(raw.rstrip("KMG")) * mult
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        sizes[f"L{level}{suffix}"] = value
    return sizes


def llc_bytes() -> int:
    """Size of the last-level cache as the host reports it (0 if the
    host does not say)."""
    sizes = cache_sizes()
    levels = [k for k in sizes if not k.endswith("i")]
    return sizes[max(levels, key=lambda k: int(k[1]))] if levels else 0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_rev() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
            capture_output=True, text=True,
        )
        if proc.returncode == 0:
            return proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown (not a git checkout)"


def host_envelope() -> dict:
    """What a later reader needs to decide whether two outputs may be
    compared: same host class or not."""
    from repro.backend.native import (
        DEFAULT_CFLAGS,
        compiler_ident,
        discover_compiler,
    )

    cc = discover_compiler()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches_bytes": cache_sizes(),
        "cc": compiler_ident(cc) if cc else None,
        "cflags": list(DEFAULT_CFLAGS),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_rev": _git_rev(),
    }


def eprint(*args) -> None:
    print(*args, file=sys.stderr, flush=True)
