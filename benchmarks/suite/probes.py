"""Host probes of the traced run: STREAM-triad bandwidth and OpenMP
barrier latency (``hostprobe/probe.c``), and the ``MachineSpec`` built
from them that the cost model is evaluated on."""

from __future__ import annotations

import ctypes
import math
import os
import subprocess
from pathlib import Path

from .harness import cache_sizes, eprint, llc_bytes

PROBE_DIR = Path(__file__).resolve().parent / "hostprobe"

#: bandwidth arrays are this many times the last-level cache
#: (choosing-metrics, hpc-scientific sheet)
LLC_MULTIPLE = 4


def _mem_available() -> int:
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


def _load(workdir: Path):
    lib_path = workdir / "hostprobe.so"
    try:
        proc = subprocess.run(
            ["make", "-s", "-C", str(PROBE_DIR), f"OUT={workdir}"],
            capture_output=True, text=True, timeout=120,
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        eprint(f"hostprobe: build did not run: {exc}")
        return None
    if proc.returncode != 0:
        eprint(f"hostprobe: build failed: {proc.stderr.strip()[-500:]}")
        return None
    lib = ctypes.CDLL(str(lib_path))
    lib.pmg_probe_triad.argtypes = [
        ctypes.c_long, ctypes.c_int, ctypes.c_int,
        ctypes.POINTER(ctypes.c_double),
    ]
    lib.pmg_probe_triad.restype = ctypes.c_double
    lib.pmg_probe_barrier.argtypes = [ctypes.c_int, ctypes.c_int]
    lib.pmg_probe_barrier.restype = ctypes.c_double
    return lib


def host_probes(workdir: Path, threads: int) -> dict:
    """Measure the host in this process.  ``triad_*`` are 0 when the
    probe could not be built or three arrays of 4x LLC do not fit in
    40 % of available memory — the roofline fraction is then left out
    rather than taken against a cache-resident stream."""
    llc = llc_bytes()
    array_bytes = LLC_MULTIPLE * llc
    out = {
        "llc_bytes": llc,
        "triad_array_bytes": array_bytes,
        "triad_gbytes_s": 0.0,
        "triad_1t_gbytes_s": 0.0,
        "barrier_us": 0.0,
        "threads": threads,
    }
    lib = _load(workdir)
    if lib is None:
        return out
    out["barrier_us"] = lib.pmg_probe_barrier(20000, threads) * 1e6
    if llc and 3 * array_bytes <= 0.4 * _mem_available():
        n = array_bytes // 8
        single = ctypes.c_double(-1.0)
        team = lib.pmg_probe_triad(n, 3, threads, ctypes.byref(single))
        if team > 0 and single.value > 0:
            # STREAM convention: three arrays cross the bus
            out["triad_gbytes_s"] = 3 * 8 * n / team / 1e9
            out["triad_1t_gbytes_s"] = 3 * 8 * n / single.value / 1e9
    return out


def host_machine(probe: dict):
    """A ``MachineSpec`` for this host from the probes.  Flops per
    core-cycle is not probed: it keeps the 8.0 the repository's other
    machine specs assume (labelled *assumed* in README.md)."""
    from repro.model.machine import LAPTOP_MACHINE, MachineSpec

    if not probe["triad_gbytes_s"]:
        return LAPTOP_MACHINE
    caches = cache_sizes()
    threads = probe["threads"]
    freq = 0.0
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("cpu MHz"):
                    freq = float(line.split(":")[1]) * 1e6
                    break
    except OSError:
        pass
    return MachineSpec(
        name="host (probed)",
        cores=os.cpu_count() or 1,
        sockets=1,
        freq_hz=freq or LAPTOP_MACHINE.freq_hz,
        flops_per_cycle=8.0,
        dram_bw_core=probe["triad_1t_gbytes_s"] * 1e9,
        dram_bw_total=probe["triad_gbytes_s"] * 1e9,
        l1_per_core=caches.get("L1d", LAPTOP_MACHINE.l1_per_core),
        l2_per_core=caches.get("L2", LAPTOP_MACHINE.l2_per_core),
        l3_per_socket=caches.get("L3", LAPTOP_MACHINE.l3_per_socket),
        barrier_scale_s=probe["barrier_us"] * 1e-6 / math.log2(threads + 1),
    )
