"""Content-addressed compile cache.

The autotuner sweeps 80/135-point configuration spaces per workload,
the benchmark harness re-compiles the same variants figure after
figure, and every :class:`~repro.resilience.pipeline.ResilientPipeline`
compiles each ladder rung it serves.  All of
those are *pure* recompilations: the compile pipeline is deterministic
in (DSL specification, parameter bindings, configuration), so its
result can be memoized under a stable content fingerprint.

Keying
------
:func:`compile_fingerprint` hashes three independent components:

* the **specification**: every function reachable from the outputs, in
  deterministic topological order — class, name, dtype, parametric
  domain intervals, the full definition expression tree, and the
  topological indices of its producers (so graph shape is captured
  beyond names);
* the **parameter bindings**, sorted;
* the **configuration**: every :class:`~repro.config.PolyMgConfig`
  field (via :meth:`~repro.config.PolyMgConfig.fingerprint`), so
  changing *any* switch — including ``verify_level`` and
  ``runtime_guards`` — busts the key.

Serving
-------
A hit does **not** return the original ``CompiledPipeline`` object: it
constructs a fresh executor over the *shared* immutable artifacts
(DAG, grouping, schedule, storage plan) so every compile result has
its own execution statistics, allocator pool, and fault-injection
hook, exactly like a cold compile.  The artifacts themselves are
protected by an **integrity seal** — a digest over group order,
schedule timestamps, and the complete storage plan taken at insert
time.  A fault injector (:mod:`repro.verify.faults`) that corrupts a
cached artifact in place changes the seal; the next lookup detects the
mismatch, evicts the tainted entry, and recompiles — corrupted
artifacts are never served from cache.

``REPRO_COMPILE_CACHE=0`` disables the cache process-wide;
``REPRO_COMPILE_CACHE_SIZE`` overrides the LRU capacity (default 256).

Native artifacts
----------------
The native JIT backend (:mod:`repro.backend.native`) keys its shared
objects by a content address over (emitted C source, compiler flags,
compiler identity) and stores them **on disk** in a
:class:`NativeArtifactStore`: artifacts are renamed into place
atomically (concurrent processes race benignly), a SHA-256 sidecar
detects corrupt artifacts (they are deleted and recompiled, never
loaded), and the store is size-bounded with LRU-by-mtime eviction.
``REPRO_NATIVE_CACHE_DIR`` overrides the location,
``REPRO_NATIVE_CACHE_BYTES`` the size bound (default 256 MiB).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

try:  # POSIX only; the store degrades to thread-level locking without it
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

if TYPE_CHECKING:  # pragma: no cover
    from .backend.executor import CompiledPipeline
    from .config import PolyMgConfig
    from .lang.function import Function
    from .passes.manager import CompileReport

__all__ = [
    "spec_fingerprint",
    "compile_fingerprint",
    "CacheStats",
    "CompileCache",
    "compile_cache",
    "cache_enabled",
    "NativeArtifactStats",
    "NativeArtifactStore",
    "native_artifact_store",
    "quarantine_threshold",
]


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------

# uids are drawn from a process-global monotonically increasing counter
# and never reused, so a uid tuple is a sound memo key even after the
# original Function objects are garbage-collected.
_spec_fp_memo: dict[tuple[int, ...], str] = {}


def spec_fingerprint(outputs: Sequence["Function"]) -> str:
    """Stable content hash of a DSL specification.

    Two independently built, structurally identical specifications
    (e.g. two calls to ``build_poisson_cycle`` with the same arguments)
    produce the same fingerprint even though their ``Function`` objects
    differ.
    """
    from .ir.dag import topological_order

    memo_key = tuple(f.uid for f in outputs)
    hit = _spec_fp_memo.get(memo_key)
    if hit is not None:
        return hit

    order, _ = topological_order(outputs)
    index = {f: i for i, f in enumerate(order)}
    h = hashlib.sha256()
    for i, f in enumerate(order):
        h.update(
            f"{i}|{type(f).__name__}|{f.name}|{f.dtype.name}|".encode()
        )
        h.update(repr(f.intervals).encode())
        producers = (
            [] if f.is_input else sorted(f.producers(), key=lambda p: p.uid)
        )
        h.update(repr([index[p] for p in producers]).encode())
        if not f.is_input and f.has_defn:
            h.update(repr(f.defn).encode())
        timesteps = getattr(f, "timesteps", None)
        if timesteps is not None:
            h.update(f"|T{timesteps}".encode())
        h.update(b"\n")
    out_ids = [index[f] for f in outputs]
    h.update(f"outputs={out_ids}".encode())
    digest = h.hexdigest()
    if len(_spec_fp_memo) > 4096:  # unbounded spec churn guard
        _spec_fp_memo.clear()
    _spec_fp_memo[memo_key] = digest
    return digest


def compile_fingerprint(
    outputs: Sequence["Function"],
    params: dict[str, int],
    config: "PolyMgConfig",
    name: str,
) -> str:
    """The compile cache key: hash of (spec, params, config, name)."""
    h = hashlib.sha256()
    h.update(spec_fingerprint(outputs).encode())
    h.update(repr(sorted(params.items())).encode())
    h.update(config.fingerprint().encode())
    h.update(name.encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# artifact integrity seal
# ---------------------------------------------------------------------------


def artifact_seal(compiled: "CompiledPipeline") -> str:
    """Digest of every artifact field a fault class can corrupt:
    group order and membership, schedule timestamps, scratch slot
    assignments, and full-array geometry.  Recomputed at lookup time to
    detect in-place tampering with cached artifacts."""
    h = hashlib.sha256()
    grouping = compiled.grouping
    schedule = compiled.schedule
    storage = compiled.storage
    for group in grouping.groups:
        h.update(f"g|{group.anchor.uid}|".encode())
        h.update(repr([s.uid for s in group.stages]).encode())
        h.update(f"|t{schedule.time_of_group(group)}".encode())
    h.update(b"#stages|")
    h.update(
        repr(
            sorted(
                (s.uid, t) for s, t in schedule.stage_time.items()
            )
        ).encode()
    )
    h.update(b"#arrays|")
    h.update(
        repr(
            sorted((s.uid, aid) for s, aid in storage.array_of.items())
        ).encode()
    )
    h.update(repr(sorted(storage.array_shapes.items())).encode())
    h.update(repr(sorted(storage.array_dtypes.items())).encode())
    for gi in sorted(storage.scratch):
        splan = storage.scratch[gi]
        h.update(f"#scratch{gi}|".encode())
        h.update(
            repr(
                sorted((s.uid, b) for s, b in splan.buffer_of.items())
            ).encode()
        )
        h.update(repr(sorted(splan.buffer_shapes.items())).encode())
        h.update(repr(sorted(splan.buffer_dtypes.items())).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# the cache
# ---------------------------------------------------------------------------


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    #: entries rejected (and evicted) because the integrity seal no
    #: longer matched — i.e. a cached artifact was mutated in place
    tainted_rejections: int = 0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "tainted_rejections": self.tainted_rejections,
        }


@dataclass
class _CacheEntry:
    compiled: "CompiledPipeline"
    report: "CompileReport"
    seal: str


class CompileCache:
    """LRU cache of compile results keyed by content fingerprint.

    Thread-safe: the autotuner's timeout path runs trials on worker
    threads.
    """

    def __init__(self, maxsize: int = 256) -> None:
        self.maxsize = maxsize
        self._entries: OrderedDict[str, _CacheEntry] = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: str) -> "CompiledPipeline | None":
        """Return a fresh executor over the cached artifacts, or
        ``None`` on miss or on a tainted (mutated-in-place) entry."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            if artifact_seal(entry.compiled) != entry.seal:
                # a fault injector (or any in-place mutation) corrupted
                # the cached artifacts: never serve them
                del self._entries[key]
                self.stats.tainted_rejections += 1
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            entry.report.cache_hits += 1
            return self._clone(entry)

    @staticmethod
    def _clone(entry: _CacheEntry) -> "CompiledPipeline":
        from .backend.executor import CompiledPipeline

        src = entry.compiled
        clone = CompiledPipeline(
            src.dag, src.config, src.grouping, src.schedule, src.storage
        )
        clone.report = entry.report
        # every registered tier adopts its own artifacts: the kernel
        # plan and the native shared object are immutable and keyed by
        # the same content address as the compile artifacts, so clones
        # share them instead of re-lowering / re-invoking the
        # toolchain; workspaces and worker pools stay per-executor
        from .backend.registry import TIERS

        TIERS.inherit_artifacts(clone, src)
        return clone

    def store(self, key: str, compiled: "CompiledPipeline") -> None:
        if compiled.report is None:
            raise ValueError("cannot cache a pipeline without a report")
        with self._lock:
            self._entries[key] = _CacheEntry(
                compiled, compiled.report, artifact_seal(compiled)
            )
            self._entries.move_to_end(key)
            self.stats.stores += 1
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def evict(self, key: str) -> bool:
        """Drop one entry by fingerprint (returns whether it existed).

        Used by the resilience layer when a compiled artifact fails
        verification: a statically bad artifact must never be served
        from cache again, so the next probe of that variant recompiles
        from scratch."""
        with self._lock:
            if key in self._entries:
                del self._entries[key]
                self.stats.evictions += 1
                return True
            return False

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


# ---------------------------------------------------------------------------
# on-disk shared-object store for the native JIT backend
# ---------------------------------------------------------------------------


@dataclass
class NativeArtifactStats:
    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    #: artifacts whose on-disk bytes no longer matched their SHA-256
    #: sidecar (deleted, reported as a miss, recompiled)
    corrupt_rejections: int = 0
    #: lookups refused because the key's verdict sidecar marks it
    #: quarantined (crashed too many times; never reloaded)
    quarantined_rejections: int = 0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "corrupt_rejections": self.corrupt_rejections,
            "quarantined_rejections": self.quarantined_rejections,
        }


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class NativeArtifactStore:
    """Size-bounded on-disk cache of JIT-compiled shared objects.

    Keys are content addresses (see
    :func:`repro.backend.native.native_artifact_key`); values are
    ``<key>.so`` files with a ``<key>.json`` sidecar recording the
    artifact's SHA-256 digest and provenance.  Writers stage under a
    unique temporary name and ``os.replace`` into place, so concurrent
    processes compiling the same key race benignly (last writer wins
    with an identical artifact).  A served artifact is re-hashed
    against its sidecar first: corruption (truncated file, bit rot,
    partial copy) deletes the entry instead of loading it.

    Cross-process mutual exclusion: every ``get``/``put``/``clear``
    holds an exclusive ``flock`` on ``<root>/.store.lock`` in addition
    to the in-process thread lock.  Without it, two renames inside
    ``put`` (``.so`` then ``.json``) are individually atomic but not
    *jointly*: a reader in another process can observe the new shared
    object against the old sidecar, "detect" a hash mismatch, and
    delete a perfectly good artifact.  The same window lets concurrent
    LRU evictions unlink a file another process is mid-hash on.  The
    lock is advisory, held only for the store operation (never across
    a compile), and degrades to thread-only locking where ``fcntl`` is
    unavailable.
    """

    def __init__(
        self, root: str | Path, max_bytes: int = 256 * 1024 * 1024
    ) -> None:
        self.root = Path(root)
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self.stats = NativeArtifactStats()

    @contextlib.contextmanager
    def _flock(self):
        """Exclusive inter-process lock over the store directory."""
        if fcntl is None:
            yield
            return
        self.root.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.root / ".store.lock", os.O_RDWR | os.O_CREAT)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            # closing the fd releases the flock
            os.close(fd)

    def _so_path(self, key: str) -> Path:
        return self.root / f"{key}.so"

    def _meta_path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def _verdict_path(self, key: str) -> Path:
        # ``<key>.verdict.json`` — stem is ``<key>.verdict``, so LRU
        # eviction (which unlinks ``<key>.so`` + ``<key>.json``) leaves
        # the verdict behind: quarantine outlives the artifact bytes.
        return self.root / f"{key}.verdict.json"

    def _read_verdict(self, key: str) -> dict:
        try:
            verdict = json.loads(self._verdict_path(key).read_text())
        except (OSError, ValueError):
            return {}
        return verdict if isinstance(verdict, dict) else {}

    def get(self, key: str) -> Path | None:
        """Return the artifact path for ``key``, or ``None`` on miss or
        on a corrupt artifact (which is deleted)."""
        with self._lock, self._flock():
            if self._read_verdict(key).get("quarantined"):
                self.stats.quarantined_rejections += 1
                return None
            so = self._so_path(key)
            meta = self._meta_path(key)
            if not so.is_file() or not meta.is_file():
                self.stats.misses += 1
                return None
            try:
                recorded = json.loads(meta.read_text())["sha256"]
                actual = _sha256_file(so)
            except (OSError, KeyError, ValueError):
                recorded, actual = "?", "!"
            if actual != recorded:
                for p in (so, meta):
                    try:
                        p.unlink()
                    except OSError:
                        pass
                self.stats.corrupt_rejections += 1
                self.stats.misses += 1
                return None
            now = None  # bump mtime for LRU eviction ordering
            os.utime(so, now)
            self.stats.hits += 1
            return so

    def put(self, key: str, built_so: Path, meta: dict | None = None) -> Path:
        """Move a freshly built shared object into the store under
        ``key`` (atomic rename-into-place) and return its final path."""
        with self._lock, self._flock():
            self.root.mkdir(parents=True, exist_ok=True)
            built_so = Path(built_so)
            digest = _sha256_file(built_so)
            so = self._so_path(key)
            meta_path = self._meta_path(key)
            record = dict(meta or {})
            record["sha256"] = digest
            record["size"] = built_so.stat().st_size
            tmp_meta = self.root / f".{key}.json.tmp.{os.getpid()}"
            tmp_meta.write_text(json.dumps(record, indent=2) + "\n")
            os.replace(built_so, so)
            os.replace(tmp_meta, meta_path)
            self.stats.stores += 1
            self._evict_over_budget(keep=key)
            return so

    def _evict_over_budget(self, keep: str | None = None) -> None:
        """LRU-by-mtime eviction down to ``max_bytes`` (lock held)."""
        entries = []
        total = 0
        for so in self.root.glob("*.so"):
            try:
                st = so.stat()
            except OSError:
                continue
            total += st.st_size
            entries.append((st.st_mtime, st.st_size, so))
        entries.sort()
        for _mtime, size, so in entries:
            if total <= self.max_bytes:
                break
            if keep is not None and so.stem == keep:
                continue
            for p in (so, so.with_suffix(".json")):
                try:
                    p.unlink()
                except OSError:
                    pass
            total -= size
            self.stats.evictions += 1

    # -- artifact quarantine --------------------------------------------
    def record_crash(self, key: str, kind: str) -> bool:
        """Record one crash/hang against ``key``'s verdict sidecar and
        return whether the key is now quarantined.

        The sidecar (``<key>.verdict.json``) is the durable half of the
        sandbox's crash handling: once ``crashes`` reaches
        :func:`quarantine_threshold`, the verdict flips to
        ``quarantined`` and :meth:`get` refuses the key forever — in
        this process and in every future one — even after the ``.so``
        itself is evicted.  Written atomically under the store's flock
        so concurrent sandbox pools merge their counts instead of
        clobbering each other."""
        with self._lock, self._flock():
            self.root.mkdir(parents=True, exist_ok=True)
            verdict = self._read_verdict(key)
            verdict["crashes"] = int(verdict.get("crashes", 0)) + 1
            kinds = verdict.setdefault("kinds", [])
            if isinstance(kinds, list):
                kinds.append(kind)
            verdict["quarantined"] = bool(
                verdict.get("quarantined")
            ) or verdict["crashes"] >= quarantine_threshold()
            tmp = self.root / f".{key}.verdict.tmp.{os.getpid()}"
            tmp.write_text(json.dumps(verdict, indent=2) + "\n")
            os.replace(tmp, self._verdict_path(key))
            return bool(verdict["quarantined"])

    def is_quarantined(self, key: str) -> bool:
        with self._lock, self._flock():
            return bool(self._read_verdict(key).get("quarantined"))

    def quarantined_keys(self) -> list[str]:
        """Keys currently blacklisted on disk (for health reporting)."""
        with self._lock, self._flock():
            if not self.root.is_dir():
                return []
            keys = []
            for p in self.root.glob("*.verdict.json"):
                key = p.name[: -len(".verdict.json")]
                if self._read_verdict(key).get("quarantined"):
                    keys.append(key)
            return sorted(keys)

    def clear(self) -> None:
        with self._lock, self._flock():
            if not self.root.is_dir():
                return
            for p in list(self.root.glob("*.so")) + list(
                self.root.glob("*.json")
            ):
                try:
                    p.unlink()
                except OSError:
                    pass


def quarantine_threshold() -> int:
    """Crash count at which an artifact key is quarantined for good
    (``REPRO_NATIVE_QUARANTINE_AFTER``, default 3, minimum 1)."""
    try:
        value = int(os.environ.get("REPRO_NATIVE_QUARANTINE_AFTER", "3"))
    except ValueError:
        return 3
    return max(1, value)


def _native_store_root() -> Path:
    env = os.environ.get("REPRO_NATIVE_CACHE_DIR")
    if env:
        return Path(env)
    return Path(os.path.expanduser("~/.cache/polymg-native"))


def _native_store_bytes() -> int:
    try:
        return int(
            os.environ.get(
                "REPRO_NATIVE_CACHE_BYTES", str(256 * 1024 * 1024)
            )
        )
    except ValueError:
        return 256 * 1024 * 1024


_NATIVE_STORE: NativeArtifactStore | None = None
_NATIVE_LOCK = threading.Lock()


def native_artifact_store() -> NativeArtifactStore:
    """The process-wide native artifact store.  Re-created when
    ``REPRO_NATIVE_CACHE_DIR`` changes (test isolation)."""
    global _NATIVE_STORE
    with _NATIVE_LOCK:
        root = _native_store_root()
        if _NATIVE_STORE is None or _NATIVE_STORE.root != root:
            _NATIVE_STORE = NativeArtifactStore(
                root, _native_store_bytes()
            )
        return _NATIVE_STORE


def cache_enabled() -> bool:
    return os.environ.get("REPRO_COMPILE_CACHE", "1") != "0"


def _default_maxsize() -> int:
    try:
        return int(os.environ.get("REPRO_COMPILE_CACHE_SIZE", "256"))
    except ValueError:
        return 256


_GLOBAL_CACHE: CompileCache | None = None
_GLOBAL_LOCK = threading.Lock()


def compile_cache() -> CompileCache:
    """The process-wide compile cache (lazily created)."""
    global _GLOBAL_CACHE
    with _GLOBAL_LOCK:
        if _GLOBAL_CACHE is None:
            _GLOBAL_CACHE = CompileCache(_default_maxsize())
        return _GLOBAL_CACHE
