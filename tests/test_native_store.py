"""On-disk native artifact store: atomicity, corruption, eviction.

`NativeArtifactStore` is the disk half of the native JIT backend's
compile cache: shared objects keyed by the content address of
(emitted C source, cflags, compiler identity).  These tests exercise
the store in isolation with fabricated artifacts — no C toolchain is
required — plus one end-to-end warm-cache test that skips with a
notice when no compiler is on PATH.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro import cache as cache_mod
from repro.cache import NativeArtifactStore, native_artifact_store
from repro.backend.native import discover_compiler
from repro.backend.registry import NATIVE

HAVE_CC = discover_compiler() is not None
needs_cc = pytest.mark.skipif(
    not HAVE_CC, reason="no C toolchain on PATH (cc/gcc/clang)"
)


@pytest.fixture
def store(tmp_path):
    return NativeArtifactStore(tmp_path / "store", max_bytes=1 << 20)


def _stage(tmp_path, name: str, payload: bytes):
    built = tmp_path / name
    built.write_bytes(payload)
    return built


class TestPutGet:
    def test_round_trip(self, store, tmp_path):
        built = _stage(tmp_path, "a.so", b"\x7fELF fake artifact")
        final = store.put("k1", built, meta={"cc": "/usr/bin/cc"})
        assert final == store.root / "k1.so"
        assert not built.exists()  # moved, not copied
        got = store.get("k1")
        assert got == final
        assert got.read_bytes() == b"\x7fELF fake artifact"
        assert store.stats.stores == 1
        assert store.stats.hits == 1

    def test_miss_counts(self, store):
        assert store.get("absent") is None
        assert store.stats.misses == 1

    def test_sidecar_records_digest_and_meta(self, store, tmp_path):
        built = _stage(tmp_path, "a.so", b"bytes")
        store.put("k1", built, meta={"cc": "gcc"})
        record = json.loads((store.root / "k1.json").read_text())
        assert record["cc"] == "gcc"
        assert record["size"] == len(b"bytes")
        assert len(record["sha256"]) == 64

    def test_no_tmp_files_survive_put(self, store, tmp_path):
        store.put("k1", _stage(tmp_path, "a.so", b"x"))
        leftovers = [
            p
            for p in store.root.iterdir()
            if p.name.startswith(".") and p.name != ".store.lock"
        ]
        assert leftovers == []

    def test_last_writer_wins(self, store, tmp_path):
        store.put("k1", _stage(tmp_path, "a.so", b"first"))
        store.put("k1", _stage(tmp_path, "b.so", b"second"))
        assert store.get("k1").read_bytes() == b"second"


class TestCorruption:
    def test_truncated_artifact_is_rejected_and_deleted(
        self, store, tmp_path
    ):
        store.put("k1", _stage(tmp_path, "a.so", b"payload" * 64))
        (store.root / "k1.so").write_bytes(b"payload")  # bit rot
        assert store.get("k1") is None
        assert store.stats.corrupt_rejections == 1
        assert not (store.root / "k1.so").exists()
        assert not (store.root / "k1.json").exists()

    def test_unreadable_sidecar_is_rejected(self, store, tmp_path):
        store.put("k1", _stage(tmp_path, "a.so", b"payload"))
        (store.root / "k1.json").write_text("not json{")
        assert store.get("k1") is None
        assert store.stats.corrupt_rejections == 1

    def test_missing_sidecar_is_a_plain_miss(self, store, tmp_path):
        store.put("k1", _stage(tmp_path, "a.so", b"payload"))
        (store.root / "k1.json").unlink()
        assert store.get("k1") is None
        assert store.stats.corrupt_rejections == 0

    def test_reput_after_corruption_recovers(self, store, tmp_path):
        store.put("k1", _stage(tmp_path, "a.so", b"good" * 32))
        (store.root / "k1.so").write_bytes(b"bad")
        assert store.get("k1") is None  # deleted
        store.put("k1", _stage(tmp_path, "b.so", b"good" * 32))
        assert store.get("k1") is not None


class TestEviction:
    def test_lru_eviction_respects_byte_budget(self, tmp_path):
        store = NativeArtifactStore(tmp_path / "store", max_bytes=250)
        for i, key in enumerate(("old", "mid", "new")):
            built = _stage(tmp_path, f"{key}.built", b"x" * 100)
            store.put(key, built)
            # distinct mtimes so LRU ordering is deterministic
            os.utime(store.root / f"{key}.so", (i, i))
        store._evict_over_budget()
        assert store.get("old") is None  # oldest evicted
        assert store.get("mid") is not None
        assert store.get("new") is not None
        assert store.stats.evictions >= 1

    def test_put_never_evicts_its_own_key(self, tmp_path):
        store = NativeArtifactStore(tmp_path / "store", max_bytes=50)
        store.put("huge", _stage(tmp_path, "a.built", b"x" * 100))
        # over budget, but the just-stored key must survive
        assert store.get("huge") is not None

    def test_get_refreshes_lru_position(self, tmp_path):
        store = NativeArtifactStore(tmp_path / "store", max_bytes=250)
        for i, key in enumerate(("a", "b")):
            store.put(key, _stage(tmp_path, f"{key}.built", b"x" * 100))
            os.utime(store.root / f"{key}.so", (i, i))
        store.get("a")  # touch: now newer than b
        store.put("c", _stage(tmp_path, "c.built", b"x" * 100))
        assert store.get("a") is not None
        assert store.get("b") is None  # b became the LRU victim

    def test_clear_removes_everything(self, store, tmp_path):
        store.put("k1", _stage(tmp_path, "a.so", b"x"))
        store.clear()
        assert list(store.root.glob("*.so")) == []
        assert store.get("k1") is None


class TestProcessWideSingleton:
    def test_rekeys_on_cache_dir_change(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_CACHE_DIR", str(tmp_path / "a"))
        first = native_artifact_store()
        assert native_artifact_store() is first
        monkeypatch.setenv("REPRO_NATIVE_CACHE_DIR", str(tmp_path / "b"))
        second = native_artifact_store()
        assert second is not first
        assert second.root == tmp_path / "b"

    def test_byte_budget_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_CACHE_DIR", str(tmp_path / "c"))
        monkeypatch.setenv("REPRO_NATIVE_CACHE_BYTES", "12345")
        assert native_artifact_store().max_bytes == 12345

    def test_bad_byte_budget_falls_back_to_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_CACHE_BYTES", "not-a-number")
        assert cache_mod._native_store_bytes() == 256 * 1024 * 1024


@needs_cc
class TestWarmProcessCacheHit:
    def test_second_build_is_a_cache_hit(self, tmp_path, monkeypatch):
        from repro.compiler import compile_pipeline
        from repro.multigrid.cycles import build_poisson_cycle
        from repro.multigrid.reference import MultigridOptions
        from repro.variants import polymg_native

        monkeypatch.setenv(
            "REPRO_NATIVE_CACHE_DIR", str(tmp_path / "warm")
        )
        pipe = build_poisson_cycle(
            2, 16, MultigridOptions(cycle="V", n1=2, n2=2, n3=2, levels=3)
        )
        cfg = polymg_native(tile_sizes={2: (8, 16)}, num_threads=1)
        rng = np.random.default_rng(7)
        inputs = pipe.make_inputs(
            rng.standard_normal((18, 18)), rng.standard_normal((18, 18))
        )

        def build():
            compiled = compile_pipeline(
                pipe.output, pipe.params, cfg, name=pipe.name, cache=False
            )
            try:
                assert compiled.ensure_native(timeout=120)
                out = compiled.execute(dict(inputs))[pipe.output.name]
                return compiled.stats.tier(NATIVE.name).cache_hits, out
            finally:
                compiled.close()

        cold_hits, cold_out = build()
        warm_hits, warm_out = build()
        assert cold_hits == 0
        assert warm_hits == 1  # the .so came straight off disk
        np.testing.assert_array_equal(cold_out, warm_out)


class TestDefaultFlagsFollowTheCompiler:
    """``default_cflags`` picks gcc's or clang's spelling from the
    compiler's identity line, and that choice is what the artifact is
    keyed on.  No toolchain needed: discovery, the identity probe and
    the compile step are all stubbed."""

    GCC = "gcc (Debian 12.2.0-14) 12.2.0"
    CLANG = "Ubuntu clang version 15.0.7"

    def test_clang_drops_exactly_the_gcc_only_flags(self):
        from repro.backend.native import (
            _GCC_ONLY_CFLAGS,
            DEFAULT_CFLAGS,
            default_cflags,
        )

        assert default_cflags(self.GCC) == DEFAULT_CFLAGS
        clang = default_cflags(self.CLANG)
        assert clang == tuple(
            flag for flag in DEFAULT_CFLAGS if flag not in _GCC_ONLY_CFLAGS
        )
        assert len(clang) == len(DEFAULT_CFLAGS) - len(_GCC_ONLY_CFLAGS)
        assert set(_GCC_ONLY_CFLAGS) <= set(DEFAULT_CFLAGS)

    @pytest.mark.parametrize("ident", [GCC, CLANG], ids=["gcc", "clang"])
    def test_artifact_is_keyed_on_the_flags_that_compiler_takes(
        self, ident, tmp_path, monkeypatch
    ):
        from repro.backend import native as native_mod
        from repro.compiler import compile_pipeline
        from repro.errors import NativeCompileError
        from repro.multigrid.cycles import build_poisson_cycle
        from repro.multigrid.reference import MultigridOptions
        from repro.variants import polymg_opt_plus

        monkeypatch.setenv("REPRO_NATIVE_CACHE_DIR", str(tmp_path / "s"))
        monkeypatch.setattr(
            native_mod, "discover_compiler", lambda: "/fake/bin/cc"
        )
        monkeypatch.setattr(native_mod, "compiler_ident", lambda cc: ident)
        asked = {}

        def no_cc(cc, cflags, source, key, timeout):
            asked.update(
                cc=cc, cflags=cflags, source=source, key=key,
                misses=native_artifact_store().stats.misses,
            )
            raise NativeCompileError("this test runs no compiler")

        monkeypatch.setattr(native_mod, "_compile_shared_object", no_cc)
        pipe = build_poisson_cycle(
            2, 16, MultigridOptions(cycle="V", n1=2, n2=2, n3=2, levels=3)
        )
        compiled = compile_pipeline(
            pipe.output, pipe.params,
            polymg_opt_plus(tile_sizes={2: (8, 16)}),
            name=pipe.name, cache=False,
        )
        with pytest.raises(NativeCompileError):
            native_mod.build_native_runner(compiled)
        flags = native_mod.default_cflags(ident)
        assert asked["cc"] == "/fake/bin/cc"
        assert asked["cflags"] == flags
        assert asked["key"] == native_mod.native_artifact_key(
            asked["source"], flags, ident
        )
        # the store was asked (and missed) before cc was reached
        assert asked["misses"] == 1
