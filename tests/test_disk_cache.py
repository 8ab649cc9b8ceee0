"""The durable on-disk compile-artifact tier (repro.driver.diskcache):
atomic publication under concurrent writers, digest-verified loads with
quarantine, size-bounded LRU eviction, and byte-identical codegen with
the tier on or off."""

import multiprocessing
import os
import pickle

import pytest

from repro import Computation, Function, Var
from repro.driver import kernel_registry
from repro.driver.diskcache import (DiskCache, active_disk_cache,
                                    configure, reset_configuration)


def build(name="f", scale=2.0):
    f = Function(name)
    with f:
        i, j = Var("i", 0, 8), Var("j", 0, 8)
        Computation("c", [i, j], float(scale) * i + j)
    return f


@pytest.fixture(autouse=True)
def _fresh_tiers(monkeypatch):
    monkeypatch.delenv("TIRAMISU_CACHE_DIR", raising=False)
    monkeypatch.delenv("TIRAMISU_CACHE_MAX_BYTES", raising=False)
    reset_configuration()
    kernel_registry.clear()
    yield
    reset_configuration()
    kernel_registry.clear()


class TestRoundTrip:
    def test_put_get_roundtrip(self, tmp_path):
        cache = DiskCache(tmp_path)
        assert cache.put("k1", "source-1", "cpu", extras={"n": 3})
        entry = cache.get("k1")
        assert entry.source == "source-1"
        assert entry.target == "cpu"
        assert entry.extras == {"n": 3}
        assert cache.stats().hits == 1

    def test_missing_key_is_a_counted_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        assert cache.get("absent") is None
        assert cache.stats().misses == 1

    def test_unpicklable_extras_fail_soft(self, tmp_path):
        cache = DiskCache(tmp_path)
        assert not cache.put("k1", "src", "cpu",
                             extras={"fn": lambda: None})
        assert "k1" not in cache


class TestCorruption:
    def test_truncated_artifact_quarantined_and_missed(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("k1", "real source", "cpu")
        path = cache.path_for("k1")
        path.write_bytes(path.read_bytes()[:10])
        assert cache.get("k1") is None
        assert cache.stats().corruptions == 1
        # The corpse left the key namespace: the key now reads as a
        # plain (non-corrupt) miss, and the quarantine file remains.
        assert "k1" not in cache
        assert list(tmp_path.glob("*.quarantine"))

    def test_digest_mismatch_is_corruption(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("k1", "real source", "cpu")
        path = cache.path_for("k1")
        payload = pickle.loads(path.read_bytes())
        payload["source"] = "tampered source"
        path.write_bytes(pickle.dumps(payload))
        assert cache.get("k1") is None
        assert cache.stats().corruptions == 1

    def test_wrong_schema_version_is_corruption(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("k1", "src", "cpu")
        path = cache.path_for("k1")
        payload = pickle.loads(path.read_bytes())
        payload["version"] = 999
        path.write_bytes(pickle.dumps(payload))
        assert cache.get("k1") is None
        assert cache.stats().corruptions == 1

    def test_corrupt_artifact_recompiles_through_pipeline(self, tmp_path):
        cache = configure(tmp_path)
        fn = build()
        kernel = fn.compile("cpu")
        key = kernel.report.fingerprint
        path = cache.path_for(key)
        path.write_bytes(b"garbage that is not a pickle")
        kernel_registry.clear()
        k2 = build().compile("cpu")
        # Recompiled from scratch: neither tier served it...
        assert not k2.report.cache_hit and not k2.report.disk_hit
        assert "emit" in k2.report.stage_names()
        # ...and the fresh compile re-published a valid artifact.
        entry = cache.get(key)
        assert entry is not None and entry.source == kernel.source


class TestEviction:
    def entry_bytes(self, cache):
        cache.put("probe", "x" * 100, "cpu")
        size = cache.path_for("probe").stat().st_size
        cache.path_for("probe").unlink()
        return size

    def test_lru_eviction_under_two_entry_bound(self, tmp_path):
        probe = DiskCache(tmp_path / "probe")
        per_entry = self.entry_bytes(probe)
        cache = DiskCache(tmp_path / "real", max_bytes=2 * per_entry + 1)
        for n in range(5):
            cache.put(f"k{n}", "x" * 100, "cpu")
        assert len(cache) == 2
        assert cache.stats().evictions == 3
        # Every surviving artifact loads complete and digest-verified —
        # eviction never leaves a partially-removed entry servable.
        for key in cache.keys():
            entry = cache.get(key)
            assert entry is not None
            assert entry.source == "x" * 100
        assert cache.stats().corruptions == 0

    def test_read_refreshes_recency_across_eviction(self, tmp_path):
        import time
        probe = DiskCache(tmp_path / "probe")
        per_entry = self.entry_bytes(probe)
        cache = DiskCache(tmp_path / "real", max_bytes=2 * per_entry + 1)
        cache.put("old", "x" * 100, "cpu")
        time.sleep(0.02)
        cache.put("mid", "x" * 100, "cpu")
        time.sleep(0.02)
        assert cache.get("old") is not None   # bump mtime
        cache.put("new", "x" * 100, "cpu")    # evicts mid, not old
        assert "old" in cache and "new" in cache
        assert "mid" not in cache

    def test_single_oversized_artifact_survives(self, tmp_path):
        cache = DiskCache(tmp_path, max_bytes=10)
        cache.put("big", "y" * 1000, "cpu")
        assert cache.get("big") is not None


def _race_writer(root, key, source, barrier, results, index):
    cache = DiskCache(root)
    barrier.wait()
    for _ in range(20):
        ok = cache.put(key, source, "cpu", extras={"writer": index})
        entry = cache.get(key)
        if not ok or entry is None or entry.source != source:
            results[index] = False
            return
    results[index] = True


class TestConcurrency:
    def test_racing_writers_converge_to_one_valid_entry(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        workers = 4
        barrier = ctx.Barrier(workers)
        results = ctx.Array("b", [0] * workers)
        source = "def _kernel():\n    return 42\n" * 20
        procs = [ctx.Process(target=_race_writer,
                             args=(str(tmp_path), "shared-key", source,
                                   barrier, results, n))
                 for n in range(workers)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        # No writer ever observed a broken or missing artifact...
        assert all(results[:])
        # ...and exactly one complete entry remains (plus zero temp
        # litter: every temp file was either renamed or cleaned up).
        cache = DiskCache(tmp_path)
        assert cache.keys() == ["shared-key"]
        entry = cache.get("shared-key")
        assert entry is not None and entry.source == source
        assert not [n for n in os.listdir(tmp_path)
                    if n.startswith(".tmp-")]


class TestByteIdenticalCodegen:
    def test_source_identical_with_tier_on_and_off(self, tmp_path):
        # Tier off: the reference source.
        k_off = build().compile("cpu")
        reference = k_off.source
        # Tier on, cold: must emit byte-identical source and store it.
        kernel_registry.clear()
        cache = configure(tmp_path)
        k_cold = build().compile("cpu")
        assert k_cold.source == reference
        stored = cache.get(k_cold.report.fingerprint)
        assert stored.source == reference
        # Tier on, warm from disk in a "fresh process" (cleared memory
        # tier): the re-bound kernel carries byte-identical source.
        kernel_registry.clear()
        k_warm = build().compile("cpu")
        assert k_warm.report.disk_hit
        assert k_warm.source == reference

    def test_warm_kernel_computes_identically(self, tmp_path):
        import numpy as np
        configure(tmp_path)
        k1 = build().compile("cpu")
        kernel_registry.clear()
        k2 = build().compile("cpu")
        assert k2.report.disk_hit
        assert np.array_equal(k1()["c"], k2()["c"])


class TestActivation:
    def test_off_by_default(self):
        assert active_disk_cache() is None

    def test_env_var_activates(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TIRAMISU_CACHE_DIR", str(tmp_path))
        cache = active_disk_cache()
        assert cache is not None
        assert str(cache.root) == str(tmp_path)

    def test_env_var_bounds_bytes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TIRAMISU_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("TIRAMISU_CACHE_MAX_BYTES", "12345")
        assert active_disk_cache().max_bytes == 12345

    def test_configure_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TIRAMISU_CACHE_DIR", str(tmp_path / "env"))
        cache = configure(tmp_path / "explicit", max_bytes=99)
        assert str(cache.root) == str(tmp_path / "explicit")
        assert cache.max_bytes == 99
        # configure(None) disables even with the env var set.
        assert configure(None) is None

    def test_gpu_backend_stays_out_of_the_tier(self, tmp_path):
        # gpu kernels need emit-time launch info and cannot rebind from
        # source: the pipeline must not offer them the disk tier.
        from repro.driver import get_backend
        from repro.driver.pipeline import CompilePipeline
        configure(tmp_path)
        pipe = CompilePipeline(get_backend("gpu"))
        assert pipe._disk_tier() is None
        assert CompilePipeline(get_backend("cpu"))._disk_tier() is not None
