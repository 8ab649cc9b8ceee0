"""Tier-2 perf gate: the polyhedral hot path (PR 5).

Legality checking decides every question by emptiness of a dependence-
violation set; this gate pins two promises the ISL-layer optimizations
make:

1. A cold ``compile(check_legality=True)`` of the Fig. 1 sgemm pipeline
   is at least 3x faster than the same compile with every optimization
   off (memo caches disabled, pre-filters / unit elimination / rational
   fast-path off — the pre-PR algorithm, measured on the same machine
   so the gate is robust to host speed).
2. Caching is invisible in the output: the emitted backend source is
   byte-identical with the memo caches on and off.
"""

import time

from conftest import print_table
from repro.driver import kernel_registry
from repro.driver.pipeline import compile_function
from repro.isl import isl_cache_clear, isl_cache_disabled, isl_cache_stats
from repro.isl import omega
from repro.kernels import build_sgemm, schedule_sgemm_cpu


def _fresh_sgemm():
    bundle = build_sgemm()
    schedule_sgemm_cpu(bundle, 32, 8)
    return bundle.function


def _cold_compile(fn):
    kernel_registry.clear()
    start = time.perf_counter()
    kernel = compile_function(fn, target="cpu", cache=False,
                              check_legality=True)
    return kernel, time.perf_counter() - start


class TestIslHotPathPerf:
    def test_optimized_at_least_3x_faster_than_legacy(self):
        # One throwaway compile first so lazy imports and other one-time
        # process costs land outside both measured runs.
        _cold_compile(_fresh_sgemm())

        # Optimized path: memo caches + pre-filters + unit elimination +
        # rational fast-path, exactly as a user compile runs them.
        # Counters are cumulative process-wide, so diff around one run.
        isl_cache_clear()
        before = isl_cache_stats()
        kernel, optimized = _cold_compile(_fresh_sgemm())
        after = kernel.report.caches
        hits, misses = {}, {}
        for memo in ("empty", "compose"):
            tier = f"isl.{memo}"
            hits[memo] = after[tier].hits - before.tier(tier).hits
            misses[memo] = after[tier].misses - before.tier(tier).misses
        for __ in range(2):
            isl_cache_clear()
            _, t = _cold_compile(_fresh_sgemm())
            optimized = min(optimized, t)

        # Legacy path: the pre-PR algorithm on this same machine.
        legacy = float("inf")
        for __ in range(3):
            with isl_cache_disabled(), omega.legacy_mode():
                _, t = _cold_compile(_fresh_sgemm())
            legacy = min(legacy, t)

        speedup = legacy / optimized
        print_table("isl hot path: cold sgemm + legality (cpu)", {
            "legacy compile (ms)": round(legacy * 1e3, 2),
            "optimized compile (ms)": round(optimized * 1e3, 2),
            "speedup": round(speedup, 1),
            "empty memo": f"{hits['empty']} hits / "
                          f"{misses['empty']} misses",
            "compose memo": f"{hits['compose']} hits / "
                            f"{misses['compose']} misses",
        })
        # The memo must have actually been exercised, not just fast.
        assert hits["empty"] > 0
        assert misses["empty"] > 0
        assert speedup >= 3.0, (
            f"optimized legality compile only {speedup:.1f}x faster "
            "than the legacy algorithm")

    def test_counters_visible_in_metrics_registry(self):
        from repro.obs.metrics import metrics
        isl_cache_clear()
        _cold_compile(_fresh_sgemm())
        assert metrics.counter("isl.empty_cache.misses").value > 0
        assert metrics.counter("isl.empty_cache.hits").value > 0
        assert isl_cache_stats().tier("isl.empty").size > 0

    def _emitted_source(self, mode: str) -> str:
        """Compile a fresh sgemm in the given mode and return the
        emitted backend source from the registry entry."""
        fn = _fresh_sgemm()
        kernel_registry.clear()
        if mode == "legacy":
            with isl_cache_disabled(), omega.legacy_mode():
                k = compile_function(fn, target="cpu", cache=True,
                                     check_legality=True)
        elif mode == "cache-off":
            with isl_cache_disabled():
                k = compile_function(fn, target="cpu", cache=True,
                                     check_legality=True)
        else:
            k = compile_function(fn, target="cpu", cache=True,
                                 check_legality=True)
        entry = kernel_registry.get(k.report.fingerprint)
        assert entry is not None and not k.report.cache_hit
        return entry.source

    def test_emitted_source_byte_identical_cache_on_off(self):
        isl_cache_clear()
        assert (self._emitted_source("optimized")
                == self._emitted_source("cache-off"))

    def test_emitted_source_byte_identical_vs_legacy(self):
        """Not just cache on/off: the whole optimized pipeline and the
        legacy algorithm must emit the same bytes."""
        isl_cache_clear()
        assert (self._emitted_source("optimized")
                == self._emitted_source("legacy"))
