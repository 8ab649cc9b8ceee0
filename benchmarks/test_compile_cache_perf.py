"""Tier-2 perf check: the content-addressed compile cache.

The schedule-search and benchmark paths compile the same function
repeatedly; a warm ``compile()`` must skip every lowering stage and be
at least 5x faster than a cold one on the Fig. 1 sgemm pipeline.
"""

import time

from conftest import print_table
from repro.driver import kernel_registry
from repro.kernels import build_sgemm, schedule_sgemm_cpu


def _timed_compile(fn, target="cpu"):
    start = time.perf_counter()
    kernel = fn.compile(target)
    return kernel, time.perf_counter() - start


class TestCompileCachePerf:
    def test_warm_compile_at_least_5x_faster(self):
        kernel_registry.clear()
        bundle = build_sgemm()
        schedule_sgemm_cpu(bundle, 32, 8)
        fn = bundle.function

        cold_kernel, cold = _timed_compile(fn)
        assert not cold_kernel.report.cache_hit

        warm_kernel, warm = cold_kernel, float("inf")
        for __ in range(3):
            k, t = _timed_compile(fn)
            if t < warm:
                warm_kernel, warm = k, t
        assert warm_kernel.report.cache_hit
        assert warm_kernel.report.caches["memory"].hits >= 1

        print_table("compile cache: Fig.1 sgemm (cpu)", {
            "cold compile (ms)": round(cold * 1e3, 2),
            "warm compile (ms)": round(warm * 1e3, 2),
            "speedup": round(cold / warm, 1),
            "cache": kernel_registry.stats().format_line()})
        assert cold / warm >= 5.0, (
            f"warm compile only {cold / warm:.1f}x faster")

    def test_schedule_mutation_recompiles_then_caches(self):
        kernel_registry.clear()
        bundle = build_sgemm()
        fn = bundle.function
        fn.compile("cpu")
        acc = bundle.computations["acc"]
        acc.tile("i", "j", 32, 32)
        k_cold = fn.compile("cpu")
        assert not k_cold.report.cache_hit      # fingerprint moved
        k_warm = fn.compile("cpu")
        assert k_warm.report.cache_hit          # and re-cached
