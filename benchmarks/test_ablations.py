"""Ablation benches for the design choices DESIGN.md calls out.

Each ablation removes one Tiramisu mechanism and measures (with the same
machine models as the figures) what it was worth — quantifying the
paper's qualitative claims.
"""

import pytest

from conftest import print_table
from repro.evaluation import schedules as S
from repro.evaluation.fig6 import HALIDE_OVERESTIMATE
from repro.kernels import (build_conv2d, build_nb, build_sgemm,
                           schedule_nb_fused, schedule_sgemm_cpu)
from repro.machine import CpuCostModel, GpuCostModel
from repro.machine.network import halo_exchange_time


class TestFusionAblation:
    """Dependence-analysis-gated fusion (nb): fused vs Halide's
    conservative no-fusion rule."""

    def test_fusion_speedup(self):
        fused = build_nb()
        S.tiramisu_cpu(fused)
        t_fused = CpuCostModel(fused.function,
                               fused.paper_params).estimate().seconds
        unfused = build_nb()
        S.halide_cpu(unfused)
        t_unfused = CpuCostModel(unfused.function,
                                 unfused.paper_params).estimate().seconds
        ratio = t_unfused / t_fused
        print_table("ablation: nb fusion", {
            "fused (s)": t_fused, "unfused (s)": t_unfused,
            "speedup": round(ratio, 2)})
        assert ratio > 1.5


class TestVectorizationAblation:
    def test_vectorize_speedup_conv2d(self):
        v = build_conv2d()
        S.tiramisu_cpu(v)
        t_vec = CpuCostModel(v.function, v.paper_params).estimate().seconds
        nv = build_conv2d()
        S.pencil_cpu(nv)
        t_scal = CpuCostModel(nv.function,
                              nv.paper_params).estimate().seconds
        print_table("ablation: conv2D vectorization", {
            "vectorized (s)": t_vec, "scalar (s)": t_scal,
            "speedup": round(t_scal / t_vec, 2)})
        assert t_scal / t_vec > 2.0


class TestPackingAblation:
    """Array packing on sgemm's B operand (one of the optimizations the
    paper says automatic compilers miss)."""

    def test_packing_effect(self):
        params = {"N": 1060, "M": 1060, "K": 1060}

        def modeled(packed):
            b = build_sgemm()
            schedule_sgemm_cpu(b, 32, 8)
            return CpuCostModel(
                b.function, params,
                packed_buffers=["B"] if packed else []).estimate().seconds

        t_packed = modeled(True)
        t_plain = modeled(False)
        print_table("ablation: sgemm array packing", {
            "packed (s)": t_packed, "unpacked (s)": t_plain,
            "speedup": round(t_plain / t_packed, 2)})
        assert t_plain >= t_packed


class TestConstantMemoryAblation:
    """tag_gpu_constant on conv weights (GPU row of Fig. 6)."""

    def test_constant_memory_effect(self):
        with_const = build_conv2d()
        S.tiramisu_gpu(with_const)
        t_const = GpuCostModel(with_const.function,
                               with_const.paper_params
                               ).estimate_gpu().kernel_seconds
        without = build_conv2d()
        S.halide_gpu(without)   # same mapping, global-memory weights
        t_global = GpuCostModel(without.function,
                                without.paper_params
                                ).estimate_gpu().kernel_seconds
        print_table("ablation: conv2D constant memory", {
            "constant (s)": t_const, "global (s)": t_global,
            "speedup": round(t_global / t_const, 2)})
        assert t_global > t_const


class TestCommunicationAblation:
    """Explicit send/receive vs bounding-box over-approximation +
    packing (the distributed Halide comparison)."""

    def test_exact_vs_overapproximated_volume(self):
        nodes, halo_elems = 16, 2 * 3520 * 3
        exact = halo_exchange_time(nodes, halo_elems, overlap=0.5)
        over = halo_exchange_time(nodes, halo_elems,
                                  overestimate=HALIDE_OVERESTIMATE,
                                  packed=True, overlap=0.0)
        print_table("ablation: communication precision", {
            "exact async (s)": exact.seconds,
            "bounding-box sync+packed (s)": over.seconds,
            "ratio": round(over.seconds / exact.seconds, 2),
            "bytes exact": exact.bytes_moved,
            "bytes over": over.bytes_moved})
        assert over.seconds / exact.seconds > 4.0
        assert over.bytes_moved == pytest.approx(
            exact.bytes_moved * HALIDE_OVERESTIMATE)


class TestModelVsTraceValidation:
    """The analytical cache model vs the trace-driven simulator: both
    must rank schedules the same way (tiled < naive in memory cost)."""

    def test_tiling_ranking_agrees(self):
        from repro.machine import CpuCostModel, simulate_trace

        def build(tiled):
            b = build_sgemm()
            if tiled:
                acc = b.computations["acc"]
                acc.tile("i", "j", 8, 8)
                acc.interchange("j1", "k")
                acc.interchange("i1", "k")
            return b

        params = {"N": 96, "M": 96, "K": 96}
        stress = dict(l1_bytes=2048, l2_bytes=16384)
        trace_naive = simulate_trace(build(False).function, params,
                                     **stress)
        trace_tiled = simulate_trace(build(True).function, params,
                                     **stress)
        model_naive = CpuCostModel(build(False).function,
                                   params).estimate().seconds
        model_tiled = CpuCostModel(build(True).function,
                                   params).estimate().seconds
        print_table("ablation: model vs trace (96^3 gemm)", {
            "trace mem-cycles naive": trace_naive.memory_cycles(),
            "trace mem-cycles tiled": trace_tiled.memory_cycles(),
            "model seconds naive": model_naive,
            "model seconds tiled": model_tiled})
        assert trace_tiled.memory_cycles() < trace_naive.memory_cycles()
        assert model_tiled < model_naive


class TestSeparationAblation:
    """Full/partial tile separation: removes modeled GPU divergence and
    (with gcc) gives a real wall-clock gain — paper Section V-A."""

    def test_divergence_removed(self):
        """At realistic sizes the divergence penalty dwarfs the extra
        kernel launches the epilogues cost (at tiny sizes it would not:
        separation is a size-dependent trade-off)."""
        from repro import Computation, Function, Input, Var
        from repro.machine import GpuCostModel

        def build():
            g = Function("gsep")
            with g:
                n = 2000
                inp = Input("inp", [Var("x", 0, n), Var("y", 0, n)])
                i, j = Var("i", 0, n - 2), Var("j", 0, n - 2)
                d = Computation("d", [i, j], None)
                d.set_expression(inp(i, j) + inp(i + 1, j)
                                 + inp(i, j + 1) + inp(i + 2, j + 2))
            d.tile_gpu("i", "j", 16, 16)
            return g, d

        g1, d1 = build()
        before = GpuCostModel(g1, {}).estimate_gpu()
        g2, d2 = build()
        d2.separate_all("i1", "j1")
        after = GpuCostModel(g2, {}).estimate_gpu()
        print_table("ablation: GPU tile separation (2000^2 stencil)", {
            "divergent before": before.divergent,
            "divergent after": after.divergent,
            "kernel_s before": before.kernel_seconds,
            "kernel_s after": after.kernel_seconds})
        assert before.divergent and not after.divergent
        assert after.kernel_seconds < before.kernel_seconds


class TestCompileDriverAblation:
    """The staged driver's compile cache: what re-running all four IR
    lowering stages on every compile() was costing the schedule-search
    hot loop.  Runs with TIRAMISU_TRACE=1 so each compile prints its
    per-stage table (the harness's observability wiring)."""

    def test_compile_cache_ablation_sgemm(self, monkeypatch, capsys):
        monkeypatch.setenv("TIRAMISU_TRACE", "1")
        from repro.evaluation.profiling import compile_profile, stage_rows
        prof = compile_profile(build_sgemm,
                               lambda b: schedule_sgemm_cpu(b, 32, 8))
        rows = {
            "cold compile (ms)": round(prof["cold_seconds"] * 1e3, 2),
            "warm compile (ms)": round(prof["warm_seconds"] * 1e3, 2),
            "speedup": round(prof["speedup"], 1),
            "cache hits": prof["cache"].hits,
            "cache misses": prof["cache"].misses,
        }
        rows.update(stage_rows(prof["cold_report"], prefix="cold "))
        print_table("ablation: staged compile driver (sgemm cpu)", rows)
        assert prof["traced"]
        # The trace table itself went to stderr for every compile.
        assert "tiramisu compile" in capsys.readouterr().err
        assert prof["warm_report"].cache_hit
        assert prof["speedup"] > 2.0


class TestLayerSeparationAblation:
    """Layer II schedules never undo data-layout decisions: the same
    scheduled function retargets from AOS to SOA by changing ONLY Layer
    III (store_in), leaving the Layer II schedule untouched."""

    def test_schedule_survives_layout_change(self):
        import numpy as np
        from repro import Computation, Function, Var

        def build(soa):
            f = Function("f" + ("s" if soa else "a"))
            with f:
                i, j, c = Var("i", 0, 8), Var("j", 0, 8), Var("c", 0, 3)
                comp = Computation("comp", [i, j, c], None)
                comp.set_expression(1.0 * i + 10.0 * j + 100.0 * c)
                if soa:
                    comp.store_in([c, i, j])   # Layer III only
            comp.tile("i", "j", 4, 4)          # identical Layer II
            comp.parallelize("i0")
            return f.compile("cpu")()

        aos = build(False)
        soa = build(True)
        a = next(iter(aos.values()))
        s = next(iter(soa.values()))
        assert a.shape == (8, 8, 3) and s.shape == (3, 8, 8)
        assert np.allclose(a, s.transpose(1, 2, 0))
