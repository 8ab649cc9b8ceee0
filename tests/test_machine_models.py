"""Directional tests for the analytical machine models: each scheduling
mechanism the paper credits must move the modeled time the right way."""

import numpy as np
import pytest

from repro import (Buffer, Computation, Function, Input, Param, Var,
                   copy_at)
from repro.core.buffer import ArgKind
from repro.machine import (CpuCostModel, GpuCostModel, CpuMachine,
                           estimate_messages, halo_exchange_time,
                           message_time)
from repro.machine.params import DEFAULT_NETWORK


def make_sgemm(n=512):
    N, M, K = Param("N"), Param("M"), Param("K")
    f = Function("s", params=[N, M, K])
    with f:
        A = Input("A", [Var("x", 0, N), Var("y", 0, K)])
        B = Input("B", [Var("x2", 0, K), Var("y2", 0, M)])
        Cb = Buffer("C", [N, M], kind=ArgKind.INOUT)
        i, j, k = Var("i", 0, N), Var("j", 0, M), Var("k", 0, K)
        acc = Computation("acc", [i, j, k], None)
        acc.set_expression(acc(i, j, k) + A(i, k) * B(k, j))
        acc.store_in(Cb, [i, j])
    return f, acc, {"N": n, "M": n, "K": n}


def seconds(f, params, packed=()):
    return CpuCostModel(f, params, packed_buffers=list(packed)) \
        .estimate().seconds


class TestCpuModelDirections:
    def test_tiling_helps_gemm(self):
        f1, a1, P = make_sgemm()
        base = seconds(f1, P)
        f2, a2, __ = make_sgemm()
        a2.tile("i", "j", 32, 32)
        a2.interchange("j1", "k")
        a2.interchange("i1", "k")
        assert seconds(f2, P) < base / 3

    def test_vectorize_helps(self):
        f1, a1, P = make_sgemm()
        a1.tile("i", "j", 32, 32)
        a1.interchange("j1", "k"); a1.interchange("i1", "k")
        base = seconds(f1, P)
        f2, a2, __ = make_sgemm()
        a2.tile("i", "j", 32, 32)
        a2.interchange("j1", "k"); a2.interchange("i1", "k")
        a2.vectorize("j1", 8)
        assert seconds(f2, P) < base / 2

    def test_parallel_scales_with_cores(self):
        f1, a1, P = make_sgemm()
        base = seconds(f1, P)
        f2, a2, __ = make_sgemm()
        a2.parallelize("i")
        par = seconds(f2, P)
        assert base / 30 < par < base / 5   # ~24 cores at ~88% efficiency

    def test_packing_never_hurts(self):
        f1, a1, P = make_sgemm()
        a1.tile("i", "j", 32, 32)
        assert seconds(f1, P, packed=("B",)) <= seconds(f1, P)

    def test_guards_disable_vectorization_benefit(self):
        """Unseparated partial tiles fall back to scalar code in codegen
        AND in the model (the separation motivation)."""
        def build(n):
            f = Function(f"f{n}")
            with f:
                c = Computation("c", [Var("i", 0, n)], None)
                c.set_expression(c(Var("i", 0, n)) + 1.0)
            c.split("i", 8)
            c.vectorize("i1", 8)
            return f
        # A fused-with-sibling config that introduces guards is hard to
        # build in isolation; instead check the model's vectorizable
        # predicate directly via the AST.
        from repro.codegen.ast import loops_in
        f = build(64)
        model = CpuCostModel(f, {})
        loop = [l for l in loops_in(model.ast)
                if l.tag is not None and l.tag.kind == "vector"][0]
        assert CpuCostModel._vectorizable(loop)

    def test_bandwidth_floor_on_streaming_kernel(self):
        """copy-like kernels are DRAM-bound: parallel+vector can't beat
        bytes/bandwidth."""
        N = Param("N")
        f = Function("copy", params=[N])
        with f:
            inp = Input("inp", [Var("x", 0, N)])
            i = Var("i", 0, N)
            c = Computation("c", [i], None)
            c.set_expression(inp(i) * 1.0)
        c.parallelize("i")
        P = {"N": 200_000_000}
        report = CpuCostModel(f, P).estimate()
        machine = CpuMachine()
        min_time = report.dram_bytes / (machine.mem_bandwidth_gbs * 1e9)
        assert report.seconds >= min_time * 0.99
        assert report.dram_bytes >= 200_000_000 * 4  # at least one pass

    def test_fusion_reduces_dram_traffic(self):
        def build(fused):
            f = Function("nb" + str(fused))
            with f:
                inp = Input("inp", [Var("x", 0, 4096), Var("y", 0, 4096)])
                buf = Buffer("out", [4096, 4096],
                             kind=ArgKind.OUTPUT)
                i1, j1 = Var("i1", 0, 4096), Var("j1", 0, 4096)
                s0 = Computation("s0", [i1, j1], None)
                s0.set_expression(inp(i1, j1) * 2.0)
                s0.store_in(buf, [i1, j1])
                i2, j2 = Var("i2", 0, 4096), Var("j2", 0, 4096)
                s1 = Computation("s1", [i2, j2], None)
                s1.set_expression(s0(i2, j2) + 1.0)
                s1.store_in(buf, [i2, j2])
            if fused:
                s1.after(s0, "j1")
            else:
                s1.after(s0, None)
            return f
        fused = CpuCostModel(build(True), {}).estimate()
        unfused = CpuCostModel(build(False), {}).estimate()
        assert fused.dram_bytes < unfused.dram_bytes

    def test_report_flops_counted(self):
        f, a, P = make_sgemm(64)
        report = CpuCostModel(f, P).estimate()
        # one add + one multiply per iteration over 64^3 iterations
        assert report.flops == pytest.approx(2 * 64 ** 3, rel=0.01)


class TestOperationCosts:
    """Copies cost their bytes over memory bandwidth; other operations
    cost a cycle."""

    @staticmethod
    def build(n, copy):
        f = Function(f"cp{n}")
        with f:
            i = Var("i", 0, n)
            src, dst = Buffer("src", [n]), Buffer("dst", [n])
            c = Computation("c", [i], 7.0)
            c.store_in(src, [i])
        if copy:
            f.order_after(copy_at(c, None, src, dst), c, -1)
        return f

    def copy_seconds(self, n):
        return seconds(self.build(n, True), {}) \
            - seconds(self.build(n, False), {})

    def test_copy_cost_scales_with_bytes(self):
        small = self.copy_seconds(1024)
        assert small > 0
        assert self.copy_seconds(4096) == pytest.approx(4 * small, rel=0.02)

    def test_cache_copy_costs_its_footprint(self):
        def build(cached):
            N = Param("N")
            f = Function("cc", params=[N])
            with f:
                i = Var("i", 0, N - 4)
                inp = Input("inp", [Var("x", 0, N)])
                c = Computation("c", [i], None)
                c.set_expression(inp(i) + inp(i + 4))
            c.split("i", 8, "i0", "i1")
            if cached:
                inp.cache_shared_at(c, "i0")
            return f
        params = {"N": 4100}
        assert seconds(build(True), params) > seconds(build(False), params)


class TestGpuModelDirections:
    def gemm_gpu(self, shared=False, tile=16):
        f, acc, P = make_sgemm(256)
        acc.tile_gpu("i", "j", tile, tile, "i0", "j0", "i1", "j1")
        acc.split("k", tile, "k0", "k1")
        acc.interchange("j1", "k0")
        acc.interchange("i1", "k0")
        if shared:
            f.find("A").cache_shared_at(acc, "k0")
            f.find("B").cache_shared_at(acc, "k0")
        return f, P

    def test_shared_memory_staging_helps(self):
        f1, P = self.gemm_gpu(shared=False)
        base = GpuCostModel(f1, P).estimate_gpu().kernel_seconds
        f2, P = self.gemm_gpu(shared=True)
        staged = GpuCostModel(f2, P).estimate_gpu().kernel_seconds
        assert staged < base

    def test_divergence_penalty_on_ragged_tiles(self):
        def ratio(tile):
            f = Function(f"g{tile}")
            with f:
                d = Computation("d", [Var("i", 0, 256), Var("j", 0, 256)],
                                1.0)
            d.tile_gpu("i", "j", tile, tile)
            return GpuCostModel(f, {}).estimate_gpu()
        exact = ratio(16)      # divides 256
        ragged = ratio(17)
        assert not exact.divergent
        assert ragged.divergent

    def test_transfers_priced(self):
        f = Function("f")
        with f:
            inp = Input("inp", [Var("x", 0, 1 << 20)])
            i = Var("i", 0, 1 << 20)
            c = Computation("c", [i], None)
            c.set_expression(inp(i) * 2.0)
        op1 = inp.host_to_device()
        op2 = c.device_to_host()
        op1.before(c, None)
        op2.after(c, None)
        rep = GpuCostModel(f, {}).estimate_gpu()
        # 2 x 4 MiB over PCIe
        assert rep.transfer_seconds > 4e-4

    def test_constant_memory_cheaper_than_global(self):
        def model(tag):
            f = Function("f" + tag)
            with f:
                w = Input("w", [Var("k", 0, 9)])
                i = Var("i", 0, 1 << 16)
                c = Computation("c", [i], None)
                expr = None
                for k in range(9):
                    t = w(k) * float(k + 1)
                    expr = t if expr is None else expr + t
                c.set_expression(expr)
            if tag == "const":
                w.get_buffer().tag_gpu_constant()
            c.split("i", 256, "i0", "i1")
            from repro.core.schedule import Tag
            c.tags[0] = Tag("gpu_block")
            c.tags[1] = Tag("gpu_thread")
            return GpuCostModel(f, {}).estimate_gpu().kernel_seconds
        assert model("const") < model("global")


class TestNetworkModel:
    def test_message_time_components(self):
        net = DEFAULT_NETWORK
        small = message_time(net, 8)
        large = message_time(net, 8 * 1024 * 1024)
        assert small == pytest.approx(net.latency_us * 1e-6, rel=0.01)
        assert large > small * 100

    def test_packing_overhead(self):
        net = DEFAULT_NETWORK
        assert message_time(net, 1 << 20, packed=True) > \
            message_time(net, 1 << 20, packed=False)

    def test_per_pair_parallelism(self):
        """Messages between distinct pairs overlap; same pair serialises."""
        one_pair = estimate_messages([(0, 1, 1000)] * 4)
        four_pairs = estimate_messages([(i, i + 1, 1000)
                                        for i in range(4)])
        assert one_pair.seconds > four_pairs.seconds

    def test_overlap_discount(self):
        sync = halo_exchange_time(8, 10_000, overlap=0.0)
        async_ = halo_exchange_time(8, 10_000, overlap=0.5)
        assert async_.seconds == pytest.approx(sync.seconds * 0.5)

    def test_overestimation_scales_volume(self):
        exact = halo_exchange_time(8, 10_000)
        over = halo_exchange_time(8, 10_000, overestimate=8.0)
        assert over.bytes_moved == pytest.approx(exact.bytes_moved * 8)

    def test_fault_plan_prices_drops_as_timeout_plus_resend(self):
        from repro.faults import FaultPlan
        from repro.machine import estimate_with_faults
        msgs = [(1, 0, 1000), (2, 1, 1000), (3, 2, 1000)]
        base = estimate_with_faults(msgs, None)
        assert base.seconds == estimate_messages(msgs).seconds
        plan = FaultPlan().drop_message(src=2, dst=1, message=0)
        faulty = estimate_with_faults(msgs, plan, recv_timeout=3.0)
        one_msg = message_time(DEFAULT_NETWORK, 1000 * 4.0)
        assert faulty.seconds == pytest.approx(
            base.seconds + 3.0 + one_msg)
        assert faulty.messages == base.messages + 1
        assert faulty.bytes_moved == pytest.approx(
            base.bytes_moved + 4000.0)
        # The plan was replayed on a clone: the live specs are untouched.
        assert plan.fired() == 0
        assert plan.fires("message-drop", src=2, dst=1,
                          message=0) is not None

    def test_halo_exchange_is_bidirectional(self):
        """Regression: the halo model only priced the q+1 -> q
        direction, halving both volume and (same-link) time."""
        est = halo_exchange_time(8, 10_000)
        assert est.messages == 2 * 7
        one_way = estimate_messages([(q + 1, q, 10_000)
                                     for q in range(7)])
        assert est.bytes_moved == pytest.approx(2 * one_way.bytes_moved)
        # Both directions ride the same physical link and serialise.
        assert est.seconds == pytest.approx(2 * one_way.seconds)

    def test_both_directions_share_the_link(self):
        fwd = estimate_messages([(0, 1, 1000)])
        both = estimate_messages([(0, 1, 1000), (1, 0, 1000)])
        assert both.seconds == pytest.approx(2 * fwd.seconds)

    def test_distinct_link_retransmits_recover_in_parallel(self):
        """Regression: retransmit costs were summed even across
        distinct links, while the base model lets distinct links
        proceed in parallel."""
        from repro.faults import FaultPlan
        from repro.machine import estimate_with_faults
        msgs = [(1, 0, 1000), (2, 1, 1000), (3, 2, 1000)]
        base = estimate_messages(msgs)
        plan = FaultPlan().drop_message(src=1, dst=0, message=0) \
                          .drop_message(src=3, dst=2, message=0)
        faulty = estimate_with_faults(msgs, plan, recv_timeout=3.0)
        one_msg = message_time(DEFAULT_NETWORK, 1000 * 4.0)
        # Two drops on distinct links: the slowest recovery bounds the
        # added time (max), they are not stacked serially (sum).
        assert faulty.seconds == pytest.approx(
            base.seconds + 3.0 + one_msg)
        assert faulty.messages == base.messages + 2
        # Two drops on the *same* link do stack.
        plan2 = FaultPlan().drop_message(src=1, dst=0, message=0) \
                           .drop_message(src=0, dst=1, message=0)
        msgs2 = msgs + [(0, 1, 1000)]
        base2 = estimate_messages(msgs2)
        faulty2 = estimate_with_faults(msgs2, plan2, recv_timeout=3.0)
        assert faulty2.seconds == pytest.approx(
            base2.seconds + 2 * (3.0 + one_msg))

    def test_retransmit_time_honors_overlap(self):
        """Regression: the overlap discount applied to the base
        estimate but not to the recovery time stacked on top."""
        from repro.faults import FaultPlan
        from repro.machine import estimate_with_faults
        msgs = [(1, 0, 1000), (2, 1, 1000)]
        plan = FaultPlan().drop_message(src=1, dst=0, message=0)
        sync = estimate_with_faults(msgs, plan, recv_timeout=3.0,
                                    overlap=0.0)
        hidden = estimate_with_faults(msgs, plan, recv_timeout=3.0,
                                      overlap=0.5)
        assert hidden.seconds == pytest.approx(sync.seconds * 0.5)


class TestCriticalPathModel:
    def summa_phases(self, rounds=8, compute_seconds=2e-3):
        """Pipelined-SUMMA shape: each round broadcasts a panel from
        the owner to the other ranks, then multiplies it."""
        bcast = [(0, r, 250_000) for r in range(1, 4)]
        return [(bcast, compute_seconds)] * rounds

    def test_overlap_shrinks_modeled_time(self):
        from repro.machine import estimate_critical_path
        est = estimate_critical_path(self.summa_phases())
        assert est.seconds < est.serial_seconds
        assert est.hidden_seconds > 0
        assert 0.0 < est.overlap_ratio <= 1.0

    def test_compute_bound_hides_all_but_the_first_round(self):
        from repro.machine import estimate_critical_path
        rounds = 8
        est = estimate_critical_path(
            self.summa_phases(rounds=rounds, compute_seconds=0.5))
        per_round = est.comm_seconds / rounds
        # Only round 0's broadcast is exposed; the rest hide behind
        # the previous round's multiply.
        assert est.seconds == pytest.approx(
            per_round + est.compute_seconds)
        assert est.overlap_ratio == pytest.approx(
            (rounds - 1) / rounds)

    def test_no_compute_means_nothing_to_hide(self):
        from repro.machine import estimate_critical_path
        est = estimate_critical_path(self.summa_phases(
            compute_seconds=0.0))
        assert est.seconds == pytest.approx(est.serial_seconds)
        assert est.overlap_ratio == pytest.approx(0.0)

    def test_empty_schedule(self):
        from repro.machine import estimate_critical_path
        est = estimate_critical_path([])
        assert est.seconds == 0.0
        assert est.overlap_ratio == 0.0
