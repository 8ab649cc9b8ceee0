"""The anchored operations: allocate_at, copy_at, barrier_at, cache_at —
their automatically-computed iteration domains (the paper's point) and
their scheduling behaviour."""

import numpy as np
import pytest

from repro import (Buffer, Computation, Function, Input, Param, Var,
                   allocate_at, barrier_at, copy_at)
from repro.core.communication import _pick_affine_bound, _prefix_domain
from repro.core.computation import Operation
from repro.isl import LinExpr, count
from repro.isl.linexpr import OUT


def tiled_comp(n=16, tile=4):
    f = Function("f")
    with f:
        c = Computation("c", [Var("i", 0, n), Var("j", 0, n)], 1.0)
    c.tile("i", "j", tile, tile)
    return f, c


class TestPrefixDomains:
    """'The use of allocate_at(), copy_at(), and barrier_at() allows
    TIRAMISU to automatically compute iteration domains' (III-C)."""

    def test_prefix_domain_counts(self):
        f, c = tiled_comp(16, 4)
        dom, names = _prefix_domain(c, 0)
        assert count(dom) == 4            # i0 in 0..3
        dom2, names2 = _prefix_domain(c, 1)
        assert count(dom2) == 16          # (i0, j0)

    def test_prefix_domain_respects_transformations(self):
        f, c = tiled_comp(16, 4)
        c.interchange("i0", "j0")
        dom, __ = _prefix_domain(c, 0)
        assert count(dom) == 4

    def test_prefix_domain_nonrectangular(self):
        f = Function("f")
        with f:
            i = Var("i", 0, 6)
            j = Var("j", 0, i + 1)
            c = Computation("c", [i, j], 1.0)
        dom, __ = _prefix_domain(c, 0)
        assert count(dom) == 6


class TestAllocateAt:
    def test_allocation_inside_loop(self):
        f, c = tiled_comp(8, 4)
        scratch = Buffer("scratch", [4, 4])
        op = allocate_at(scratch, c, "i0")
        src = f.compile("cpu").source
        assert "np.zeros" in src
        # allocation statement appears before the computation's body
        assert src.index("np.zeros") < src.index("b_c[")

    def test_root_allocation(self):
        f, c = tiled_comp(8, 4)
        scratch = Buffer("s2", [8])
        allocate_at(scratch, c)       # root level
        out = f.compile("cpu")()
        assert (out["c"] == 1).all()

    def test_operation_is_schedulable(self):
        """Operations 'can be scheduled like any other computation'."""
        f, c = tiled_comp(8, 4)
        scratch = Buffer("s3", [8])
        op = allocate_at(scratch, c, "i0")
        assert isinstance(op, Operation)
        assert op.time_names  # has loop dims
        beta = f.resolve_order()
        assert beta[op.name][1] < beta[c.name][1]  # before c inside i0


class TestCopyBarrier:
    def test_copy_at_executes(self):
        f = Function("f")
        with f:
            i = Var("i", 0, 4)
            src = Buffer("src", [4])
            dst = Buffer("dst", [4])
            c = Computation("c", [i], 7.0)
            c.store_in(src, [i])
        op = copy_at(c, None, src, dst)
        # schedule the copy after the producer
        f.order_directives.clear()
        f.order_after(op, c, -1)
        dst.kind = __import__("repro.core.buffer",
                              fromlist=["ArgKind"]).ArgKind.OUTPUT
        out = f.compile("cpu")()
        assert (out["dst"] == 7).all()

    def test_barrier_noop_on_cpu(self):
        f, c = tiled_comp(8, 4)
        barrier_at(c, "i0")
        out = f.compile("cpu")()
        assert (out["c"] == 1).all()


class TestCacheFootprints:
    def test_cache_footprint_matches_halo(self):
        """cache_shared_at computes the stencil halo automatically."""
        N = Param("N")
        f = Function("f", params=[N])
        with f:
            i = Var("i", 0, N - 4)
            inp = Input("inp", [Var("x", 0, N)])
            c = Computation("c", [i], None)
            c.set_expression(inp(i) + inp(i + 2) + inp(i + 4))
        c.split("i", 8, "i0", "i1")
        inp.cache_shared_at(c, "i0")
        shared, origins, __ = c.cached_reads["inp"]
        from repro.backends.evalexpr import eval_const_expr
        size = int(eval_const_expr(shared.sizes[0], {}))
        assert size == 12    # 8-wide tile + halo of 4

    def test_cache_execution_correct(self):
        N = Param("N")
        f = Function("f", params=[N])
        with f:
            i = Var("i", 0, N - 4)
            inp = Input("inp", [Var("x", 0, N)])
            c = Computation("c", [i], None)
            c.set_expression(inp(i) + inp(i + 4))
        c.split("i", 8, "i0", "i1")
        inp.cache_shared_at(c, "i0")
        k = f.compile("gpu")
        data = np.arange(20, dtype=np.float32)
        out = k(inp=data, N=20)["c"]
        assert np.allclose(out, data[:16] + data[4:20])

    def test_cache_requires_producer_consumer(self):
        from repro.core.errors import ScheduleError
        f = Function("f")
        with f:
            a = Computation("a", [Var("i", 0, 8)], 1.0)
            b = Computation("b", [Var("i2", 0, 8)], 2.0)
        b.split("i2", 4)
        with pytest.raises(ScheduleError):
            a.cache_shared_at(b, "i20")


class TestFootprintBounds:
    """Of several unit-coefficient bounds on a footprint dimension,
    cache_at keeps the tile-relative ones and, among those that differ
    by a constant, the tightest (the smallest staging buffer)."""

    def test_tightest_comparable_bound_wins(self):
        tile = LinExpr.dim(OUT, 0) * 8
        lowers = [(1, tile), (1, tile + 2), (1, LinExpr({}, 5))]
        assert _pick_affine_bound(lowers, 1, is_lower=True) == tile + 2
        uppers = [(1, tile + 9), (1, tile + 7)]
        assert _pick_affine_bound(uppers, 1, is_lower=False) == tile + 7

    def test_incomparable_bounds_keep_the_first(self):
        tile = LinExpr.dim(OUT, 0) * 8
        other = LinExpr.dim(OUT, 0) * 4
        assert _pick_affine_bound([(1, tile), (1, other)], 1,
                                  is_lower=True) == tile


class TestHostDeviceRoundTrip:
    def test_copies_preserve_data(self):
        f = Function("f")
        with f:
            inp = Input("inp", [Var("x", 0, 8)])
            i = Var("i", 0, 8)
            c = Computation("c", [i], None)
            c.set_expression(inp(i) * 3.0)
        h2d = inp.host_to_device()
        d2h = c.device_to_host()
        h2d.before(c, None)
        d2h.after(c, None)
        k = f.compile("gpu")
        data = np.arange(8, dtype=np.float32)
        out = k(inp_host=data)
        assert np.allclose(out["c_host"], data * 3)

    def test_input_buffer_becomes_device_temporary(self):
        from repro.core.buffer import ArgKind, MemSpace
        f = Function("f")
        with f:
            inp = Input("inp", [Var("x", 0, 8)])
            Computation("c", [Var("i", 0, 8)], None).set_expression(
                inp(Var("i", 0, 8)))
        inp.host_to_device()
        assert inp.get_buffer().kind == ArgKind.TEMPORARY
        assert inp.get_buffer().mem_space == MemSpace.GPU_GLOBAL
