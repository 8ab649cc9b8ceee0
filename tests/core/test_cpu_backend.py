"""End-to-end CPU backend tests: kernels vs NumPy references under many
schedules (the portability claim: same algorithm, different schedules,
identical results)."""

import numpy as np
import pytest

from repro import (Buffer, Computation, Function, Input, Param, Var,
                   clamp, select)
from repro.core.buffer import ArgKind
from repro.ir import types as T


def build_blur(n, m):
    N, M = Param("N"), Param("M")
    f = Function("blur", params=[N, M])
    with f:
        iw, jw = Var("iw", 0, N - 2), Var("jw", 0, M - 2)
        i, j, c = Var("i", 0, N - 4), Var("j", 0, M - 2), Var("c", 0, 3)
        inp = Input("inp", [Var("x", 0, N), Var("y", 0, M), Var("z", 0, 3)])
        cw = Var("cw", 0, 3)
        bx = Computation("bx", [iw, jw, cw], None)
        bx.set_expression((inp(iw, jw, cw) + inp(iw, jw + 1, cw)
                           + inp(iw, jw + 2, cw)) / 3)
        by = Computation("by", [i, j, c], None)
        by.set_expression((bx(i, j, c) + bx(i + 1, j, c)
                           + bx(i + 2, j, c)) / 3)
    return f, bx, by


def blur_ref(img):
    n, m = img.shape[:2]
    bx = (img[:n-2, :m-2] + img[:n-2, 1:m-1] + img[:n-2, 2:m]) / 3
    return (bx[:n-4] + bx[1:n-3] + bx[2:n-2]) / 3


@pytest.fixture
def image():
    rng = np.random.default_rng(7)
    return rng.random((16, 18, 3)).astype(np.float32)


SCHEDULES = {
    "default": lambda bx, by: None,
    "tile": lambda bx, by: by.tile("i", "j", 4, 4),
    "tile_parallel": lambda bx, by: (by.tile("i", "j", 4, 4),
                                     by.parallelize("i0")),
    "compute_at": lambda bx, by: (by.tile("i", "j", 4, 4),
                                  bx.compute_at(by, "j0")),
    "vectorize": lambda bx, by: by.vectorize("j", 8),
    "interchange": lambda bx, by: by.interchange("i", "j"),
    "shift_then_fuse": lambda bx, by: (by.shift("i", 2),
                                       by.after(bx, "iw")),
}


class TestBlurSchedules:
    @pytest.mark.parametrize("name", list(SCHEDULES))
    def test_schedule_preserves_semantics(self, name, image):
        n, m = image.shape[:2]
        f, bx, by = build_blur(n, m)
        SCHEDULES[name](bx, by)
        out = f.compile("cpu")(inp=image, N=n, M=m)["by"]
        assert np.allclose(out, blur_ref(image), atol=1e-5)

    def test_compute_at_restricts_producer_buffer_use(self, image):
        n, m = image.shape[:2]
        f, bx, by = build_blur(n, m)
        by.tile("i", "j", 4, 4)
        bx.compute_at(by, "j0")
        src = f.compile("cpu").source
        assert "for" in src

    def test_unshifted_fusion_rejected_by_legality(self, image):
        """Fusing by after bx at the i loop without shifting is illegal:
        by(i) reads bx(i+1), bx(i+2), which a fused nest has not yet
        produced.  Dependence analysis must catch this."""
        from repro.core.errors import IllegalScheduleError
        n, m = image.shape[:2]
        f, bx, by = build_blur(n, m)
        by.after(bx, "iw")
        with pytest.raises(IllegalScheduleError):
            f.check_legality()

    def test_shifted_fusion_accepted_by_legality(self, image):
        n, m = image.shape[:2]
        f, bx, by = build_blur(n, m)
        by.shift("i", 2)
        by.after(bx, "iw")
        f.check_legality()


class TestSgemm:
    def make(self, beta_val=0.5):
        N, M, K = Param("N"), Param("M"), Param("K")
        f = Function("sgemm", params=[N, M, K])
        with f:
            i, j, k = Var("i", 0, N), Var("j", 0, M), Var("k", 0, K)
            i2, j2 = Var("i2", 0, N), Var("j2", 0, M)
            A = Input("A", [Var("x", 0, N), Var("y", 0, K)])
            B = Input("B", [Var("x2", 0, K), Var("y2", 0, M)])
            Cb = Buffer("C", [N, M], kind=ArgKind.INOUT)
            init = Computation("init", [i2, j2], None)
            init.set_expression(init(i2, j2) * beta_val)
            init.store_in(Cb, [i2, j2])
            acc = Computation("acc", [i, j, k], None)
            acc.set_expression(acc(i, j, k) + A(i, k) * B(k, j))
            acc.store_in(Cb, [i, j])
        acc.after(init)
        return f, init, acc

    def run(self, f, n=17):
        rng = np.random.default_rng(3)
        a = rng.random((n, n)).astype(np.float64)
        b = rng.random((n, n)).astype(np.float64)
        c0 = rng.random((n, n)).astype(np.float64)
        c = c0.copy()
        f.compile("cpu")(A=a, B=b, C=c, N=n, M=n, K=n)
        return c, a @ b + 0.5 * c0

    def test_plain(self):
        f, init, acc = self.make()
        got, ref = self.run(f)
        assert np.allclose(got, ref)

    def test_two_level_tiling(self):
        f, init, acc = self.make()
        acc.tile("i", "j", 8, 8, "i0", "j0", "i1", "j1")
        acc.tile("i1", "j1", 4, 4, "i10", "j10", "i11", "j11")
        got, ref = self.run(f)
        assert np.allclose(got, ref)

    def test_vectorized_inner(self):
        f, init, acc = self.make()
        acc.tile("i", "j", 4, 4)
        acc.interchange("j1", "k")
        acc.interchange("i1", "k")
        acc.vectorize("j1", 4)
        acc.parallelize("i0")
        f.check_legality()
        got, ref = self.run(f)
        assert np.allclose(got, ref)

    def test_unroll_annotation(self):
        f, init, acc = self.make()
        acc.unroll("k", 4)
        got, ref = self.run(f)
        assert np.allclose(got, ref)


class TestBoundaryPatterns:
    def test_clamped_access(self):
        """Non-affine clamped indices (Section V-B, gaussian/warpAffine)."""
        N = Param("N")
        f = Function("f", params=[N])
        with f:
            i = Var("i", 0, N)
            inp = Input("inp", [Var("x", 0, N)])
            c = Computation("c", [i], None)
            c.set_expression(inp(clamp(i - 1, 0, N - 1))
                             + inp(clamp(i + 1, 0, N - 1)))
        k = f.compile("cpu")
        data = np.arange(10, dtype=np.float32)
        out = k(inp=data, N=10)["c"]
        idx = np.arange(10)
        ref = data[np.clip(idx - 1, 0, 9)] + data[np.clip(idx + 1, 0, 9)]
        assert np.allclose(out, ref)

    def test_select_expression(self):
        f = Function("f")
        with f:
            i = Var("i", 0, 10)
            inp = Input("inp", [Var("x", 0, 10)])
            c = Computation("c", [i], None)
            c.set_expression(select(inp(i) > 0.5, 1.0, -1.0))
        data = np.linspace(0, 1, 10).astype(np.float32)
        out = f.compile("cpu")(inp=data)["c"]
        assert np.allclose(out, np.where(data > 0.5, 1.0, -1.0))

    @pytest.mark.parametrize("vectorized", [False, True])
    def test_logical_and_or(self, vectorized):
        """``logical_and``/``logical_or`` lower to ``and``/``or`` on
        scalars and to ``&``/``|`` in a vectorized loop."""
        f = Function("f")
        with f:
            i = Var("i", 0, 16)
            inp = Input("inp", [Var("x", 0, 16)])
            v = inp(i)
            c = Computation("c", [i], None)
            c.set_expression(select(
                (v > 0.2).logical_and(v < 0.8), 1.0,
                select((v < 0.1).logical_or(v > 0.9), 2.0, 0.0)))
        if vectorized:
            c.vectorize("i", 4)
        kernel = f.compile("cpu")
        assert ("&" in kernel.source) == vectorized
        data = np.linspace(0, 1, 16).astype(np.float32)
        ref = np.where((data > 0.2) & (data < 0.8), 1.0,
                       np.where((data < 0.1) | (data > 0.9), 2.0, 0.0))
        assert np.allclose(kernel(inp=data)["c"], ref)

    def test_integer_dtype_division(self):
        """Integer computations use integer division (C semantics)."""
        f = Function("f")
        with f:
            i = Var("i", 0, 6)
            inp = Input("inp", [Var("x", 0, 6)], dtype=T.int32)
            c = Computation("c", [i], None, dtype=T.int32)
            c.set_expression((inp(i) + 1) / 2)
        data = np.array([0, 1, 2, 3, 4, 5], dtype=np.int32)
        out = f.compile("cpu")(inp=data)["c"]
        assert (out == (data + 1) // 2).all()
        assert out.dtype == np.int32

    def test_uint8_image_pipeline(self):
        f = Function("f")
        with f:
            i = Var("i", 0, 8)
            inp = Input("inp", [Var("x", 0, 8)], dtype=T.uint8)
            c = Computation("c", [i], None, dtype=T.uint8)
            c.set_expression(inp(i) / 2)
        data = np.arange(8, dtype=np.uint8) * 30
        out = f.compile("cpu")(inp=data)["c"]
        assert (out == data // 2).all()


class TestDataLayout:
    def test_store_in_permuted_layout(self):
        """store_in({c, i, j}): the paper's SOA transformation."""
        f = Function("f")
        with f:
            i, j, c = Var("i", 0, 4), Var("j", 0, 5), Var("c", 0, 3)
            buf = Buffer("soa", [3, 4, 5])
            comp = Computation("comp", [i, j, c], None)
            comp.set_expression(i + j * 10 + c * 100)
            comp.store_in(buf, [c, i, j])
        out = f.compile("cpu")()["soa"]
        for a in range(4):
            for b in range(5):
                for ch in range(3):
                    assert out[ch, a, b] == a + b * 10 + ch * 100

    def test_contraction_to_scalar_row(self):
        """Buffer contraction: store c(i, j) into acc[i] (reduction)."""
        f = Function("f")
        with f:
            i, j = Var("i", 0, 4), Var("j", 0, 6)
            buf = Buffer("acc", [4])
            comp = Computation("comp", [i, j], None)
            comp.set_expression(comp(i, j - 1) + 1.0)
            comp.store_in(buf, [i])
        out = f.compile("cpu")()["acc"]
        assert (out == 6).all()

    def test_modulo_storage(self):
        """c(i) stored into buf[i % 2]: the paper's c(i%2, j%2) example."""
        f = Function("f")
        with f:
            i = Var("i", 0, 8)
            buf = Buffer("ring", [2])
            comp = Computation("comp", [i], None)
            comp.set_expression(1.0 * i)
            comp.store_in(buf, [i % 2])
        out = f.compile("cpu")()["ring"]
        assert out[0] == 6.0 and out[1] == 7.0


class TestKernelInterface:
    def test_missing_param_raises(self):
        from repro.core.errors import ExecutionError
        N = Param("N")
        f = Function("f", params=[N])
        with f:
            Computation("c", [Var("i", 0, N)], 1.0)
        k = f.compile("cpu")
        with pytest.raises(ExecutionError):
            k()

    def test_unknown_argument_raises(self):
        from repro.core.errors import ExecutionError
        f = Function("f")
        with f:
            Computation("c", [Var("i", 0, 4)], 1.0)
        with pytest.raises(ExecutionError):
            f.compile("cpu")(bogus=3)

    def test_output_provided_in_place(self):
        f = Function("f")
        with f:
            Computation("c", [Var("i", 0, 4)], 9.0)
        target = np.zeros(4, dtype=np.float32)
        out = f.compile("cpu")(c=target)
        assert out["c"] is target
        assert (target == 9.0).all()
