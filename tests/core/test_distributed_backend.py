"""Distributed backend tests: rank-conditional codegen, send/receive
semantics, halo exchange, and communication statistics."""

import time

import numpy as np
import pytest

from repro import (ASYNC, SYNC, Buffer, Computation, Function, Input,
                   Operation, Param, Var, receive, send)
from repro.core.errors import ExecutionError


def build_halo_stencil():
    """Each node owns R rows; out[i] = lin[i] + lin[i+1] with the halo
    row received from the next node (paper Figure 3(c) pattern)."""
    R, Nodes = Param("R"), Param("Nodes")
    f = Function("dstencil", params=[R, Nodes])
    with f:
        lin = Input("lin", [Var("x", 0, R + 1)])
        s_it = Var("s", 1, Nodes)
        r_it = Var("r", 0, Nodes - 1)
        s_op = send([s_it], lin.get_buffer(), 0, 1, s_it - 1, (ASYNC,))
        r_op = receive([r_it], lin.get_buffer(), R, 1, r_it + 1, (SYNC,),
                       matching_send=s_op)
        i = Var("i", 0, R)
        out = Computation("out", [i], None)
        out.set_expression(lin(i) + lin(i + 1))
    s_op.distribute("s")
    r_op.distribute("r")
    r_op.after(s_op)
    out.after(r_op)
    return f


class TestHaloExchange:
    def run(self, ranks=4, rows=5):
        f = build_halo_stencil()
        k = f.compile("distributed")
        full = np.arange(ranks * rows, dtype=np.float64)
        inputs = {"lin": [
            np.concatenate([full[q * rows:(q + 1) * rows], [0.0]])
            for q in range(ranks)]}
        res = k(ranks=ranks, inputs=inputs,
                params={"R": rows, "Nodes": ranks})
        return k, full, res

    def test_results_match(self):
        k, full, res = self.run()
        got = np.concatenate([r["out"] for r in res])
        ref = full + np.concatenate([full[1:], [0.0]])
        # all but the global last row (no halo beyond the last node)
        assert np.allclose(got[:-1], ref[:-1])

    def test_exact_message_volume(self):
        """The paper's key distributed claim: explicit send/receive moves
        exactly the needed data — here 1 element per adjacent pair."""
        k, __, ___ = self.run(ranks=4)
        stats = k.last_stats
        assert stats.message_count() == 3
        assert stats.total_elements() == 3
        assert sorted(stats.messages) == [(1, 0, 1), (2, 1, 1), (3, 2, 1)]

    @pytest.mark.parametrize("ranks", [2, 4, 8])
    def test_scales_with_ranks(self, ranks):
        k, full, res = self.run(ranks=ranks, rows=3)
        got = np.concatenate([r["out"] for r in res])
        ref = full + np.concatenate([full[1:], [0.0]])
        assert np.allclose(got[:-1], ref[:-1])


class TestRankConditional:
    def test_generated_code_shape(self):
        """Section V-A: 'each distributed loop is converted into a
        conditional based on the MPI rank'."""
        f = build_halo_stencil()
        src = f.compile("distributed").source
        assert "_runtime.rank" in src
        assert "_runtime.send(" in src
        assert "_runtime.recv(" in src

    def test_distributed_compute_loop(self):
        """distribute() on a computation loop partitions iterations."""
        P, Nodes = Param("P"), Param("Nodes")
        f = Function("f", params=[P, Nodes])
        with f:
            q = Var("q", 0, Nodes)
            i = Var("i", 0, P)
            c = Computation("c", [q, i], None)
            c.set_expression(1.0 * q)
        c.distribute("q")
        k = f.compile("distributed")
        res = k(ranks=3, inputs={}, params={"P": 4, "Nodes": 3})
        for rank in range(3):
            row = res[rank]["c"][rank]
            assert (row == rank).all()
            # other ranks' rows untouched on this node
            other = res[rank]["c"][(rank + 1) % 3]
            assert (other == 0).all()


class TestRuntimeErrors:
    def test_send_to_invalid_rank(self):
        Nodes = Param("Nodes")
        f = Function("f", params=[Nodes])
        with f:
            buf = Buffer("b", [4])
            s_it = Var("s", 0, Nodes)
            s_op = send([s_it], buf, 0, 1, s_it + 99)
            c = Computation("c", [Var("i", 0, 4)], 0.0)
            c.store_in(buf, [Var("i", 0, 4)])
        s_op.distribute("s")
        c.after(s_op)
        k = f.compile("distributed")
        with pytest.raises(ExecutionError):
            k(ranks=2, inputs={}, params={"Nodes": 2})

    def test_unmatched_receive_times_out(self):
        Nodes = Param("Nodes")
        f = Function("f", params=[Nodes])
        with f:
            buf = Buffer("b", [4])
            r_it = Var("r", 0, Nodes)
            r_op = receive([r_it], buf, 0, 1, r_it)  # receive from self
            c = Computation("c", [Var("i", 0, 4)], 0.0)
            c.store_in(buf, [Var("i", 0, 4)])
        r_op.distribute("r")
        c.after(r_op)
        k = f.compile("distributed")
        import repro.backends.distributed as D
        orig = D.MPIRuntime.recv
        D.MPIRuntime.recv = lambda self, src, timeout=0.2: orig(
            self, src, timeout)
        try:
            with pytest.raises(ExecutionError):
                k(ranks=1, inputs={}, params={"Nodes": 1})
        finally:
            D.MPIRuntime.recv = orig


class TestAsyncSend:
    """MPI_Isend-style sends: the completion handle, the sync
    (rendezvous) variant, and the per-message kind record the network
    model's overlap input comes from."""

    def make_pair(self, timeout=5.0):
        from repro.backends.distributed import MPIRuntime, World
        world = World(2)
        return (world, MPIRuntime(0, world, timeout=timeout),
                MPIRuntime(1, world, timeout=timeout))

    def test_async_send_returns_pending_handle(self):
        world, r0, r1 = self.make_pair()
        req = r0.send(1, np.arange(4.0))
        assert not req.done()          # posted, not yet consumed
        out = r1.recv(0)
        assert np.array_equal(out, np.arange(4.0))
        assert req.done()              # the receive completed it
        assert req.wait(timeout=0.1)

    def test_isend_is_the_async_alias(self):
        world, r0, r1 = self.make_pair()
        req = r0.isend(1, np.ones(3))
        r1.recv(0)
        assert req.done()
        assert world.stats.kinds == ["async"]

    def test_sync_send_blocks_until_received(self):
        import threading
        world, r0, r1 = self.make_pair()
        order = []

        def receiver():
            time.sleep(0.15)
            order.append("recv")
            r1.recv(0)

        t = threading.Thread(target=receiver)
        t.start()
        req = r0.send(1, np.ones(2), sync=True)   # rendezvous
        order.append("send-returned")
        t.join()
        assert order == ["recv", "send-returned"]
        assert req.done()

    def test_unmatched_sync_send_times_out(self):
        world, r0, r1 = self.make_pair(timeout=0.3)
        with pytest.raises(ExecutionError) as err:
            r0.send(1, np.ones(2), sync=True)
        assert "not matched by a receive" in str(err.value)

    def test_sync_send_fails_fast_when_peer_dies(self):
        import threading
        from repro.core.errors import RankFailedError
        world, r0, r1 = self.make_pair(timeout=10.0)

        def killer():
            time.sleep(0.1)
            world.mark_failed(1, RuntimeError("boom"))

        t = threading.Thread(target=killer)
        t.start()
        start = time.monotonic()
        with pytest.raises(RankFailedError) as err:
            r0.send(1, np.ones(2), sync=True)
        t.join()
        assert time.monotonic() - start < 5.0   # nowhere near timeout
        assert err.value.rank == 1

    def test_stats_record_kinds_and_async_fraction(self):
        world, r0, r1 = self.make_pair()
        import threading
        t = threading.Thread(target=lambda: (time.sleep(0.05),
                                             r1.recv(0)))
        t.start()
        r0.send(1, np.ones(2), sync=True)
        t.join()
        r0.isend(1, np.ones(2))
        r0.send(1, np.ones(2))
        r1.recv(0); r1.recv(0)
        assert world.stats.kinds == ["sync", "async", "async"]
        assert world.stats.async_fraction() == pytest.approx(2 / 3)

    def test_empty_stats_async_fraction_is_zero(self):
        from repro.backends.distributed import CommStats
        assert CommStats().async_fraction() == 0.0


class TestUnhandledOperation:
    def test_unknown_kind_fails_on_the_rank(self):
        """An operation kind no backend lowers reaches the rank runtime
        with its iterators, which refuses it by kind and name."""
        f = Function("unk")
        with f:
            Operation("o", [Var("u", 0, 2)], "prefetch", {})
        k = f.compile("distributed")
        assert "_runtime.op('prefetch', 'o', {'u': (t0)})" in k.source
        with pytest.raises(ExecutionError,
                           match=r"unhandled operation prefetch \(o\)"):
            k(ranks=2, inputs={}, params={})
