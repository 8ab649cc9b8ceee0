"""Time-iterated stencils: the 1-D heat equation.

A wavefront-shaped workload for the autoscheduler and the legality
property tests: the time loop carries a flow dependence (row ``t`` reads
row ``t-1`` of the same INOUT buffer), so parallelizing or vectorizing
``t`` is illegal while the space loop ``i`` is embarrassingly parallel —
exactly the asymmetry :func:`~repro.core.deps.carried_at_level` must
resolve per level.
"""

from __future__ import annotations

import numpy as np

from repro import Buffer, Computation, Function, Param, Var
from repro.core.buffer import ArgKind

from .base import KernelBundle

PAPER_HEAT = {"T": 100, "N": 1000}
TEST_HEAT = {"T": 6, "N": 18}


def build_heat() -> KernelBundle:
    """u[t, i] = 0.25*u[t-1, i-1] + 0.5*u[t-1, i] + 0.25*u[t-1, i+1]
    over the interior points, with row 0 and the boundary columns given
    by the input (explicit Euler on a rod)."""
    T_, N = Param("T"), Param("N")
    f = Function("heat", params=[T_, N])
    with f:
        ub = Buffer("u", [T_, N], kind=ArgKind.INOUT)
        t, i = Var("t", 1, T_), Var("i", 1, N - 1)
        step = Computation("step", [t, i], None)
        step.set_expression(0.25 * step(t - 1, i - 1)
                            + 0.5 * step(t - 1, i)
                            + 0.25 * step(t - 1, i + 1))
        step.store_in(ub, [t, i])

    def reference(inputs, params):
        u = inputs["u"].astype(np.float32).copy()
        for tt in range(1, params["T"]):
            prev = u[tt - 1]
            u[tt, 1:-1] = (0.25 * prev[:-2] + 0.5 * prev[1:-1]
                           + 0.25 * prev[2:]).astype(np.float32)
        return {"u": u}

    def make_inputs(p, rng):
        return {"u": rng.random((p["T"], p["N"])).astype(np.float32)}

    return KernelBundle(
        name="heat", function=f, computations={"step": step},
        make_inputs=make_inputs, reference=reference,
        paper_params=dict(PAPER_HEAT), test_params=dict(TEST_HEAT))
