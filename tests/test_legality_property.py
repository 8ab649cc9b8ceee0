"""The legality checker's soundness contract, property-tested:

    if check_schedule_legality accepts a schedule, executing the
    generated code produces exactly the unscheduled result.

Random producer-consumer programs with random shifts are fused at random
levels; whenever the checker says "legal", the output must match."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Computation, Function, Input, Var
from repro.core.errors import IllegalScheduleError


def build_chain(n, shift1, shift2):
    """a(i) = in(i); b(i) = a(i + shift1); c(i) = b(i + shift2) over a
    safely padded index range."""
    pad = 8
    size = n + 2 * pad
    f = Function("f")
    with f:
        inp = Input("inp", [Var("x", 0, size)])
        ia = Var("ia", 0, size)
        a = Computation("a", [ia], None)
        a.set_expression(inp(ia) * 2.0)
        ib = Var("ib", pad, size - pad)
        b = Computation("b", [ib], None)
        b.set_expression(a(ib + shift1) + 1.0)
        ic = Var("ic", pad, size - pad)
        c = Computation("c", [ic], None)
        c.set_expression(b(ic) * 3.0 + a(ic + shift2))
    return f, a, b, c, size


def run(f, size):
    data = np.arange(size, dtype=np.float32)
    return f.compile("cpu")(inp=data)


@given(st.integers(-3, 3), st.integers(-3, 3),
       st.sampled_from(["none", "fuse_ba", "fuse_cb", "fuse_all",
                        "reverse"]))
@settings(max_examples=60, deadline=None)
def test_legal_schedules_execute_correctly(shift1, shift2, action):
    n = 16
    f_ref, *_ , size = build_chain(n, shift1, shift2)
    reference = run(f_ref, size)

    f, a, b, c, size = build_chain(n, shift1, shift2)
    if action == "fuse_ba":
        b.after(a, "ia")
    elif action == "fuse_cb":
        c.after(b, "ib")
    elif action == "fuse_all":
        b.after(a, "ia")
        c.after(b, "ib")
    elif action == "reverse":
        a.after(c)
    try:
        f.check_legality()
    except IllegalScheduleError:
        return  # rejected: nothing to verify
    got = run(f, size)
    for name, ref in reference.items():
        assert np.allclose(got[name], ref, atol=1e-5), \
            (action, shift1, shift2, name)


@given(st.integers(0, 3))
@settings(max_examples=20, deadline=None)
def test_backward_shift_fusion_always_legal(shift):
    """Fusing a consumer that reads only a(i - shift) is always legal —
    Halide's conservative rule would reject every nonzero case."""
    f = Function("f")
    with f:
        iw = Var("iw", 0, 32)
        i = Var("i", 4, 32)
        a = Computation("a", [iw], 1.0 * iw)
        b = Computation("b", [i], None)
        b.set_expression(a(i - shift) * 2.0)
    b.after(a, "iw")
    f.check_legality()
    out = f.compile("cpu")(
    )["b"]
    assert np.allclose(out[4:], (np.arange(4, 32) - shift) * 2.0)


@given(st.integers(-3, 3), st.integers(-3, 3),
       st.sampled_from(["fuse_ba", "fuse_cb", "fuse_all", "reverse"]))
@settings(max_examples=25, deadline=None)
def test_legality_verdict_independent_of_isl_cache(shift1, shift2, action):
    """The ISL memo caches must be invisible to the checker: the same
    schedule gets the same verdict with memoization on and off."""
    from repro.isl import isl_cache_clear, isl_cache_disabled

    def verdict():
        f, a, b, c, _ = build_chain(16, shift1, shift2)
        if action in ("fuse_ba", "fuse_all"):
            b.after(a, "ia")
        if action in ("fuse_cb", "fuse_all"):
            c.after(b, "ib")
        if action == "reverse":
            a.after(c)
        try:
            f.check_legality()
            return "legal"
        except IllegalScheduleError:
            return "illegal"

    isl_cache_clear()
    cached = verdict()
    with isl_cache_disabled():
        assert verdict() == cached


@given(st.integers(1, 3))
@settings(max_examples=20, deadline=None)
def test_forward_shift_fusion_always_illegal(shift):
    """Fusing a consumer that reads a(i + shift) at the same iteration is
    always a dependence violation."""
    f = Function("f")
    with f:
        iw = Var("iw", 0, 32)
        i = Var("i", 0, 28)
        a = Computation("a", [iw], 1.0 * iw)
        b = Computation("b", [i], None)
        b.set_expression(a(i + shift) * 2.0)
    b.after(a, "iw")
    with pytest.raises(IllegalScheduleError):
        f.check_legality()


def build_grid(shift1, shift2):
    """The 2-D chain: a(i, j) = in(i, j); b(i, j) = a(i + shift1, j +
    shift2); c(i, j) = b(i, j) + a(i, j - shift2), padded so every
    shifted read stays in bounds."""
    pad, n = 4, 12
    size = n + 2 * pad
    f = Function("f")
    with f:
        inp = Input("inp", [Var("x", 0, size), Var("y", 0, size)])
        ia, ja = Var("ia", 0, size), Var("ja", 0, size)
        a = Computation("a", [ia, ja], inp(ia, ja) * 2.0)
        ib, jb = Var("ib", pad, size - pad), Var("jb", pad, size - pad)
        b = Computation("b", [ib, jb], None)
        b.set_expression(a(ib + shift1, jb + shift2) + 1.0)
        ic, jc = Var("ic", pad, size - pad), Var("jc", pad, size - pad)
        c = Computation("c", [ic, jc], None)
        c.set_expression(b(ic, jc) * 3.0 + a(ic, jc - shift2))
    return f, a, b, c


@given(st.integers(-2, 2), st.integers(-2, 2),
       st.sampled_from([None, -1, 0, 1]), st.sampled_from([None, 0, 1]),
       st.sampled_from([False, False, False, True]), st.integers(-2, 2),
       st.lists(st.tuples(st.sampled_from("abc"), st.integers(0, 1)),
                max_size=2),
       st.booleans())
@settings(max_examples=40, deadline=None)
def test_shared_analysis_matches_per_level_reference(
        shift1, shift2, fuse_ba, fuse_cb, reverse, loop_shift, parallel,
        check_legality):
    """Random shifts, fusion levels, reversal and ``parallelize`` at
    random levels: the shared dependence analysis gives the per-level
    reference's legality and race verdicts and messages, with the
    legality check on (the race check then tests one direction of each
    proven dependence) and off (both directions)."""
    from repro.core.deps import DependenceAnalysis
    from tests import legality_reference as ref

    f, a, b, c = build_grid(shift1, shift2)
    comps = {"a": a, "b": b, "c": c}
    if fuse_ba is not None:
        b.after(a, "root" if fuse_ba < 0 else ["ia", "ja"][fuse_ba])
    if fuse_cb is not None:
        c.after(b, ["ib", "jb"][fuse_cb])
    if reverse:
        a.after(c)
    if loop_shift:
        b.shift("ib", loop_shift)
    for name, level in parallel:
        comps[name].parallelize(comps[name].time_names[level])

    analysis = DependenceAnalysis(f)
    if check_legality:
        assert ref.verdict(analysis.check_legality) == \
            ref.verdict(ref.check_schedule_legality, f)
    assert ref.verdict(analysis.check_races) == \
        ref.verdict(ref.check_parallel_legality, f)
    for comp in comps.values():
        for level in range(len(comp.time_names)):
            assert [repr(d) for d in analysis.carried(comp, level)] == \
                [repr(d) for d in ref.carried_at_level(f, comp, level)]
