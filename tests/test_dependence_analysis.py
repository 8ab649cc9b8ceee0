"""One dependence analysis per schedule (:class:`DependenceAnalysis`).

- *Verdict equivalence*: on the paper kernels under every CPU schedule
  family, the analysis gives the legality verdict, the race verdict and
  the carried dependences of every loop level that the per-level
  reference checks give (``tests/legality_reference.py``), with the
  same error messages — with and without a passing legality check on
  the same analysis first.
- *Call counts*: one ``compute_dependences`` per compile that runs both
  checks, and one per ``autoschedule()`` search.
- *Invariance*: no schedule action changes the dependences, which is
  what lets a search reuse them for every candidate.
"""

import pytest

import repro.autosched.pluto as pluto_mod
import repro.autosched.search as search_mod
import repro.core.deps as deps_mod
import repro.kernels as K
from repro.autosched import autoschedule
from repro.autosched.search import enumerate_actions
from repro.core.computation import Input, Operation
from repro.core.deps import DependenceAnalysis, compute_dependences
from repro.driver.pipeline import compile_function
from repro.evaluation import schedules as S

from tests import legality_reference as ref

IMAGE = {
    "blur": K.build_blur,
    "edgeDetector": K.build_edge_detector,
    "cvtColor": K.build_cvtcolor,
    "conv2D": K.build_conv2d,
    "warpAffine": K.build_warp_affine,
    "gaussian": K.build_gaussian,
    "nb": K.build_nb,
    "ticket2373": K.build_ticket2373,
}
OTHER = {
    "sgemm": (K.build_sgemm, K.schedule_sgemm_cpu),
    "baryon": (K.build_baryon, K.schedule_baryon_cpu),
    "conv": (K.build_conv, K.schedule_conv_cpu),
    "vgg": (K.build_vgg_block, K.schedule_vgg_fused),
    "spmv27": (K.build_spmv27, K.schedule_spmv_cpu),
    "symgs": (K.build_symgs_forward, K.schedule_symgs_wavefront),
}
FAMILIES = {"tiramisu_cpu": S.tiramisu_cpu, "halide_cpu": S.halide_cpu,
            "pencil_cpu": S.pencil_cpu}

CASES = ([(name, family) for name in IMAGE
          for family in ("none",) + tuple(FAMILIES)]
         + [(name, family) for name in OTHER
            for family in ("none", "own")])


def _bundle(name, family):
    if name in IMAGE:
        bundle = IMAGE[name]()
        if family != "none":
            FAMILIES[family](bundle)
        return bundle
    build, schedule = OTHER[name]
    bundle = build()
    if family == "own":
        schedule(bundle)
    return bundle


def _levels(fn):
    return [(comp, level) for comp in fn.active_computations()
            if not isinstance(comp, (Input, Operation))
            for level in range(len(comp.time_names))]


def _deps_key(deps):
    return [repr(d) for d in deps]


def assert_same_verdicts(fn):
    """The analysis agrees with the reference on legality, races and
    every carried level, fresh and after a legality check on the same
    analysis."""
    legality = ref.verdict(ref.check_schedule_legality, fn)
    races = ref.verdict(ref.check_parallel_legality, fn)
    carried = {(c.name, l): _deps_key(ref.carried_at_level(fn, c, l))
               for c, l in _levels(fn)}

    assert ref.verdict(DependenceAnalysis(fn).check_races) == races
    fresh = DependenceAnalysis(fn)
    assert {(c.name, l): _deps_key(fresh.carried(c, l))
            for c, l in _levels(fn)} == carried

    shared = DependenceAnalysis(fn)
    assert ref.verdict(shared.check_legality) == legality
    assert ref.verdict(shared.check_races) == races
    assert {(c.name, l): _deps_key(shared.carried(c, l))
            for c, l in _levels(fn)} == carried
    return legality, races


@pytest.mark.parametrize("name,family", CASES)
def test_kernel_verdicts_match_reference(name, family):
    assert_same_verdicts(_bundle(name, family).function)


def test_reference_cases_cover_both_verdicts():
    """The kernel cases include refusals, so message equality is
    exercised, not only acceptance."""
    races = {assert_same_verdicts(_bundle(n, f).function)[1]
             for n, f in (("blur", "tiramisu_cpu"),
                          ("ticket2373", "pencil_cpu"),
                          ("sgemm", "own"))}
    assert any(v.startswith("illegal") for v in races)
    assert any(v.startswith("ok") for v in races)


# -- call counts -------------------------------------------------------------


@pytest.fixture
def dep_calls(monkeypatch):
    """Count compute_dependences calls made through every module that
    imports it."""
    calls = []
    real = deps_mod.compute_dependences

    def counting(fn, *args, **kwargs):
        calls.append(fn.name)
        return real(fn, *args, **kwargs)

    for mod in (deps_mod, search_mod, pluto_mod):
        monkeypatch.setattr(mod, "compute_dependences", counting)
    return calls


def _sgemm_scheduled():
    bundle = K.build_sgemm()
    K.schedule_sgemm_cpu(bundle, 32, 8)
    return bundle.function


def test_compile_computes_dependences_once(dep_calls):
    kernel = compile_function(_sgemm_scheduled(), target="cpu",
                              cache=False, check_legality=True,
                              check_races=True)
    assert kernel.report.deps_checked > 0
    assert kernel.report.races_checked > 0
    assert len(dep_calls) == 1


def test_reference_checks_compute_dependences_twice(dep_calls):
    fn = _sgemm_scheduled()
    ref.check_schedule_legality(fn)
    ref.check_parallel_legality(fn)
    assert len(dep_calls) == 2


def test_compile_without_checks_computes_no_dependences(dep_calls):
    compile_function(_sgemm_scheduled(), target="cpu", cache=False,
                     check_legality=False, check_races=False)
    assert dep_calls == []


@pytest.mark.parametrize("strategy,kw", [
    ("beam", {"budget": 30, "beam_width": 3, "rounds": 2}),
    ("evolutionary", {"budget": 30, "beam_width": 2, "rounds": 1,
                      "generations": 1, "population": 2}),
    ("pluto", {}),
])
def test_search_computes_dependences_once(dep_calls, strategy, kw):
    fn = K.build_sgemm().function
    result = autoschedule(fn, strategy=strategy,
                          params={"N": 24, "M": 20, "K": 16}, **kw)
    assert result.candidates > 1
    assert len(dep_calls) == 1


# -- invariance --------------------------------------------------------------


def _relations(fn):
    return [(repr(d), d.relation) for d in compute_dependences(fn)]


@pytest.mark.parametrize("kind", ["fuse", "interchange", "tile",
                                  "vectorize", "unroll", "parallelize"])
def test_actions_leave_dependences_unchanged(kind):
    fn = K.build_blur().function
    before = _relations(fn)
    actions = [a for a in enumerate_actions(fn) if a.kind == kind]
    assert actions, kind
    for action in actions:
        snapshot = fn.schedule_snapshot()
        action.apply(fn)
        # Structural equality: the same constraint pieces, which is
        # finer than equality of the point sets.
        assert _relations(fn) == before, action
        fn.restore_schedule(snapshot)
