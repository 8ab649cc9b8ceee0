"""The kernels and variants the workloads drive, each built through the
public ``repro.kernels`` builders with the repository's own schedules.

Schedules mutate the function, so every compile request builds its own
:class:`repro.kernels.KernelBundle`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import repro.kernels as K
from repro.evaluation import schedules as S
from repro.evaluation.parallel import _parallel_schedules

#: The 14 paper kernels (Section VI) with their CPU schedules: the eight
#: image benchmarks under ``schedules.tiramisu_cpu`` (blur is the
#: Fig. 3(a) schedule) and the linear-algebra, DNN and HPCG kernels under
#: their ``schedule_*`` functions.  The order fixes each kernel's input
#: seed and its place in a seeded round.
PAPER = {
    "blur": (K.build_blur, S.tiramisu_cpu),
    "edgeDetector": (K.build_edge_detector, S.tiramisu_cpu),
    "cvtColor": (K.build_cvtcolor, S.tiramisu_cpu),
    "conv2D": (K.build_conv2d, S.tiramisu_cpu),
    "warpAffine": (K.build_warp_affine, S.tiramisu_cpu),
    "gaussian": (K.build_gaussian, S.tiramisu_cpu),
    "nb": (K.build_nb, S.tiramisu_cpu),
    "ticket2373": (K.build_ticket2373, S.tiramisu_cpu),
    "sgemm": (K.build_sgemm, K.schedule_sgemm_cpu),
    "baryon": (K.build_baryon, K.schedule_baryon_cpu),
    "conv": (K.build_conv, K.schedule_conv_cpu),
    "vgg": (K.build_vgg_block, K.schedule_vgg_fused),
    "spmv27": (K.build_spmv27, K.schedule_spmv_cpu),
    "symgs": (K.build_symgs_forward, K.schedule_symgs_wavefront),
}
PAPER_KERNELS = tuple(PAPER)


def paper_bundle(name: str, scheduled: bool = True):
    build, schedule = PAPER[name]
    bundle = build()
    if scheduled:
        schedule(bundle)
    return bundle


#: The outer-parallel schedules ``repro.evaluation.parallel`` measures
#: its speedups with.
OUTER_PARALLEL = {name: schedule for name, _, schedule
                  in _parallel_schedules()}


@dataclass
class Variant:
    """One way of computing a kernel at a stated size; ``simplest`` names
    the sibling that computes the same answer most simply."""

    name: str
    build: Callable
    target: str
    params: Dict[str, int]
    options: Dict[str, object] = field(default_factory=dict)
    simplest: Optional[str] = None
    schedule: Optional[Callable] = None
    #: Calls per ``execute`` round: the short, noisy parallel and native
    #: variants get more samples for the same run length.
    calls: int = 1

    def bundle(self):
        bundle = self.build()
        if self.schedule is not None:
            self.schedule(bundle)
        return bundle


def _sgemm_c_hand(bundle):
    K.schedule_sgemm_cpu(bundle, 32, 8)


SGEMM = {"N": 64, "M": 64, "K": 64}
SGEMM_C = {"N": 384, "M": 384, "K": 384}
HEAT = {"T": 48, "N": 2400}
IMAGE = {"N": 192, "M": 192}
#: gaussian is not an ``execute`` variant; unscheduled it takes ~10 s at
#: 192x192 on the NumPy backend, so ``tune`` runs it smaller.
GAUSSIAN = {"N": 64, "M": 64}
CONV = {"B": 2, "F": 4, "N": 48, "M": 48}

TINY = {"sgemm": {"N": 16, "M": 16, "K": 16},
        "sgemm_c": {"N": 48, "M": 48, "K": 48},
        "heat": {"T": 8, "N": 200}, "image": {"N": 24, "M": 24},
        "conv": {"B": 1, "F": 2, "N": 10, "M": 10}}


def execute_variants(tiny: bool = False) -> List[Variant]:
    """Each mechanism beside its simplest sibling (``execute``)."""
    sg, sgc, heat, img, conv = (
        (TINY["sgemm"], TINY["sgemm_c"], TINY["heat"], TINY["image"],
         TINY["conv"]) if tiny else (SGEMM, SGEMM_C, HEAT, IMAGE, CONV))
    return [
        Variant("sgemm.naive", K.build_sgemm, "cpu", sg),
        Variant("sgemm.hand", K.build_sgemm, "cpu", sg,
                simplest="sgemm.naive", schedule=K.schedule_sgemm_cpu),
        Variant("sgemm.par", K.build_sgemm, "cpu", sg,
                simplest="sgemm.naive", schedule=OUTER_PARALLEL["sgemm"],
                calls=4),
        Variant("sgemm.c_naive", K.build_sgemm, "c", sgc),
        Variant("sgemm.c_hand", K.build_sgemm, "c", sgc,
                simplest="sgemm.c_naive", schedule=_sgemm_c_hand, calls=4),
        Variant("heat.seq", K.build_heat, "cpu", heat),
        Variant("heat.taskgraph", K.build_heat, "cpu", heat,
                {"execution": "taskgraph"}, simplest="heat.seq", calls=2),
        Variant("blur.seq", K.build_blur, "cpu", img),
        Variant("blur.par", K.build_blur, "cpu", img, simplest="blur.seq",
                schedule=OUTER_PARALLEL["blur"], calls=2),
        Variant("conv.naive", K.build_conv, "cpu", conv),
        Variant("conv.hand", K.build_conv, "cpu", conv,
                simplest="conv.naive", schedule=K.schedule_conv_cpu,
                calls=3),
    ]


def tune_kernels(tiny: bool = False) -> List[Variant]:
    """The autoscheduled kernels at the ``execute`` sizes; each variant
    is the unscheduled baseline."""
    sg, heat, img, conv = ((TINY["sgemm"], TINY["heat"], TINY["image"],
                            TINY["conv"]) if tiny
                           else (SGEMM, HEAT, GAUSSIAN, CONV))
    return [Variant("sgemm", K.build_sgemm, "cpu", sg),
            Variant("conv", K.build_conv, "cpu", conv),
            Variant("heat", K.build_heat, "cpu", heat),
            Variant("gaussian", K.build_gaussian, "cpu", img)]


def speedup_pairs() -> List[tuple]:
    """(variant, simplest sibling) for every mechanism in ``execute``."""
    return [(v.name, v.simplest) for v in execute_variants()
            if v.simplest]
