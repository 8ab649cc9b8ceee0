"""The paper's benchmark kernels: Tiramisu implementations + NumPy
references + the schedules used in the evaluation (Section VI)."""

from .base import KernelBundle
from .dnn import (build_conv, build_vgg_block, schedule_conv_cpu,
                  schedule_vgg_fused)
from .hpcg import (build_dot, build_spmv27, build_symgs_forward,
                   build_waxpby, schedule_spmv_cpu,
                   schedule_symgs_wavefront)
from .image import (build_blur, build_conv2d, build_cvtcolor,
                    build_edge_detector, build_gaussian, build_nb,
                    build_ticket2373, build_warp_affine,
                    schedule_blur_cpu, schedule_nb_fused)
from .linalg import (build_baryon, build_sgemm, schedule_baryon_cpu,
                     schedule_sgemm_cpu, schedule_sgemm_pluto_like)
from .stencil import build_heat

__all__ = [
    "KernelBundle",
    "build_conv", "build_vgg_block", "schedule_conv_cpu",
    "schedule_vgg_fused",
    "build_dot", "build_spmv27", "build_symgs_forward", "build_waxpby",
    "schedule_spmv_cpu", "schedule_symgs_wavefront",
    "build_blur", "build_conv2d", "build_cvtcolor", "build_edge_detector",
    "build_gaussian", "build_nb", "build_ticket2373", "build_warp_affine",
    "schedule_blur_cpu", "schedule_nb_fused",
    "build_baryon", "build_sgemm", "schedule_baryon_cpu",
    "schedule_sgemm_cpu", "schedule_sgemm_pluto_like",
    "build_heat",
]
