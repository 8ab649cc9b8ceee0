"""Figure 6: the heatmap of normalized execution times for the image
benchmarks across frameworks and architectures (lower is better; "-"
marks unsupported benchmarks).

Architectures: single-node multicore (Tiramisu / Halide / PENCIL), GPU
(same three), distributed over 16 nodes (Tiramisu / distributed Halide).
Entries are normalized to Tiramisu per (architecture, benchmark) — the
paper's presentation.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.kernels import image as I
from repro.machine import CpuCostModel, GpuCostModel
from repro.machine.network import halo_exchange_time

from . import schedules as S

BENCHES = ["edgeDetector", "cvtColor", "conv2D", "warpAffine",
           "gaussian", "nb", "ticket2373"]

BUILDERS: Dict[str, Callable] = {
    "blur": I.build_blur,
    "edgeDetector": I.build_edge_detector,
    "cvtColor": I.build_cvtcolor,
    "conv2D": I.build_conv2d,
    "warpAffine": I.build_warp_affine,
    "gaussian": I.build_gaussian,
    "nb": I.build_nb,
    "ticket2373": I.build_ticket2373,
}

# Halo rows each node needs from its neighbour (the border region of
# Fig. 3-c); 0 = no communication required (Section VI-B-c).
HALO_ROWS = {
    "blur": 2, "edgeDetector": 2, "conv2D": 1, "warpAffine": 2,
    "gaussian": 2, "cvtColor": 0, "nb": 0, "ticket2373": 0,
}

# Kernels whose accesses are clamped: distributed Halide cannot analyse
# them and over-approximates the region to send (Section VI-B-c).
CLAMPED = {"conv2D", "warpAffine", "gaussian"}
HALIDE_OVERESTIMATE = 8.0    # bounding-box over-approximation factor


def _params(bench: str) -> Dict[str, int]:
    return dict(BUILDERS[bench]().paper_params)


def _cpu_time(bench: str, schedule: Callable) -> Optional[float]:
    bundle = BUILDERS[bench]()
    reason = schedule(bundle)
    if isinstance(reason, str):
        return None
    return CpuCostModel(bundle.function,
                        _params(bench)).estimate().seconds


def _gpu_time(bench: str, schedule: Callable,
              include_transfers: bool = False) -> Optional[float]:
    bundle = BUILDERS[bench]()
    reason = schedule(bundle)
    if isinstance(reason, str):
        return None
    report = GpuCostModel(bundle.function,
                          _params(bench)).estimate_gpu()
    return report.seconds if include_transfers else report.kernel_seconds


def heatmap_cpu() -> Dict[str, Dict[str, Optional[float]]]:
    out: Dict[str, Dict[str, Optional[float]]] = {}
    for bench in BENCHES:
        tiramisu = _cpu_time(bench, S.tiramisu_cpu)
        halide = _cpu_time(bench, S.halide_cpu)
        pencil = _cpu_time(bench, S.pencil_cpu)
        out[bench] = {
            "Tiramisu": 1.0,
            "Halide": None if halide is None else halide / tiramisu,
            "PENCIL": None if pencil is None else pencil / tiramisu,
        }
    return out


def heatmap_gpu(include_transfers: bool = False
                ) -> Dict[str, Dict[str, Optional[float]]]:
    """GPU heatmap.  By default kernel-only times are compared: the
    paper's uint8 images make PCIe transfers a small constant, while this
    reproduction's float32 substitution would otherwise let transfers
    flatten every ratio (see EXPERIMENTS.md)."""
    out: Dict[str, Dict[str, Optional[float]]] = {}
    for bench in BENCHES:
        tiramisu = _gpu_time(bench, S.tiramisu_gpu, include_transfers)
        halide = _gpu_time(bench, S.halide_gpu, include_transfers)
        pencil = _gpu_time(bench, S.pencil_gpu, include_transfers)
        out[bench] = {
            "Tiramisu": 1.0,
            "Halide": None if halide is None else halide / tiramisu,
            "PENCIL": None if pencil is None else pencil / tiramisu,
        }
    return out


# -- distributed -----------------------------------------------------------------


def _dist_compute_time(bench: str, nodes: int, schedule: Callable
                       ) -> Optional[float]:
    """Per-node compute time: the benchmark on a 1/nodes slab of rows."""
    params = _params(bench)
    if "R" in params:
        # ticket2373: the r loop is the distributed one; the triangular
        # x extent stays global.
        params["R"] = max(8, params["R"] // nodes)
    elif "N" in params:
        params["N"] = max(8, params["N"] // nodes)
    bundle = BUILDERS[bench]()
    reason = schedule(bundle)
    if isinstance(reason, str):
        return None
    return CpuCostModel(bundle.function, params).estimate().seconds


def tiramisu_distributed_time(bench: str, nodes: int = 16) -> float:
    compute = _dist_compute_time(bench, nodes, S.tiramisu_cpu)
    halo = HALO_ROWS[bench]
    if halo == 0:
        return compute
    params = _params(bench)
    comm = halo_exchange_time(
        nodes, halo_elems_per_pair=halo * params.get("M", 1024) * 3,
        overlap=0.5)   # asynchronous sends overlap with compute
    return compute + comm.seconds


def halide_distributed_time(bench: str, nodes: int = 16
                            ) -> Optional[float]:
    compute = _dist_compute_time(bench, nodes, S.halide_cpu)
    if compute is None:
        return None
    halo = HALO_ROWS[bench]
    if halo == 0:
        return compute
    params = _params(bench)
    over = HALIDE_OVERESTIMATE if bench in CLAMPED else 1.0
    comm = halo_exchange_time(
        nodes, halo_elems_per_pair=int(halo * params.get("M", 1024) * 3),
        overestimate=over,
        packed=True,    # "unnecessarily packs together contiguous data"
        overlap=0.0)    # synchronous
    return compute + comm.seconds


def heatmap_distributed(nodes: int = 16
                        ) -> Dict[str, Dict[str, Optional[float]]]:
    out: Dict[str, Dict[str, Optional[float]]] = {}
    for bench in BENCHES:
        tiramisu = tiramisu_distributed_time(bench, nodes)
        halide = halide_distributed_time(bench, nodes)
        out[bench] = {
            "Tiramisu": 1.0,
            "Dist-Halide": None if halide is None else halide / tiramisu,
        }
    return out


def figure6() -> Dict[str, Dict[str, Dict[str, Optional[float]]]]:
    return {
        "Single-node multicore": heatmap_cpu(),
        "GPU": heatmap_gpu(),
        "Distributed (16 Nodes)": heatmap_distributed(16),
    }


def render_figure6(data=None) -> str:
    data = data or figure6()
    lines = []
    for arch, rows in data.items():
        lines.append(f"== {arch} ==")
        frameworks = list(next(iter(rows.values())))
        header = "benchmark".ljust(14) + "".join(
            fw.ljust(12) for fw in frameworks)
        lines.append(header)
        for bench, vals in rows.items():
            row = bench.ljust(14)
            for fw in frameworks:
                v = vals[fw]
                row += ("-".ljust(12) if v is None
                        else f"{v:.2f}".ljust(12))
            lines.append(row)
        lines.append("")
    return "\n".join(lines)
