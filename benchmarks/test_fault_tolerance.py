"""Tier-2 robustness gate: sgemm survives an injected worker crash on
every run with bit-identical output, and the fault-tolerance machinery
(buffer snapshots, per-chunk plan probes) costs <= 1.05x wall clock
when nothing fails.

The crash half kills one pool worker per run through a deterministic
:class:`repro.faults.FaultPlan`; the retry path must restore the shared
buffers and re-dispatch so the result matches the sequential kernel
byte for byte.  The overhead half compares the default guarded
configuration against ``on_worker_failure="raise"`` (which skips the
snapshot entirely) on a fault-free run.
"""

import time

import numpy as np
import pytest

from repro.backends.parallel import get_pool
from repro.driver import kernel_registry
from repro.faults import FaultPlan, injected, uninstall
from repro.kernels.linalg import build_sgemm

from conftest import print_table

# A 2-worker pool crashes and recovers the same way on a single-core
# host, so this gate runs everywhere a pool can be created at all.
HAVE_POOL = get_pool(2) is not None

GATE_PARAMS = {"N": 128, "M": 128, "K": 128}
CRASH_RUNS = 3
MAX_OVERHEAD = 1.05


def schedule_parallel(bundle):
    acc = bundle.computations["acc"]
    acc.interchange("j", "k")
    acc.vectorize("j", 8)
    acc.parallelize("i")
    bundle.computations["scale"].parallelize("i2")


def compile_gate_kernel(**opts):
    bundle = build_sgemm()
    schedule_parallel(bundle)
    kernel = bundle.function.compile("cpu", num_threads=2, **opts)
    return bundle, kernel


def run_kernel(bundle, kernel, inputs):
    fresh = {k: np.array(v, copy=True) for k, v in inputs.items()}
    return kernel(**fresh, **GATE_PARAMS)["C"]


@pytest.fixture(autouse=True)
def _fresh():
    kernel_registry.clear()
    uninstall()
    yield
    uninstall()
    kernel_registry.clear()


@pytest.mark.skipif(not HAVE_POOL, reason="this host cannot create a "
                    "worker pool")
def test_sgemm_survives_one_worker_crash_per_run():
    rng = np.random.default_rng(0)
    bundle, kernel = compile_gate_kernel()
    inputs = bundle.make_inputs(GATE_PARAMS, rng)

    seq_bundle = build_sgemm()
    schedule_parallel(seq_bundle)
    seq = seq_bundle.function.compile("cpu", num_threads=1)
    ref = run_kernel(seq_bundle, seq, inputs)

    for run in range(CRASH_RUNS):
        plan = FaultPlan(seed=run).crash_worker(chunk=0)
        with injected(plan):
            out = run_kernel(bundle, kernel, inputs)
        assert plan.fired("worker-crash") == 1, \
            f"run {run}: the injected crash never fired"
        assert out.tobytes() == ref.tobytes(), \
            f"run {run}: retried output diverged from sequential"

    stats = kernel.runtime.stats
    print_table("sgemm with one worker crash per run", {
        "runs": CRASH_RUNS,
        "retries": stats.retries,
        "pool restarts": stats.pool_restarts,
        "sequential fallbacks": stats.sequential_fallbacks,
    })
    assert stats.retries >= CRASH_RUNS


def _best_seconds(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.skipif(not HAVE_POOL, reason="this host cannot create a "
                    "worker pool")
def test_fault_free_overhead_within_five_percent():
    rng = np.random.default_rng(1)
    guarded_bundle, guarded = compile_gate_kernel()
    bare_bundle, bare = compile_gate_kernel(max_retries=0,
                                            on_worker_failure="raise")
    inputs = guarded_bundle.make_inputs(GATE_PARAMS, rng)

    # Warm both kernels (pool spawn, worker source exec) off the clock.
    ref = run_kernel(bare_bundle, bare, inputs)
    out = run_kernel(guarded_bundle, guarded, inputs)
    assert out.tobytes() == ref.tobytes()

    bare_s = _best_seconds(lambda: run_kernel(bare_bundle, bare, inputs))
    guarded_s = _best_seconds(
        lambda: run_kernel(guarded_bundle, guarded, inputs))
    ratio = guarded_s / bare_s
    print_table("fault-free retry machinery overhead", {
        "unguarded": f"{bare_s * 1e3:.1f} ms",
        "guarded": f"{guarded_s * 1e3:.1f} ms",
        "ratio": f"{ratio:.3f}x (gate {MAX_OVERHEAD:.2f}x)",
    })
    assert guarded.runtime.stats.retries == 0
    assert ratio <= MAX_OVERHEAD, (
        f"fault-tolerance machinery costs {ratio:.3f}x on a fault-free "
        f"run (gate {MAX_OVERHEAD:.2f}x)")
