"""Tier-2 self-protection gates: an open circuit breaker degrades
batch compiles to the inline path at <= 1.05x the plain inline cost,
and a seeded chaos soak (``-m chaos``) drives fault storms through
``BatchCompiler`` asserting every request ends in exactly one terminal
state with bit-identical survivors and no durable-state damage.

Both headline numbers feed the perf trajectory:
``resilience.breaker_fallback_ratio`` and
``resilience.soak_pass_rate``.
"""

import os
import time

import numpy as np
import pytest

from repro import Computation, Function, Var
from repro.backends.parallel import get_pool
from repro.core.errors import (AdmissionError, DeadlineExceededError,
                               WorkerFailureError)
from repro.driver import BatchCompiler, kernel_registry, pool_breaker
from repro.driver.diskcache import configure, reset_configuration
from repro.faults import FaultPlan, injected, uninstall
from repro.kernels.linalg import build_sgemm
from repro.obs.events import (configure_event_log, read_journal,
                              reset_event_log_configuration)

from conftest import bench_note, print_table

HAVE_POOL = get_pool(2) is not None

MAX_FALLBACK_OVERHEAD = 1.05
SOAK_PLANS = 20
FLEET = 2


def build(name, scale, extent=8):
    f = Function(name)
    with f:
        i, j = Var("i", 0, extent), Var("j", 0, extent)
        Computation("c", [i, j], float(scale) * i + j)
    return f


def expected_output(scale):
    return np.add.outer(float(scale) * np.arange(8.0), np.arange(8.0))


@pytest.fixture(autouse=True)
def _fresh():
    kernel_registry.clear()
    uninstall()
    reset_configuration()
    reset_event_log_configuration()
    yield
    uninstall()
    reset_configuration()
    reset_event_log_configuration()
    kernel_registry.clear()


def _best_seconds(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.skipif(not HAVE_POOL, reason="this host cannot create a "
                    "worker pool")
def test_breaker_open_fallback_within_five_percent():
    """While the breaker is open, every would-be offload short-circuits
    to the inline compile path — which must cost no more than the plain
    inline configuration ever did."""

    # Two sgemm variants with distinct schedules (so distinct
    # fingerprints): each is a real multi-millisecond compile, so the
    # timed ratio reflects pipeline work rather than fixed per-submit
    # bookkeeping.  Built once, off the clock — the IR construction
    # cost is identical on both paths and would only add noise.
    fns = []
    for n in range(FLEET):
        bundle = build_sgemm()
        if n % 2:
            bundle.computations["acc"].interchange("j", "k")
        fns.append(bundle.function)

    def compile_fleet(**batch_opts):
        kernel_registry.clear()
        with BatchCompiler(max_workers=2, **batch_opts) as batch:
            handles = [batch.submit(fn) for fn in fns]
            for handle in handles:
                handle.result(timeout=120)
        return batch

    # Warm the fork machinery and import caches off the clock.
    compile_fleet(use_processes=False)

    inline_s = _best_seconds(
        lambda: compile_fleet(use_processes=False))

    pool_breaker().trip()
    degraded = compile_fleet()
    assert degraded.stats.breaker_short_circuits == FLEET
    assert degraded.stats.inline_compiles == FLEET
    pool_breaker().trip()   # keep it open across the timed reps
    degraded_s = _best_seconds(lambda: compile_fleet())

    ratio = degraded_s / inline_s
    print_table("breaker-open inline degradation", {
        "inline baseline": f"{inline_s * 1e3:.1f} ms",
        "breaker-open": f"{degraded_s * 1e3:.1f} ms",
        "ratio": f"{ratio:.3f}x (gate {MAX_FALLBACK_OVERHEAD:.2f}x)",
    })
    bench_note("resilience.breaker_fallback_ratio", ratio)
    assert ratio <= MAX_FALLBACK_OVERHEAD, (
        f"breaker-open degradation costs {ratio:.3f}x over plain "
        f"inline compiles (gate {MAX_FALLBACK_OVERHEAD:.2f}x)")


TERMINAL_ERRORS = (DeadlineExceededError, AdmissionError,
                   WorkerFailureError)


def _soak_round(seed, tmp_path):
    """One seeded fault storm over a small batch; raises on any
    violated invariant."""
    kernel_registry.clear()
    reset_configuration()
    root = tmp_path / f"cache{seed}"
    configure(root)
    log = tmp_path / f"events{seed}.jsonl"
    configure_event_log(str(log))
    rng = np.random.default_rng(seed)
    plan = FaultPlan(seed=seed)
    if rng.random() < 0.7:
        plan.slow_stage(seconds=0.1, times=int(rng.integers(1, 3)))
    if rng.random() < 0.5:
        plan.disk_io_error(op="store", times=int(rng.integers(1, 3)))
    if rng.random() < 0.4:
        plan.disk_io_error(op="load", times=1)
    if rng.random() < 0.5:
        plan.refuse_pool(times=int(rng.integers(1, 3)))
    outcomes = []
    with injected(plan):
        with BatchCompiler(max_workers=2, use_processes=False,
                           max_pending=2,
                           admission_policy="reject") as batch:
            handles = []
            for n in range(6):
                scale = (n % 3) + 1
                options = {}
                if rng.random() < 0.4:
                    options["timeout"] = 0.05
                    options["check_legality"] = True
                try:
                    handle = batch.submit(
                        build(f"soak{seed}_{scale}", scale), **options)
                except AdmissionError as err:
                    outcomes.append((scale, err))
                    continue
                handles.append((scale, handle))
            for scale, handle in handles:
                exc = handle.exception(timeout=60)
                outcomes.append((scale, exc if exc is not None
                                 else handle.result()))
    assert len(outcomes) == 6
    for scale, outcome in outcomes:
        if isinstance(outcome, BaseException):
            assert isinstance(outcome, TERMINAL_ERRORS), outcome
        else:
            assert np.array_equal(outcome()["c"], expected_output(scale))
    _, torn = read_journal(str(log))
    assert torn is None
    assert not [n for n in os.listdir(root) if n.startswith(".tmp-")]
    reset_event_log_configuration()
    reset_configuration()
    return sum(1 for _, o in outcomes
               if isinstance(o, BaseException))


@pytest.mark.chaos
def test_chaos_soak_every_request_terminates_cleanly(tmp_path):
    failed_requests = 0
    clean_rounds = 0
    for seed in range(SOAK_PLANS):
        failed_requests += _soak_round(seed, tmp_path)
        clean_rounds += 1
    pass_rate = clean_rounds / SOAK_PLANS
    print_table("chaos soak", {
        "plans": SOAK_PLANS,
        "clean rounds": clean_rounds,
        "requests ended in an error": failed_requests,
        "pass rate": f"{pass_rate:.2f}",
    })
    bench_note("resilience.soak_pass_rate", pass_rate)
    assert pass_rate == 1.0
