"""The one worker-failure loop (``repro.driver.resilience.
retry_worker_failures``) seen from its three users: a parallel region,
a task graph and a batch compile offload.  One injected worker crash
must leave the same record sequence under each user's prefix — in the
journal, in the counters and as markers on the tracer timeline — and
output bit-identical to a run without the fault."""

import numpy as np
import pytest

from repro import Computation, Function, Var
from repro.backends.parallel import get_pool
from repro.driver import BatchCompiler, kernel_registry
from repro.faults import FaultPlan, injected, uninstall
from repro.kernels.linalg import TEST_SGEMM, build_sgemm
from repro.kernels.stencil import build_heat
from repro.obs import metrics
from repro.obs.events import (configure_event_log, read_events,
                              reset_event_log_configuration)
from repro.obs.tracer import get_tracer

pytestmark = pytest.mark.skipif(get_pool(2) is None,
                                reason="this host cannot create a "
                                "worker pool")

#: What one crash followed by a successful retry must record.
EXPECTED = ["worker_failure", "pool_restart", "retry"]
LOOP_KINDS = {"worker_failure", "pool_restart", "retry", "fallback",
              "breaker_block"}
HEAT = {"T": 10, "N": 60}


def _sgemm_inputs():
    bundle = build_sgemm()
    return bundle.make_inputs(TEST_SGEMM, np.random.default_rng(0))


def run_parallel(num_threads):
    bundle = build_sgemm()
    for comp in bundle.computations.values():
        comp.parallelize(comp.var_names[0])
    kernel = bundle.function.compile("cpu", num_threads=num_threads)
    fresh = {k: v.copy() for k, v in _sgemm_inputs().items()}
    out = kernel(**fresh, **TEST_SGEMM)["C"]
    runtime = kernel.runtime     # None for a one-thread compile
    return out, runtime.stats.retries if runtime is not None else 0


def run_taskgraph(num_threads):
    bundle = build_heat()
    inputs = bundle.make_inputs(HEAT, np.random.default_rng(3))
    if num_threads == 1:
        return bundle.reference(inputs, HEAT)["u"], 0
    kernel = bundle.function.compile("cpu", execution="taskgraph",
                                     num_threads=num_threads)
    out = kernel(u=inputs["u"].copy(), **HEAT)["u"]
    return out, kernel.runtime.taskgraph_stats.retries


def build_small():
    f = Function("loop_user")
    with f:
        i, j = Var("i", 0, 8), Var("j", 0, 8)
        Computation("c", [i, j], 3.0 * i + j)
    return f


def run_batch(num_threads):
    if num_threads == 1:
        kernel = build_small().compile("cpu")
        return (kernel.source, kernel()["c"]), 0
    with BatchCompiler(max_workers=num_threads) as batch:
        kernel = batch.submit(build_small()).result(timeout=120)
    assert batch.stats.worker_compiles == 1   # it really was offloaded
    return (kernel.source, kernel()["c"]), batch.stats.retries


USERS = {"parallel": run_parallel, "taskgraph": run_taskgraph,
         "batch": run_batch}


@pytest.fixture
def telemetry(tmp_path):
    """A fresh journal, zeroed counters and a collecting tracer."""
    uninstall()
    kernel_registry.clear()
    metrics.reset()
    journal = tmp_path / "events.jsonl"
    configure_event_log(str(journal))
    tracer = get_tracer()
    tracer.clear()
    tracer.set_enabled(True)
    yield journal, tracer
    tracer.set_enabled(None)
    tracer.clear()
    reset_event_log_configuration()
    uninstall()
    kernel_registry.clear()


def _same(a, b):
    if isinstance(a, tuple):
        return a[0] == b[0] and np.array_equal(a[1], b[1])
    return a.tobytes() == b.tobytes()


@pytest.mark.parametrize("prefix", sorted(USERS))
def test_one_crash_records_one_sequence(prefix, telemetry):
    journal, tracer = telemetry
    run = USERS[prefix]
    reference, _ = run(1)
    kernel_registry.clear()
    with injected(FaultPlan().crash_worker()) as plan:
        out, retries = run(2)
    assert plan.fired("worker-crash") == 1
    assert _same(out, reference)
    assert retries == 1

    def loop_kinds(names):
        return [n.split(".", 1)[1] for n in names
                if n.startswith(prefix + ".")
                and n.split(".", 1)[1] in LOOP_KINDS]

    journaled = loop_kinds(e["name"] for e in read_events(str(journal)))
    assert journaled == EXPECTED
    for kind in LOOP_KINDS:
        assert metrics.counter(f"{prefix}.{kind}").value \
            == journaled.count(kind), kind
    markers = sorted((s for s in tracer.spans() if s.dur_ns == 0),
                     key=lambda s: s.start_ns)
    assert loop_kinds(s.name for s in markers) == EXPECTED
    assert all(s.cat == prefix for s in markers
               if s.name.startswith(prefix + "."))
