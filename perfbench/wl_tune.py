"""``tune``: beam ``autoschedule()`` searches with a fixed budget.

Each cycle searches sgemm, conv, heat and gaussian (at the ``execute``
sizes; gaussian at 64x64) in a seeded order, clearing the ISL memo
before each search only.  Each winner is then compiled through
``autoschedule=plan``, run once and checked, outside the search
latency.  ``autosched`` and the ``machine`` cost model dominate;
``isl`` serves mostly memo reads inside a search, where ``compile``
meets cold misses.
"""

from __future__ import annotations

import hashlib
import time

from repro.autosched import CostOracle, ModelOracle, autoschedule

from catalogue import tune_kernels
from harness import geomean, median, reason_of
from workloads import NPROC, Workload, call_and_check, delta, isl_counts

#: Candidate plans per search; the chosen plans repeat exactly.
BUDGET = 16
TINY_BUDGET = 4
#: Searches take up to ~2.5 s, longer than the host speed holds still,
#: so it is sampled inside them as well.
SAMPLE_EVERY = 0.1


class TimingOracle(CostOracle):
    """Delegates to a ``ModelOracle`` and wraps each ``score`` in a
    span, so search time splits into oracle time and search self time.
    Ranking is inherited from ``CostOracle`` and calls ``score``."""

    def __init__(self, inner, trace):
        self.inner = inner
        self.trace = trace
        self.calls = 0

    def score(self, fn, plan) -> float:
        self.calls += 1
        with self.trace.span("ModelOracle.score"):
            return self.inner.score(fn, plan)


class TuneWorkload(Workload):

    def setup(self, obs):
        state = {}
        for index, v in enumerate(tune_kernels(self.tiny)):
            bundle = v.bundle()
            inputs, expected = self.inputs(bundle, v.params, index)
            naive = bundle.function.compile("cpu", num_threads=NPROC,
                                            cache=False)
            state[v.name] = (v, naive, inputs, expected)
        return state

    def measure(self, state, seconds, trace, obs, report, ledger):
        from repro.isl import isl_cache_clear
        budget = TINY_BUDGET if self.tiny else BUDGET
        traced_run = trace.enabled
        searches = {name: [] for name in state}
        runs = {name: [] for name in state}
        names = list(state)
        walls = {name: [] for name in state}
        cycles, busy, start = 0, 0.0, time.perf_counter()
        while self.more(cycles, start, seconds, traced_run):
            self.rng.shuffle(names)
            trace.enabled = traced_run and cycles % 2 == 0
            for name in names:
                v, naive, inputs, expected = state[name]
                fn = v.bundle().function
                isl_cache_clear()
                ledger.attempt()
                request = trace.new_request()
                oracle = ModelOracle(v.params, num_threads=NPROC)
                if trace.enabled:
                    oracle = TimingOracle(oracle, trace)
                before = isl_counts()
                timer = self.timed(every=SAMPLE_EVERY)
                try:
                    with timer, trace.span("autoschedule", request,
                                           kernel=name):
                        result = autoschedule(fn, "beam", budget=budget,
                                              oracle=oracle,
                                              params=v.params)
                    busy += timer.norm
                    with trace.span("Function.compile", request) as span:
                        kernel = fn.compile("cpu", autoschedule=result.plan,
                                            num_threads=NPROC)
                except Exception as exc:  # noqa: BLE001 - counted
                    ledger.fail(name, reason_of(exc))
                    continue
                searches[name].append(timer.norm)
                walls[name].append(timer.wall)
                if traced_run:
                    obs.op(trace.enabled, name, timer.norm)
                if trace.enabled:
                    obs.isl.append(delta(isl_counts(), before))
                    obs.source_bytes.append(kernel.report.source_size)
                    trace.add_stages(span, kernel.report)
                    obs.searches.append((name, result.candidates,
                                         result.pruned_illegal,
                                         oracle.calls,
                                         result.speedup_estimate))
                    obs.record_exact(f"autosched.candidates.{name}",
                                     result.candidates)
                    obs.record_exact(
                        f"autosched.plan_sha1.{name}",
                        hashlib.sha1(result.plan.serialize().encode())
                        .hexdigest())
                with trace.span("kernel.call", request):
                    ran = call_and_check(self.timed(every_core=True),
                                         kernel, v.params,
                                         inputs, expected, name, ledger,
                                         runs[name])
                if trace.enabled and ran is not None:
                    obs.tuned_runs[name].append(ran.wall)
                    # The unscheduled baseline of tuned_vs_naive, run
                    # beside the winner so both see the same host load.
                    ledger.attempt()
                    with trace.span("kernel.call", request, naive=True):
                        base = call_and_check(self.timed(every_core=True),
                                              naive, v.params,
                                              inputs, expected,
                                              f"{name}.naive", ledger)
                    if base is not None:
                        obs.naive_runs[name].append(base.wall)
            cycles += 1
        trace.enabled = traced_run

        done = [s for s in searches.values() if s]
        p50 = 1e3 * geomean(median(s) for s in done)
        tuned = 1e3 * geomean(median(s) for s in runs.values() if s)
        n = sum(len(s) for s in done)
        report.line(f"timed: {cycles} cycles x {len(state)} searches, "
                    f"budget {budget}")
        for name in state:
            report.line(f"  search_s.{name}: p50 "
                        f"{median(searches[name]):.4f} s "
                        f"(n={len(searches[name])}, wall p50 "
                        f"{median(walls[name]):.4f} s); winner run p50 "
                        f"{1e3 * median(runs[name]):.4f} ms "
                        f"(size {state[name][0].params})")
        report.line(f"  search_s.p50 {p50 / 1e3:.4f} s (geomean of "
                    f"{len(done)} kernels' medians, n={n})")
        report.line(f"  run_ms.p50_geomean {tuned:.4f} ms (winners)")
        if not traced_run:
            report.metric("latency_ms.p50", p50, "ms", "= search_s.p50")
            report.metric("ops_per_s", n / busy if busy else 0.0, "1/s",
                          "searches per second of search")
            report.metric("kernel_ms.p50_geomean", tuned, "ms",
                          "= run_ms.p50_geomean of the winners")


WORKLOAD = TuneWorkload
