"""``compile``: a seeded stream of cold compiles of the 14 paper kernels.

Every request builds a fresh function with the repository's own CPU
schedule, clears the ISL memo (the state a first compile meets) and
compiles with ``check_legality=True, cache=False``.  Almost all the
time goes to ``isl``, ``core``, ``codegen`` and ``driver``; none to
``runtime`` or ``autosched``.  Each compiled kernel is then run three
times at its ``test_params`` and checked, outside the timed interval.  The
stream is whole rounds, each a seeded permutation of the 14 kernels, so
every run weighs the kernels equally.
"""

from __future__ import annotations

import time

from catalogue import PAPER_KERNELS, paper_bundle
from harness import geomean, median, reason_of, tail
from workloads import NPROC, Workload, delta, isl_counts

OPTIONS = {"check_legality": True, "cache": False, "num_threads": NPROC}


class CompileWorkload(Workload):

    def setup(self, obs):
        return self.paper_data()

    def measure(self, data, seconds, trace, obs, report, ledger):
        from repro.core.errors import IllegalScheduleError
        from repro.isl import isl_cache_clear
        traced_run = trace.enabled
        latencies, walls, busy = [], [], 0.0
        kernel_ms = {name: [] for name in PAPER_KERNELS}
        rounds, start = 0, time.perf_counter()
        while self.more(rounds, start, seconds, traced_run):
            order = list(PAPER_KERNELS)
            self.rng.shuffle(order)
            # A traced run alternates traced and untraced rounds, so the
            # tracing overhead is measured inside one process.
            trace.enabled = traced_run and rounds % 2 == 0
            for name in order:
                bundle = paper_bundle(name)
                isl_cache_clear()
                ledger.attempt()
                request = trace.new_request()
                before = isl_counts()
                timer = self.timed()
                try:
                    with timer, trace.span("Function.compile", request,
                                           kernel=name) as span:
                        kernel = bundle.function.compile("cpu", **OPTIONS)
                except Exception as exc:  # noqa: BLE001 - counted
                    busy += timer.norm
                    ledger.fail(name, reason_of(exc))
                    if isinstance(exc, IllegalScheduleError):
                        obs.rejected.add(name)
                    continue
                busy += timer.norm
                latencies.append(timer.norm)
                walls.append(timer.wall)
                if traced_run:
                    obs.op(trace.enabled, name, timer.norm)
                if trace.enabled:
                    calls = delta(isl_counts(), before)
                    obs.isl.append(calls)
                    obs.source_bytes.append(kernel.report.source_size)
                    trace.add_stages(span, kernel.report)
                    obs.record_exact(f"isl.empty.calls.{name}",
                                     calls[0] + calls[1])
                    obs.record_exact(f"codegen.source_bytes.{name}",
                                     kernel.report.source_size)
                with trace.span("kernel.call", request, kernel=name):
                    self.check_runs(kernel, data[name], name, ledger,
                                    kernel_ms[name], calls=3)
            rounds += 1
        trace.enabled = traced_run

        n = len(latencies)
        p50 = 1e3 * median(latencies)
        per_s = n / busy if busy else 0.0
        t = tail(latencies)
        report.line(f"timed: {rounds} rounds x {len(PAPER_KERNELS)} "
                    f"kernels, {n} compiles completed")
        report.line(f"  compile_ms.p50 {p50:.4f} ms (n={n}; wall "
                    f"{1e3 * median(walls):.4f} ms)")
        report.line("  compile_ms.tail " + (
            f"{1e3 * t[0]:.4f} ms at p{t[1]:.1f} (n={n})" if t
            else f"n/a (n={n} < 11)"))
        report.line(f"  compiles_per_s {per_s:.4f} 1/s (refused requests' "
                    "time counted, not their completions)")
        if not traced_run:
            report.metric("latency_ms.p50", p50, "ms", "= compile_ms.p50")
            report.metric("ops_per_s", per_s, "1/s", "= compiles_per_s")
            report.metric("kernel_ms.p50_geomean",
                          1e3 * geomean(median(v) for v in kernel_ms.values()
                                        if v), "ms",
                          "compiled kernels at test_params, geomean of "
                          "per-kernel medians")


WORKLOAD = CompileWorkload
