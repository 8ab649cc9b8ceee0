"""``execute``: generated code runs, each mechanism beside its simplest
sibling.

Set-up compiles every variant (gcc included, in a fresh directory each
time), computes the references and warms the worker pool.  The timed
loop then calls the variants round-robin, in a seeded order per round;
input copies are made outside the timed interval and every output is
checked.  The compile layers do no work here; ``backends`` (cpu,
parallel, c) and ``runtime`` do all of it.
"""

from __future__ import annotations

import tempfile
import time

from catalogue import execute_variants
from harness import copies, geomean, median, reason_of, tail
from workloads import (NPROC, Workload, call_and_check, delta,
                       isl_counts)


def _par_counters():
    from repro.obs.metrics import metrics
    chunk = metrics.histogram("parallel.chunk_seconds")
    shm = (metrics.histogram("parallel.shm_copy_seconds").total
           + metrics.histogram("parallel.shm_copyback_seconds").total)
    return (metrics.counter("parallel.chunks").value, chunk.total, shm,
            metrics.counter("taskgraph.tasks").value,
            metrics.histogram("taskgraph.task_seconds").total,
            metrics.histogram("compile.seconds").count)


class ExecuteWorkload(Workload):

    def setup(self, obs):
        from repro.backends.c import have_c_compiler
        from repro.backends.parallel import get_pool
        # A fresh gcc output directory: every set-up pays for gcc.
        tempfile.tempdir = self.fresh_dir("gcc")
        gcc_seconds = []
        state = {}
        for index, v in enumerate(execute_variants(self.tiny)):
            bundle = v.bundle()
            inputs, expected = self.inputs(bundle, v.params, index)
            kernel, reason = None, None
            if v.target == "c" and not have_c_compiler():
                reason = "no C compiler (gcc absent)"
            else:
                try:
                    kernel = bundle.function.compile(
                        v.target, num_threads=NPROC, cache=False,
                        **v.options)
                except Exception as exc:  # noqa: BLE001 - reported
                    reason = reason_of(exc)
            if kernel is not None and v.target == "c":
                gcc_seconds.append(kernel.report.stage_seconds("bind"))
            state[v.name] = (v, kernel, reason, inputs, expected)
        get_pool(NPROC)
        for v, kernel, reason, inputs, expected in state.values():
            if getattr(kernel, "runtime", None) is not None:
                kernel(**copies(inputs), **v.params)
        obs.gcc_seconds[:] = gcc_seconds
        return state

    def measure(self, state, seconds, trace, obs, report, ledger):
        traced_run = trace.enabled
        samples = {name: [] for name in state}
        names = [name for name, entry in state.items()
                 for _ in range(entry[0].calls)]
        walls = {name: [] for name in state}
        rounds, start = 0, time.perf_counter()
        isl_before, counters_before = isl_counts(), _par_counters()
        while self.more(rounds, start, seconds, traced_run):
            self.rng.shuffle(names)
            trace.enabled = traced_run and rounds % 2 == 0
            for name in names:
                v, kernel, reason, inputs, expected = state[name]
                ledger.attempt()
                if kernel is None:
                    ledger.fail(name, reason)
                    continue
                if trace.enabled:
                    timer = self._traced_call(v, kernel, inputs, expected,
                                              trace, obs, ledger,
                                              samples[name])
                else:
                    timer = call_and_check(self.timed(), kernel, v.params,
                                           inputs, expected, name, ledger,
                                           samples[name])
                    if traced_run and timer is not None:
                        obs.op(False, name, timer.norm)
                if timer is not None:
                    walls[name].append(timer.wall)
            rounds += 1
        trace.enabled = traced_run
        isl_delta = delta(isl_counts(), isl_before)
        compiles = _par_counters()[5] - counters_before[5]

        report.line(f"timed: {rounds} rounds x {len(names)} calls over "
                    f"{len(state)} variants")
        for name in state:
            s = samples[name]
            t = tail(s)
            report.line(f"  run.{name}: p50 {1e3 * median(s):.4f} ms "
                        + (f"tail {1e3 * t[0]:.4f} ms at p{t[1]:.1f} "
                           if t else "tail n/a ")
                        + f"(n={len(s)}, range {1e3 * min(s, default=0):.1f}"
                        f"-{1e3 * max(s, default=0):.1f}, wall p50 "
                        f"{1e3 * median(walls[name]):.4f} ms, size "
                        f"{state[name][0].params})")
        per_variant = [s for s in samples.values() if s]
        p50 = 1e3 * geomean(median(s) for s in per_variant)
        tails = [tail(s) for s in per_variant]
        report.line(f"  run_ms.p50_geomean {p50:.4f} ms over "
                    f"{len(per_variant)} variants")
        report.line("  run_ms.tail_geomean " + (
            f"{1e3 * geomean(t[0] for t in tails):.4f} ms"
            if tails and all(tails) else
            "n/a (fewer than 11 calls per variant)"))
        report.line(f"  inside the timed region: {compiles} compiles, "
                    f"{isl_delta[0] + isl_delta[1]} isl emptiness calls")
        if not traced_run:
            busy = sum(sum(s) for s in per_variant)
            calls = sum(len(s) for s in per_variant)
            report.metric("latency_ms.p50", p50, "ms",
                          "= run_ms.p50_geomean")
            report.metric("ops_per_s", calls / busy if busy else 0.0,
                          "1/s", f"kernel calls per second of calls, "
                          f"n={calls}")
            report.metric("kernel_ms.p50_geomean", p50, "ms",
                          "= run_ms.p50_geomean")

    def _traced_call(self, v, kernel, inputs, expected, trace, obs, ledger,
                     samples):
        """One call with the parallel and task-graph counters read
        around it.  The chunk histogram is zeroed first so its max is
        this call's longest chunk."""
        from repro.obs.metrics import metrics
        metrics.histogram("parallel.chunk_seconds").zero()
        before, isl_before = _par_counters(), isl_counts()
        runtime = getattr(kernel, "runtime", None)
        tg = getattr(runtime, "taskgraph_stats", None)
        fallbacks = tg.fallbacks if tg is not None else 0
        with trace.span("kernel.call", trace.new_request(),
                        variant=v.name):
            timer = call_and_check(self.timed(), kernel, v.params, inputs,
                                   expected, v.name, ledger, samples)
        if timer is None:
            return None
        obs.isl.append(delta(isl_counts(), isl_before))
        seconds = timer.wall
        obs.op(True, v.name, timer.norm)
        obs.runs[v.name].append(seconds)
        after = _par_counters()
        chunks = int(after[0] - before[0])
        if chunks:
            longest = metrics.histogram("parallel.chunk_seconds").max
            imbalance = metrics.gauge("parallel.last_imbalance").value
            obs.parallel.append((seconds, chunks, after[1] - before[1],
                                 longest, after[2] - before[2],
                                 imbalance))
        if tg is not None:
            tasks = int(after[3] - before[3])
            busy = tg.last_busy_seconds if tasks else 0.0
            wall = tg.last_wall_seconds if tasks else seconds
            obs.runtime.append((tasks, after[4] - before[4], busy, wall,
                                tg.fallbacks - fallbacks))
            obs.record_exact(f"runtime.tasks_per_call.{v.name}", tasks)
        return timer


WORKLOAD = ExecuteWorkload
