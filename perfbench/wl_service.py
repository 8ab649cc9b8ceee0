"""``service``: a seeded request stream through the batch compile front
end, with the disk tier on.

A service lifetime starts with an empty kernel registry and an empty
disk-cache directory and serves about ``LIFETIME`` requests with a
Zipf-like popularity over the 28 (paper kernel, schedule) fingerprints
(each kernel unscheduled and under its repository CPU schedule): every
lifetime serves the same multiset, in a seeded order.  At the
lifetime's midpoint ``kernel_registry.clear()`` models a restart, so
later repeats are read from disk.  Requests arrive in client sessions
of ``SESSION`` requests; each session is one
``BatchCompiler(max_workers=nproc)`` driven by ``nproc`` closed-loop
client threads.  A ``BatchCompiler`` deduplicates against every job it
ever ran, so one that lived for the whole stream would never consult
the registry again; per-session front ends let later sessions meet the
memory and disk tiers.  This is the only workload that exercises
``driver.batch``, ``driver.diskcache`` and pool-offloaded compiles.
"""

from __future__ import annotations

import pickle
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from catalogue import PAPER_KERNELS, paper_bundle
from harness import geomean, median, reason_of, tail
from workloads import NPROC, Workload

LIFETIME = 96
SESSION = 8
TINY_LIFETIME = 28
ZIPF_S = 1.1

#: The BatchStats fields summed into the per-layer metrics.
BATCH_FIELDS = ("submitted", "deduplicated", "memory_hits", "disk_hits",
                "compiled", "worker_compiles", "inline_compiles")


def _catalogue():
    """The fingerprints in popularity order: a fixed permutation, the
    same for every seed, so a seed varies only the draws."""
    keys = [(name, scheduled) for scheduled in (True, False)
            for name in PAPER_KERNELS]
    random.Random(0).shuffle(keys)
    return keys


class ServiceWorkload(Workload):

    def setup(self, obs):
        from repro.backends.parallel import get_pool
        # Clients send functions serialized; each request deserializes
        # its own fresh copy (outside the timed sessions).
        wire = {key: pickle.dumps(paper_bundle(*key).function)
                for key in _catalogue()}
        pool = get_pool(NPROC)
        if pool is not None:
            pool.submit(int, 0).result()   # fork the workers now
        return self.paper_data(), wire

    def _stream(self, length: int):
        """One lifetime's requests: every fingerprint as often as its
        Zipf weight says (at least once), in a seeded order, so every
        lifetime serves the same multiset."""
        keys = _catalogue()
        weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(keys))]
        scale = length / sum(weights)
        stream = [key for key, w in zip(keys, weights)
                  for _ in range(max(1, round(w * scale)))]
        self.rng.shuffle(stream)
        return stream

    def measure(self, state, seconds, trace, obs, report, ledger):
        from repro.driver import (BatchCompiler, configure_disk_cache,
                                  kernel_registry,
                                  reset_disk_cache_configuration)
        data, wire = state
        traced_run = trace.enabled
        latencies, walls, busy, checked = [], [], 0.0, 0
        by_class = {c: [] for c in ("dedup", "memory", "disk", "compiled")}
        kernel_ms = {}
        lock = threading.Lock()
        clients = ThreadPoolExecutor(max_workers=NPROC,
                                     thread_name_prefix="client")
        lifetimes, start = 0, time.perf_counter()
        try:
            while self.more(lifetimes, start, seconds, traced_run):
                trace.enabled = traced_run and lifetimes % 2 == 0
                kernel_registry.clear()
                configure_disk_cache(self.fresh_dir("disk"))
                stream = self._stream(TINY_LIFETIME if self.tiny
                                      else LIFETIME)
                served = {}   # id(kernel) -> [key, kernel, requests]
                worker_compiles = 0
                for first in range(0, len(stream), SESSION):
                    if first <= len(stream) // 2 < first + SESSION:
                        kernel_registry.clear()      # the restart
                    session = [(key, pickle.loads(wire[key]))
                               for key in stream[first:first + SESSION]]
                    seen = set()
                    timer = self.timed(every_core=True)
                    with timer, BatchCompiler(max_workers=NPROC) as front:
                        done = list(clients.map(
                            lambda req: self._request(
                                front, req, seen, lock, trace, obs,
                                ledger), session))
                    busy += timer.norm
                    # Requests overlap, so each is rescaled by its
                    # session's host-speed factor, probed on every core.
                    factor = timer.norm / timer.wall
                    for (key, _), (kernel, wall, kind) in zip(session, done):
                        if kernel is None:
                            continue
                        latencies.append(wall * factor)
                        walls.append(wall)
                        by_class[kind].append(wall * factor)
                        served.setdefault(id(kernel), [key, kernel, 0])[2] += 1
                        if traced_run:
                            obs.op(trace.enabled, kind, wall * factor)
                    worker_compiles += front.stats.worker_compiles
                    if trace.enabled:
                        for name in BATCH_FIELDS:
                            obs.batch[name] += getattr(front.stats, name)
                if trace.enabled:
                    obs.worker_compiles.append(worker_compiles)
                # Every response is one of these kernel objects: check
                # each, outside the timed sessions.
                for key, kernel, requests in served.values():
                    self.check_runs(kernel, data[key[0]], key[0], ledger,
                                    kernel_ms.setdefault(key, []),
                                    calls=1, weight=requests)
                checked += len(served)
                lifetimes += 1
        finally:
            trace.enabled = traced_run
            clients.shutdown(wait=True)
            reset_disk_cache_configuration()
            kernel_registry.clear()

        n = len(latencies)
        p50 = 1e3 * median(latencies)
        t = tail(latencies)
        per_s = n / busy if busy else 0.0
        report.line(f"timed: {lifetimes} lifetimes x {len(stream)} "
                    f"requests in sessions of {SESSION}, {n} completed, "
                    f"{checked} served kernels checked")
        report.line(f"  compile_ms.p50 {p50:.4f} ms (submit to result, "
                    f"n={n}; wall {1e3 * median(walls):.4f} ms)")
        for kind, values in by_class.items():
            report.line(f"    {kind}: {len(values)} requests, p50 "
                        f"{1e3 * median(values):.4f} ms")
        report.line("  compile_ms.tail " + (
            f"{1e3 * t[0]:.4f} ms at p{t[1]:.1f} (n={n})" if t
            else f"n/a (n={n} < 11)"))
        report.line(f"  compiles_per_s {per_s:.4f} 1/s (over {busy:.3f}s "
                    "of sessions)")
        if not traced_run:
            report.metric("latency_ms.p50", p50, "ms", "= compile_ms.p50")
            report.metric("ops_per_s", per_s, "1/s", "= compiles_per_s")
            report.metric("kernel_ms.p50_geomean",
                          1e3 * geomean(median(v) for v in
                                        kernel_ms.values() if v), "ms",
                          "served kernels at test_params, geomean of "
                          "per-fingerprint medians")

    @staticmethod
    def _request(front, request, seen, lock, trace, obs, ledger):
        """One client request: submit, wait for the kernel.  Returns
        (kernel or None, submit-to-result seconds, how it was served)."""
        (name, scheduled), fn = request
        ledger.attempt()
        span_ctx = trace.span("BatchCompiler.submit", trace.new_request(),
                              kernel=name, scheduled=scheduled)
        t0 = time.perf_counter()
        try:
            with span_ctx as span:
                with lock:
                    handle = front.submit(fn, "cpu", num_threads=NPROC)
                    creator = handle.compile_id not in seen
                    seen.add(handle.compile_id)
                kernel = handle.result()
            seconds = time.perf_counter() - t0
        except Exception as exc:  # noqa: BLE001 - counted
            ledger.fail(name, reason_of(exc))
            return None, 0.0, None
        report = kernel.report
        if not creator:
            kind = "dedup"
        else:
            kind = ("memory" if report.cache_hit else
                    "disk" if report.disk_hit else "compiled")
            if span is not None:
                trace.add_stages(span, report)
                obs.batch_wait.append(seconds - report.total_seconds)
                obs.source_bytes.append(report.source_size)
        return kernel, seconds, kind


WORKLOAD = ServiceWorkload
