"""Multicore execution runtime for ``parallelize``-tagged loops.

The CPU backend emits each safe top-level parallel loop as a chunked
worker function ``_par_body_k(_bufs, _params, _lo, _hi)`` (see
:mod:`repro.codegen.pyemit`).  This module supplies the runtime that
dispatches those chunks onto real cores:

* a process pool (``concurrent.futures.ProcessPoolExecutor``, fork
  start method when available so workers inherit the warm interpreter),
  cached per worker count and shut down at exit;
* shared output buffers — the kernel's arrays are staged into
  ``multiprocessing.shared_memory`` segments for the duration of a
  call, so every worker writes the same pages and the parent copies
  results back out;
* per-worker chunk scheduling — the iteration range ``[lo, hi]`` is
  split into at most ``num_threads`` contiguous chunks, one future per
  chunk;
* graceful sequential fallback — when the machine has one core, the
  pool cannot be created, the range is trivial, or no shared staging is
  active, ``offload`` answers ``False`` and the emitted code calls the
  body inline.

Workers never receive live kernel objects (exec'd functions do not
pickle): each chunk carries the emitted source and its digest, and the
worker process re-execs it once, caching the namespace per digest.

Fault tolerance (docs/robustness.md): a region dispatch that loses a
worker (``BrokenProcessPool``) or misses its per-chunk ``timeout`` runs
in the shared worker-failure loop
(:func:`repro.driver.resilience.retry_worker_failures`): retried on a
fresh pool with exponential backoff, up to ``max_retries`` times, with
shared buffers snapshotted before the first dispatch and restored
before each retry so reductions stay bit-identical.  When the pool
keeps dying, ``on_worker_failure`` picks the endgame: ``"fallback"``
(default) runs the region inline in the parent, ``"retry"`` raises after
the last attempt, ``"raise"`` fails on the first.  Exceptions raised *by*
the loop body are deterministic application errors and are never
retried.  Every retry, pool restart, chunk timeout and fallback is
recorded (``parallel.*``, see :func:`repro.obs.events.record`); an
active :class:`repro.faults.FaultPlan` can crash or hang individual
chunk workers deterministically.
"""

from __future__ import annotations

import atexit
import hashlib
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.errors import ExecutionError, WorkerFailureError
from repro.obs.events import record

from .common import resolve_timeout


def resolve_num_threads(value) -> int:
    """The ``num_threads`` compile option resolved to a worker count:
    ``None`` (or 0) means every core the machine has."""
    if isinstance(value, bool):
        raise ValueError(f"num_threads must be a positive int, got {value!r}")
    if value is None or value == 0:
        return os.cpu_count() or 1
    n = int(value)
    if n < 1 or n != value:
        raise ValueError(f"num_threads must be a positive int, got {value!r}")
    return n


def chunk_ranges(lo: int, hi: int, n: int) -> List[Tuple[int, int]]:
    """Split the inclusive range [lo, hi] into <= n balanced contiguous
    chunks (the larger chunks first).  An empty range (hi < lo) yields
    no chunks; n < 1 degrades to a single chunk."""
    trip = hi - lo + 1
    if trip <= 0:
        return []
    n = max(1, min(n, trip))
    base, extra = divmod(trip, n)
    out: List[Tuple[int, int]] = []
    start = lo
    for k in range(n):
        size = base + (1 if k < extra else 0)
        out.append((start, start + size - 1))
        start += size
    return out


# -- worker side -------------------------------------------------------------

_SOURCE_CACHE: Dict[str, dict] = {}  # per-process: digest -> exec namespace


def _load_namespace(digest: str, source: str) -> dict:
    ns = _SOURCE_CACHE.get(digest)
    if ns is None:
        ns = {}
        exec(compile(source, f"<tiramisu-par:{digest[:12]}>", "exec"), ns)
        _SOURCE_CACHE[digest] = ns
    return ns


def _exec_chunk(digest: str, source: str, body_name: str, specs,
                params: Dict[str, int], lo: int, hi: int,
                profiled: bool = False, fault=None) -> tuple:
    """Run one chunk of a parallel loop inside a worker process.

    Returns ``(pid, start_ns, end_ns, obs_snapshot)`` — the wall clock
    of the chunk body (for the parent's worker-imbalance metrics) and,
    when ``profiled``, the worker collector's picklable counter
    snapshot so per-computation iteration counts stay exact under
    multicore execution.

    ``fault`` is the parent's fault-injection decision for this chunk
    (workers never see the plan itself): ``("crash",)`` kills this
    process outright — the pool reports ``BrokenProcessPool`` — and
    ``("hang", seconds)`` stalls before computing, so a per-chunk
    timeout reads it as a hung worker."""
    import time as _time
    if fault:
        if fault[0] == "crash":
            os._exit(13)
        elif fault[0] == "hang":
            _time.sleep(float(fault[1]))
    ns = _load_namespace(digest, source)
    attached: List[shared_memory.SharedMemory] = []
    bufs: Dict[str, np.ndarray] = {}
    try:
        for name, (shm_name, shape, dtype) in specs.items():
            shm = shared_memory.SharedMemory(name=shm_name)
            attached.append(shm)
            bufs[name] = np.ndarray(shape, dtype=np.dtype(dtype),
                                    buffer=shm.buf)
        snapshot = None
        start_ns = _time.perf_counter_ns()
        if profiled:
            from repro.obs import RunCollector
            collector = RunCollector()
            ns[body_name](bufs, params, lo, hi, collector)
            snapshot = collector.snapshot()
        else:
            ns[body_name](bufs, params, lo, hi)
        end_ns = _time.perf_counter_ns()
        return os.getpid(), start_ns, end_ns, snapshot
    finally:
        bufs.clear()
        for shm in attached:
            try:
                shm.close()
            except BufferError:  # a stray view kept the mapping alive
                pass


# -- pool management ---------------------------------------------------------
#
# The cached process pools are deliberately generic: the parallel
# runtime dispatches loop chunks on them, and the batch compile front
# end (repro.driver.batch) dispatches whole source compiles on the same
# machinery — one warm fork pool per worker count, shared process-wide.

_POOLS: Dict[int, ProcessPoolExecutor] = {}
_POOL_UNAVAILABLE = False


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else methods[0])


def _ensure_resource_tracker() -> None:
    """Spawn the shared-memory resource tracker *before* forking workers.

    Fork children inherit the parent's tracker connection.  If the first
    pool is forked before this process ever created a SharedMemory
    segment (the batch compile front end warms a pool without touching
    shared memory), each worker would lazily spawn its own *private*
    tracker on first segment attach — and a private tracker unlinks
    every segment its worker registered the moment that worker dies,
    yanking live staging buffers out from under the parent's retry
    logic.  Starting the parent's tracker first makes every worker
    register with the shared, parent-lifetime tracker instead.
    """
    try:
        from multiprocessing import resource_tracker
        resource_tracker.ensure_running()
    except Exception:
        pass


def get_pool(workers: int) -> Optional[ProcessPoolExecutor]:
    """The cached process pool for ``workers``, building (and caching)
    it on first use; None when this host cannot run a pool at all."""
    global _POOL_UNAVAILABLE
    if _POOL_UNAVAILABLE:
        return None
    pool = _POOLS.get(workers)
    if pool is None:
        try:
            _ensure_resource_tracker()
            pool = ProcessPoolExecutor(max_workers=workers,
                                       mp_context=_mp_context())
        except (OSError, ValueError, NotImplementedError):
            _POOL_UNAVAILABLE = True
            return None
        _POOLS[workers] = pool
    return pool


def discard_pool(workers: int) -> None:
    """Drop (and kill) the cached pool for ``workers`` so the next
    ``get_pool`` builds a fresh one.  Workers are terminated rather
    than joined: a crashed pool's survivors are in an unknown state and
    a hung worker would otherwise keep writing to shared buffers after
    its region has been retried."""
    pool = _POOLS.pop(workers, None)
    if pool is None:
        return
    procs = getattr(pool, "_processes", None) or {}
    for proc in list(procs.values()):
        try:
            proc.terminate()
        except (AttributeError, OSError):
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except (OSError, RuntimeError):
        pass


def shutdown_pools() -> None:
    """Tear down every cached worker pool (also runs atexit)."""
    for pool in _POOLS.values():
        pool.shutdown(wait=True, cancel_futures=True)
    _POOLS.clear()


atexit.register(shutdown_pools)


# -- the runtime -------------------------------------------------------------

@dataclass
class ParallelStats:
    """What the pool actually did, for reports and tests."""
    regions: int = 0         # parallel loop executions dispatched
    chunks: int = 0          # total chunk futures submitted
    max_workers: int = 0     # widest single dispatch
    worker_pids: tuple = ()  # distinct pids that ran chunks
    retries: int = 0         # region dispatches repeated after a failure
    pool_restarts: int = 0   # broken pools discarded and rebuilt
    chunk_timeouts: int = 0  # chunks that missed their deadline
    sequential_fallbacks: int = 0  # regions degraded to inline execution
    breaker_blocks: int = 0  # offloads refused by the open circuit breaker


class ParallelRuntime:
    """Hands chunked parallel loop bodies to the worker pool.

    The emitted kernel probes ``offload(trip)`` per parallel loop and
    calls ``run(body, params, lo, hi)`` when it answers True; the
    kernel wrapper stages its arrays through ``sharing(arrays)`` for
    the duration of the call so workers see (and write) the same
    memory.
    """

    #: The :class:`ParallelStats` field each worker-failure loop record
    #: kind is counted in.
    STAT_FIELDS = {"breaker_block": "breaker_blocks",
                   "pool_restart": "pool_restarts", "retry": "retries",
                   "fallback": "sequential_fallbacks"}

    def __init__(self, source: str, num_threads: int,
                 min_chunk_iters: int = 1, profiled: bool = False,
                 max_retries: int = 2, timeout: Optional[float] = None,
                 on_worker_failure: str = "fallback"):
        self.source = source
        self.digest = hashlib.sha256(source.encode()).hexdigest()
        self.num_threads = int(num_threads)
        self.min_chunk_iters = min_chunk_iters
        self.profiled = bool(profiled)
        self.max_retries = int(max_retries)
        # Per-chunk deadline in seconds; None (and no TIRAMISU_TIMEOUT
        # env override) means wait forever, the pre-fault-tolerance
        # behavior.
        self.timeout = resolve_timeout(timeout, default=None)
        if on_worker_failure not in ("retry", "fallback", "raise"):
            raise ValueError(
                f"on_worker_failure must be 'retry', 'fallback' or "
                f"'raise', got {on_worker_failure!r}")
        self.on_worker_failure = on_worker_failure
        self.stats = ParallelStats()
        self._specs = None  # buffer name -> (shm name, shape, dtype str)
        self._views = None  # buffer name -> shm-backed ndarray (parent)

    def _count(self, kind: str) -> None:
        """Count one worker-failure loop record on this runtime's
        stats (kinds without a stats field are only recorded)."""
        name = self.STAT_FIELDS.get(kind)
        if name is not None:
            setattr(self.stats, name, getattr(self.stats, name) + 1)

    def _snapshot_restore(self):
        """Snapshot the shared buffers and return the hook that puts
        them back, or None when failures are not retried (or nothing is
        staged).  Chunks may have partially applied writes (reductions!)
        when a worker dies mid-flight; restoring keeps every retry, and
        the fallback, bit-identical."""
        if self.on_worker_failure == "raise" or self._views is None:
            return None
        views = self._views
        saved = {name: np.array(view, copy=True)
                 for name, view in views.items()}

        def restore() -> None:
            for name, data in saved.items():
                views[name][...] = data
        return restore

    def enabled(self) -> bool:
        return self.num_threads >= 2 \
            and get_pool(self.num_threads) is not None

    def offload(self, trip: int) -> bool:
        """Should this region's chunks go to the pool?  ``False`` makes
        the emitted kernel run the body inline — which is also the
        graceful-degradation path while the shared pool's circuit
        breaker is open: a pool that keeps dying stops being hammered,
        and ``parallelize`` silently becomes sequential (bit-identical
        results, the pre-parallel semantics)."""
        if self._specs is None or trip < 2 * self.min_chunk_iters \
                or not self.enabled():
            return False
        from repro.driver.resilience import breaker_refuses
        return not breaker_refuses("parallel", self._count)

    @contextmanager
    def sharing(self, arrays: Dict[str, np.ndarray]):
        """Stage ``arrays`` into shared memory; copy results back on
        normal exit and always release the segments."""
        from repro.obs.metrics import metrics
        shms: List[Tuple[str, shared_memory.SharedMemory]] = []
        views: Dict[str, np.ndarray] = {}
        specs: Dict[str, Tuple[str, tuple, str]] = {}
        try:
            copy_start = time.perf_counter()
            bytes_in = 0
            for name, arr in arrays.items():
                arr = np.ascontiguousarray(arr)
                shm = shared_memory.SharedMemory(
                    create=True, size=max(1, arr.nbytes))
                shms.append((name, shm))
                view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
                view[...] = arr
                views[name] = view
                specs[name] = (shm.name, arr.shape, arr.dtype.str)
                bytes_in += arr.nbytes
            metrics.histogram("parallel.shm_copy_seconds").observe(
                time.perf_counter() - copy_start)
            metrics.counter("parallel.shm_bytes_in").inc(bytes_in)
            self._specs = specs
            self._views = views
            yield views
            back_start = time.perf_counter()
            bytes_out = 0
            for name, _ in shms:
                dst = np.asarray(arrays[name])
                if dst.flags.writeable:
                    np.copyto(dst, views[name])
                    bytes_out += dst.nbytes
            metrics.histogram("parallel.shm_copyback_seconds").observe(
                time.perf_counter() - back_start)
            metrics.counter("parallel.shm_bytes_out").inc(bytes_out)
        finally:
            self._specs = None
            self._views = None
            views.clear()
            for _, shm in shms:
                try:
                    shm.close()
                except BufferError:
                    pass
                try:
                    shm.unlink()
                except FileNotFoundError:
                    pass

    def run(self, body, params: Dict[str, int], lo: int, hi: int,
            obs=None) -> None:
        """Execute one parallel loop: split [lo, hi] into chunks and
        block until every worker finishes.

        Worker *failures* (a crash breaking the pool, a chunk missing
        its ``timeout``) are retried on a fresh pool — shared buffers
        are restored from a snapshot first so partially-applied
        reductions cannot double-count — and, with
        ``on_worker_failure="fallback"``, degrade to inline sequential
        execution when the pool keeps dying.  Exceptions raised by the
        body itself are application errors and surface immediately.

        Each chunk result carries the worker's wall clock (and, when
        profiling, its counter snapshot); they are aggregated here, in
        the parent, into the process-global metrics registry and the
        per-call ``obs`` collector — workers never share state."""
        from repro.driver.resilience import (current_deadline,
                                             retry_worker_failures)
        if self._specs is None:  # raced a pool teardown
            raise ExecutionError(
                f"parallel region {body.__name__} has no active pool")
        ambient_deadline = current_deadline()
        if ambient_deadline is not None:
            ambient_deadline.check("parallel-dispatch")
        region = self.stats.regions
        self.stats.regions += 1
        record("parallel.regions")
        retry_worker_failures(
            "parallel",
            lambda attempt: self._dispatch(body, params, lo, hi, obs,
                                           region, attempt),
            lambda failure: self._run_inline(body, params, lo, hi, obs),
            workers=self.num_threads, max_retries=self.max_retries,
            on_failure=self.on_worker_failure, count=self._count,
            restore=self._snapshot_restore(), region=region,
            body=body.__name__)

    def _dispatch(self, body, params: Dict[str, int], lo: int, hi: int,
                  obs, region: int, attempt: int) -> None:
        """One attempt: submit every chunk, gather every result.

        Raises :class:`WorkerFailureError` for infrastructure failures
        (broken pool, chunk deadline) — the retryable class — and plain
        :class:`ExecutionError` for exceptions the body raised."""
        from repro.faults import get_plan
        from repro.obs.metrics import metrics
        pool = get_pool(self.num_threads)
        if pool is None:
            raise WorkerFailureError(
                f"parallel region {body.__name__} has no active pool")
        plan = get_plan()
        if plan is not None \
                and plan.fires("pool-refusal", op="parallel"):
            raise WorkerFailureError(
                f"parallel region {body.__name__}: the worker pool "
                f"refused the dispatch (injected)")
        bounds = chunk_ranges(lo, hi, self.num_threads)
        futures = []
        try:
            for k, (clo, chi) in enumerate(bounds):
                fault = None
                if plan is not None:
                    site = dict(region=region, chunk=k, attempt=attempt)
                    spec = plan.fires("worker-crash", **site)
                    if spec is not None:
                        fault = ("crash",)
                    else:
                        spec = plan.fires("worker-hang", **site)
                        if spec is not None:
                            fault = ("hang",
                                     spec.payload.get("seconds", 30.0))
                futures.append(pool.submit(
                    _exec_chunk, self.digest, self.source, body.__name__,
                    self._specs, params, clo, chi, self.profiled, fault))
        except BrokenProcessPool as exc:
            # An earlier chunk's crash can break the pool while later
            # chunks are still being submitted.
            for fut in futures:
                fut.cancel()
            raise WorkerFailureError(
                f"parallel region {body.__name__}: the worker pool died "
                f"during dispatch ({exc})") from exc
        self.stats.chunks += len(bounds)
        self.stats.max_workers = max(self.stats.max_workers, len(bounds))
        pids = set(self.stats.worker_pids)
        errors: List[BaseException] = []
        chunk_seconds: List[float] = []
        deadline = (time.monotonic() + self.timeout
                    if self.timeout is not None else None)
        try:
            for fut, (clo, chi) in zip(futures, bounds):
                try:
                    if deadline is None:
                        pid, start_ns, end_ns, snapshot = fut.result()
                    else:
                        remaining = max(0.0, deadline - time.monotonic())
                        pid, start_ns, end_ns, snapshot = fut.result(
                            timeout=remaining)
                except FuturesTimeoutError:
                    self.stats.chunk_timeouts += 1
                    record("parallel.chunk_timeout", region=region,
                           chunk_lo=clo, chunk_hi=chi,
                           timeout_seconds=self.timeout)
                    raise WorkerFailureError(
                        f"parallel region {body.__name__}: chunk "
                        f"[{clo}, {chi}] exceeded the {self.timeout:g}s "
                        f"timeout (hung worker?)") from None
                except BrokenProcessPool as exc:
                    raise WorkerFailureError(
                        f"parallel region {body.__name__}: the worker "
                        f"pool died mid-dispatch ({exc})") from exc
                except BaseException as exc:  # noqa: BLE001 - app error
                    errors.append(exc)
                    continue
                pids.add(pid)
                seconds = (end_ns - start_ns) / 1e9
                chunk_seconds.append(seconds)
                metrics.histogram("parallel.chunk_seconds").observe(seconds)
                metrics.histogram("parallel.chunk_iters").observe(
                    chi - clo + 1)
                if obs is not None:
                    obs.merge(snapshot)
                    obs.worker_span(body.__name__, clo, chi, start_ns,
                                    end_ns, pid)
        finally:
            for fut in futures:
                fut.cancel()
        self.stats.worker_pids = tuple(sorted(pids))
        metrics.counter("parallel.chunks").inc(len(bounds))
        if chunk_seconds and min(chunk_seconds) > 0:
            metrics.gauge("parallel.last_imbalance").set(
                max(chunk_seconds) / min(chunk_seconds))
        if errors:
            raise ExecutionError(
                f"parallel region {body.__name__} failed in a worker: "
                f"{errors[0]}") from errors[0]

    def _run_inline(self, body, params: Dict[str, int], lo: int, hi: int,
                    obs) -> None:
        """Graceful degradation: execute the whole region sequentially
        in the parent, on the shared views the workers would have
        written."""
        views = self._views
        if views is None:
            raise ExecutionError(
                f"parallel region {body.__name__}: no shared buffers to "
                "fall back onto")
        if self.profiled and obs is not None:
            body(views, params, lo, hi, obs)
        else:
            body(views, params, lo, hi)
