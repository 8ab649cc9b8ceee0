"""Ready-queue execution of tile DAGs on the shared worker pool.

:class:`TaskGraphRuntime` extends the fork-join
:class:`~repro.backends.parallel.ParallelRuntime` (it reuses the shared
process pool, the shared-memory staging and snapshot, the pool circuit
breaker and the worker-failure loop
:func:`~repro.driver.resilience.retry_worker_failures`) with a
dependence-aware
scheduler: instead of dispatching one loop's chunks and waiting on all
of them, it dispatches every *ready* tile of the task DAG and hands a
tile's successors to the pool the moment their last predecessor
finishes.  Wavefront programs — where a barrier-per-row execution
leaves workers idle at the ragged edge of every row — overlap rows: a
tile of row ``t+1`` starts while the rest of row ``t`` is still in
flight.

Failure semantics match the fork-join runtime (docs/robustness.md):
losing a worker mid-graph restores every shared buffer from the
pre-graph snapshot and replays the *whole* DAG on a fresh pool (a
partial replay could observe half-written tiles; the full replay is
provably bit-identical because every tile recomputes from restored
inputs in the same intra-tile order), with exponential backoff up to
``max_retries``; when the pool keeps dying ``on_worker_failure``
decides between raising and declining — a declined graph returns
``False`` to the emitted dispatch preamble, which falls through to the
unchanged sequential nest.  The loop records its steps under the
``taskgraph.`` prefix (``taskgraph.worker_failure``, ``.retry``, ...).
Every dispatch round first charges the ambient request
:class:`~repro.driver.resilience.Deadline`, so an expired budget fails
between tiles, never mid-submit.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.backends.parallel import ParallelRuntime, _load_namespace, get_pool
from repro.core.errors import ExecutionError, WorkerFailureError
from repro.obs.events import record

from .taskgraph import TaskGraph, TaskGraphUnavailable, build_task_graph


def _exec_tile(digest: str, source: str, specs,
               params: Dict[str, int],
               bounds: Tuple[Tuple[int, int], ...],
               fault=None) -> tuple:
    """Run one tile in a worker process (the task-graph sibling of
    ``_exec_chunk``): re-exec the kernel source (cached per digest),
    attach the shared staging buffers, and call ``_tile_body`` with the
    tile's inclusive per-dim bounds.  Returns ``(pid, start_ns,
    end_ns)``; ``fault`` carries the parent's injection decision
    (``("crash",)`` / ``("hang", seconds)``)."""
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
        flat = [b for pair in bounds for b in pair]
        start_ns = _time.perf_counter_ns()
        ns["_tile_body"](bufs, params, *flat)
        end_ns = _time.perf_counter_ns()
        return os.getpid(), start_ns, end_ns
    finally:
        bufs.clear()
        for shm in attached:
            try:
                shm.close()
            except BufferError:
                pass


@dataclass
class TaskGraphStats:
    """What the task-graph scheduler actually did, for reports/tests."""

    graphs: int = 0            # DAGs executed to completion
    tasks: int = 0             # tile futures that finished
    fallbacks: int = 0         # graphs declined to the sequential nest
    retries: int = 0           # whole-graph replays after worker loss
    last_reason: str = ""      # why the latest graph was declined
    last_width: int = 0        # widest wavefront of the latest graph
    last_busy_seconds: float = 0.0   # sum of tile wall clocks
    last_wall_seconds: float = 0.0   # parent-side graph wall clock


class TaskGraphRuntime(ParallelRuntime):
    """Executes a kernel's tile DAG on the shared worker pool.

    Attached by the CPU backend instead of the plain
    :class:`ParallelRuntime` when the kernel was compiled with
    ``execution="taskgraph"`` and its source carries task-graph support
    (``_tile_body`` / ``_tile_grid`` / ``_TASKGRAPH_DIMS``).  The
    emitted ``_kernel`` preamble calls :meth:`run_taskgraph`; a
    ``False`` answer means "decline" and the preamble falls through to
    the unchanged nest.  Inherited fork-join machinery still serves any
    ``_par_body_k`` regions on that fallback path.
    """

    #: Scheduler policies: the ready-queue default, and the
    #: barrier-per-wavefront-level baseline it is benchmarked against.
    MODES = ("ready-queue", "forkjoin")

    def __init__(self, source: str, fn, num_threads: int, **kwargs):
        super().__init__(source, num_threads, **kwargs)
        self.fn = fn
        self.scheduler_mode = "ready-queue"
        self.taskgraph_stats = TaskGraphStats()
        self._graphs: Dict[tuple, tuple] = {}  # params key -> (graph, why)

    # -- graph construction (cached per parameter valuation) -------------

    def _grid(self, params: Dict[str, int]) -> List[Tuple[int, int]]:
        ns = _load_namespace(self.digest, self.source)
        return [(int(lo), int(hi)) for lo, hi in ns["_tile_grid"](params)]

    def graph_for(self, params: Dict[str, int]
                  ) -> Tuple[Optional[TaskGraph], Optional[str]]:
        """The (cached) tile DAG for this parameter valuation, or
        ``(None, reason)`` when the schedule cannot be lowered."""
        key = tuple(sorted(params.items()))
        entry = self._graphs.get(key)
        if entry is None:
            try:
                graph = build_task_graph(self.fn, params,
                                         self._grid(params),
                                         self.num_threads)
            except TaskGraphUnavailable as exc:
                entry = (None, exc.reason)
            else:
                entry = (graph, None)
                record("taskgraph.schedule", function=self.fn.name,
                       tiles=len(graph.tasks), shape=list(graph.shape),
                       tile_sizes=list(graph.tile_sizes),
                       deltas=[list(d) for d in graph.deltas],
                       edges=graph.edge_count, max_width=graph.max_width,
                       depth=graph.depth)
            self._graphs[key] = entry
        return entry

    # -- the dispatch-preamble entry point --------------------------------

    def run_taskgraph(self, params: Dict[str, int]) -> bool:
        """Execute the whole nest as a tile DAG; ``True`` means done
        (results are in the shared staging buffers), ``False`` declines
        and the emitted preamble runs the sequential nest instead."""
        from repro.driver.resilience import (breaker_refuses,
                                             retry_worker_failures)
        if self._specs is None or not self.enabled():
            return self._decline("pool-unavailable")
        if breaker_refuses("taskgraph", self._count,
                           function=self.fn.name):
            return self._decline("breaker-open")
        graph, why = self.graph_for(params)
        if graph is None:
            return self._decline(why or "unavailable")
        if graph.is_empty():
            # Zero iterations: the sequential nest would be a no-op too.
            record("taskgraph.complete", function=self.fn.name, tiles=0,
                   mode="empty")
            return True
        if len(graph.tasks) < 2:
            return self._decline("single-tile")
        if graph.is_chain():
            return self._decline("chain-dag")
        self.taskgraph_stats.last_width = graph.max_width
        region = self.stats.regions
        self.stats.regions += 1

        def attempt(i: int) -> bool:
            self._execute_graph(graph, params, region, i)
            return True

        # Whole-graph snapshot: tiles may be half-written when a worker
        # dies; every retry and the final sequential fallback start
        # from these clean buffers, keeping results bit-identical.
        return retry_worker_failures(
            "taskgraph", attempt,
            lambda failure: self._declined("worker-failure"),
            workers=self.num_threads, max_retries=self.max_retries,
            on_failure=self.on_worker_failure, count=self._count,
            restore=self._snapshot_restore(), function=self.fn.name,
            region=region)

    def _count(self, kind: str) -> None:
        super()._count(kind)
        if kind == "retry":
            self.taskgraph_stats.retries += 1

    def _decline(self, reason: str) -> bool:
        record("taskgraph.fallback", function=self.fn.name, reason=reason)
        return self._declined(reason)

    def _declined(self, reason: str) -> bool:
        """Account a declined graph; ``False`` sends the emitted
        preamble to the sequential nest."""
        self.taskgraph_stats.fallbacks += 1
        self.taskgraph_stats.last_reason = reason
        return False

    # -- one execution attempt -------------------------------------------

    def _execute_graph(self, graph: TaskGraph, params: Dict[str, int],
                       region: int, attempt: int) -> None:
        """One attempt at the whole DAG.  Raises
        :class:`WorkerFailureError` for infrastructure failures (broken
        pool, a wait window with zero completions under ``timeout``) —
        the retryable class — and :class:`ExecutionError` for
        exceptions the tile body raised (deterministic, never
        retried)."""
        from repro.driver.resilience import current_deadline
        from repro.faults import get_plan
        from repro.obs.metrics import metrics
        pool = get_pool(self.num_threads)
        if pool is None:
            raise WorkerFailureError("task graph has no active pool")
        plan = get_plan()
        if plan is not None and plan.fires("pool-refusal", op="taskgraph"):
            raise WorkerFailureError(
                "task graph: the worker pool refused the dispatch "
                "(injected)")
        ambient = current_deadline()
        forkjoin = self.scheduler_mode == "forkjoin"
        indeg = [len(t.preds) for t in graph.tasks]
        ready = deque(t.index for t in graph.tasks if not t.preds)
        barrier_held: List[int] = []   # forkjoin: next level's tasks
        futures: Dict[object, object] = {}  # future -> TileTask
        finished = 0
        busy = 0.0
        pids = set(self.stats.worker_pids)
        wall_start = time.perf_counter()
        start_ns = time.perf_counter_ns()
        try:
            while finished < len(graph.tasks):
                if ambient is not None:
                    ambient.check("taskgraph-dispatch")
                while ready and len(futures) < self.num_threads:
                    task = graph.tasks[ready.popleft()]
                    fault = None
                    if plan is not None:
                        site = dict(region=region, chunk=task.index,
                                    attempt=attempt)
                        if plan.fires("worker-crash", **site) is not None:
                            fault = ("crash",)
                        else:
                            spec = plan.fires("worker-hang", **site)
                            if spec is not None:
                                fault = ("hang",
                                         spec.payload.get("seconds", 30.0))
                    try:
                        fut = pool.submit(
                            _exec_tile, self.digest, self.source,
                            self._specs, params, task.bounds, fault)
                    except BrokenProcessPool as exc:
                        raise WorkerFailureError(
                            f"task graph: the worker pool died during "
                            f"dispatch ({exc})") from exc
                    futures[fut] = task
                    record("taskgraph.task.dispatch", task=task.index,
                           coords=list(task.coords), ready=len(ready),
                           inflight=len(futures), attempt=attempt)
                if not futures:
                    if forkjoin and barrier_held:
                        ready.extend(sorted(barrier_held))
                        barrier_held.clear()
                        continue
                    raise ExecutionError(
                        "task graph stalled with no ready tasks "
                        "(cycle?)")  # unreachable for lex-positive DAGs
                done_set, __ = wait(set(futures), timeout=self.timeout,
                                    return_when=FIRST_COMPLETED)
                if not done_set:
                    raise WorkerFailureError(
                        f"task graph: no tile finished within the "
                        f"{self.timeout:g}s timeout (hung worker?)")
                for fut in done_set:
                    task = futures.pop(fut)
                    try:
                        pid, t0, t1 = fut.result()
                    except BrokenProcessPool as exc:
                        raise WorkerFailureError(
                            f"task graph: the worker pool died running "
                            f"tile {task.index} ({exc})") from exc
                    except WorkerFailureError:
                        raise
                    except BaseException as exc:  # noqa: BLE001 app error
                        raise ExecutionError(
                            f"task graph tile {task.index} failed in a "
                            f"worker: {exc}") from exc
                    finished += 1
                    pids.add(pid)
                    seconds = (t1 - t0) / 1e9
                    busy += seconds
                    metrics.histogram("taskgraph.task_seconds").observe(
                        seconds)
                    self._tile_span(task, t0, t1, pid)
                    record("taskgraph.task.done", task=task.index,
                           seconds=seconds, pid=pid)
                    for succ in task.succs:
                        indeg[succ] -= 1
                        if indeg[succ] == 0:
                            if forkjoin:
                                # Barrier policy: a freshly-ready tile
                                # waits for the whole current level.
                                barrier_held.append(succ)
                            else:
                                ready.append(succ)
        finally:
            for fut in futures:
                fut.cancel()
        wall = time.perf_counter() - wall_start
        self.stats.worker_pids = tuple(sorted(pids))
        self.stats.chunks += finished
        self.taskgraph_stats.graphs += 1
        self.taskgraph_stats.tasks += finished
        self.taskgraph_stats.last_busy_seconds = busy
        self.taskgraph_stats.last_wall_seconds = wall
        metrics.counter("taskgraph.tasks").inc(finished)
        if wall > 0:
            metrics.gauge("taskgraph.last_parallelism").set(busy / wall)
        record("taskgraph.complete", function=self.fn.name, tiles=finished,
               mode=self.scheduler_mode, wall_seconds=wall,
               busy_seconds=busy, attempt=attempt, workers=self.num_threads)
        self._graph_span(graph, start_ns, wall, finished)

    # -- tracer hooks -----------------------------------------------------

    def _tile_span(self, task, start_ns: int, end_ns: int,
                   pid: int) -> None:
        from repro.obs.tracer import CAT_WORKER, get_tracer
        tracer = get_tracer()
        if tracer.enabled():
            tracer.add_span(f"taskgraph:tile:{task.index}", CAT_WORKER,
                            start_ns, end_ns, pid=pid,
                            coords=list(task.coords),
                            bounds=[list(b) for b in task.bounds])

    def _graph_span(self, graph: TaskGraph, start_ns: int, wall: float,
                    finished: int) -> None:
        from repro.obs.tracer import CAT_PARALLEL, get_tracer
        tracer = get_tracer()
        if tracer.enabled():
            tracer.add_span("taskgraph:graph", CAT_PARALLEL, start_ns,
                            start_ns + int(wall * 1e9), tiles=finished,
                            mode=self.scheduler_mode,
                            shape=list(graph.shape),
                            max_width=graph.max_width)


@contextmanager
def run_forkjoin(kernel):
    """Benchmark comparator: flip a task-graph kernel's scheduler to
    the barrier-per-wavefront-level policy for the duration — the same
    tiles, the same pool, but a freshly-ready tile always waits for the
    rest of its level (classic fork-join rounds)."""
    runtime = getattr(kernel, "runtime", None)
    if runtime is None or not isinstance(runtime, TaskGraphRuntime):
        raise ExecutionError(
            "run_forkjoin needs a kernel compiled with "
            'execution="taskgraph" and an attached TaskGraphRuntime')
    saved = runtime.scheduler_mode
    runtime.scheduler_mode = "forkjoin"
    try:
        yield runtime
    finally:
        runtime.scheduler_mode = saved
