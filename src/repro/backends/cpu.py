"""The multicore CPU backend: Layer IV -> Python/NumPy source -> kernel.

This plays the role of the paper's LLVM backend (reached through Halide
lowering in the original system): the polyhedral AST is emitted as
executable code.  Loops tagged ``vector`` become NumPy array arithmetic;
top-level loops tagged ``parallel`` become chunked worker functions that
execute on a real multicore pool (:mod:`repro.backends.parallel`) when
``num_threads`` resolves to two or more workers, and run sequentially
otherwise.  The modeled speedups in :mod:`repro.machine.cpu_model`
remain available for the paper-scale figures.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from repro.codegen.pyemit import (_PRELUDE, _PROFILE_PRELUDE, Emitter,
                                  _buf_var, profile_counted_comps)
from repro.core.buffer import ArgKind, Buffer
from repro.core.errors import ExecutionError
from repro.core.function import Function
from repro.driver.registry import Backend, register_backend

from .common import (bind_python_kernel, collect_buffers,
                     infer_argument_kinds)
from .evalexpr import eval_const_expr


class CompiledKernel:
    """A callable compiled Tiramisu function."""

    def __init__(self, fn: Function, source: str, pyfunc, buffers,
                 param_names):
        self.fn = fn
        self.source = source
        self._pyfunc = pyfunc
        self.buffers = buffers
        self.param_names = list(param_names)
        self.runtime = None  # ParallelRuntime when multicore is active
        self.profiled = False   # compiled with profile=True
        self.last_run = None    # RunReport of the latest profiled call

    def argument_names(self) -> List[str]:
        return [b.name for b in self.buffers
                if b.kind != ArgKind.TEMPORARY] + self.param_names

    def __call__(self, _runtime=None, **kwargs):
        params = {}
        for p in self.param_names:
            if p not in kwargs:
                raise ExecutionError(f"missing parameter {p!r}")
            params[p] = int(kwargs.pop(p))
        arrays: Dict[str, np.ndarray] = {}
        outputs: Dict[str, np.ndarray] = {}
        for buf in self.buffers:
            if buf.kind == ArgKind.INPUT:
                if buf.name not in kwargs:
                    raise ExecutionError(f"missing input buffer {buf.name!r}")
                arrays[buf.name] = np.asarray(kwargs.pop(buf.name))
            elif buf.kind == ArgKind.INOUT:
                if buf.name not in kwargs:
                    raise ExecutionError(f"missing inout buffer {buf.name!r}")
                arrays[buf.name] = np.asarray(kwargs.pop(buf.name))
                outputs[buf.name] = arrays[buf.name]
            elif buf.kind == ArgKind.OUTPUT:
                arr = kwargs.pop(buf.name, None)
                if arr is None:
                    arr = buf.allocate(params)
                arrays[buf.name] = arr
                outputs[buf.name] = arr
            else:
                arrays[buf.name] = buf.allocate(params)
        if kwargs:
            raise ExecutionError(f"unknown arguments: {sorted(kwargs)}")
        runtime = _runtime if _runtime is not None else self.runtime
        collector = None
        if self.profiled:
            from repro.obs import RunCollector
            collector = RunCollector()
        call_args = (params, runtime) if collector is None \
            else (params, runtime, collector)
        par_before = self._parallel_marks(runtime)
        start_ns = time.perf_counter_ns()
        if runtime is not None and getattr(runtime, "sharing", None) \
                and runtime.enabled():
            with runtime.sharing(arrays) as shared:
                self._pyfunc(shared, *call_args)
        else:
            self._pyfunc(arrays, *call_args)
        if collector is not None:
            self._attach_run_report(
                collector, time.perf_counter_ns() - start_ns,
                runtime, par_before)
        return outputs

    @staticmethod
    def _parallel_marks(runtime):
        if runtime is None:
            return (0, 0)
        return (runtime.stats.regions, runtime.stats.chunks)

    def _attach_run_report(self, collector, wall_ns, runtime,
                           par_before) -> None:
        """Build the RunReport for one finished profiled call and hand
        its spans to the global tracer."""
        from repro.obs import build_run_report, get_tracer
        parallel = {}
        if runtime is not None:
            regions0, chunks0 = par_before
            parallel = {
                "regions": runtime.stats.regions - regions0,
                "chunks": runtime.stats.chunks - chunks0,
                "workers": runtime.num_threads,
                "worker_pids": list(runtime.stats.worker_pids),
            }
        report = build_run_report(
            function=self.fn.name,
            target=getattr(getattr(self, "report", None), "target", "cpu"),
            wall_ns=wall_ns, collector=collector,
            comp_names=[name for name, __ in
                        profile_counted_comps(self.fn)],
            parallel=parallel)
        self.last_run = report
        tracer = get_tracer()
        if tracer.enabled():
            tracer.record_run(report)


def emit_source(fn: Function, emitter_cls=Emitter, ast=None,
                profile: bool = False, taskgraph: bool = False) -> str:
    """Emit the Python/NumPy kernel source.  ``ast`` is the staged
    driver's pre-lowered AST; without it the function lowers itself.
    Chunked parallel body functions (if any) precede ``_kernel``.
    ``profile=True`` adds per-computation counters and loop-nest spans
    reporting into an ``_obs`` collector (see repro.obs); off, the
    source is byte-identical to an unprofiled build.

    ``taskgraph=True`` (the ``execution="taskgraph"`` compile option)
    additionally emits — when the nest is eligible, see
    :meth:`~repro.codegen.pyemit.Emitter.try_taskgraph` — a
    ``_tile_body`` / ``_tile_grid`` pair plus a ``_TASKGRAPH_DIMS``
    marker, and a dispatch preamble in ``_kernel`` that hands the whole
    nest to an attached task-graph runtime; when the runtime declines
    (pool unavailable, chain DAG, ...) the preamble falls through to
    the unchanged nest, so results stay bit-identical to sequential.
    Profiled builds skip task-graph emission (per-tile counters are
    not aggregated); the option then degrades to the normal path."""
    if ast is None:
        infer_argument_kinds(fn)
        ast = fn.lower()
    emitter = emitter_cls(fn, fn.param_names, profile=profile) \
        if profile else emitter_cls(fn, fn.param_names)
    tg_dims = None
    if taskgraph and not profile:
        tg_dims = emitter.try_taskgraph(ast)
    if profile:
        emitter.line("def _kernel(_bufs, _params, _runtime=None, "
                     "_obs=None):")
    else:
        emitter.line("def _kernel(_bufs, _params, _runtime=None):")
    emitter.indent += 1
    if tg_dims:
        emitter.line("_tg = getattr(_runtime, 'run_taskgraph', None)")
        emitter.line("if _tg is not None and _tg(_params):")
        emitter.indent += 1
        emitter.line("return  # the task-graph runtime ran the nest")
        emitter.indent -= 1
    emitter.emit_prologue()
    emitter.emit_block(ast)
    if profile:
        emitter.emit_profile_flush()
    emitter.indent -= 1
    bodies = "".join(body + "\n" for body in emitter.parallel_bodies)
    bodies += "".join(body + "\n" for body in emitter.taskgraph_bodies)
    if tg_dims:
        bodies += f"_TASKGRAPH_DIMS = {tg_dims}\n\n"
    prelude = _PRELUDE + (_PROFILE_PRELUDE if profile else "")
    return prelude + "\n" + bodies + emitter.buf.getvalue()


@register_backend
class CpuBackend(Backend):
    """The multicore CPU target: Python/NumPy emission + exec binding."""

    name = "cpu"
    parallel_execution = True
    # bind() only exec()s ctx.source against ctx.fn, so kernels rebuild
    # from stored source: eligible for the disk tier and batch offload.
    bind_from_source = True

    def emit(self, ctx) -> str:
        return emit_source(
            ctx.fn, ast=ctx.ast, profile=bool(ctx.opt("profile")),
            taskgraph=ctx.opt("execution", "forkjoin") == "taskgraph")

    def bind(self, ctx) -> CompiledKernel:
        pyfunc = bind_python_kernel(ctx.fn, ctx.source, "tiramisu")
        kernel = CompiledKernel(ctx.fn, ctx.source, pyfunc,
                                collect_buffers(ctx.fn),
                                ctx.fn.param_names)
        kernel.profiled = bool(ctx.opt("profile"))
        kernel.parallel_regions = ctx.source.count("\ndef _par_body_")
        taskgraph = ("\n_TASKGRAPH_DIMS = " in ctx.source
                     and ctx.opt("execution", "forkjoin") == "taskgraph")
        if taskgraph and ctx.opt("parallel", True):
            from repro.runtime.scheduler import TaskGraphRuntime
            from .parallel import resolve_num_threads
            workers = resolve_num_threads(ctx.opt("num_threads"))
            if workers >= 2:
                kernel.runtime = TaskGraphRuntime(
                    ctx.source, ctx.fn, workers,
                    max_retries=ctx.opt("max_retries", 2),
                    timeout=ctx.opt("timeout"),
                    on_worker_failure=ctx.opt("on_worker_failure",
                                              "fallback"))
                return kernel
        if kernel.parallel_regions and ctx.opt("parallel", True):
            from .parallel import ParallelRuntime, resolve_num_threads
            workers = resolve_num_threads(ctx.opt("num_threads"))
            if workers >= 2:
                kernel.runtime = ParallelRuntime(
                    ctx.source, workers, profiled=kernel.profiled,
                    max_retries=ctx.opt("max_retries", 2),
                    timeout=ctx.opt("timeout"),
                    on_worker_failure=ctx.opt("on_worker_failure",
                                              "fallback"))
        return kernel
