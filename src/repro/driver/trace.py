"""Per-stage compile profiling: stage timings, cache counters, trace.

Every compiled kernel carries a :class:`CompileReport` (``kernel.report``)
recording wall time per pipeline stage, whether the compile was served
from the content-addressed cache, the emitted source size, and a
snapshot of the cache counters.  Setting ``TIRAMISU_TRACE=1`` in the
environment (or calling :func:`set_trace`) prints the stage table to
stderr after every compile — the autoscheduler's and benchmark
harness's way of seeing where compile time goes.
"""

from __future__ import annotations

import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .stats import CacheStats

TRACE_ENV = "TIRAMISU_TRACE"

_forced: Optional[bool] = None


def set_trace(enabled: Optional[bool]) -> None:
    """Force tracing on/off programmatically; ``None`` defers to the
    ``TIRAMISU_TRACE`` environment variable again."""
    global _forced
    _forced = enabled


def trace_enabled() -> bool:
    if _forced is not None:
        return _forced
    return os.environ.get(TRACE_ENV, "").strip() not in ("", "0", "false",
                                                         "off")


@contextmanager
def traced(enabled: Optional[bool] = True):
    """Force tracing on (or off) for a ``with`` block, then restore the
    previous forced state — tests and harness runs cannot leak trace
    state into each other."""
    global _forced
    saved = _forced
    _forced = enabled
    try:
        yield
    finally:
        _forced = saved


@dataclass
class StageTiming:
    """Wall time of one named pipeline stage.

    ``start`` is the ``time.perf_counter()`` value at stage entry, which
    places the stage on the observability tracer's timeline
    (:meth:`repro.obs.tracer.Tracer.record_compile`)."""

    name: str
    seconds: float
    start: float = 0.0


@dataclass
class CompileReport:
    """What one ``compile()`` call did and what it cost."""

    function: str
    target: str
    fingerprint: str = ""
    #: The correlation id tying this compile's events
    #: (:mod:`repro.obs.events`), tracer spans and report together —
    #: issued by the pipeline, or inherited from an ambient
    #: :func:`repro.obs.events.compile_context` (the batch front end
    #: issues ids at submit time).
    compile_id: str = ""
    cache_hit: bool = False
    #: Served from the durable on-disk artifact tier (the compile
    #: skipped every lowering stage and re-bound stored source); see
    #: :mod:`repro.driver.diskcache`.
    disk_hit: bool = False
    stages: List[StageTiming] = field(default_factory=list)
    source_size: int = 0
    deps_checked: Optional[int] = None
    races_checked: Optional[int] = None
    parallel_regions: int = 0
    parallel_workers: Optional[int] = None
    #: Point-in-time counters of every cache tier this compile saw, by
    #: tier name: ``memory``, ``disk`` (when active), ``isl.empty`` and
    #: ``isl.compose``.  Snapshotted at finish time; the counters are
    #: cumulative across compiles.
    caches: Dict[str, CacheStats] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return sum(s.seconds for s in self.stages)

    def stage_seconds(self, name: str) -> Optional[float]:
        for s in self.stages:
            if s.name == name:
                return s.seconds
        return None

    def stage_names(self) -> List[str]:
        return [s.name for s in self.stages]

    @contextmanager
    def timed(self, name: str):
        """Time a pipeline stage and append it to the report."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.stages.append(
                StageTiming(name, time.perf_counter() - start, start))

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (consumed by the trace exporter and
        harness dumps)."""
        return {
            "function": self.function,
            "target": self.target,
            "fingerprint": self.fingerprint,
            "compile_id": self.compile_id,
            "cache_hit": self.cache_hit,
            "disk_hit": self.disk_hit,
            "stages": [{"name": s.name, "seconds": s.seconds,
                        "start": s.start} for s in self.stages],
            "total_seconds": self.total_seconds,
            "source_size": self.source_size,
            "deps_checked": self.deps_checked,
            "races_checked": self.races_checked,
            "parallel_regions": self.parallel_regions,
            "parallel_workers": self.parallel_workers,
            "caches": {name: stats.as_dict()
                       for name, stats in self.caches.items()},
        }

    def format_table(self) -> str:
        if self.cache_hit:
            verdict = "hit"
        elif self.disk_hit:
            verdict = "disk hit"
        else:
            verdict = "miss"
        lines = [f"== tiramisu compile: {self.function} -> {self.target} "
                 f"[cache {verdict}] =="]
        # Size the stage column to the longest name so long stage names
        # (e.g. race-check descendants) keep the ms column aligned.
        width = max([16] + [len(s.name) for s in self.stages])
        lines.append(f"  {'stage':<{width}} {'ms':>10}")
        for s in self.stages:
            lines.append(f"  {s.name:<{width}} {s.seconds * 1e3:>10.3f}")
        lines.append(
            f"  {'total':<{width}} {self.total_seconds * 1e3:>10.3f}")
        if self.source_size:
            lines.append(f"  source: {self.source_size} bytes")
        if self.deps_checked is not None:
            lines.append(f"  legality: {self.deps_checked} dependences "
                         "checked")
        if self.races_checked is not None:
            lines.append(f"  race-check: {self.races_checked} tagged "
                         "levels race-free")
        if self.parallel_regions:
            workers = self.parallel_workers or 1
            lines.append(f"  parallel: {self.parallel_regions} region(s) "
                         f"x {workers} worker(s)")
        for name, stats in self.caches.items():
            lines.append(f"  {name} cache: {stats.format_line()}")
        lines.append(f"  key: {self.fingerprint[:16]}")
        if self.compile_id:
            lines.append(f"  compile id: {self.compile_id}")
        return "\n".join(lines)


def emit_trace(report: CompileReport, stream=None) -> None:
    """Print the stage table when tracing is enabled."""
    if not trace_enabled():
        return
    print(report.format_table(), file=stream if stream is not None
          else sys.stderr)
