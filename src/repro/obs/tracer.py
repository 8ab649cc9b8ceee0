"""Span-based tracing across compile and run (one timeline).

The tracer collects :class:`Span` records from its producers —
compile-pipeline stages (re-using :class:`repro.driver.trace.
CompileReport` timings), runtime loop-nest spans emitted by profiled
kernels, and parallel-worker chunk spans reported back by the worker
pool, plus a zero-length marker for every fact reported through
:func:`repro.obs.events.record` — and exports them in the Chrome-trace
(Perfetto) JSON event format, so ``chrome://tracing`` or
https://ui.perfetto.dev can render compile and execution on one
timeline.

Enabling: set ``TIRAMISU_TRACE_FILE=out.json`` in the environment (the
file is written at interpreter exit, or eagerly via
:func:`write_trace_file`), or force collection programmatically with
``get_tracer().set_enabled(True)``.

All timestamps are ``time.perf_counter_ns`` values: one monotonic clock
shared by the compile pipeline, the kernel wrapper and (on fork-start
platforms) the worker processes, which is what makes the single
timeline line up.
"""

from __future__ import annotations

import atexit
import json
import os
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional

TRACE_FILE_ENV = "TIRAMISU_TRACE_FILE"

#: Span categories used by the built-in producers.
CAT_COMPILE = "compile-stage"
CAT_LOOP = "loop-nest"
CAT_PARALLEL = "parallel"
CAT_WORKER = "worker"


@dataclass
class Span:
    """One closed interval on the timeline."""

    name: str
    cat: str
    start_ns: int
    dur_ns: int
    pid: int
    tid: object = "main"
    args: Dict[str, object] = field(default_factory=dict)

    def to_event(self) -> Dict[str, object]:
        """The Chrome-trace "complete event" (``ph: "X"``) form;
        timestamps are microseconds."""
        return {
            "name": self.name,
            "cat": self.cat,
            "ph": "X",
            "ts": self.start_ns / 1e3,
            "dur": self.dur_ns / 1e3,
            "pid": self.pid,
            "tid": self.tid,
            "args": dict(self.args),
        }


class Tracer:
    """A thread-safe append-only span log with Chrome-trace export."""

    def __init__(self):
        self._spans: List[Span] = []
        self._lock = threading.Lock()
        self._forced: Optional[bool] = None

    # -- enablement -------------------------------------------------------

    def set_enabled(self, enabled: Optional[bool]) -> None:
        """Force collection on/off; ``None`` defers to the
        ``TIRAMISU_TRACE_FILE`` environment variable again."""
        self._forced = enabled

    def enabled(self) -> bool:
        if self._forced is not None:
            return self._forced
        return bool(trace_file_path())

    # -- recording --------------------------------------------------------

    def add(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    def add_span(self, name: str, cat: str, start_ns: int, end_ns: int,
                 tid: object = "main", **args) -> None:
        self.add(Span(name=name, cat=cat, start_ns=int(start_ns),
                      dur_ns=max(0, int(end_ns) - int(start_ns)),
                      pid=os.getpid(), tid=tid, args=args))

    @contextmanager
    def span(self, name: str, cat: str = "span", **args):
        """Time a ``with`` block into one span (no-op when disabled)."""
        if not self.enabled():
            yield
            return
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.add_span(name, cat, start, time.perf_counter_ns(), **args)

    def record_compile(self, report) -> None:
        """Convert a :class:`~repro.driver.trace.CompileReport`'s stage
        timings into compile-stage spans on this timeline.  Spans carry
        the report's ``compile_id``, so the trace joins against the
        event journal (:mod:`repro.obs.events`) on one correlation
        key."""
        verdict = "hit" if report.cache_hit else "miss"
        extra = {}
        compile_id = getattr(report, "compile_id", "")
        if compile_id:
            extra["compile_id"] = compile_id
        for stage in report.stages:
            start_ns = int(stage.start * 1e9)
            self.add_span(
                f"compile:{stage.name}", CAT_COMPILE, start_ns,
                start_ns + int(stage.seconds * 1e9),
                tid=f"compile {report.function}->{report.target}",
                function=report.function, target=report.target,
                cache=verdict, key=report.fingerprint[:16], **extra)

    def record_run(self, run_report) -> None:
        """Append a profiled run's loop-nest and worker spans."""
        for span in run_report.spans:
            self.add(span)

    # -- consumption ------------------------------------------------------

    def spans(self) -> List[Span]:
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    # -- export -----------------------------------------------------------

    def to_chrome_trace(self) -> Dict[str, object]:
        return {
            "traceEvents": [s.to_event() for s in self.spans()],
            "displayTimeUnit": "ms",
        }

    def export(self, path: str) -> str:
        """Write the Chrome-trace JSON to ``path``; returns the path.

        Atomic (temp file + ``os.replace``): exporting while other
        threads are still emitting spans — the eager-flush path for
        fault-injected runs — always leaves a complete, parseable
        document on disk, never a torn one.  The span list itself is
        copied under the tracer lock, so a concurrent ``add`` is either
        wholly in this export or wholly in the next."""
        doc = self.to_chrome_trace()
        directory = os.path.dirname(os.path.abspath(path))
        fd, tmp_name = tempfile.mkstemp(prefix=".tiramisu-trace-",
                                        dir=directory)
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(doc, fh, indent=1)
            os.replace(tmp_name, path)
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path


_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-global tracer instance."""
    return _TRACER


def trace_file_path() -> Optional[str]:
    """The ``TIRAMISU_TRACE_FILE`` destination, or None."""
    path = os.environ.get(TRACE_FILE_ENV, "").strip()
    return path or None


def write_trace_file(path: Optional[str] = None) -> Optional[str]:
    """Export the global tracer to ``path`` (default: the env var's
    destination).  Returns the written path, or None when there is no
    destination or nothing was recorded."""
    path = path or trace_file_path()
    if not path or len(_TRACER) == 0:
        return None
    return _TRACER.export(path)


@atexit.register
def _flush_at_exit() -> None:  # pragma: no cover - exercised at exit
    try:
        write_trace_file()
    except OSError:
        pass
