"""Runtime observability: per-computation profiles, span tracing,
worker metrics.

Three cooperating pieces (see docs/observability.md):

* :mod:`repro.obs.runreport` — ``profile=True`` kernels attach a
  :class:`RunReport` (iterations / wall ns / bytes written per
  computation) to ``kernel.last_run`` after every call;
* :mod:`repro.obs.tracer` — a span timeline joining compile stages,
  runtime loop nests and parallel-worker chunks, exported as
  Chrome-trace/Perfetto JSON via ``TIRAMISU_TRACE_FILE=out.json``;
* :mod:`repro.obs.metrics` — a process-safe counters/gauges/histograms
  registry the parallel worker pool feeds (chunk timings and sizes,
  shared-memory staging costs), aggregated in the parent;
* :mod:`repro.obs.events` — an append-only structured JSONL event
  journal (``TIRAMISU_EVENT_LOG``) with a per-compile correlation id
  threaded through the driver, cache tiers, batch front end, fault
  paths and autoscheduler search, and :func:`record`, the one call
  every producer reports a fact through (counter + journal line +
  timeline marker);
* :mod:`repro.obs.export` — OpenMetrics/Prometheus text and JSON
  snapshot writers over the registry (``TIRAMISU_METRICS_FILE``), with
  an optional periodic background flusher
  (``TIRAMISU_METRICS_INTERVAL``);
* :mod:`repro.obs.bench` — the benchmark-trajectory recorder behind
  ``BENCH_obs.json`` and the ``python -m repro.obs.bench --compare``
  regression gate.
"""

from .events import (EVENT_LOG_ENV, EventJournal, compile_context,
                     configure_event_log, current_compile_id, emit,
                     event_log_path, events_enabled, new_compile_id,
                     read_events, record, reset_event_log_configuration)
from .export import (METRICS_FILE_ENV, METRICS_INTERVAL_ENV,
                     MetricsFlusher, metrics_file_path, parse_openmetrics,
                     render_json, render_openmetrics, start_flusher,
                     stop_flusher, write_metrics_file)
from .metrics import (Counter, Gauge, Histogram, MetricNameError,
                      MetricsRegistry, metrics)
from .runreport import (CompRecord, RunCollector, RunReport,
                        build_run_report)
from .tracer import (CAT_COMPILE, CAT_LOOP, CAT_PARALLEL, CAT_WORKER, Span,
                     TRACE_FILE_ENV, Tracer, get_tracer, trace_file_path,
                     write_trace_file)

__all__ = [
    "CAT_COMPILE",
    "CAT_LOOP",
    "CAT_PARALLEL",
    "CAT_WORKER",
    "CompRecord",
    "Counter",
    "EVENT_LOG_ENV",
    "EventJournal",
    "Gauge",
    "Histogram",
    "METRICS_FILE_ENV",
    "METRICS_INTERVAL_ENV",
    "MetricNameError",
    "MetricsFlusher",
    "MetricsRegistry",
    "RunCollector",
    "RunReport",
    "Span",
    "TRACE_FILE_ENV",
    "Tracer",
    "build_run_report",
    "compile_context",
    "configure_event_log",
    "current_compile_id",
    "emit",
    "event_log_path",
    "events_enabled",
    "get_tracer",
    "metrics",
    "metrics_file_path",
    "new_compile_id",
    "parse_openmetrics",
    "read_events",
    "record",
    "render_json",
    "render_openmetrics",
    "reset_event_log_configuration",
    "start_flusher",
    "stop_flusher",
    "trace_file_path",
    "write_metrics_file",
    "write_trace_file",
]
