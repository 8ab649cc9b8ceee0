"""Observability overhead: profiling off must cost nothing.

``profile=False`` (the default) is required to emit byte-identical
source to a pre-observability build — the guarantee is structural, and
this harness checks it both ways: the emitted artifacts are identical,
and best-of-N wall clock of the two compiled kernels stays within 5%.
A second smoke test exports one profiled, traced run and checks the
Chrome-trace JSON holds compile-stage, loop-nest, parallel, and worker
spans on one timeline.

The same contract covers the telemetry export layer (PR 8): with no
``TIRAMISU_EVENT_LOG`` / ``TIRAMISU_METRICS_FILE`` in the environment
the journal probes and the autoflush hook must keep compile+run within
5% of a build with telemetry stubbed out entirely, and *enabling* them
must never change the emitted kernel source — telemetry observes the
compile, it does not participate in it.
"""

import contextlib
import json
import time

import numpy as np

from conftest import bench_note, print_table
from repro.kernels.linalg import build_sgemm
from repro.obs import (CAT_COMPILE, CAT_LOOP, CAT_PARALLEL, CAT_WORKER,
                       get_tracer, read_events, write_trace_file)

PARAMS = {"N": 96, "M": 96, "K": 96}
REPEATS = 7


def _best_of(kernel, inputs, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        fresh = {k: np.copy(v) for k, v in inputs.items()}
        t0 = time.perf_counter()
        kernel(**fresh, **PARAMS)
        best = min(best, time.perf_counter() - t0)
    return best


class TestProfileOffOverhead:
    def test_profile_false_artifacts_identical(self):
        base = build_sgemm()
        k_base = base.function.compile("cpu")
        off = build_sgemm()
        # cache=False so the source is emitted independently rather
        # than served from the registry entry the baseline created
        k_off = off.function.compile("cpu", profile=False, cache=False)
        assert k_off.source == k_base.source
        assert k_off.report.fingerprint == k_base.report.fingerprint

    def test_profile_false_within_5_percent(self):
        base = build_sgemm()
        k_base = base.function.compile("cpu")
        off = build_sgemm()
        k_off = off.function.compile("cpu", profile=False, cache=False)
        inputs = base.make_inputs(PARAMS, np.random.default_rng(0))
        _best_of(k_base, inputs, repeats=2)   # warm both code paths
        _best_of(k_off, inputs, repeats=2)
        # Interleave the two measurements so host-load drift across the
        # benchmark suite hits both kernels equally; best-of cancels the
        # remaining spikes (the kernels are byte-identical, so the true
        # ratio is 1.0 by construction).
        t_base = t_off = float("inf")
        for _ in range(REPEATS):
            t_base = min(t_base, _best_of(k_base, inputs, repeats=1))
            t_off = min(t_off, _best_of(k_off, inputs, repeats=1))
        ratio = t_off / t_base
        print_table("profiling overhead (off)", {
            "baseline best (ms)": f"{t_base * 1e3:.3f}",
            "profile=False best (ms)": f"{t_off * 1e3:.3f}",
            "ratio": f"{ratio:.3f}",
        })
        assert ratio <= 1.05, (t_base, t_off)
        bench_note("profile_off_overhead_ratio", ratio)


@contextlib.contextmanager
def _stubbed_telemetry():
    """Replace the pipeline's record calls and the autoflush hook with
    no-ops — the closest measurable stand-in for a build that never
    had the telemetry layer."""
    from repro.driver import pipeline as pipeline_mod
    from repro.obs import export as export_mod
    saved_record = pipeline_mod.record
    saved_flush = export_mod.autoflush
    pipeline_mod.record = lambda *a, **k: None
    export_mod.autoflush = lambda: None
    try:
        yield
    finally:
        pipeline_mod.record = saved_record
        export_mod.autoflush = saved_flush


def _compile_and_run_seconds():
    bundle = build_sgemm()
    inputs = bundle.make_inputs(PARAMS, np.random.default_rng(0))
    t0 = time.perf_counter()
    kernel = bundle.function.compile("cpu", cache=False)
    kernel(**{k: np.copy(v) for k, v in inputs.items()}, **PARAMS)
    return time.perf_counter() - t0


class TestTelemetryOffOverhead:
    def test_disabled_journal_and_flusher_within_5_percent(
            self, monkeypatch):
        monkeypatch.delenv("TIRAMISU_EVENT_LOG", raising=False)
        monkeypatch.delenv("TIRAMISU_METRICS_FILE", raising=False)
        # Warm both paths (imports, pool state) before measuring.
        _compile_and_run_seconds()
        with _stubbed_telemetry():
            _compile_and_run_seconds()
        t_disabled = t_stubbed = float("inf")
        for _ in range(5):
            t_disabled = min(t_disabled, _compile_and_run_seconds())
            with _stubbed_telemetry():
                t_stubbed = min(t_stubbed, _compile_and_run_seconds())
        ratio = t_disabled / t_stubbed
        print_table("telemetry overhead (disabled)", {
            "stubbed best (ms)": f"{t_stubbed * 1e3:.3f}",
            "disabled best (ms)": f"{t_disabled * 1e3:.3f}",
            "ratio": f"{ratio:.3f}",
        })
        bench_note("telemetry_off_overhead_ratio", ratio)
        assert ratio <= 1.05, (t_stubbed, t_disabled)

    def test_enabling_telemetry_never_changes_emitted_source(
            self, tmp_path, monkeypatch):
        monkeypatch.delenv("TIRAMISU_EVENT_LOG", raising=False)
        monkeypatch.delenv("TIRAMISU_METRICS_FILE", raising=False)
        base = build_sgemm()
        k_base = base.function.compile("cpu", cache=False)

        journal = tmp_path / "events.jsonl"
        exposition = tmp_path / "metrics.prom"
        monkeypatch.setenv("TIRAMISU_EVENT_LOG", str(journal))
        monkeypatch.setenv("TIRAMISU_METRICS_FILE", str(exposition))
        on = build_sgemm()
        k_on = on.function.compile("cpu", cache=False)

        assert k_on.source == k_base.source
        assert k_on.report.fingerprint == k_base.report.fingerprint
        # ... and the telemetry really was live, not silently off.
        names = {e["name"] for e in read_events(str(journal))}
        assert {"compile.begin", "compile.end"} <= names
        assert exposition.exists()


class TestTraceExportSmoke:
    def test_trace_json_holds_all_span_kinds(self, tmp_path):
        tracer = get_tracer()
        tracer.clear()
        tracer.set_enabled(True)
        try:
            bundle = build_sgemm()
            # parallelize only acc: scale's nest stays sequential, so
            # the export shows loop-nest AND parallel/worker spans
            bundle.computations["acc"].parallelize("i")
            kernel = bundle.function.compile(
                "cpu", profile=True, num_threads=2, cache=False)
            inputs = bundle.make_inputs(PARAMS,
                                        np.random.default_rng(0))
            kernel(**{k: np.copy(v) for k, v in inputs.items()},
                   **PARAMS)
            dest = tmp_path / "trace.json"
            assert write_trace_file(str(dest)) == str(dest)
        finally:
            tracer.set_enabled(None)
            tracer.clear()
        doc = json.loads(dest.read_text())
        events = doc["traceEvents"]
        cats = {e["cat"] for e in events}
        assert {CAT_COMPILE, CAT_LOOP, CAT_PARALLEL, CAT_WORKER} <= cats
        assert all(e["ph"] == "X" for e in events)
        stage_names = {e["name"] for e in events
                       if e["cat"] == CAT_COMPILE}
        assert "compile:emit" in stage_names
        print_table("trace export", {
            "events": len(events),
            "categories": ", ".join(sorted(cats)),
        })
