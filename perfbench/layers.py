"""Per-layer metrics: what each workload observed in its traced rounds,
and the metric values derived from those observations and the span
trace.  Every per-layer metric is computed on every workload; one whose
layer did no such work there reads 0.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from catalogue import execute_variants, speedup_pairs, tune_kernels
from harness import Trace, geomean, mean, median

#: Compile stages -> the per-layer metric that owns them.  Every stage
#: the pipeline can report appears here, so the stage metrics plus
#: ``driver.unattributed_ms`` add up to ``driver.compile_wall_ms``.
STAGE_METRICS = {
    "ensure-params": "driver.fingerprint_ms",
    "fingerprint": "driver.fingerprint_ms",
    "autoschedule": "autosched.apply_ms",
    "legality": "core.legality_ms",
    "beta-resolution": "core.beta_ms",
    "time-space": "codegen.time_space_ms",
    "ast": "codegen.ast_ms",
    "race-check": "core.race_check_ms",
    "emit": "codegen.emit_ms",
    "bind": "backends.bind_ms",
    "disk-load": "driver.disk_load_ms",
    "disk-store": "driver.disk_store_ms",
}

#: The span every workload wraps a compile request in.
COMPILE_SPANS = ("Function.compile", "BatchCompiler.submit")


@dataclass
class Observations:
    """Raw per-operation observations of the traced rounds (and, for
    the op latencies, the untraced rounds of a traced run)."""

    #: (empty hits, empty misses, compose hits, compose misses) per op.
    isl: List[Tuple[int, int, int, int]] = field(default_factory=list)
    rejected: Set[str] = field(default_factory=set)
    source_bytes: List[int] = field(default_factory=list)
    gcc_seconds: List[float] = field(default_factory=list)
    #: variant -> kernel-call seconds (execute)
    runs: Dict[str, List[float]] = field(default_factory=lambda:
                                         defaultdict(list))
    #: per parallel fork-join call: (wall, chunks, chunk total, longest
    #: chunk, shared-memory staging seconds, imbalance)
    parallel: List[Tuple[float, int, float, float, float, float]] = \
        field(default_factory=list)
    #: per task-graph call: (tasks, task seconds, busy, wall, fallbacks)
    runtime: List[Tuple[int, float, float, float, int]] = \
        field(default_factory=list)
    #: service: summed BatchStats fields, per-lifetime worker compiles,
    #: and submit-to-result minus stage sum of each job's first request
    batch: Dict[str, int] = field(default_factory=lambda:
                                  defaultdict(int))
    worker_compiles: List[int] = field(default_factory=list)
    batch_wait: List[float] = field(default_factory=list)
    #: tune: per search (kernel, candidates, pruned, oracle calls, plan
    #: speedup estimate)
    searches: List[Tuple[str, int, int, int, float]] = \
        field(default_factory=list)
    tuned_runs: Dict[str, List[float]] = field(default_factory=lambda:
                                               defaultdict(list))
    naive_runs: Dict[str, List[float]] = field(default_factory=lambda:
                                               defaultdict(list))
    #: (traced?, op key) -> op latencies, for the overhead ratio
    ops: Dict[Tuple[bool, str], List[float]] = field(
        default_factory=lambda: defaultdict(list))
    #: counts that must repeat exactly from run to run (self-test)
    exact: Dict[str, list] = field(default_factory=dict)

    def op(self, traced: bool, key: str, seconds: float) -> None:
        """One timed operation of a traced run, traced or not."""
        self.ops[(traced, key)].append(seconds)

    def record_exact(self, key: str, value) -> None:
        """Every distinct value a must-repeat count took in this run."""
        seen = self.exact.setdefault(key, [])
        if value not in seen:
            seen.append(value)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _compile_attribution(trace: Trace) -> Dict[str, Tuple[float, str]]:
    """Stage self-times per compile request, from the compile spans and
    their ``stage.*`` children.  Disk load/store are per occurrence."""
    kids = trace.children()
    compiles = [sp for sp in trace.spans if sp.name in COMPILE_SPANS
                and any(k.name.startswith("stage.")
                        for k in kids.get(sp.id, ()))]
    n = len(compiles)
    totals: Dict[str, float] = defaultdict(float)
    occurrences: Dict[str, int] = defaultdict(int)
    unattributed = 0.0
    for sp in compiles:
        stages = [k for k in kids[sp.id] if k.name.startswith("stage.")]
        unattributed += trace.self_seconds(sp, stages)
        for st in stages:
            metric = STAGE_METRICS.get(st.name[len("stage."):],
                                       "driver.other_stage_ms")
            totals[metric] += st.seconds
            occurrences[metric] += 1
    base = f"mean over {n} compile requests"
    out = {}
    for metric in set(STAGE_METRICS.values()) | {"driver.other_stage_ms"}:
        if metric in ("driver.disk_load_ms", "driver.disk_store_ms"):
            k = occurrences.get(metric, 0)
            out[metric] = (1e3 * _ratio(totals.get(metric, 0.0), k),
                           f"mean over {k} occurrences")
        else:
            out[metric] = (1e3 * _ratio(totals.get(metric, 0.0), n), base)
    out["driver.unattributed_ms"] = (1e3 * _ratio(unattributed, n), base)
    out["driver.compile_wall_ms"] = (
        1e3 * _ratio(sum(sp.seconds for sp in compiles), n), base)
    return out


def per_layer_metrics(obs: Observations, trace: Trace
                      ) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, base)``."""
    out = _compile_attribution(trace)

    ops = len(obs.isl)
    eh, em, ch, cm = (sum(x[i] for x in obs.isl) for i in range(4))
    out["isl.empty.calls"] = (_ratio(eh + em, ops), f"per op over {ops}")
    out["isl.empty_cache.hit_ratio"] = (_ratio(eh, eh + em),
                                        f"of {eh + em} calls")
    out["isl.compose_cache.hit_ratio"] = (_ratio(ch, ch + cm),
                                          f"of {ch + cm} calls")
    out["core.rejected"] = (len(obs.rejected),
                            "kernels refused: "
                            + (",".join(sorted(obs.rejected)) or "none"))
    out["codegen.source_bytes"] = (mean(obs.source_bytes),
                                   f"mean over {len(obs.source_bytes)}")
    out["backends.c.gcc_ms"] = (1e3 * mean(obs.gcc_seconds),
                                f"mean bind of {len(obs.gcc_seconds)} "
                                "c kernels in set-up")

    for v in execute_variants():
        samples = obs.runs.get(v.name, [])
        out[f"run.{v.name}.p50_ms"] = (1e3 * median(samples),
                                       f"n={len(samples)}")
    for name, base in speedup_pairs():
        a, b = median(obs.runs.get(name, [])), \
            median(obs.runs.get(base, []))
        out[f"speedup.{name}_vs_simplest"] = (_ratio(b, a),
                                              f"base {base}")

    par = obs.parallel
    calls = len(par)
    chunks = sum(p[1] for p in par)
    out["backends.parallel.chunks_per_call"] = (_ratio(chunks, calls),
                                                f"over {calls} calls")
    out["backends.parallel.chunk_ms"] = (
        1e3 * _ratio(sum(p[2] for p in par), chunks), f"over {chunks}")
    out["backends.parallel.shm_stage_ms"] = (
        1e3 * _ratio(sum(p[4] for p in par), calls), "per call")
    out["backends.parallel.imbalance"] = (
        mean(p[5] for p in par), "longest/shortest chunk, mean per call")
    out["backends.parallel.dispatch_ms"] = (
        1e3 * mean(p[0] - p[3] for p in par),
        "call wall minus longest chunk, per call")

    rt = obs.runtime
    n_rt = len(rt)
    tasks = sum(r[0] for r in rt)
    out["runtime.tasks_per_call"] = (_ratio(tasks, n_rt),
                                     f"over {n_rt} calls")
    out["runtime.task_ms"] = (1e3 * _ratio(sum(r[1] for r in rt), tasks),
                              f"over {tasks} tasks")
    out["runtime.parallelism"] = (
        _ratio(sum(r[2] for r in rt), sum(r[3] for r in rt)),
        "busy over wall")
    out["runtime.fallbacks"] = (_ratio(sum(r[4] for r in rt), n_rt),
                                "per call")

    b = obs.batch
    sub = b.get("submitted", 0)
    out["driver.memory_hit_ratio"] = (_ratio(b.get("memory_hits", 0), sub),
                                      f"of {sub} requests")
    out["driver.disk_hit_ratio"] = (_ratio(b.get("disk_hits", 0), sub),
                                    f"of {sub} requests")
    out["driver.batch.dedup_ratio"] = (_ratio(b.get("deduplicated", 0),
                                              sub), f"of {sub} requests")
    out["driver.batch.worker_compiles"] = (
        mean(obs.worker_compiles),
        f"per service lifetime over {len(obs.worker_compiles)}")
    out["driver.batch.wait_ms"] = (
        1e3 * mean(obs.batch_wait),
        f"submit-to-result minus stages, over {len(obs.batch_wait)} jobs")

    s = obs.searches
    cands = sum(x[1] for x in s)
    out["autosched.candidates"] = (_ratio(cands, len(s)),
                                   f"per search over {len(s)}")
    out["autosched.legal_ratio"] = (_ratio(cands - sum(x[2] for x in s),
                                           cands), f"of {cands}")
    out["machine.oracle_calls"] = (_ratio(sum(x[3] for x in s), len(s)),
                                   "per search")
    searches = trace.named("autoschedule")
    kids = trace.children()
    oracle = [sum(k.seconds for k in kids.get(sp.id, ())
                  if k.name == "ModelOracle.score") for sp in searches]
    out["machine.oracle_ms"] = (1e3 * mean(oracle), "per search")
    out["autosched.self_ms"] = (
        1e3 * mean(trace.self_seconds(sp, kids.get(sp.id, []))
                   for sp in searches), "search minus oracle, per search")
    for v in tune_kernels():
        tuned, naive = median(obs.tuned_runs.get(v.name, [])), \
            median(obs.naive_runs.get(v.name, []))
        gain = _ratio(naive, tuned)
        out[f"autosched.tuned_vs_naive.{v.name}"] = (
            gain, f"base unscheduled {v.name}")
        estimates = [x[4] for x in s if x[0] == v.name]
        out[f"machine.predicted_vs_measured.{v.name}"] = (
            _ratio(median(estimates), gain),
            "oracle speedup estimate / measured")
    keys = sorted({k for t, k in obs.ops if t} & {k for t, k in obs.ops
                                                  if not t})
    out["obs.trace_overhead_ratio"] = (
        geomean(_ratio(median(obs.ops[(True, k)]),
                       median(obs.ops[(False, k)])) for k in keys),
        f"traced over untraced median op, geomean over {len(keys)} "
        "kinds of op")
    return out
