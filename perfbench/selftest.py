"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [workload ...]

Checks ``BENCHMARK.json`` against the contract the runner relies on,
then runs every workload at a tiny size: once untraced, checking that
each end-to-end metric is printed with its unit, and twice traced,
checking the per-layer metrics the same way, that on ``compile`` the
stage metrics plus ``driver.unattributed_ms`` add up to
``driver.compile_wall_ms``, and that the counts which
must repeat exactly (``isl.empty.calls`` and ``codegen.source_bytes``
per kernel, ``autosched.candidates`` and the digest of each chosen
plan, ``runtime.tasks_per_call``) took one value per run and the same
value in both runs.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
#: Exact-count families each workload must record when traced.
EXACT_FAMILIES = {
    "compile": ("isl.empty.calls.", "codegen.source_bytes."),
    "execute": ("runtime.tasks_per_call.",),
    "tune": ("autosched.candidates.", "autosched.plan_sha1."),
    "service": (),
}


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def check_spec(spec: dict) -> None:
    names = set()
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in spec[section]:
            name = entry["name"]
            if not NAME.fullmatch(name) or name in names:
                fail(f"{section}: bad or repeated name {name!r}")
            names.add(name)
            if section != "workloads" and not UNIT.fullmatch(entry["unit"]):
                fail(f"{name}: bad unit {entry['unit']!r}")
            if section == "end_to_end" and not 0 < entry["bound"] <= 0.25:
                fail(f"{name}: bound {entry['bound']} outside (0, 0.25]")
    if "setup_s" not in names:
        fail("no setup_s metric")


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace",
           str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        fail(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["attempted"] < 1:
        fail(f"{workload}: incorrect output or nothing attempted")
    return result


def check_metrics(workload: str, result: dict, wanted: list) -> None:
    got = result["metrics"]
    names = {m["name"] for m in wanted}
    if set(got) != names:
        fail(f"{workload}: metrics {sorted(set(got) ^ names)} missing or "
             "unexpected")
    for m in wanted:
        entry = got[m["name"]]
        if entry.get("unit") != m["unit"]:
            fail(f"{workload}: {m['name']} unit {entry.get('unit')!r}, "
                 f"want {m['unit']!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{workload}: {m['name']} value {value!r}")


#: The compile-stage metrics that, with ``driver.unattributed_ms``, add
#: up to ``driver.compile_wall_ms``.
STAGE_SUM = ("driver.fingerprint_ms", "core.legality_ms", "core.beta_ms",
             "codegen.time_space_ms", "codegen.ast_ms",
             "core.race_check_ms", "codegen.emit_ms", "backends.bind_ms",
             "autosched.apply_ms", "driver.other_stage_ms",
             "driver.unattributed_ms")


def check_attribution(result: dict) -> None:
    """On ``compile`` (no disk stages), stage self-times plus the
    unattributed rest equal the compile wall time."""
    got = result["metrics"]
    total = sum(got[name]["value"] for name in STAGE_SUM)
    wall = got["driver.compile_wall_ms"]["value"]
    if wall <= 0 or abs(total - wall) > 1e-6 * wall:
        fail(f"compile: stages + unattributed = {total} ms, wall {wall} ms")


def exact_counts(workload: str) -> dict:
    path = os.path.join(ROOT, ".perfbench_out", f"trace-{workload}-1.json")
    with open(path) as handle:
        exact = json.load(handle)["exact"]
    for family in EXACT_FAMILIES[workload]:
        if not any(key.startswith(family) for key in exact):
            fail(f"{workload}: no {family}* counts recorded")
    for key, values in exact.items():
        if len(values) != 1:
            fail(f"{workload}: {key} changed within one run: {values}")
    return exact


def main(argv) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    check_spec(spec)
    workloads = argv or [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        check_metrics(workload, run(workload, 0), spec["end_to_end"])
        traced = run(workload, 1)
        check_metrics(workload, traced, spec["per_layer"])
        if workload == "compile":
            check_attribution(traced)
        first = exact_counts(workload)
        check_metrics(workload, run(workload, 1), spec["per_layer"])
        second = exact_counts(workload)
        if first != second:
            diff = sorted(k for k in set(first) | set(second)
                          if first.get(k) != second.get(k))
            fail(f"{workload}: exact counts differ between runs: {diff}")
        print(f"ok: {workload} ({len(first)} exact counts repeat)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
