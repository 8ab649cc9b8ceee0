"""The repository benchmark: one command, four seeded workloads.

    python3 perfbench/run.py --workload compile --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object
carrying every end-to-end metric of ``BENCHMARK.json``; with
``--trace 1`` it carries every per-layer metric instead, taken from a
traced run whose spans are written to ``.perfbench_out/`` when it ends.
``perfbench/README.md`` says what each workload and metric is for.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("compile", "execute", "tune", "service")

#: Set-up repetitions per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs and budgets (self-test only)")
    return parser.parse_args(argv)


def _locate_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no program at {SRC}; run from the root of "
                 "a full checkout")
    sys.path.insert(0, SRC)
    import repro
    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) \
            != SRC:
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {SRC}")


def _isolate(tmp_root: str) -> None:
    """Keep every file the run writes inside the checkout, and give the
    program none of the caller's ``TIRAMISU_*`` knobs."""
    for key in [k for k in os.environ if k.startswith("TIRAMISU_")]:
        del os.environ[key]
    os.makedirs(tmp_root, exist_ok=True)
    os.environ["TMPDIR"] = tmp_root
    tempfile.tempdir = tmp_root


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def main(argv=None) -> int:
    args = _parse(argv)
    spec = _spec()
    _locate_program()
    tmp_root = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    _isolate(tmp_root)
    from harness import REF_NOMINAL_S, Ledger, Report, Timed, Trace, \
        host_record, median, peak_rss_mb, print_result, reference_seconds
    import workloads
    from layers import Observations, per_layer_metrics
    workloads.import_program()
    import_s = time.perf_counter() - T_START
    # Imports are rescaled to nominal host speed like every other time.
    import_norm = import_s * REF_NOMINAL_S / median(
        reference_seconds() for _ in range(5))

    wl = workloads.get(args.workload, tiny=args.tiny, seed=args.seed,
                       tmp_root=tmp_root)
    report = Report()
    ledger = Ledger()
    trace = Trace(enabled=bool(args.trace))
    obs = Observations()
    report.line(f"workload: {args.workload} seed={args.seed} "
                f"seconds={args.seconds:g} trace={args.trace}"
                f"{' tiny' if args.tiny else ''}")
    report.line(host_record(wl.workers))
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            with Timed(wl.speed) as timer:
                state = wl.setup(obs)
            setups.append(timer.norm)
        wl.measure(state, args.seconds, trace, obs, report, ledger)
        report.line(f"host speed: reference loop p50 "
                    f"{1e3 * median(wl.speed):.4f} ms over "
                    f"{len(wl.speed)} samples (nominal "
                    f"{1e3 * REF_NOMINAL_S:g} ms); times in ms/s are at "
                    "nominal speed unless marked wall")
        if args.trace:
            names = [m["name"] for m in spec["per_layer"]]
            measured = per_layer_metrics(obs, trace)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            report.line("per-layer metrics (traced rounds only; 0 = the "
                        "layer did no such work on this workload):")
            for name in names:
                value, base = measured[name]
                report.metric(name, value, units[name], base)
            out = os.path.join(ROOT, ".perfbench_out",
                               f"trace-{args.workload}-{args.seed}.json")
            trace.dump(out, {"workload": args.workload, "seed": args.seed,
                             "exact": obs.exact})
            report.line(f"trace: {len(trace.spans)} spans -> {out}")
        else:
            names = [m["name"] for m in spec["end_to_end"]]
            setup_s = import_norm + median(setups)
            report.metric("setup_s", setup_s, "s",
                          f"imports {import_norm:.3f}s (wall "
                          f"{import_s:.3f}s) + median of {SETUP_REPEATS} "
                          f"set-ups {[round(s, 3) for s in setups]}")
            report.metric("peak_rss_mb", peak_rss_mb(), "MB",
                          "benchmark process, pool workers excluded")
        print_result(report, ledger, names)
    finally:
        wl.close()
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp_root))   # when no other run uses it
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
