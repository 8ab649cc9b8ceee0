"""Which functions under ``src/`` does anything actually call?

Stdlib only.  ``record`` runs a command with a profiler hook installed in
every Python process it starts (a generated ``sitecustomize`` on
``PYTHONPATH``): ``sys.setprofile`` / ``threading.setprofile`` note each
``src/`` code object entered, and each process writes one JSON dump per
PID.  Dumps are written atomically (temp file plus ``os.replace``), at
exit, at the exit of ``multiprocessing`` workers, and at most once a
second while new functions are still being reached, so a worker that is
killed leaves its last complete dump rather than a truncated one.

``report`` merges the dumps and lists every top-level function or
method under ``src/`` (a ``def`` in a module or class body) that no run
reached, and every one that only the runs labelled ``tier1`` reached,
each with its line count.

Usage, from the repository root::

    python tools/reachability.py record --label tier1 -- \\
        python -m pytest -q -p no:cacheprovider
    python tools/reachability.py record --label examples -- \\
        python examples/quickstart.py
    python tools/reachability.py report

Dumps go to ``.reachability/<label>/<pid>.json`` (``--dumps`` moves
them).  ``record --cpu-count 1`` pins ``os.cpu_count()`` in every traced
process, so a run takes the single-core paths on any host (on a
multicore host ``examples/quickstart.py`` otherwise stops at the blur
race refusal before its later calls).
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from typing import Dict, Iterator, List, Optional, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
DEFAULT_DUMPS = os.path.join(ROOT, ".reachability")
OUT_ENV = "REACHABILITY_OUT"
SRC_ENV = "REACHABILITY_SRC"
CPU_COUNT_ENV = "REACHABILITY_CPU_COUNT"
# The report also lists the functions that only this label's runs reached.
ONLY_LABEL = "tier1"

# A (path relative to src/, first line) pair names one function: the
# first line of a decorated function is its first decorator's line,
# exactly as ``code.co_firstlineno`` reports it.
Key = Tuple[str, int]


# -- the recorder (runs inside every traced process) ------------------------

_RECORDER_MODULE = r'''
import atexit, json, os, sys, tempfile, threading, time

_OUT = os.environ["REACHABILITY_OUT"]
_SRC = os.environ["REACHABILITY_SRC"] + os.sep
_hits = {}      # id(code) -> code, for code objects under src/
_files = {}     # co_filename -> path under src/, or "" outside it
_last = [time.monotonic()]


def _dump():
    os.makedirs(_OUT, exist_ok=True)
    # list() copies in one C call, so hooks in other threads that add
    # to _hits meanwhile cannot break the iteration below.
    codes = list(_hits.values())
    fd, tmp = tempfile.mkstemp(dir=_OUT, suffix=".tmp")
    with os.fdopen(fd, "w") as handle:
        json.dump(sorted({(_files[c.co_filename], c.co_firstlineno)
                          for c in codes}), handle)
    os.replace(tmp, os.path.join(_OUT, f"{os.getpid()}.json"))
    _last[0] = time.monotonic()


def _hook(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    path = _files.get(code.co_filename)
    if path is None:
        full = os.path.abspath(code.co_filename)
        path = _files[code.co_filename] = (
            full[len(_SRC):] if full.startswith(_SRC) else "")
    if path and id(code) not in _hits:
        # Holding the code object keeps its id from being reused (a
        # module's own code object is freed once the module has run).
        _hits[id(code)] = code
        if time.monotonic() - _last[0] > 1.0:
            _dump()


def _at_exit():
    # Stop recording before interpreter teardown clears this module.
    sys.setprofile(None)
    threading.setprofile(None)
    _dump()


if os.environ.get("REACHABILITY_CPU_COUNT"):
    _cpus = int(os.environ["REACHABILITY_CPU_COUNT"])
    os.cpu_count = lambda: _cpus
sys.setprofile(_hook)
threading.setprofile(_hook)
atexit.register(_at_exit)
# multiprocessing workers leave through os._exit, which skips atexit.
from multiprocessing import util as _mp_util
_mp_util.register_after_fork(
    _dump, lambda dump: _mp_util.Finalize(None, dump, exitpriority=100))
'''


def record(label: str, command: List[str], dumps: str,
           cpu_count: Optional[int] = None) -> int:
    out = os.path.join(dumps, label)
    os.makedirs(out, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="reachability-") as hookdir:
        with open(os.path.join(hookdir, "sitecustomize.py"), "w") as handle:
            handle.write(_RECORDER_MODULE)
        env = dict(os.environ)
        paths = [hookdir, SRC, ROOT]
        if env.get("PYTHONPATH"):
            paths.append(env["PYTHONPATH"])
        env["PYTHONPATH"] = os.pathsep.join(paths)
        env[OUT_ENV] = out
        env[SRC_ENV] = SRC
        if cpu_count is not None:
            env[CPU_COUNT_ENV] = str(cpu_count)
        return subprocess.call(command, env=env, cwd=ROOT)


# -- the report ---------------------------------------------------------------

def _defs(body, path: str) -> Iterator[Tuple[Key, str, int]]:
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno]
                        + [d.lineno for d in node.decorator_list])
            yield (path, first), node.name, node.end_lineno - first + 1
        elif isinstance(node, ast.ClassDef):
            for key, name, lines in _defs(node.body, path):
                yield key, f"{node.name}.{name}", lines


def src_functions() -> Dict[Key, Tuple[str, int]]:
    """Every top-level function and method under ``src/``:
    key -> (qualified name, line count)."""
    out: Dict[Key, Tuple[str, int]] = {}
    for dirpath, _, files in os.walk(SRC):
        for fname in sorted(files):
            if not fname.endswith(".py"):
                continue
            full = os.path.join(dirpath, fname)
            rel = os.path.relpath(full, SRC)
            with open(full) as handle:
                tree = ast.parse(handle.read(), full)
            for key, name, lines in _defs(tree.body, rel):
                out[key] = (name, lines)
    return out


def load_dumps(dumps: str) -> Dict[str, Set[Key]]:
    """label -> every (path, first line) its runs reached."""
    reached: Dict[str, Set[Key]] = defaultdict(set)
    for label in sorted(os.listdir(dumps)):
        folder = os.path.join(dumps, label)
        if not os.path.isdir(folder):
            continue
        for fname in os.listdir(folder):
            if fname.endswith(".json"):
                with open(os.path.join(folder, fname)) as handle:
                    reached[label].update(
                        (path, line) for path, line in json.load(handle))
    return reached


def report(dumps: str) -> int:
    functions = src_functions()
    reached = load_dumps(dumps)
    if not reached:
        sys.exit(f"reachability: no dumps under {dumps}")
    anywhere = set().union(*reached.values())
    elsewhere = set().union(*(keys for label, keys in reached.items()
                              if label != ONLY_LABEL))
    unreached = [k for k in functions if k not in anywhere]
    only_here = [k for k in functions
                 if k in reached.get(ONLY_LABEL, ()) and k not in elsewhere]
    print(f"labels: {', '.join(sorted(reached))}")
    print(f"functions: {len(functions)}, lines "
          f"{sum(n for _, n in functions.values())}")
    for title, keys in (("reached by no run", unreached),
                        (f"reached only by {ONLY_LABEL}", only_here)):
        total = sum(functions[k][1] for k in keys)
        print(f"\n{title}: {len(keys)} functions, {total} lines")
        for path, line in sorted(keys):
            name, lines = functions[(path, line)]
            print(f"  {path}:{line} {name} ({lines} lines)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--dumps", default=DEFAULT_DUMPS,
                        help="dump directory (default: .reachability/)")
    sub = parser.add_subparsers(dest="cmd", required=True)
    rec = sub.add_parser("record", help="run a command and record reach")
    rec.add_argument("--label", required=True,
                     help="the run's label, e.g. tier1 or examples")
    rec.add_argument("--cpu-count", type=int,
                     help="pin os.cpu_count() to this in every traced "
                          "process")
    rec.add_argument("command", nargs=argparse.REMAINDER,
                     help="the command, after --")
    sub.add_parser("report", help="merge dumps and list functions")
    args = parser.parse_args(argv)
    if args.cmd == "record":
        command = args.command[1:] if args.command[:1] == ["--"] \
            else args.command
        if not command:
            parser.error("record needs a command after --")
        return record(args.label, command, args.dumps, args.cpu_count)
    return report(args.dumps)


if __name__ == "__main__":
    sys.exit(main())
