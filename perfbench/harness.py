"""Shared machinery of the benchmark: statistics, the in-memory span
trace, the failure ledger, the host record and the result printer.

Nothing here imports ``repro``; ``run.py`` finds the program before it
imports anything that does.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

#: Tolerance of ``repro.kernels.base.KernelBundle.verify``.
ATOL = 1e-4
RTOL = 1e-4

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# -- host-speed normalization -------------------------------------------------
#
# The vCPU speed of a shared virtual machine swings by +-25% within
# seconds, which no run length averages away.  Every end-to-end time is
# therefore reported at a fixed nominal host speed: a fixed pure-Python
# reference loop is timed right before and right after each timed
# operation (and inside long ones), and the operation's wall time is
# scaled by REF_NOMINAL_S / (mean reference-loop time).  The loop is the
# benchmark's own code, so any change to the program's work moves the
# normalized time as it moves the wall time.

#: The reference loop mixes integer arithmetic, small allocations,
#: dict stores and a sort, like the interpreter-bound program it scales.
REF_ITERATIONS = 8_000
#: The reference-loop time that defines nominal speed (about what the
#: loop takes on a 2-core x86 VM running CPython 3.11).
REF_NOMINAL_S = 0.0015


def reference_seconds() -> float:
    # With the collector off the loop's cost does not depend on how many
    # objects the program holds; its lists die by reference count.
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table, total = {}, 0
        for i in range(REF_ITERATIONS):
            total += i
            table[i & 127] = [i, total]
        sorted(table.values())
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class Timed:
    """Times a block: ``wall`` seconds and ``norm``, the same time at
    nominal host speed.  ``probe`` (default: the reference loop in this
    thread) runs outside ``wall``, before and after.  With ``every`` set,
    a sampler thread also runs the reference loop every ``every``
    seconds inside the block, for blocks long enough that the host speed
    drifts within them.  Probe times are appended to ``speed_samples``."""

    def __init__(self, speed_samples: List[float], probe=None,
                 every: Optional[float] = None):
        self.speed_samples = speed_samples
        self.probe = probe or reference_seconds
        self.every = every
        self.wall = self.norm = 0.0

    def _sample(self) -> None:
        while not self._done.wait(self.every):
            self._inside.append(reference_seconds())

    def __enter__(self) -> "Timed":
        self._probes = [self.probe()]
        self._inside: List[float] = []
        self._sampler = None
        if self.every:
            self._done = threading.Event()
            self._sampler = threading.Thread(target=self._sample,
                                             daemon=True)
            self._sampler.start()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = time.perf_counter() - self._start
        if self._sampler is not None:
            self._done.set()
            self._sampler.join()
        probes = self._probes + self._inside + [self.probe()]
        self.speed_samples.extend(probes)
        self.norm = self.wall * REF_NOMINAL_S / (sum(probes) / len(probes))


# -- statistics ---------------------------------------------------------------


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def geomean(values: Iterable[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tail(values: Iterable[float]) -> Optional[Tuple[float, float]]:
    """The highest percentile with at least ten samples beyond it, as
    ``(value, percentile)``; None with fewer than eleven samples (no
    such percentile exists)."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return None
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n


def peak_rss_mb() -> float:
    """Peak resident memory of this process (pool workers excluded)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def outputs_match(got: Dict, expected: Dict) -> Optional[str]:
    """None when every reference output matches, else the reason."""
    import numpy as np
    for name, ref in expected.items():
        if name not in got:
            return f"missing output {name}"
        if not np.allclose(got[name], ref, atol=ATOL, rtol=RTOL):
            return f"output {name} differs from the reference"
    return None


def copies(arrays: Dict) -> Dict:
    import numpy as np
    return {k: np.array(v, copy=True) for k, v in arrays.items()}


# -- failure accounting -------------------------------------------------------


class Ledger:
    """Every operation attempted, and each one that raised, was refused
    or gave wrong output, keyed by (kernel, reason)."""

    def __init__(self):
        self.attempted = 0
        self.failures: Counter = Counter()
        self.mismatches = 0
        self._lock = threading.Lock()

    def attempt(self) -> None:
        with self._lock:
            self.attempted += 1

    def fail(self, kernel: str, reason: str, mismatch: bool = False,
             count: int = 1) -> None:
        with self._lock:
            self.failures[(kernel, reason)] += count
            self.mismatches += count if mismatch else 0

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def correct(self) -> bool:
        """No produced output differed from its reference (refusals and
        raises produce no output; they count in ``failed``)."""
        return self.mismatches == 0


def reason_of(exc: BaseException) -> str:
    """A short, stable failure reason: exception class plus the first
    clause of its message (no addresses or timings)."""
    first = str(exc).split(":")[0].strip()
    return f"{type(exc).__name__}: {first}"[:120]


# -- the span trace -----------------------------------------------------------


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    request: Optional[int] = None
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Trace:
    """Spans recorded around the public calls into each layer, kept in
    memory and written out when the run ends.  Spans of one request
    share its ``request`` id; a span's parent is the innermost span open
    on the same thread.  Disabled, every method is a cheap no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def new_request(self) -> int:
        return next(self._requests)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request: Optional[int] = None, **attrs):
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        sp = Span(next(self._ids), name, time.perf_counter(),
                  parent=parent.id if parent else None,
                  request=request if request is not None
                  else (parent.request if parent else None), attrs=attrs)
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(sp)

    def add_stages(self, parent: Optional[Span], report) -> None:
        """Child spans from the stage timings a ``CompileReport`` carries
        (``stage.<name>``).  Stage starts are ``perf_counter`` values, a
        clock shared with forked pool workers."""
        if parent is None or report is None:
            return
        with self._lock:
            for st in report.stages:
                self.spans.append(Span(
                    next(self._ids), f"stage.{st.name}", st.start,
                    st.start + st.seconds, parent=parent.id,
                    request=parent.request))

    def children(self) -> Dict[int, List[Span]]:
        out: Dict[int, List[Span]] = defaultdict(list)
        for sp in self.spans:
            if sp.parent is not None:
                out[sp.parent].append(sp)
        return out

    def named(self, name: str) -> List[Span]:
        return [sp for sp in self.spans if sp.name == name]

    @staticmethod
    def self_seconds(span: Span, kids: List[Span]) -> float:
        """Duration minus the part of it the children's union covers."""
        covered, cursor = 0.0, span.start
        for kid in sorted(kids, key=lambda k: k.start):
            lo, hi = max(kid.start, cursor), min(kid.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return span.seconds - covered

    def dump(self, path: str, extra: Dict[str, object]) -> None:
        data = dict(extra)
        data["spans"] = [{"id": s.id, "name": s.name, "start": s.start,
                          "end": s.end, "parent": s.parent,
                          "request": s.request, "attrs": s.attrs}
                         for s in self.spans]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(data, handle, indent=1, default=str)


# -- results ------------------------------------------------------------------


class Report:
    """What one workload run measured.  ``metric`` entries land in the
    result line; ``info`` lines are printed above it for people."""

    def __init__(self):
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.info: List[str] = []

    def metric(self, name: str, value: float, unit: str,
               note: str = "") -> None:
        if not NAME_RE.fullmatch(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.metrics[name] = (float(value), unit)
        self.info.append(f"  {name:<44} {value:>14.6g} {unit:<6} {note}")

    def line(self, text: str) -> None:
        self.info.append(text)


def host_record(workers: int) -> str:
    import numpy as np
    try:
        gcc = subprocess.run(["gcc", "--version"], capture_output=True,
                             text=True, check=True).stdout.splitlines()[0]
    except (OSError, subprocess.CalledProcessError, IndexError):
        gcc = "absent"
    return (f"host: nproc={os.cpu_count()} python={platform.python_version()}"
            f" numpy={np.__version__} gcc={gcc!r} workers={workers}")


def print_result(report: Report, ledger: Ledger, wanted: List[str],
                 stream=None) -> None:
    """The human-readable report, then the one-line JSON result."""
    stream = stream or sys.stdout
    for text in report.info:
        print(text, file=stream)
    rate = ledger.failed / ledger.attempted if ledger.attempted else 0.0
    print(f"  ops_failed_ratio {rate:.6g} ratio ({ledger.failed} of "
          f"{ledger.attempted} operations)", file=stream)
    for (kernel, reason), n in sorted(ledger.failures.items()):
        print(f"  failed: {kernel}: {reason} x{n}", file=stream)
    missing = [m for m in wanted if m not in report.metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {', '.join(missing)}")
    if ledger.attempted < 1:
        raise RuntimeError("no operation was attempted")
    result = {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": report.metrics[name][0],
                           "unit": report.metrics[name][1]}
                    for name in wanted},
    }
    print(json.dumps(result), file=stream, flush=True)
