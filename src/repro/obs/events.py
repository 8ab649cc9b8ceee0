"""The structured event journal: an append-only JSONL record of what
the compile service *did*.

Metrics aggregate and spans time; neither answers "what happened to
request X, in order, across processes".  The journal does: every
producer — the compile pipeline (begin/end, per-tier cache outcomes),
the batch front end (submit/dedup/retry/fallback), the parallel
runtime (worker failure, retry, pool restart), fault injection, and
the autoscheduler search (round/candidate/prune/measure) — appends one
JSON object per line to the file named by ``TIRAMISU_EVENT_LOG``.

Each line carries:

* ``name`` — dotted event name (``compile.begin``, ``batch.retry``, ...);
* ``cat`` — producer category, the name's first dotted component
  (``compile``, ``cache``, ``batch``, ``parallel``, ``fault``, ...);
* ``wall`` — ``time.time()`` (epoch seconds, for humans and log joins);
* ``mono_ns`` — ``time.perf_counter_ns()`` (the tracer's clock, so
  journal lines interleave correctly with trace spans);
* ``pid`` — the emitting process;
* ``compile_id`` — the correlation id (below), or null;
* ``fields`` — free-form producer payload.

**Correlation.**  Every compile gets a ``compile_id`` (also stored on
its :class:`~repro.driver.trace.CompileReport` and stamped onto its
tracer spans).  The id is *ambient*: :func:`compile_context` installs
it in a :class:`contextvars.ContextVar`, and every ``emit`` without an
explicit id picks it up — so the batch front end can issue the id at
``submit`` time and the pipeline, cache tiers, and fault paths that
serve that request all journal under it.  One
``grep <id> events.jsonl`` reconstructs the request's full story.

**Process safety.**  The journal file is opened ``O_APPEND`` and every
event is a single ``os.write`` of one complete line, which POSIX
appends atomically — concurrent writers (batch pool workers inherit
the environment and append to the same file) interleave whole lines,
never partial ones.

Activation mirrors the tracer: set ``TIRAMISU_EVENT_LOG=events.jsonl``
in the environment, or pin programmatically with
:func:`configure_event_log`.  With neither, ``emit`` is a cheap no-op.

**One record per fact.**  Producers outside :mod:`repro.obs` never
call ``emit`` or bump a counter for a fact themselves: they call
:func:`record`, which counts the fact in the metrics registry under
its name, journals it, and marks it on the tracer timeline.  The
names are inventoried in docs/observability.md.
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
import time
import uuid
from contextlib import contextmanager
from typing import Dict, List, Optional

from .metrics import metrics
from .tracer import get_tracer

EVENT_LOG_ENV = "TIRAMISU_EVENT_LOG"


# -- correlation --------------------------------------------------------------

_COMPILE_ID: "contextvars.ContextVar[Optional[str]]" = \
    contextvars.ContextVar("tiramisu_compile_id", default=None)


def new_compile_id() -> str:
    """A fresh correlation id: short enough to grep, unique across
    processes (uuid4-derived)."""
    return uuid.uuid4().hex[:16]


def current_compile_id() -> Optional[str]:
    """The ambient correlation id installed by :func:`compile_context`,
    or None."""
    return _COMPILE_ID.get()


@contextmanager
def compile_context(compile_id: Optional[str]):
    """Install ``compile_id`` as the ambient correlation id for the
    block.  Every ``emit`` without an explicit id inherits it, as does
    the compile pipeline's ``_begin`` — which is how a batch job's
    submit-time id ends up on the compile's report, spans and events."""
    token = _COMPILE_ID.set(compile_id)
    try:
        yield compile_id
    finally:
        _COMPILE_ID.reset(token)


# -- the journal --------------------------------------------------------------

class EventJournal:
    """One append-only JSONL destination.

    Keeps a single ``O_APPEND`` file descriptor; every event is one
    ``write`` call of one complete line, so concurrent processes
    appending to the same path never interleave partial records."""

    def __init__(self, path: str):
        self.path = str(path)
        self._fd: Optional[int] = None
        self._lock = threading.Lock()

    def _ensure_fd(self) -> Optional[int]:
        if self._fd is None:
            try:
                self._fd = os.open(
                    self.path,
                    os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
            except OSError:
                return None
        return self._fd

    def write(self, record: Dict[str, object]) -> bool:
        """Serialize ``record`` and append it as one line; returns False
        when the destination is unusable (telemetry must never take the
        compile down)."""
        try:
            line = json.dumps(record, default=repr,
                              separators=(",", ":")) + "\n"
        except (TypeError, ValueError):
            return False
        data = line.encode("utf-8", errors="replace")
        with self._lock:
            fd = self._ensure_fd()
            if fd is None:
                return False
            try:
                os.write(fd, data)
            except OSError:
                return False
        return True

    def close(self) -> None:
        with self._lock:
            if self._fd is not None:
                try:
                    os.close(self._fd)
                except OSError:
                    pass
                self._fd = None


# -- process-wide activation --------------------------------------------------

_configured_path: Optional[str] = None
_explicit = False
_journal: Optional[EventJournal] = None


def configure_event_log(path: Optional[str]) -> Optional[EventJournal]:
    """Programmatically pin the journal to ``path`` (``None`` disables
    it regardless of the environment); returns the active journal."""
    global _configured_path, _explicit, _journal
    if _journal is not None:
        _journal.close()
    _configured_path = str(path) if path is not None else None
    _explicit = True
    _journal = None
    return _active_journal()


def reset_event_log_configuration() -> None:
    """Forget any :func:`configure_event_log` override; the
    ``TIRAMISU_EVENT_LOG`` environment variable decides again."""
    global _explicit, _configured_path, _journal
    if _journal is not None:
        _journal.close()
    _explicit = False
    _configured_path = None
    _journal = None


def event_log_path() -> Optional[str]:
    """The resolved journal destination, or None when disabled."""
    if _explicit:
        return _configured_path
    path = os.environ.get(EVENT_LOG_ENV, "").strip()
    return path or None


def events_enabled() -> bool:
    return event_log_path() is not None


def _active_journal() -> Optional[EventJournal]:
    """The journal for the currently-resolved path; re-resolves the
    environment on every call so tests (and long-lived services) can
    repoint the log without restarting."""
    global _journal
    path = event_log_path()
    if path is None:
        if _journal is not None:
            _journal.close()
            _journal = None
        return None
    if _journal is None or _journal.path != path:
        if _journal is not None:
            _journal.close()
        _journal = EventJournal(path)
    return _journal


def emit(name: str, compile_id: Optional[str] = None, **fields) -> bool:
    """Append one event; a no-op (returning False) when no journal is
    active.  The line's ``cat`` is the name's first dotted component;
    ``compile_id=None`` inherits the ambient :func:`compile_context`
    id."""
    journal = _active_journal()
    if journal is None:
        return False
    if compile_id is None:
        compile_id = _COMPILE_ID.get()
    return journal.write({
        "name": name,
        "cat": name.split(".", 1)[0],
        "wall": time.time(),
        "mono_ns": time.perf_counter_ns(),
        "pid": os.getpid(),
        "compile_id": compile_id,
        "fields": fields,
    })


def record(name: str, n: float = 1, compile_id: Optional[str] = None,
           **fields) -> None:
    """Report ``n`` occurrences of the fact ``name``: add ``n`` to the
    counter of that name, append the journal line ``name`` when a
    journal is active, and drop a zero-length marker span on the
    tracer timeline when tracing is on.  The one producer call for
    facts; pure measurements (histograms, gauges, byte volumes) go to
    the registry directly."""
    metrics.counter(name).inc(n)
    emit(name, compile_id=compile_id, **fields)
    tracer = get_tracer()
    if tracer.enabled():
        now = time.perf_counter_ns()
        tracer.add_span(name, name.split(".", 1)[0], now, now, **fields)


def read_journal(path: str):
    """Parse a journal file into ``(records, torn_tail)``.

    The append discipline (one ``O_APPEND`` write per complete line)
    means the only damage a crash can leave is a *torn tail*: a final
    line cut short, with no trailing newline.  Such a fragment is
    returned as ``torn_tail`` (the raw text, or None) instead of
    failing the whole read — every complete record before it is still
    served.  An *interior* malformed line can never come from a crash
    and still raises ValueError naming it: that is a real bug.
    """
    out: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    lines = text.split("\n")
    # A file ending in "\n" splits to a trailing "" — complete file.
    # Anything else in the final slot is an unterminated fragment.
    fragment = lines.pop() if lines else ""
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as err:
            raise ValueError(
                f"{path}:{lineno}: malformed journal line: {err}"
                ) from None
        if not isinstance(record, dict):
            raise ValueError(
                f"{path}:{lineno}: journal line is not an object")
        out.append(record)
    torn: Optional[str] = None
    if fragment.strip():
        # The write was cut mid-record; if what landed happens to
        # parse, the only thing missing was the newline — keep it.
        try:
            record = json.loads(fragment)
        except json.JSONDecodeError:
            torn = fragment
        else:
            if isinstance(record, dict):
                out.append(record)
            else:
                torn = fragment
    return out, torn


def read_events(path: str) -> List[Dict[str, object]]:
    """Parse a journal file back into event dicts.

    A torn trailing line (a crash mid-append) is tolerated: every
    complete record is returned and the fragment is dropped — use
    :func:`read_journal` to see the torn tail itself, or
    :func:`repair_journal` to truncate it away.  Interior malformed
    lines still raise ValueError naming the line: the journal's append
    discipline means those are real bugs, not expected races."""
    records, _ = read_journal(path)
    return records


def repair_journal(path: str) -> int:
    """Truncate a torn trailing record (anything after the last
    newline) off the journal; returns the number of bytes removed (0
    when the file was already clean or absent)."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return 0
    if not data or data.endswith(b"\n"):
        return 0
    cut = data.rfind(b"\n") + 1  # 0 when no newline at all: empty file
    removed = len(data) - cut
    with open(path, "r+b") as fh:
        fh.truncate(cut)
    return removed
