"""Self-protection primitives for the compile service: deadlines, the
worker-pool circuit breaker, and the one worker-failure loop.

PR 4 and PR 6 built the *reactive* half of a serving stack — retry,
digest verification, quarantine.  This module is the *proactive* half:

* :class:`Deadline` — a request-scoped, monotonic-clock budget.  The
  pipeline creates one from the ``timeout`` option at entry (the batch
  front end at ``submit()``), installs it as ambient state next to the
  ``compile_id`` correlation id, and every expensive stage checks it
  *before* starting — so a request that has spent its budget fails
  fast with :class:`~repro.core.errors.DeadlineExceededError` naming
  the stage that found the budget gone, instead of running legality,
  emit and bind to completion for a caller that stopped waiting.
  Budgets cross the process boundary as remaining seconds (monotonic
  clocks do not), so pool workers inherit what is left, not a fresh
  allowance.

* :class:`CircuitBreaker` — state machine over the shared worker pool.
  ``closed`` is normal service; ``threshold`` *consecutive*
  infrastructure failures (``BrokenProcessPool``, chunk/compile
  timeouts) trip it ``open``, and while open every offload is refused
  up front — compiles run inline-sequential and ``parallelize``
  degrades to the sequential path instead of hammering a pool that
  keeps dying.  After ``cooldown`` seconds the breaker goes
  ``half-open`` and admits probes; the first success closes it, the
  first failure re-opens it for another cooldown.  Every transition is
  journaled (``resilience.breaker.*``) and counted.

* :func:`retry_worker_failures` — the retry / pool-restart / backoff /
  fallback loop every user of the shared pool runs its attempts in:
  the parallel runtime (one region's chunks), the task-graph runtime
  (one tile DAG) and the batch front end (one compile offload).  It
  feeds the breaker, and :func:`breaker_refuses` is the probe each of
  them makes before offloading at all.

Knobs: ``TIRAMISU_BREAKER_THRESHOLD`` (consecutive failures to trip,
default 3) and ``TIRAMISU_BREAKER_COOLDOWN`` (seconds open before the
half-open probe, default 30).  See docs/robustness.md.
"""

from __future__ import annotations

import contextvars
import os
import threading
import time
from contextlib import contextmanager
from typing import Callable, Optional

from repro.core.errors import DeadlineExceededError, WorkerFailureError
from repro.obs.events import record

BREAKER_THRESHOLD_ENV = "TIRAMISU_BREAKER_THRESHOLD"
BREAKER_COOLDOWN_ENV = "TIRAMISU_BREAKER_COOLDOWN"

DEFAULT_BREAKER_THRESHOLD = 3
DEFAULT_BREAKER_COOLDOWN = 30.0


# -- deadlines ---------------------------------------------------------------

class Deadline:
    """A monotonic-clock budget for one request.

    Created once at the request boundary and *charged as it runs*: the
    expiry instant is fixed at construction, so every stage the request
    executes eats into what the next stage may spend.  ``check(stage)``
    is the guard the pipeline calls before each expensive stage.
    """

    __slots__ = ("budget", "_expires_at")

    def __init__(self, budget: float):
        self.budget = float(budget)
        self._expires_at = time.monotonic() + self.budget

    @classmethod
    def from_timeout(cls, timeout) -> Optional["Deadline"]:
        """The request budget the ``timeout`` option implies: explicit
        option first, then ``TIRAMISU_TIMEOUT``, else no deadline."""
        from repro.backends.common import resolve_timeout
        resolved = resolve_timeout(timeout, default=None)
        return None if resolved is None else cls(resolved)

    def remaining(self) -> float:
        """Seconds of budget left (never negative)."""
        return max(0.0, self._expires_at - time.monotonic())

    def expired(self) -> bool:
        return time.monotonic() >= self._expires_at

    def check(self, stage: str) -> None:
        """Fail fast if the budget is gone: journal the exhaustion and
        raise :class:`DeadlineExceededError` naming ``stage`` (which
        therefore never begins)."""
        if not self.expired():
            return
        record("resilience.deadline.exceeded", stage=stage,
               budget_seconds=self.budget)
        raise DeadlineExceededError(
            f"compile budget of {self.budget:g}s exhausted before stage "
            f"{stage!r}", stage=stage, budget=self.budget)


_DEADLINE: "contextvars.ContextVar[Optional[Deadline]]" = \
    contextvars.ContextVar("tiramisu_deadline", default=None)


def current_deadline() -> Optional[Deadline]:
    """The ambient request deadline, or None (no budget)."""
    return _DEADLINE.get()


@contextmanager
def deadline_scope(deadline: Optional[Deadline]):
    """Install ``deadline`` as the ambient budget for the block — the
    request-scoped twin of :func:`repro.obs.events.compile_context`,
    and installed right next to it by the pipeline and batch front
    end."""
    token = _DEADLINE.set(deadline)
    try:
        yield deadline
    finally:
        _DEADLINE.reset(token)


# -- the circuit breaker -----------------------------------------------------

STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half-open"

_STATE_GAUGE = {STATE_CLOSED: 0, STATE_HALF_OPEN: 1, STATE_OPEN: 2}


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(
            f"{name} must be a positive number, got {raw!r}") from None
    if value <= 0:
        raise ValueError(f"{name} must be a positive number, got {raw!r}")
    return value


class CircuitBreaker:
    """closed -> open after ``threshold`` consecutive failures ->
    half-open probe after ``cooldown`` seconds -> closed on success
    (re-open on failure).  Thread-safe; transitions are journaled as
    ``resilience.breaker.{open,half_open,close}`` events and counted in
    the metrics registry (state rides the ``resilience.breaker.state``
    gauge: 0 closed, 1 half-open, 2 open)."""

    def __init__(self, name: str = "pool",
                 threshold: Optional[int] = None,
                 cooldown: Optional[float] = None):
        self.name = name
        self.threshold = int(threshold if threshold is not None else
                             _env_float(BREAKER_THRESHOLD_ENV,
                                        DEFAULT_BREAKER_THRESHOLD))
        if self.threshold < 1:
            raise ValueError(
                f"breaker threshold must be >= 1, got {threshold!r}")
        self.cooldown = float(cooldown if cooldown is not None else
                              _env_float(BREAKER_COOLDOWN_ENV,
                                         DEFAULT_BREAKER_COOLDOWN))
        self._lock = threading.Lock()
        self._state = STATE_CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        # Lifetime transition counts, for tests and stats().
        self.opens = 0
        self.closes = 0
        self.half_opens = 0
        self.short_circuits = 0

    # -- state ----------------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def _transition(self, state: str, **fields) -> None:
        """Caller holds the lock; journaling happens outside it."""
        self._state = state
        from repro.obs.metrics import metrics
        metrics.gauge("resilience.breaker.state").set(_STATE_GAUGE[state])

    def allow(self) -> bool:
        """May the caller touch the pool right now?  ``closed`` and
        ``half-open`` answer yes; ``open`` answers no until the
        cooldown elapses, at which point the breaker half-opens and the
        call becomes the probe."""
        transition = None
        with self._lock:
            if self._state == STATE_OPEN:
                if time.monotonic() - self._opened_at < self.cooldown:
                    self.short_circuits += 1
                    allowed = False
                else:
                    self.half_opens += 1
                    self._transition(STATE_HALF_OPEN)
                    transition = "half_open"
                    allowed = True
            else:
                allowed = True
        if transition is not None:
            record("resilience.breaker.half_open", breaker=self.name)
        elif not allowed:
            record("resilience.breaker.short_circuit", breaker=self.name)
        return allowed

    def record_success(self) -> None:
        """A pool interaction worked: reset the failure streak, and
        close a half-open breaker."""
        closed = False
        with self._lock:
            self._consecutive_failures = 0
            if self._state != STATE_CLOSED:
                self.closes += 1
                self._transition(STATE_CLOSED)
                closed = True
        if closed:
            record("resilience.breaker.close", breaker=self.name)

    def record_failure(self) -> None:
        """A pool interaction failed (infrastructure, not application):
        extend the streak; trip open at ``threshold`` consecutive
        failures, or immediately when the half-open probe fails."""
        opened = False
        with self._lock:
            self._consecutive_failures += 1
            should_open = (self._state == STATE_HALF_OPEN
                           or (self._state == STATE_CLOSED
                               and self._consecutive_failures
                               >= self.threshold))
            if should_open:
                self.opens += 1
                self._opened_at = time.monotonic()
                self._transition(STATE_OPEN)
                opened = True
        if opened:
            record("resilience.breaker.open", breaker=self.name,
                   consecutive_failures=self._consecutive_failures,
                   cooldown_seconds=self.cooldown)

    def trip(self) -> None:
        """Force the breaker open now (tests, manual load shedding)."""
        with self._lock:
            self.opens += 1
            self._opened_at = time.monotonic()
            self._transition(STATE_OPEN)
        record("resilience.breaker.open", breaker=self.name, forced=True,
               cooldown_seconds=self.cooldown)

    def reset(self) -> None:
        """Back to a pristine closed breaker (state and counters)."""
        with self._lock:
            self._consecutive_failures = 0
            self._opened_at = 0.0
            self.opens = self.closes = self.half_opens = 0
            self.short_circuits = 0
            self._transition(STATE_CLOSED)

    def stats(self) -> dict:
        with self._lock:
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "threshold": self.threshold,
                "cooldown": self.cooldown,
                "opens": self.opens,
                "closes": self.closes,
                "half_opens": self.half_opens,
                "short_circuits": self.short_circuits,
            }


# -- the process-wide pool breaker -------------------------------------------
#
# One breaker guards the shared fork pools of repro.backends.parallel:
# the batch compile front end and the parallel loop runtime dispatch
# onto the same machinery, so a pool that keeps dying under one of them
# should stop the other from hammering it too.

_pool_breaker: Optional[CircuitBreaker] = None
_pool_breaker_lock = threading.Lock()


def pool_breaker() -> CircuitBreaker:
    """The process-global breaker over the shared worker pools (built
    lazily from the ``TIRAMISU_BREAKER_*`` environment)."""
    global _pool_breaker
    if _pool_breaker is None:
        with _pool_breaker_lock:
            if _pool_breaker is None:
                _pool_breaker = CircuitBreaker("pool")
    return _pool_breaker


def reset_pool_breaker() -> None:
    """Drop the global breaker so the next use rebuilds it from the
    environment — tests repoint thresholds without leaking state."""
    global _pool_breaker
    with _pool_breaker_lock:
        _pool_breaker = None


# -- the worker-failure loop -------------------------------------------------

#: Seconds slept before the first retry of a failed pool dispatch; the
#: wait doubles with every further retry.
RETRY_BACKOFF = 0.05


def breaker_refuses(prefix: str, count: Callable[[str], None],
                    **fields) -> bool:
    """Probe the pool breaker before an offload.  A refusal is recorded
    as ``<prefix>.breaker_block`` and counted on the caller's stats
    through ``count("breaker_block")``; the caller then runs its work
    inline."""
    if pool_breaker().allow():
        return False
    count("breaker_block")
    record(f"{prefix}.breaker_block", **fields)
    return True


def retry_worker_failures(prefix: str, attempt: Callable[[int], object],
                          fallback: Callable[[WorkerFailureError], object],
                          *, workers: int, max_retries: int,
                          on_failure: str, count: Callable[[str], None],
                          restore: Optional[Callable[[], None]] = None,
                          **fields):
    """Run ``attempt(i)`` against the shared pool of ``workers`` until
    one succeeds, and return its result.

    ``attempt`` raises :class:`WorkerFailureError` for an
    infrastructure failure (a dead pool, a missed deadline); anything
    else it raises is an application error and propagates untouched.
    After a failure the breaker counts it, the pool is discarded,
    ``restore`` puts the shared buffers back, and after a backoff
    (:data:`RETRY_BACKOFF`, doubling) the next attempt runs — at most
    ``1 + max_retries`` attempts, a single one with
    ``on_failure="raise"``, fewer when the pool cannot come back.
    Then ``on_failure="fallback"`` returns ``fallback(failure)``;
    ``"retry"`` and ``"raise"`` raise the last failure.

    Each step is recorded as ``<prefix>.worker_failure`` /
    ``.pool_restart`` / ``.retry`` / ``.fallback`` with ``fields`` and
    counted on the caller's stats through ``count(kind)``.  A failure
    also flushes the trace file eagerly: a run that is losing workers
    may not live to the exit handler, and the export is atomic."""
    from repro.backends.parallel import discard_pool, get_pool
    from repro.obs.tracer import write_trace_file
    breaker = pool_breaker()
    attempts = 1 + (max_retries if on_failure != "raise" else 0)
    delay = RETRY_BACKOFF
    failure: Optional[WorkerFailureError] = None

    def note(kind: str, **extra) -> None:
        count(kind)
        record(f"{prefix}.{kind}", **extra, **fields)

    for i in range(attempts):
        try:
            result = attempt(i)
        except WorkerFailureError as exc:
            failure = exc
        else:
            breaker.record_success()
            return result
        breaker.record_failure()
        note("worker_failure", attempt=i, error=str(failure))
        discard_pool(workers)
        note("pool_restart", workers=workers)
        if restore is not None:
            restore()
        last = i + 1 == attempts
        if not last:
            note("retry", attempt=i + 1, backoff_seconds=delay)
        try:
            write_trace_file()
        except OSError:
            pass  # telemetry must never take the run down
        if last:
            break
        time.sleep(delay)
        delay *= 2
        if get_pool(workers) is None:
            break  # the pool cannot come back on this host
    if on_failure != "fallback":
        raise failure
    note("fallback", error=str(failure))
    return fallback(failure)
