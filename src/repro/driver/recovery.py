"""Crash-consistent startup recovery for the durable service state.

The disk artifact tier and the event journal are both designed so a
crash can only leave *bounded* damage: a writer that dies between
``mkstemp`` and ``os.replace`` leaves one orphaned ``.tmp-*`` file, a
corruption quarantine leaves one more ``*.quarantine`` corpse, and a
journal append cut short leaves one unterminated final line.  Nothing
in the hot path ever cleans those up — that is this module's job.

:func:`sweep` repairs one cache directory:

* **stale temp files** — every ``.tmp-*`` older than ``tmp_grace``
  seconds is removed (the grace window protects a *live* concurrent
  writer, whose temp file exists only for the instant between write
  and rename);
* **quarantine aging** — quarantined corpses beyond the
  ``TIRAMISU_CACHE_MAX_QUARANTINE`` count cap, or older than
  ``quarantine_max_age`` seconds, are dropped oldest-first;
* **journal repair** — a torn trailing record in the active event
  journal (``TIRAMISU_EVENT_LOG``) is truncated away, so every later
  :func:`repro.obs.events.read_events` sees a clean file.

Everything repaired is journaled as one ``resilience.recovery.sweep``
event and counted (``resilience.recovery.{tmp_removed,
quarantine_removed,journal_repairs}``), so an operator can tell a
crashy fleet from a clean one by grepping the journal.

The sweep runs lazily, once per activated
:class:`~repro.driver.diskcache.DiskCache` instance, from
:func:`~repro.driver.diskcache.active_disk_cache` — a process that
never touches the disk tier never pays for it.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

#: Temp files younger than this are presumed to belong to a live
#: concurrent writer and are left alone.
DEFAULT_TMP_GRACE = 60.0

#: Quarantined corpses older than this are dropped even when the count
#: cap would keep them (a week of forensic evidence is plenty).
DEFAULT_QUARANTINE_MAX_AGE = 7 * 24 * 3600.0


@dataclass
class RecoveryReport:
    """What one sweep actually repaired."""

    root: str = ""
    tmp_removed: int = 0
    quarantine_removed: int = 0
    journal_bytes_truncated: int = 0

    @property
    def total_repairs(self) -> int:
        return (self.tmp_removed + self.quarantine_removed
                + (1 if self.journal_bytes_truncated else 0))


def _sweep_tmp(root: Path, grace: float, now: float) -> int:
    removed = 0
    try:
        names = os.listdir(root)
    except OSError:
        return 0
    for name in names:
        if not name.startswith(".tmp-"):
            continue
        path = root / name
        try:
            age = now - path.stat().st_mtime
        except OSError:
            continue  # the writer finished (renamed) while we looked
        if age < grace:
            continue
        try:
            path.unlink()
        except OSError:
            continue
        removed += 1
    return removed


def _sweep_quarantine(cache, max_age: float, now: float) -> int:
    from .diskcache import resolve_max_quarantine
    corpses = cache._quarantined()
    cap = resolve_max_quarantine()
    removed = 0
    # Oldest first: everything beyond the count cap goes, then anything
    # that outlived the age bound.
    excess = len(corpses) - cap
    for path, st in corpses:
        stale = now - st.st_mtime > max_age
        if excess <= 0 and not stale:
            continue
        try:
            path.unlink()
        except OSError:
            continue
        removed += 1
        excess -= 1
    return removed


def sweep(cache, *, tmp_grace: float = DEFAULT_TMP_GRACE,
          quarantine_max_age: float = DEFAULT_QUARANTINE_MAX_AGE
          ) -> RecoveryReport:
    """Repair crash leftovers in ``cache``'s directory (and the active
    event journal); returns what was done.  Safe to run concurrently
    with live traffic — it only touches files no correct writer still
    needs."""
    from repro.obs.events import event_log_path, record, repair_journal
    now = time.time()
    report = RecoveryReport(root=str(cache.root))
    report.tmp_removed = _sweep_tmp(cache.root, tmp_grace, now)
    report.quarantine_removed = _sweep_quarantine(
        cache, quarantine_max_age, now)
    journal = event_log_path()
    if journal is not None:
        report.journal_bytes_truncated = repair_journal(journal)
    if report.tmp_removed:
        record("resilience.recovery.tmp_removed", n=report.tmp_removed)
    if report.quarantine_removed:
        record("resilience.recovery.quarantine_removed",
               n=report.quarantine_removed)
    if report.journal_bytes_truncated:
        record("resilience.recovery.journal_repairs",
               bytes=report.journal_bytes_truncated)
    if report.total_repairs:
        record("resilience.recovery.sweep", root=report.root,
               tmp_removed=report.tmp_removed,
               quarantine_removed=report.quarantine_removed,
               journal_bytes_truncated=report.journal_bytes_truncated)
    return report


def sweep_on_activation(cache) -> Optional[RecoveryReport]:
    """The lazy hook :func:`~repro.driver.diskcache.active_disk_cache`
    calls when it builds a new tier instance: sweep once per instance,
    and never let recovery take the activation down."""
    if getattr(cache, "_recovery_swept", False):
        return None
    cache._recovery_swept = True
    try:
        return sweep(cache)
    except Exception:  # noqa: BLE001 - recovery must not block serving
        return None
