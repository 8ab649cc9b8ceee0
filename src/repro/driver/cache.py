"""The in-process kernel registry: an LRU-bounded compile cache.

Entries are content-addressed by :func:`repro.driver.fingerprint.
ir_fingerprint`; the autoscheduler's and benchmark harness's hot loop —
compiling the same function/schedule pair over and over — hits the
registry and skips every lowering stage.  The registry is bounded (LRU
eviction) so a long schedule search cannot grow memory without limit.

Every entry carries a content digest of its stored source, verified on
``get``: a corrupted entry (however it got that way — the deterministic
way is a :class:`repro.faults.FaultPlan` ``cache-corrupt`` site) is
dropped and reported as a miss, so the pipeline recompiles instead of
binding damaged code.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.obs.events import record

from .stats import CacheStats

DEFAULT_MAXSIZE = 64


def source_digest(source: str) -> str:
    """The content digest stored with (and verified against) an
    entry's source."""
    return hashlib.sha256(source.encode()).hexdigest()


@dataclass
class CacheEntry:
    """One cached compile result."""

    key: str            # ir_fingerprint at store time
    fn: object          # the Function the kernel was compiled from
    target: str
    source: str
    kernel: object
    digest: str = ""    # source_digest(source), filled by put()


class CompileCache:
    """An LRU mapping fingerprint -> compiled kernel, with counters."""

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE):
        if maxsize < 1:
            raise ValueError("cache maxsize must be >= 1")
        self.maxsize = maxsize
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.corruptions = 0

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> Optional[CacheEntry]:
        """Return the entry for ``key`` (refreshing its LRU position), or
        None.  Counters are the pipeline's to update: it may still
        reject a found entry as stale.

        The entry's source is digest-verified first; corruption is a
        miss — the entry is dropped so the pipeline recompiles rather
        than binding damaged code."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        from repro.faults import get_plan
        plan = get_plan()
        if plan is not None and plan.fires("cache-corrupt", key=key):
            entry.source = plan.corrupt_text(entry.source, "cache-corrupt",
                                             key=key)
        if entry.digest and source_digest(entry.source) != entry.digest:
            self._entries.pop(key, None)
            self.corruptions += 1
            record("cache.memory.corrupt", key=key[:16])
            return None
        self._entries.move_to_end(key)
        return entry

    def put(self, entry: CacheEntry) -> None:
        if not entry.digest:
            entry.digest = source_digest(entry.source)
        self._entries[entry.key] = entry
        self._entries.move_to_end(entry.key)
        self._evict_to(self.maxsize)

    def discard(self, key: str) -> None:
        self._entries.pop(key, None)

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.corruptions = 0

    def resize(self, maxsize: int) -> None:
        """Change the bound, shedding overflow through the same LRU
        eviction path ``put`` uses — least recently used first, each
        eviction counted locally and recorded."""
        if maxsize < 1:
            raise ValueError("cache maxsize must be >= 1")
        self.maxsize = maxsize
        self._evict_to(maxsize)

    def _evict_to(self, maxsize: int) -> None:
        """The one eviction path (``put`` overflow and ``resize`` both
        land here): drop least-recently-used entries until the cache
        fits, bumping the local counter and recording
        ``cache.memory.evict`` per entry."""
        while len(self._entries) > maxsize:
            key, _ = self._entries.popitem(last=False)
            self.evictions += 1
            record("cache.memory.evict", key=key[:16])

    def record_hit(self, key: str) -> None:
        self.hits += 1
        record("cache.memory.hit", key=key[:16])

    def record_miss(self, key: str) -> None:
        self.misses += 1
        record("cache.memory.miss", key=key[:16])

    def keys(self):
        return list(self._entries)

    def stats(self) -> CacheStats:
        """Point-in-time counters as a :class:`~repro.driver.stats.
        CacheStats` (tier ``memory``)."""
        return CacheStats(tier="memory", hits=self.hits,
                          misses=self.misses, evictions=self.evictions,
                          corruptions=self.corruptions,
                          size=len(self._entries), maxsize=self.maxsize)


#: The process-wide kernel registry used by :func:`compile_function`.
kernel_registry = CompileCache()
