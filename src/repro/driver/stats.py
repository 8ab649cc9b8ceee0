"""One stats vocabulary for every cache tier.

:class:`CacheStats` is the one shape every cache reports — the in-memory
kernel registry (``CompileCache.stats()``), the disk tier
(``DiskCache.stats()``) and the ISL memo caches (``isl_cache_stats()``)
— with one key vocabulary, ``hits`` / ``misses`` / ``evictions`` /
``corruptions`` / ``size`` / ``maxsize``, qualified by a *tier* name
(``memory``, ``disk``, ``isl.empty``, ``isl.compose``).  Reads go
through attributes, :meth:`CacheStats.as_dict` is the one serialised
form and :meth:`CacheStats.format_line` the one rendering.
:class:`CacheStatsGroup` holds several tiers (the two ISL memos).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

#: The shared counter vocabulary every tier reports (tier-specific
#: extras — e.g. the disk tier's byte totals — ride in ``extra``).
STAT_KEYS = ("hits", "misses", "evictions", "corruptions", "size",
             "maxsize")


@dataclass
class CacheStats:
    """Point-in-time counters of one cache tier."""

    tier: str
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    corruptions: int = 0
    size: int = 0
    maxsize: Optional[int] = None
    #: Tier-specific extras (e.g. ``bytes`` / ``max_bytes`` on disk).
    extra: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """Canonical key -> value copy (the shared vocabulary plus the
        tier's extras; the tier name is the caller's key)."""
        out: Dict[str, object] = {key: getattr(self, key)
                                  for key in STAT_KEYS}
        out.update(self.extra)
        return out

    def format_line(self) -> str:
        """One human-readable summary line for trace tables."""
        line = (f"{self.hits} hits / {self.misses} misses / "
                f"{self.evictions} evictions")
        if self.corruptions:
            line += f" / {self.corruptions} corrupt"
        size = f"size {self.size}"
        if self.maxsize is not None:
            size += f"/{self.maxsize}"
        if "bytes" in self.extra:
            size += (f", {self.extra['bytes']}/"
                     f"{self.extra.get('max_bytes', 0)} bytes")
        return f"{line} ({size})"


class CacheStatsGroup:
    """Several tiers together, read by name through :meth:`tier`
    (``group.tier("isl.empty").hits``) or by iterating :attr:`tiers`."""

    def __init__(self, *stats: CacheStats):
        self.tiers: Dict[str, CacheStats] = {s.tier: s for s in stats}

    def tier(self, name: str) -> CacheStats:
        """The named tier's stats."""
        return self.tiers[name]

    def __repr__(self):
        return f"CacheStatsGroup({', '.join(sorted(self.tiers))})"
