"""The durable compile-artifact tier: an on-disk cache under the
in-memory kernel registry.

The in-memory :class:`~repro.driver.cache.CompileCache` dies with its
process; serving compile traffic from many processes (the batch front
end, an autoscheduler fleet, repeated CI runs) needs artifacts that
outlive a process and are shared between concurrent clients.  This
module stores each compiled kernel's *emitted source* (plus any
picklable backend extras) in one file per :func:`repro.driver.
fingerprint.ir_fingerprint`, under a directory every cooperating
process points at:

* **Keying** — ``<fingerprint>.pkl`` inside the cache directory; the
  fingerprint already folds IR + schedule + target + options, so a file
  name is a complete content address.
* **Durability & concurrency** — writers serialize to a private temp
  file in the same filesystem and publish with :func:`os.replace`
  (atomic rename), so lockless readers only ever observe complete
  artifacts: racing writers of the same fingerprint converge on one
  valid entry (last rename wins, and every candidate is byte-identical
  by construction).
* **Integrity** — every payload carries a SHA-256 digest of its source,
  re-verified on load (the same corruption discipline the in-memory
  tier got in PR 4).  A truncated, unpicklable or digest-mismatched
  file is *quarantined* (renamed to ``*.quarantine``), counted as a
  corruption, and reported as a miss so the pipeline recompiles.
* **Eviction** — the tier is size-bounded (``TIRAMISU_CACHE_MAX_BYTES``,
  default 256 MiB): after each store the directory is trimmed
  least-recently-used-first by mtime (reads bump mtime, so recency
  survives process restarts).
* **Observability** — ``cache.disk.{hit,miss,evict,quarantine}``
  records (:func:`repro.obs.events.record`), per-instance
  :class:`~repro.driver.stats.CacheStats` (tier ``disk``), and a
  ``disk cache:`` line in ``CompileReport.format_table()``.

The tier is **off by default**: it activates when ``TIRAMISU_CACHE_DIR``
is set (or :func:`configure` is called), and the default compile path
stays byte-identical with the tier on or off — the disk only ever
stores exactly what ``emit`` produced.
"""

from __future__ import annotations

import errno as _errno
import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional

from .stats import CacheStats

CACHE_DIR_ENV = "TIRAMISU_CACHE_DIR"
CACHE_MAX_BYTES_ENV = "TIRAMISU_CACHE_MAX_BYTES"
CACHE_MAX_QUARANTINE_ENV = "TIRAMISU_CACHE_MAX_QUARANTINE"

DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: How many quarantined corpses the eviction pass keeps around as
#: forensic evidence before dropping the oldest.
DEFAULT_MAX_QUARANTINE = 8


def resolve_max_quarantine() -> int:
    """The quarantine-count cap (``TIRAMISU_CACHE_MAX_QUARANTINE``,
    >= 0; 0 keeps no corpses at all)."""
    raw = os.environ.get(CACHE_MAX_QUARANTINE_ENV, "").strip()
    if not raw:
        return DEFAULT_MAX_QUARANTINE
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(
            f"{CACHE_MAX_QUARANTINE_ENV} must be a non-negative int, "
            f"got {raw!r}") from None
    if cap < 0:
        raise ValueError(
            f"{CACHE_MAX_QUARANTINE_ENV} must be a non-negative int, "
            f"got {raw!r}")
    return cap


def _injected_io_error(op: str, key: str) -> None:
    """Raise the active fault plan's ``disk-io-error`` for this probe,
    if any (ENOSPC for a store, EIO for a load, unless the spec pins an
    errno)."""
    from repro.faults import get_plan
    plan = get_plan()
    if plan is None:
        return
    spec = plan.fires("disk-io-error", op=op, key=key)
    if spec is None:
        return
    code = int(spec.payload.get("errno") or 0)
    if not code:
        code = _errno.ENOSPC if op == "store" else _errno.EIO
    raise OSError(code, f"injected disk-io-error ({op})")

#: On-disk payload schema version; bump on incompatible changes so old
#: artifacts read as corrupt-and-recompile, never as wrong code.
PAYLOAD_VERSION = 1

_SUFFIX = ".pkl"
_QUARANTINE_SUFFIX = ".quarantine"


def _entry_digest(source: str) -> str:
    return hashlib.sha256(source.encode()).hexdigest()


@dataclass
class DiskEntry:
    """One artifact loaded from (or bound for) the disk tier."""

    key: str
    target: str
    source: str
    digest: str = ""
    extras: Dict[str, object] = field(default_factory=dict)


class DiskCache:
    """A size-bounded, digest-verified, multi-process-safe artifact
    store; one instance per (directory, byte bound)."""

    def __init__(self, root, max_bytes: int = DEFAULT_MAX_BYTES):
        self.root = Path(root)
        if max_bytes < 1:
            raise ValueError("disk cache max_bytes must be >= 1")
        self.max_bytes = int(max_bytes)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.corruptions = 0

    # -- paths ----------------------------------------------------------

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}{_SUFFIX}"

    def _artifacts(self):
        """Every published artifact with its stat, oldest mtime first.
        Temp files and quarantined corpses never qualify."""
        out = []
        try:
            names = os.listdir(self.root)
        except OSError:
            return out
        for name in names:
            if not name.endswith(_SUFFIX):
                continue
            path = self.root / name
            try:
                out.append((path, path.stat()))
            except OSError:
                continue  # concurrently evicted
        out.sort(key=lambda item: (item[1].st_mtime, item[0].name))
        return out

    # -- read path ------------------------------------------------------

    def get(self, key: str) -> Optional[DiskEntry]:
        """Load and verify the artifact for ``key``, or None.

        A hit bumps the file's mtime (the LRU recency signal shared by
        every process).  Any damage — truncated pickle, wrong schema,
        digest mismatch — quarantines the file, counts a corruption,
        and answers a miss so the caller recompiles."""
        from repro.obs.events import record
        path = self.path_for(key)
        try:
            _injected_io_error("load", key)
            raw = path.read_bytes()
        except FileNotFoundError:
            self.misses += 1
            record("cache.disk.miss", key=key[:16])
            return None
        except OSError as err:
            # A real I/O failure (EIO, a yanked mount), not a cold key:
            # journal it distinctly, then degrade to a miss so the
            # pipeline recompiles from scratch.
            self.misses += 1
            record("cache.disk.load_error", key=key[:16], errno=err.errno)
            record("cache.disk.miss", key=key[:16])
            return None
        entry = self._decode(key, raw)
        if entry is None:
            self._quarantine(path)
            self.corruptions += 1
            self.misses += 1
            record("cache.disk.quarantine", key=key[:16])
            record("cache.disk.miss", key=key[:16])
            return None
        try:
            os.utime(path)
        except OSError:
            pass  # raced an eviction; the loaded entry is still valid
        self.hits += 1
        record("cache.disk.hit", key=key[:16])
        return entry

    def _decode(self, key: str, raw: bytes) -> Optional[DiskEntry]:
        try:
            payload = pickle.loads(raw)
        except Exception:  # noqa: BLE001 - any damage means corrupt
            return None
        if not isinstance(payload, dict) \
                or payload.get("version") != PAYLOAD_VERSION \
                or payload.get("key") != key:
            return None
        source = payload.get("source")
        digest = payload.get("digest", "")
        if not isinstance(source, str) or not digest \
                or _entry_digest(source) != digest:
            return None
        extras = payload.get("extras") or {}
        if not isinstance(extras, dict):
            return None
        return DiskEntry(key=key, target=str(payload.get("target", "")),
                         source=source, digest=digest, extras=extras)

    def _quarantine(self, path: Path) -> None:
        """Move a damaged artifact out of the key namespace so it can
        never be served again (kept on disk as forensic evidence)."""
        try:
            os.replace(path, path.with_suffix(_QUARANTINE_SUFFIX))
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass

    # -- write path -----------------------------------------------------

    def put(self, key: str, source: str, target: str = "",
            extras: Optional[Dict[str, object]] = None) -> bool:
        """Publish one artifact atomically; returns False when the
        extras refuse to pickle (the compile still succeeds, it just
        stays process-local).  Safe for concurrent writers: each writes
        a private temp file and renames into place."""
        payload = {
            "version": PAYLOAD_VERSION,
            "key": key,
            "target": target,
            "source": source,
            "digest": _entry_digest(source),
            "extras": dict(extras or {}),
        }
        try:
            raw = pickle.dumps(payload)
        except Exception:  # noqa: BLE001 - unpicklable backend extras
            return False
        path = self.path_for(key)
        fd, tmp_name = tempfile.mkstemp(prefix=f".tmp-{key[:12]}-",
                                        dir=self.root)
        try:
            with os.fdopen(fd, "wb") as tmp:
                _injected_io_error("store", key)
                tmp.write(raw)
            os.replace(tmp_name, path)
        except OSError as err:
            # The tmp file never became the artifact: remove it so a
            # failed store can't leave a partial .pkl (or a stray temp)
            # behind, journal the failure, and let the compile proceed
            # from its in-memory artifact.
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            from repro.obs.events import record
            record("cache.disk.store_error", key=key[:16], errno=err.errno)
            return False
        self.evict_to_limit()
        return True

    def _quarantined(self):
        """Every quarantined corpse with its stat, oldest mtime first."""
        out = []
        try:
            names = os.listdir(self.root)
        except OSError:
            return out
        for name in names:
            if not name.endswith(_QUARANTINE_SUFFIX):
                continue
            path = self.root / name
            try:
                out.append((path, path.stat()))
            except OSError:
                continue  # concurrently removed
        out.sort(key=lambda item: (item[1].st_mtime, item[0].name))
        return out

    def evict_to_limit(self) -> None:
        """Trim the tier under ``max_bytes``, oldest mtime first.  The
        newest artifact always survives (a single artifact larger than
        the bound would otherwise make the tier useless).

        Quarantined corpses are bounded too: their *count* is capped at
        ``TIRAMISU_CACHE_MAX_QUARANTINE`` (oldest dropped first), and
        the survivors' bytes count toward ``max_bytes`` — when the tier
        is over budget, forensic corpses are evicted before any live
        artifact is."""
        quarantined = self._quarantined()
        cap = resolve_max_quarantine()
        while len(quarantined) > cap:
            path, st = quarantined.pop(0)
            self._evict_one(path, "cache.disk.quarantine_evict", st.st_size)
        artifacts = self._artifacts()
        total = sum(st.st_size for _, st in artifacts) \
            + sum(st.st_size for _, st in quarantined)
        while total > self.max_bytes and quarantined:
            path, st = quarantined.pop(0)
            if self._evict_one(path, "cache.disk.quarantine_evict",
                               st.st_size):
                total -= st.st_size
        while total > self.max_bytes and len(artifacts) > 1:
            path, st = artifacts.pop(0)
            if self._evict_one(path, "cache.disk.evict", st.st_size):
                total -= st.st_size

    def _evict_one(self, path: Path, name: str, size: int) -> bool:
        from repro.obs.events import record
        try:
            path.unlink()
        except OSError:
            return False  # a concurrent evictor got there first
        self.evictions += 1
        record(name, key=path.stem[:16], bytes=size)
        return True

    # -- management -----------------------------------------------------

    def keys(self):
        return [path.name[:-len(_SUFFIX)]
                for path, _ in self._artifacts()]

    def __len__(self) -> int:
        return len(self._artifacts())

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def stats(self) -> CacheStats:
        """Point-in-time counters (tier ``disk``); ``size`` is the
        artifact count on disk right now, ``bytes``/``max_bytes`` ride
        in the extras."""
        artifacts = self._artifacts()
        quarantined = self._quarantined()
        return CacheStats(
            tier="disk", hits=self.hits, misses=self.misses,
            evictions=self.evictions, corruptions=self.corruptions,
            size=len(artifacts),
            extra={"bytes": sum(st.st_size for _, st in artifacts),
                   "max_bytes": self.max_bytes,
                   "quarantined": len(quarantined),
                   "quarantine_bytes": sum(st.st_size
                                           for _, st in quarantined)})


# -- process-wide activation -------------------------------------------------

_configured_root: Optional[str] = None
_configured_max: Optional[int] = None
_explicit = False
_active: Optional[DiskCache] = None


def configure(root: Optional[str], max_bytes: Optional[int] = None
              ) -> Optional[DiskCache]:
    """Programmatically pin the disk tier to ``root`` (``None`` disables
    it regardless of the environment); returns the active instance."""
    global _configured_root, _configured_max, _explicit, _active
    _configured_root = str(root) if root is not None else None
    _configured_max = int(max_bytes) if max_bytes is not None else None
    _explicit = True
    _active = None
    return active_disk_cache()


def reset_configuration() -> None:
    """Forget any :func:`configure` override; the ``TIRAMISU_CACHE_DIR``
    environment variable decides again."""
    global _explicit, _configured_root, _configured_max, _active
    _explicit = False
    _configured_root = None
    _configured_max = None
    _active = None


def _resolved_config():
    if _explicit:
        root = _configured_root
        max_bytes = _configured_max
    else:
        root = os.environ.get(CACHE_DIR_ENV, "").strip() or None
        max_bytes = None
    if root is None:
        return None
    if max_bytes is None:
        env = os.environ.get(CACHE_MAX_BYTES_ENV, "").strip()
        max_bytes = int(env) if env else DEFAULT_MAX_BYTES
    return root, max_bytes


def active_disk_cache() -> Optional[DiskCache]:
    """The process-wide disk tier, or None when disabled.  Re-resolves
    the environment on every call, so tests (and long-lived services)
    can repoint or disable the tier without restarting."""
    global _active
    config = _resolved_config()
    if config is None:
        _active = None
        return None
    root, max_bytes = config
    if _active is None or str(_active.root) != root \
            or _active.max_bytes != max_bytes:
        try:
            _active = DiskCache(root, max_bytes)
        except OSError:
            return None  # unusable directory: run without the tier
        # First activation of this (directory, bound): run the crash
        # recovery sweep so a previous process's orphans — stale temp
        # files, excess quarantine corpses, a torn journal tail — are
        # repaired before any traffic is served from the tier.
        from .recovery import sweep_on_activation
        sweep_on_activation(_active)
    return _active
