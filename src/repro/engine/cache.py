"""Content-addressed on-disk cache for experiment run results.

Layout: one JSON file per cached run under ``<cache_dir>/engine/``,
named by the SHA-256 key of everything that determines the result (see
:mod:`repro.engine.fingerprint`).  Entries are self-describing — they
carry a schema version and a human-readable summary of the key material
— and are written atomically (temp file + rename) so a crashed or
concurrent writer can never leave a half-written entry that poisons
later runs.  Unreadable or truncated entries are treated as misses and
counted, never raised.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

__all__ = ["CacheStats", "ResultCache"]

#: Bump when the envelope layout (not the run payload) changes.
ENVELOPE_VERSION = 1


@dataclass
class CacheStats:
    """Hit/miss/timing counters for one cache instance.

    Attributes:
        hits: Entries found and successfully decoded.
        misses: Lookups that found no entry.
        corrupt: Lookups that found an undecodable entry (counted as
            misses too).
        stores: Entries written.
        load_s: Wall-clock time spent reading entries.
        store_s: Wall-clock time spent writing entries.
        sources: How many cache instances' counters this object holds
            (grows on :meth:`merge`, so aggregate stats shipped back
            from engine workers keep their provenance).
    """

    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    stores: int = 0
    load_s: float = 0.0
    store_s: float = 0.0
    sources: int = 1

    def merge(self, other: "CacheStats") -> None:
        """Accumulate another stats object into this one."""
        self.hits += other.hits
        self.misses += other.misses
        self.corrupt += other.corrupt
        self.stores += other.stores
        self.load_s += other.load_s
        self.store_s += other.store_s
        self.sources += other.sources

    def format(self) -> str:
        """One-line summary for reports."""
        total = self.hits + self.misses
        rate = 100.0 * self.hits / total if total else 0.0
        merged = (
            f", merged from {self.sources} caches" if self.sources > 1 else ""
        )
        return (
            f"cache: {self.hits} hits / {self.misses} misses "
            f"({rate:.0f}% hit rate, {self.corrupt} corrupt, "
            f"{self.stores} stored; load {self.load_s:.2f}s, "
            f"store {self.store_s:.2f}s{merged})"
        )


@dataclass
class ResultCache:
    """Filesystem-backed JSON store addressed by content hash.

    Args:
        cache_dir: Root cache directory (entries live in an ``engine/``
            subdirectory so they coexist with the Random Forest pickle
            cache).
        enabled: When ``False`` every lookup misses and stores are
            dropped — the ``--no-cache`` behaviour.
    """

    cache_dir: str
    enabled: bool = True
    stats: CacheStats = field(default_factory=CacheStats)

    @property
    def root(self) -> str:
        """Directory holding the cache entries."""
        return os.path.join(self.cache_dir, "engine")

    def path_for(self, key: str) -> str:
        """Entry path for a fingerprint key."""
        return os.path.join(self.root, f"{key}.json")

    def load(self, key: str) -> Optional[Dict[str, Any]]:
        """Return the payload stored under ``key``, or ``None`` on miss.

        Corrupt, truncated, or schema-mismatched entries are misses —
        the engine recomputes and overwrites them.
        """
        if not self.enabled:
            self.stats.misses += 1
            return None
        start = time.perf_counter()
        try:
            with open(self.path_for(key), "r", encoding="utf-8") as handle:
                envelope = json.load(handle)
            if envelope.get("envelope") != ENVELOPE_VERSION:
                raise ValueError("envelope version mismatch")
            payload = envelope["payload"]
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            self.stats.misses += 1
            self.stats.corrupt += 1
            return None
        finally:
            self.stats.load_s += time.perf_counter() - start
        self.stats.hits += 1
        return payload

    def store(self, key: str, payload: Dict[str, Any],
              summary: Optional[Dict[str, Any]] = None) -> None:
        """Atomically write ``payload`` under ``key``.

        Args:
            key: Fingerprint key.
            payload: JSON-able content.
            summary: Optional human-readable key material recorded next
                to the payload for debugging (never read back).
        """
        if not self.enabled:
            return
        start = time.perf_counter()
        os.makedirs(self.root, exist_ok=True)
        envelope = {
            "envelope": ENVELOPE_VERSION,
            "key": key,
            "summary": summary or {},
            "payload": payload,
        }
        fd, tmp_path = tempfile.mkstemp(
            dir=self.root, prefix=f".{key[:16]}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(envelope, handle)
            os.replace(tmp_path, self.path_for(key))
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        finally:
            self.stats.store_s += time.perf_counter() - start
        self.stats.stores += 1
