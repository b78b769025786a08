"""Serving cache: an LRU of full query results, epoch-guarded.

It memoises the *entire response body* — ranked hits plus report — so an
identical repeated query costs a dict lookup and no engine work at all.

Correctness rests on two guards:

* the **key** is the canonical query form (keyword sequence order
  preserved — float summation order follows keyword order — plus the
  sorted de-duplicated predicate set, mode, and ``top_k``; the forced
  physical path is deliberately *excluded* because path forcing never
  changes rankings);
* every entry is stamped with the backend's
  :class:`~repro.core.backend.VersionVector` — the one coherence token
  the whole stack shares.  Any component moving (a WAL append, flush,
  delete, or compaction advancing the data epoch; a catalog hot-swap
  bumping the catalog generation; a cluster placement change bumping
  the placement generation) makes a lookup drop the entry instead of
  serving it, so a stale result can never be returned after any
  mutation — even if nobody called :meth:`invalidate` explicitly.  The
  cache treats the token as opaque (it only ever compares with ``!=``),
  which is also why plain ints kept working through the refactor.
  The cluster router calls :meth:`invalidate` after a catalog install
  or placement change, to reclaim the dead entries at once.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from ..core.query import parse_query

__all__ = ["ResultCache", "ResultCacheMetrics"]

CacheKey = Tuple


@dataclass
class ResultCacheMetrics:
    """Hit accounting for the serving cache."""

    hits: int = 0
    misses: int = 0
    stale_drops: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ResultCache:
    """Thread-safe LRU of response payloads keyed by canonical query."""

    def __init__(self, max_entries: int = 1024):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: "OrderedDict[CacheKey, Tuple[int, dict]]" = OrderedDict()
        self.metrics = ResultCacheMetrics()

    @staticmethod
    def key(query: str, mode: str, top_k: Optional[int]) -> CacheKey:
        """Canonicalise a query into its cache key.

        Raises :class:`~repro.errors.QueryError` on unparseable text —
        callers skip caching for such requests (the engine will produce
        the error response).
        """
        parsed = parse_query(query)
        return (
            tuple(parsed.keywords),
            parsed.predicates,
            mode,
            top_k,
        )

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: CacheKey, epoch) -> Optional[dict]:
        """The cached payload, or ``None`` on miss/stale.  ``epoch`` is
        the opaque coherence token (a version vector or plain int)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.metrics.misses += 1
                return None
            entry_epoch, payload = entry
            if entry_epoch != epoch:
                # The collection changed since this was computed; the
                # entry is unreachable forever, so reclaim it now.
                del self._entries[key]
                self.metrics.stale_drops += 1
                self.metrics.misses += 1
                return None
            self._entries.move_to_end(key)
            self.metrics.hits += 1
            return payload

    def put(self, key: CacheKey, epoch, payload: dict) -> None:
        """Insert/update one entry (LRU-evicting past ``max_entries``)."""
        with self._lock:
            self._entries[key] = (epoch, payload)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.metrics.evictions += 1

    def invalidate(self) -> None:
        """Drop everything."""
        with self._lock:
            self.metrics.invalidations += 1
            self._entries.clear()

    def stats(self) -> dict:
        """JSON-friendly counters for the ``metrics`` op."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.metrics.hits,
                "misses": self.metrics.misses,
                "stale_drops": self.metrics.stale_drops,
                "evictions": self.metrics.evictions,
                "invalidations": self.metrics.invalidations,
                "hit_rate": self.metrics.hit_rate,
            }
