"""LRU cache for resolved collection statistics.

A specialist works inside one context for a whole session (the paper's
usage model), so consecutive queries repeat the same ``S_c(D_P)``
lookups — including the per-keyword ``df`` values for recurring query
terms.  This cache sits in front of the engine's statistic resolution
and memoises spec values per context.

Correctness note: cached values are exact copies of resolved statistics,
so the views-never-change-answers invariant extends to
cache-never-changes-answers (tested).  The cache must be invalidated on
document ingestion — :meth:`CachingSearchEngine.invalidate` exists for
exactly the :func:`repro.views.maintenance.maintain_catalog` call sites.

Freshness is additionally guarded by the engine's
:class:`~repro.core.backend.VersionVector`: any index mutation or catalog
swap moves the vector, and :meth:`CachingSearchEngine._check_epoch`
self-invalidates on the next lookup, so a forgotten explicit
``invalidate()`` can narrow freshness but never corrupt it.  One
coherence token, no scattered epoch-bump sites.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.backend import VersionVector
from ..core.engine import BatchExecutor, BatchReport
from ..core.query import ContextQuery
from ..core.statistics import StatisticSpec

ContextKey = Tuple[str, ...]


def canonical_context_key(predicates: Iterable[str]) -> ContextKey:
    """Canonicalise a context's predicates into a hashable cache key.

    Order and multiplicity are irrelevant to context semantics
    (Definition 1: a conjunction of predicates), so the key is the sorted
    de-duplicated predicate tuple.  ``{"b", "a"}``, ``["a", "b", "a"]``
    and ``("b", "a")`` all canonicalise to ``("a", "b")`` and share one
    cache entry.
    """
    return tuple(sorted(set(predicates)))


@dataclass
class CacheMetrics:
    """Hit accounting (per spec, not per query)."""

    spec_hits: int = 0
    spec_misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.spec_hits + self.spec_misses
        return self.spec_hits / total if total else 0.0


class StatisticsCache:
    """Per-context LRU of resolved spec values.

    Keys are canonicalised with :func:`canonical_context_key`, so any
    iterable of predicates (set, list, tuple, in any order) addresses the
    same entry.
    """

    def __init__(self, max_contexts: int = 128):
        if max_contexts < 1:
            raise ValueError(f"max_contexts must be >= 1, got {max_contexts}")
        self.max_contexts = max_contexts
        self._entries: "OrderedDict[ContextKey, Dict[StatisticSpec, float]]" = (
            OrderedDict()
        )
        self.metrics = CacheMetrics()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(
        self, context_key: Iterable[str], specs: Sequence[StatisticSpec]
    ) -> Tuple[Dict[StatisticSpec, float], List[StatisticSpec]]:
        """Return ``(cached values, missing specs)`` for one context."""
        context_key = canonical_context_key(context_key)
        entry = self._entries.get(context_key)
        if entry is None:
            self.metrics.spec_misses += len(specs)
            return {}, list(specs)
        self._entries.move_to_end(context_key)
        found: Dict[StatisticSpec, float] = {}
        missing: List[StatisticSpec] = []
        for spec in specs:
            if spec in entry:
                found[spec] = entry[spec]
            else:
                missing.append(spec)
        self.metrics.spec_hits += len(found)
        self.metrics.spec_misses += len(missing)
        return found, missing

    def store(
        self,
        context_key: Iterable[str],
        values: Dict[StatisticSpec, float],
    ) -> None:
        """Merge resolved values into the context's entry (LRU-evicting)."""
        context_key = canonical_context_key(context_key)
        entry = self._entries.get(context_key)
        if entry is None:
            entry = self._entries[context_key] = {}
        entry.update(values)
        self._entries.move_to_end(context_key)
        while len(self._entries) > self.max_contexts:
            self._entries.popitem(last=False)
            self.metrics.evictions += 1

    def invalidate(self) -> None:
        """Drop everything (call after any document ingestion)."""
        self.metrics.invalidations += 1
        self._entries.clear()


class CachingSearchEngine:
    """A :class:`~repro.core.engine.ContextSearchEngine` wrapper that
    memoises collection statistics across queries.

    Composition rather than inheritance: the wrapper intercepts the
    engine's ``_resolve_statistics`` / ``_resolve_statistics_only``
    resolution by pre-filling from the cache and storing what the engine
    resolves.  Rankings are bit-identical to the uncached engine.
    """

    # Serves as the flat engine it wraps.
    kind = "flat"

    def __init__(self, engine, max_contexts: int = 128):
        self.engine = engine
        self.cache = StatisticsCache(max_contexts=max_contexts)
        self._seen_version = engine.version
        self._wrap()

    def _check_epoch(self) -> None:
        """Self-invalidate when the index has mutated underneath us.

        The engine's version vector moves on every post-commit document
        batch and on every catalog swap, so this closes the stale window
        even when the mutating path forgot to call :meth:`invalidate`
        explicitly.
        """
        version = self.engine.version
        if version != self._seen_version:
            self._seen_version = version
            self.cache.invalidate()

    def _wrap(self) -> None:
        inner_resolve = self.engine._resolve_statistics
        inner_resolve_only = self.engine._resolve_statistics_only

        def cached_resolve(query: ContextQuery, specs, report, *args, **kwargs):
            self._check_epoch()
            key = canonical_context_key(query.predicates)
            found, missing = self.cache.lookup(key, specs)
            if not missing:
                # Still need the unranked result set; the conjunction is
                # cheap (selective-first) relative to statistics.
                result_ids = self.engine.searcher.search_conjunction(
                    query.keywords, query.predicates, report.counter
                )
                report.resolution.path = "cache"
                return dict(found), result_ids
            values, result_ids = inner_resolve(query, specs, report, *args, **kwargs)
            self.cache.store(key, values)
            values.update(found)
            return values, result_ids

        def cached_resolve_only(query: ContextQuery, specs, report, *args, **kwargs):
            self._check_epoch()
            key = canonical_context_key(query.predicates)
            found, missing = self.cache.lookup(key, specs)
            if not missing:
                report.resolution.path = "cache"
                return dict(found)
            values = inner_resolve_only(query, specs, report, *args, **kwargs)
            self.cache.store(key, values)
            values.update(found)
            return values

        self.engine._resolve_statistics = cached_resolve
        self.engine._resolve_statistics_only = cached_resolve_only

    # -- delegation -------------------------------------------------------

    @property
    def index(self):
        """The wrapped engine's index (read-only): batch prefetch, the
        service's healthz and its predicate analyzer read it."""
        return self.engine.index

    @property
    def epoch(self) -> int:
        return self.engine.epoch

    @property
    def version(self) -> VersionVector:
        return self.engine.version

    def search(self, query, top_k: Optional[int] = None, path: str = "auto"):
        return self.engine.search(query, top_k=top_k, path=path)

    def search_conventional(self, query, top_k: Optional[int] = None):
        return self.engine.search_conventional(query, top_k=top_k)

    def search_disjunctive(self, query, top_k: int = 10, path: str = "auto"):
        return self.engine.search_disjunctive(query, top_k=top_k, path=path)

    def search_many(
        self,
        queries,
        top_k: Optional[int] = None,
        mode: str = "context",
        path: str = "auto",
        max_workers: Optional[int] = None,
    ) -> BatchReport:
        """Batch evaluation over the cached engine: prefetch and thread
        fan-out, each query resolving its statistics through the cache."""
        return BatchExecutor(self, max_workers=max_workers).run(
            queries, top_k=top_k, mode=mode, path=path
        )

    def invalidate(self) -> None:
        """Forward to the cache; call after ``append_documents`` — or let
        :func:`repro.views.maintenance.maintain_catalog` call it by
        passing this engine (or its cache) in ``caches=``."""
        self.cache.invalidate()

    @property
    def metrics(self) -> CacheMetrics:
        return self.cache.metrics
