"""Serving over a segmented index: per-version engines, graceful swaps.

:class:`LifecycleEngine` is the glue between the mutable
:class:`~repro.lifecycle.index.SegmentedIndex` and the immutable query
stack.  Query engines (:class:`~repro.core.engine.ContextSearchEngine`,
or :class:`~repro.core.sharded_engine.ShardedEngine` when ``num_shards``
is set) are built over a :class:`~repro.lifecycle.snapshot.Snapshot` and
cached **per version**: a search always runs start-to-finish against one
snapshot's engine, and a mutation simply makes the *next* search build a
fresh engine over the new snapshot — the swap is graceful because the
old engine (and its snapshot) stay fully usable for whatever in-flight
work still holds them.

Freshness flows through one number: ``engine.epoch`` delegates to the
segmented index's :class:`~repro.lifecycle.version.VersionClock`, which
is the same value each snapshot is stamped with, which is the same value
the serving result cache keys on.  There is no second counter anywhere
to drift.

An optional :class:`~repro.views.catalog.ViewCatalog` is maintained
*incrementally and synchronously* with mutations — per-document apply on
ingest, exact retraction on delete
(:func:`repro.views.maintenance.retract_catalog`) — so the views path
stays bit-identical to the straightforward path at every lifecycle
point.  In sharded mode the catalog's definitions are re-replicated per
snapshot (:func:`repro.views.sharding.replicate_catalog`).
"""

from __future__ import annotations

import threading
from typing import Iterable, List, Optional, Sequence, Union

from ..core.backend import VersionAuthority, VersionVector
from ..core.engine import BatchReport, ContextSearchEngine, SearchResults
from ..core.ranking import RankingFunction
from ..errors import IndexError_
from ..index.documents import Document, StoredDocument
from .index import CompactionReport, SegmentedIndex
from .segment import Segment

__all__ = ["LifecycleEngine"]


class LifecycleEngine:
    """Always-fresh query engine over a :class:`SegmentedIndex`."""

    # The engine shape, as healthz and the CLI report it.
    kind = "lifecycle"

    def __init__(
        self,
        index: SegmentedIndex,
        ranking: Optional[RankingFunction] = None,
        catalog=None,
        num_shards: int = 0,
        partitioner: str = "hash",
    ):
        self.index = index
        self.ranking = ranking
        self.catalog = catalog
        self.num_shards = num_shards
        self.partitioner = partitioner
        self._lock = threading.RLock()
        self._engine = None
        self._engine_version: Optional[int] = None
        # Adaptive-selection state: generation counts hot-swaps,
        # last_reselection records what the most recent swap installed,
        # and maintenance hooks fire after flush/compaction so a
        # background reselector can react to lifecycle events.  Hooks
        # must be quick (set a flag, wake a thread) — they run on the
        # mutating caller's thread.
        self._authority = VersionAuthority(epoch_source=lambda: self.index.epoch)
        self.last_reselection: Optional[dict] = None
        self._maintenance_hooks: List = []

    # -- mutation API -----------------------------------------------------

    def ingest(
        self, documents: Iterable[Document], auto_flush: bool = False
    ) -> List[StoredDocument]:
        """Add documents (WAL + memtable) and maintain the catalog."""
        with self._lock:
            stored = self.index.add_documents(documents, auto_flush=auto_flush)
            if self.catalog is not None and stored:
                from ..views.maintenance import maintain_catalog

                maintain_catalog(self.catalog, self.index, stored)
            return stored

    def delete(self, external_ids: Iterable[str]) -> int:
        """Tombstone-delete documents and retract them from the catalog."""
        external_ids = list(external_ids)
        with self._lock:
            removed: List[StoredDocument] = []
            if self.catalog is not None:
                for external_id in external_ids:
                    stored = self.index.get_document(external_id)
                    if stored is None:
                        raise IndexError_(
                            f"cannot delete unknown document id: "
                            f"{external_id!r}"
                        )
                    removed.append(stored)
            count = self.index.delete_documents(external_ids)
            if self.catalog is not None and removed:
                from ..views.maintenance import retract_catalog

                retract_catalog(self.catalog, self.index, removed)
            return count

    def flush(self) -> Optional[Segment]:
        """Seal the memtable (manifest commit + WAL rotation)."""
        with self._lock:
            segment = self.index.flush()
        self._fire_maintenance_hooks("flush")
        return segment

    def compact(self, full: bool = False) -> CompactionReport:
        """Merge segments and physically drop tombstoned documents."""
        with self._lock:
            report = self.index.compact(full=full)
        self._fire_maintenance_hooks("compact")
        return report

    # -- adaptive selection hooks -----------------------------------------

    def add_maintenance_hook(self, hook) -> None:
        """Register ``hook(event)`` to fire after every flush/compaction.

        The adaptive controller uses this to re-check its reselection
        triggers at lifecycle boundaries.  Hooks run on the mutating
        thread, outside the engine lock, and must return quickly.
        """
        self._maintenance_hooks.append(hook)

    def _fire_maintenance_hooks(self, event: str) -> None:
        for hook in list(self._maintenance_hooks):
            hook(event)

    @property
    def catalog_generation(self) -> int:
        """How many catalog hot-swaps this engine has installed."""
        return self._authority.catalog_generation

    @property
    def version(self) -> VersionVector:
        """The engine's :class:`~repro.core.backend.VersionVector`."""
        return self._authority.vector()

    def install_catalog(
        self,
        catalog,
        info: Optional[dict] = None,
        generation: Optional[int] = None,
    ) -> int:
        """Atomically hot-swap the catalog at a snapshot-version boundary.

        The new catalog must be fully built and exact for the current
        collection (the reselector guarantees this by reusing
        incrementally-maintained views and materialising the rest from
        the live index under this engine's lock).  Installing it:

        * replaces ``self.catalog`` so the *next* ``current_engine()``
          call builds a fresh engine (flat or sharded) over it;
        * bumps the index's version clock, which is the system's single
          epoch source — the per-version engine cache and the serving
          result cache both roll over at once, so no reader can mix
          old-catalog plans with new-catalog state;
        * records ``info`` as :attr:`last_reselection` for ``info``/
          ``healthz`` reporting.

        In-flight queries holding the previous snapshot's engine finish
        against the old catalog — a consistent (and ranking-identical)
        view.  Returns the new catalog generation.
        """
        with self._lock:
            self.catalog = catalog
            new_generation = self._authority.bump_catalog(generation)
            self.index.bump_version()
            self.last_reselection = dict(info) if info else None
            return new_generation

    # -- engine management ------------------------------------------------

    @property
    def epoch(self) -> int:
        """The index's version clock — the system's single epoch source."""
        return self.index.epoch

    def current_engine(self):
        """The query engine for the current snapshot (built on demand).

        Engines are swapped whole: a version change builds a fresh
        engine over the new snapshot and retires the old one (its worker
        pools drain in-flight work before releasing), so a query that
        already holds an engine keeps a consistent view to completion.
        """
        with self._lock:
            snapshot = self.index.snapshot()
            if (
                self._engine is not None
                and self._engine_version == snapshot.version
            ):
                return self._engine
            old = self._engine
            if self.num_shards:
                engine = self._build_sharded(snapshot)
            else:
                engine = ContextSearchEngine(
                    snapshot, ranking=self.ranking, catalog=self.catalog
                )
            self._engine = engine
            self._engine_version = snapshot.version
        if old is not None:
            old.close()
        return engine

    def _build_sharded(self, snapshot):
        from ..core.sharded_engine import ShardedEngine
        from ..index.sharded import ShardedInvertedIndex

        sharded_index = ShardedInvertedIndex.from_index(
            snapshot, self.num_shards, self.partitioner
        )
        # The redistributed index must report the snapshot's version, not
        # a private counter — one clock across the whole read path.
        sharded_index._clock.advance_to(snapshot.version)
        catalogs = None
        if self.catalog is not None:
            from ..views.sharding import replicate_catalog

            catalogs = replicate_catalog(sharded_index, self.catalog)
        return ShardedEngine(
            sharded_index,
            ranking=self.ranking,
            catalogs=catalogs,
        )

    def close(self) -> None:
        """Retire the current engine and release the WAL handle."""
        with self._lock:
            if self._engine is not None:
                self._engine.close()
            self._engine = None
            self._engine_version = None
            self.index.close()

    def __enter__(self) -> "LifecycleEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- query API (delegates to the per-version engine) ------------------

    def search(self, query, top_k: Optional[int] = None, path: str = "auto") -> SearchResults:
        return self.current_engine().search(query, top_k=top_k, path=path)

    def search_conventional(
        self, query, top_k: Optional[int] = None
    ) -> SearchResults:
        return self.current_engine().search_conventional(query, top_k=top_k)

    def search_disjunctive(
        self, query, top_k: int = 10, path: str = "auto", block_max: bool = True
    ) -> SearchResults:
        return self.current_engine().search_disjunctive(
            query, top_k=top_k, path=path, block_max=block_max
        )

    def explain(
        self,
        query,
        top_k: Optional[int] = None,
        mode: str = "context",
        path: str = "auto",
        block_max: bool = True,
    ) -> SearchResults:
        return self.current_engine().explain(
            query, top_k=top_k, mode=mode, path=path, block_max=block_max
        )

    def search_many(
        self,
        queries: Iterable[Union[str, object]],
        top_k: Optional[int] = None,
        mode: str = "context",
        path: str = "auto",
        max_workers: Optional[int] = None,
    ) -> BatchReport:
        """Batch evaluation against one snapshot, through the current
        engine's own ``search_many``."""
        return self.current_engine().search_many(
            queries, top_k=top_k, mode=mode, path=path, max_workers=max_workers
        )

    def context_statistics(self, context, keywords: Sequence[str] = ()):
        """Ground-truth context statistics, resolved segment by segment.

        Flat mode runs :class:`~repro.core.operators.SegmentStatsResolve`
        — the straightforward plan per segment, merged with
        ``StatsMerge`` — which is bit-identical to the whole-snapshot
        plan and doubles as its consistency check.  Sharded mode (and
        any ranking requesting a non-additive statistic) delegates to
        the engine's own resolution.
        """
        engine = self.current_engine()
        if not isinstance(engine, ContextSearchEngine):
            return engine.context_statistics(context, keywords)
        from ..core.operators import ExecutionContext, SegmentStatsResolve
        from ..core.query import (
            ContextQuery,
            ContextSpecification,
            KeywordQuery,
            analyze_keyword,
        )
        from ..core.statistics import CollectionStatistics
        from ..errors import QueryError

        if not isinstance(context, ContextSpecification):
            context = ContextSpecification(context)
        analyzed = [
            analyze_keyword(engine.index.analyzer, w) for w in keywords
        ] or ["__none__"]
        probe = ContextQuery(KeywordQuery(analyzed), context)
        specs = engine.ranking.required_collection_specs(analyzed)
        resolve = SegmentStatsResolve(engine.index)
        try:
            execution = resolve.run(ExecutionContext(), probe, specs)
        except QueryError:
            # Non-additive statistic requested: whole-snapshot plan.
            return engine.context_statistics(context, keywords)
        return CollectionStatistics.from_values(execution.statistic_values)

    def lifecycle_info(self) -> dict:
        """Segment/WAL/version summary (served by ``healthz`` and ``info``)."""
        return self.index.info()

    def __repr__(self) -> str:
        return (
            f"LifecycleEngine(index={self.index!r}, "
            f"shards={self.num_shards or 'flat'})"
        )
