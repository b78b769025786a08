"""The segmented index: WAL-backed ingest, flush, compaction, snapshots.

:class:`SegmentedIndex` is the mutable coordinator of the lifecycle: one
in-memory :class:`~repro.lifecycle.memtable.Memtable`, a list of
immutable :class:`~repro.lifecycle.segment.Segment` objects, a global
tombstone set, and the one :class:`~repro.lifecycle.version.VersionClock`
the whole serving stack keys freshness on.

Mutations (:meth:`add_documents`, :meth:`delete_documents`) hit the WAL
before memory, so recovery (:meth:`open`) is *manifest load + WAL
replay* and loses at most a torn final record that was never
acknowledged.  :meth:`flush` seals the memtable into a segment;
:meth:`compact` merges adjacent size-tiered segment runs and physically
drops tombstoned documents.  Every committed mutation ticks the clock,
and :meth:`snapshot` hands out an immutable
:class:`~repro.lifecycle.snapshot.Snapshot` of the state at the current
tick (cached per version — concurrent readers share one snapshot
object).

Bit-identity across the whole lifecycle: docids are arrival positions
and survive flush/compaction unchanged, analysis happens exactly once
per add with the same routine a monolithic build uses (WAL replay
re-runs it deterministically), and deleted docids vanish from every
posting list — so a ranking computed at any lifecycle point equals the
ranking of a from-scratch :class:`~repro.index.inverted_index.InvertedIndex`
over the currently-live documents.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Union

from ..errors import IndexError_
from ..index.analysis import Analyzer, KeywordAnalyzer
from ..index.documents import Document, StoredDocument
from ..index.inverted_index import (
    DEFAULT_PREDICATE_FIELD,
    DEFAULT_SEARCHABLE_FIELDS,
)
from ..index.postings import DEFAULT_SEGMENT_SIZE
from .memtable import Memtable
from .segment import Segment
from .snapshot import Snapshot
from .storage import SEGMENT_FORMAT_VERSION, SegmentStorage
from .version import VersionClock
from .wal import OP_ADD, WriteAheadLog, replay_wal

__all__ = ["SegmentedIndex", "CompactionReport"]

# Default memtable size (documents) above which auto_flush seals.
DEFAULT_FLUSH_THRESHOLD = 1000

# Size-tiering: adjacent segments whose live-doc counts fall in the same
# power-of-`TIER_BASE` bucket are merge candidates.
TIER_BASE = 4


@dataclass
class CompactionReport:
    """What one :meth:`SegmentedIndex.compact` call did."""

    merged: List[List[str]] = field(default_factory=list)
    created: List[str] = field(default_factory=list)
    dropped_documents: int = 0
    segments_before: int = 0
    segments_after: int = 0

    @property
    def changed(self) -> bool:
        return bool(self.merged) or self.dropped_documents > 0


class SegmentedIndex:
    """Mutable segmented index with snapshot-isolated reads.

    ``directory=None`` gives a purely in-memory index (no WAL, no
    manifest) with identical semantics — the shape unit tests and
    short-lived tools use.
    """

    def __init__(
        self,
        directory=None,
        analyzer: Optional[Analyzer] = None,
        predicate_analyzer: Optional[Analyzer] = None,
        searchable_fields: Sequence[str] = DEFAULT_SEARCHABLE_FIELDS,
        predicate_field: str = DEFAULT_PREDICATE_FIELD,
        segment_size: int = DEFAULT_SEGMENT_SIZE,
        flush_threshold: int = DEFAULT_FLUSH_THRESHOLD,
    ):
        self.analyzer = analyzer if analyzer is not None else Analyzer()
        self.predicate_analyzer = (
            predicate_analyzer
            if predicate_analyzer is not None
            else KeywordAnalyzer()
        )
        self.searchable_fields = tuple(searchable_fields)
        self.predicate_field = predicate_field
        self.segment_size = segment_size
        self.flush_threshold = flush_threshold

        self._lock = threading.RLock()
        self._clock = VersionClock()
        self._segments: List[Segment] = []
        self._tombstones: set = set()
        # external id → internal docid for every live document (segments
        # and memtable alike): the delete path's routing table.
        self._live: Dict[str, int] = {}
        self._next_segment_number = 0
        self._dirty = False  # uncommitted state since the last manifest
        self._snapshot_cache: Optional[Snapshot] = None

        self._storage: Optional[SegmentStorage] = None
        self._wal: Optional[WriteAheadLog] = None
        self._memtable = self._new_memtable(0)
        if directory is not None:
            self._storage = SegmentStorage(directory)
            self._wal = WriteAheadLog(
                self._storage.wal_path(self._storage.default_wal_name())
            )
            # A directory can hold acknowledged mutations that never made
            # it to a first manifest commit (crash before any flush).
            # They live in the default WAL generation; replay them.
            records = replay_wal(self._wal.path)
            for record in records:
                if record["op"] == OP_ADD:
                    self._apply_add(
                        Document(record["doc_id"], record["fields"])
                    )
                else:
                    self._apply_delete(record["doc_id"])
            if records:
                self._clock.advance()
                self._dirty = True

    # -- construction / recovery -----------------------------------------

    @classmethod
    def open(
        cls,
        directory,
        analyzer: Optional[Analyzer] = None,
        predicate_analyzer: Optional[Analyzer] = None,
        flush_threshold: int = DEFAULT_FLUSH_THRESHOLD,
    ) -> "SegmentedIndex":
        """Open (or create) a segmented index directory.

        Crash recovery in two steps: load the manifest's committed state
        (precompiled segments — O(postings), no re-tokenisation), then
        replay the live WAL generation through the ordinary mutation
        paths, which reproduces the pre-crash memtable and tombstones
        bit-identically.  Analyzer arguments matter only for a fresh or
        replayed corpus and must match what built the directory.
        """
        storage = SegmentStorage(directory)
        state = storage.load()
        if state is None:
            return cls(
                directory=directory,
                analyzer=analyzer,
                predicate_analyzer=predicate_analyzer,
                flush_threshold=flush_threshold,
            )
        index = cls.__new__(cls)
        index.analyzer = analyzer if analyzer is not None else Analyzer()
        index.predicate_analyzer = (
            predicate_analyzer
            if predicate_analyzer is not None
            else KeywordAnalyzer()
        )
        config = state.config
        index.searchable_fields = tuple(
            config.get("searchable_fields", DEFAULT_SEARCHABLE_FIELDS)
        )
        index.predicate_field = config.get(
            "predicate_field", DEFAULT_PREDICATE_FIELD
        )
        index.segment_size = config.get("segment_size", DEFAULT_SEGMENT_SIZE)
        index.flush_threshold = flush_threshold

        index._lock = threading.RLock()
        index._clock = VersionClock()
        index._clock.advance_to(state.version)
        index._segments = list(state.segments)
        index._tombstones = set(state.tombstones)
        index._live = {}
        for segment in index._segments:
            for doc in segment.live_documents(index._tombstones):
                index._live[doc.external_id] = doc.internal_id
        index._next_segment_number = state.next_segment_number
        index._dirty = False
        index._snapshot_cache = None
        index._storage = storage
        index._wal = WriteAheadLog(storage.wal_path(state.wal_name))
        index._memtable = index._new_memtable(state.next_doc_id)

        records = replay_wal(index._wal.path)
        for record in records:
            if record["op"] == OP_ADD:
                index._apply_add(
                    Document(record["doc_id"], record["fields"])
                )
            else:
                index._apply_delete(record["doc_id"])
        if records:
            index._clock.advance()
            index._dirty = True
        return index

    def _new_memtable(self, next_doc_id: int) -> Memtable:
        return Memtable(
            self.analyzer,
            self.predicate_analyzer,
            self.searchable_fields,
            self.predicate_field,
            next_doc_id=next_doc_id,
        )

    # -- mutations --------------------------------------------------------

    def add_documents(
        self, documents: Iterable[Document], auto_flush: bool = False
    ) -> List[StoredDocument]:
        """WAL-log and buffer a batch of documents (one clock tick).

        ``auto_flush=True`` seals the memtable whenever it crosses
        ``flush_threshold`` documents (bulk-ingest convenience).
        """
        documents = list(documents)
        with self._lock:
            stored: List[StoredDocument] = []
            for document in documents:
                if self._wal is not None:
                    self._wal.log_add(document)
                stored.append(self._apply_add(document))
                if auto_flush and len(self._memtable) >= self.flush_threshold:
                    self.flush()
            if documents:
                self._clock.advance()
                self._dirty = True
            return stored

    def delete_documents(self, external_ids: Iterable[str]) -> int:
        """WAL-log and apply tombstone deletes (one clock tick).

        Unknown ids raise :class:`~repro.errors.IndexError_` before
        anything is logged, so a failed call mutates nothing.
        """
        external_ids = list(external_ids)
        with self._lock:
            missing = [e for e in external_ids if e not in self._live]
            if missing:
                raise IndexError_(
                    f"cannot delete unknown document ids: {missing!r}"
                )
            for external_id in external_ids:
                if self._wal is not None:
                    self._wal.log_delete(external_id)
                self._apply_delete(external_id)
            if external_ids:
                self._clock.advance()
                self._dirty = True
            return len(external_ids)

    def _apply_add(self, document: Document) -> StoredDocument:
        if document.doc_id in self._live:
            raise IndexError_(f"duplicate document id: {document.doc_id!r}")
        stored = self._memtable.add(document)
        self._live[document.doc_id] = stored.internal_id
        return stored

    def _apply_delete(self, external_id: str) -> None:
        internal = self._live.pop(external_id)
        if self._memtable.delete(external_id) is None:
            # Sealed in a segment: mark, drop physically at compaction.
            self._tombstones.add(internal)

    # -- lifecycle transitions --------------------------------------------

    def flush(self) -> Optional[Segment]:
        """Seal the memtable into an immutable segment and commit.

        Returns the new segment, or ``None`` when the memtable was empty
        (uncommitted tombstones still get persisted in that case).  The
        commit writes the segment file and manifest atomically and
        starts a fresh WAL generation — acknowledged mutations are now
        owned by the manifest, not the log.
        """
        with self._lock:
            segment = None
            if len(self._memtable):
                segment = Segment.build(
                    self._next_segment_id(),
                    self._memtable.documents(),
                    self.searchable_fields,
                    self.predicate_field,
                    segment_size=self.segment_size,
                )
                self._segments.append(segment)
                self._memtable = self._new_memtable(self._memtable.next_doc_id)
                self._clock.advance()
            if self._dirty or segment is not None:
                self._commit()
            return segment

    def compact(self, full: bool = False) -> CompactionReport:
        """Merge size-tiered adjacent segment runs; drop tombstones.

        ``full=True`` merges everything into one segment regardless of
        tiering.  The memtable is flushed first, so compaction always
        operates on sealed state.  Merged segments physically shed their
        tombstoned documents; the corresponding tombstones leave the
        global set.  One clock tick if anything changed.
        """
        with self._lock:
            self.flush()
            report = CompactionReport(segments_before=len(self._segments))
            runs = (
                [list(range(len(self._segments)))]
                if full
                else self._tiered_runs()
            )
            changed = False
            new_segments: List[Segment] = []
            consumed: set = set()
            run_by_start = {
                run[0]: run for run in runs if run and self._run_useful(run)
            }
            i = 0
            while i < len(self._segments):
                run = run_by_start.get(i)
                if run is None:
                    if i not in consumed:
                        new_segments.append(self._segments[i])
                    i += 1
                    continue
                members = [self._segments[j] for j in run]
                consumed.update(run)
                live = sum(
                    len(s.live_documents(self._tombstones)) for s in members
                )
                dropped = sum(s.num_docs for s in members) - live
                report.merged.append([s.segment_id for s in members])
                report.dropped_documents += dropped
                if live:
                    merged = Segment.merge(
                        self._next_segment_id(),
                        members,
                        self._tombstones,
                        segment_size=self.segment_size,
                    )
                    new_segments.append(merged)
                    report.created.append(merged.segment_id)
                # Tombstones inside the merged range are now physical.
                for member in members:
                    for doc in member.documents:
                        self._tombstones.discard(doc.internal_id)
                changed = True
                i = run[-1] + 1
            if changed:
                self._segments = new_segments
                self._clock.advance()
                self._dirty = True
                self._commit()
            report.segments_after = len(self._segments)
            return report

    def _run_useful(self, run: List[int]) -> bool:
        """A run is worth merging if it joins segments or drops docs."""
        if len(run) > 1:
            return True
        segment = self._segments[run[0]]
        return any(
            segment.min_doc_id <= t <= segment.max_doc_id
            for t in self._tombstones
        )

    def _tiered_runs(self) -> List[List[int]]:
        """Size-tiered candidate runs over *adjacent* segments.

        Two neighbours belong to one run when their live-doc counts fall
        in the same power-of-``TIER_BASE`` bucket — the classic
        size-tiered policy restricted to adjacency, which compaction
        needs to preserve ascending docid ranges without renumbering.
        Single-segment runs survive only when they would physically drop
        tombstoned documents (see :meth:`_run_useful`).
        """

        def tier(index: int) -> int:
            live = len(self._segments[index].live_documents(self._tombstones))
            t = 0
            while live >= TIER_BASE:
                live //= TIER_BASE
                t += 1
            return t

        runs: List[List[int]] = []
        current: List[int] = []
        current_tier = None
        for i in range(len(self._segments)):
            t = tier(i)
            if current and t == current_tier:
                current.append(i)
            else:
                if current:
                    runs.append(current)
                current = [i]
                current_tier = t
        if current:
            runs.append(current)
        return runs

    def _next_segment_id(self) -> str:
        segment_id = f"seg-{self._next_segment_number:06d}"
        self._next_segment_number += 1
        return segment_id

    def _commit(self) -> None:
        """Persist segments + manifest; rotate the WAL generation."""
        if self._storage is None:
            self._dirty = False
            return
        wal_name = self._storage.commit(
            self._segments,
            self._tombstones,
            next_doc_id=self._memtable.next_doc_id,
            next_segment_number=self._next_segment_number,
            version=self._clock.version,
            config={
                "searchable_fields": list(self.searchable_fields),
                "predicate_field": self.predicate_field,
                "segment_size": self.segment_size,
            },
        )
        if self._wal is not None:
            self._wal.close()
        self._wal = WriteAheadLog(self._storage.wal_path(wal_name))
        self._dirty = False

    def close(self) -> None:
        """Release the WAL handle and every segment's backing reader.

        State stays on disk; the index object must not be used after
        closing (block-backed segments raise ``StorageError`` on any
        read that needs an undecoded block).  Idempotent.
        """
        if self._wal is not None:
            self._wal.close()
            self._wal = None
        cached, self._snapshot_cache = self._snapshot_cache, None
        if cached is not None:
            cached.close()
        for segment in self._segments:
            segment.close()

    def __enter__(self) -> "SegmentedIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- reads ------------------------------------------------------------

    def snapshot(self) -> Snapshot:
        """The immutable read view at the current version (cached).

        An unflushed memtable is made searchable by sealing its live
        documents into an *ephemeral* segment — compiled like a real
        one, never persisted — so reads always see acknowledged writes.
        """
        with self._lock:
            version = self._clock.version
            cached = self._snapshot_cache
            if cached is not None and cached.version == version:
                return cached
            segments = list(self._segments)
            if len(self._memtable):
                segments.append(
                    Segment.build(
                        "memtable",
                        self._memtable.documents(),
                        self.searchable_fields,
                        self.predicate_field,
                        segment_size=self.segment_size,
                        ephemeral=True,
                    )
                )
            snapshot = Snapshot(
                segments,
                frozenset(self._tombstones),
                version,
                self.analyzer,
                self.predicate_analyzer,
                self.searchable_fields,
                self.predicate_field,
                self.segment_size,
            )
            self._snapshot_cache = snapshot
            return snapshot

    @property
    def epoch(self) -> int:
        """The single version clock every cache in the system consumes."""
        return self._clock.version

    def bump_version(self) -> int:
        """Advance the version clock without a data mutation.

        A catalog hot-swap changes *how* statistics are resolved (never
        what they are), but every epoch-guarded cache and the per-version
        engine cache key on this clock — bumping it is what makes the
        swap a snapshot-version boundary.  Marks the index dirty so the
        new version reaches the manifest on the next commit.
        """
        with self._lock:
            self._clock.advance()
            self._dirty = True
            return self._clock.version

    committed = True

    def __len__(self) -> int:
        return len(self._live)

    @property
    def num_docs(self) -> int:
        """Live document count (memtable + segments − tombstones)."""
        return len(self._live)

    @property
    def num_segments(self) -> int:
        return len(self._segments)

    def get_document(self, external_id: str) -> Optional[StoredDocument]:
        """Look up one live document by external id."""
        with self._lock:
            stored = self._memtable.get(external_id)
            if stored is not None:
                return stored
            internal = self._live.get(external_id)
            if internal is None:
                return None
            for segment in self._segments:
                if segment.min_doc_id <= internal <= segment.max_doc_id:
                    for doc in segment.documents:
                        if doc.internal_id == internal:
                            return doc
            return None

    def info(self) -> dict:
        """Operational summary (the CLI's ``info`` subcommand body)."""
        with self._lock:
            snapshot = self.snapshot()
            return {
                "directory": (
                    str(self._storage.directory) if self._storage else None
                ),
                "version": self._clock.version,
                "live_docs": len(self._live),
                "memtable_docs": len(self._memtable),
                "tombstones": len(self._tombstones),
                "next_doc_id": self._memtable.next_doc_id,
                "segments": snapshot.segment_summary(),
                "wal_records": (
                    len(replay_wal(self._wal.path)) if self._wal else 0
                ),
                "storage": self._storage_info(),
            }

    def _storage_info(self) -> Optional[dict]:
        """On-disk footprint per segment file (``None`` when in-memory)."""
        if self._storage is None:
            return None
        from .storage import SEGMENT_DIR

        files = []
        total_bytes = 0
        total_docs = 0
        for segment in self._segments:
            name = self._storage._segment_file_name(segment.segment_id)
            path = self._storage.directory / SEGMENT_DIR / name
            try:
                size = path.stat().st_size
            except OSError:
                # Not yet committed (e.g. flushed but crash before
                # manifest) — report what is actually on disk.
                continue
            files.append(
                {
                    "segment_id": segment.segment_id,
                    "file": name,
                    "format": SEGMENT_FORMAT_VERSION,
                    "bytes": size,
                    "num_docs": segment.num_docs,
                }
            )
            total_bytes += size
            total_docs += segment.num_docs
        return {
            "segment_format": SEGMENT_FORMAT_VERSION,
            "codec": "block-v4",
            "files": files,
            "total_bytes": total_bytes,
            "bytes_per_doc": (
                round(total_bytes / total_docs, 2) if total_docs else 0.0
            ),
        }

    def __repr__(self) -> str:
        return (
            f"SegmentedIndex(segments={len(self._segments)}, "
            f"memtable={len(self._memtable)}, live={len(self._live)}, "
            f"version={self._clock.version})"
        )
