"""Immutable sealed segments: the unit of storage, merge, and read.

A segment is a frozen slice of the collection: the stored documents that
were in the memtable when :meth:`~repro.lifecycle.index.SegmentedIndex.flush`
ran, plus fully-compiled content/predicate posting lists and the
per-segment statistics (cardinality, token total) that the statistics
merge layer folds into snapshot-wide values.

Two invariants make segments composable without re-sorting anything:

* **Disjoint ascending docid ranges.**  Docids are global arrival
  positions and segments seal in arrival order, so segment *k+1*'s
  smallest docid exceeds segment *k*'s largest.  Snapshot posting
  compilation is therefore plain per-term concatenation, and compaction
  of *adjacent* segments is plain per-term array filtering — neither
  ever sorts or renumbers.
* **Immutability.**  Once built, a segment never changes; deletes are
  tombstones held next to the segment list, applied at read time and
  dropped physically only when compaction rewrites the segment.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from ..errors import IndexError_
from ..index.documents import StoredDocument
from ..index.inverted_index import content_term_frequencies
from ..index.postings import DEFAULT_SEGMENT_SIZE, PostingList

__all__ = ["Segment"]


class Segment:
    """One immutable slice of the collection with precompiled postings."""

    __slots__ = (
        "segment_id",
        "documents",
        "content",
        "predicates",
        "segment_size",
        "min_doc_id",
        "max_doc_id",
        "total_length",
        "ephemeral",
        "_source",
    )

    def __init__(
        self,
        segment_id: str,
        documents: Sequence[StoredDocument],
        content: Dict[str, PostingList],
        predicates: Dict[str, PostingList],
        segment_size: int = DEFAULT_SEGMENT_SIZE,
        ephemeral: bool = False,
    ):
        if not documents:
            raise IndexError_(f"segment {segment_id!r} cannot be empty")
        self.segment_id = segment_id
        self.documents: Tuple[StoredDocument, ...] = tuple(documents)
        self.content = content
        self.predicates = predicates
        self.segment_size = segment_size
        self.min_doc_id = self.documents[0].internal_id
        self.max_doc_id = self.documents[-1].internal_id
        self.total_length = sum(doc.length for doc in self.documents)
        # Ephemeral segments are snapshot-time seals of the live memtable:
        # they make unflushed writes searchable but are never persisted.
        self.ephemeral = ephemeral
        # The mmap-backed reader this segment decodes from, when it was
        # loaded from a block-format (v4) file; owned by the segment.
        self._source = None

    def attach_source(self, source) -> None:
        """Adopt the block-file reader backing this segment's lazy lists."""
        self._source = source

    def close(self) -> None:
        """Release the backing reader, if any (idempotent).

        In-memory segments (freshly built, merged, or decoded from JSON
        payloads) hold no resources and close as a no-op.
        """
        source, self._source = self._source, None
        if source is not None:
            source.close()

    # -- construction ----------------------------------------------------

    @classmethod
    def build(
        cls,
        segment_id: str,
        documents: Sequence[StoredDocument],
        searchable_fields: Sequence[str],
        predicate_field: str,
        segment_size: int = DEFAULT_SEGMENT_SIZE,
        ephemeral: bool = False,
    ) -> "Segment":
        """Compile a segment from analysed documents (ascending docids).

        This is the seal step of ``flush``: one pass over the documents
        accumulates docid/tf columns per term (docids already arrive
        sorted, so the columns freeze without validation), exactly the
        posting-construction rule of the flat index — which is what
        keeps segment reads bit-identical to a monolithic rebuild.
        """
        content_acc: Dict[str, Tuple[array, array]] = {}
        predicate_acc: Dict[str, array] = {}
        previous = None
        for stored in documents:
            if previous is not None and stored.internal_id <= previous:
                raise IndexError_(
                    f"segment {segment_id!r}: docids must ascend "
                    f"({stored.internal_id} after {previous})"
                )
            previous = stored.internal_id
            tf_counts = content_term_frequencies(
                stored.field_tokens, searchable_fields
            )
            for term, tf in tf_counts.items():
                columns = content_acc.get(term)
                if columns is None:
                    columns = (array("q"), array("q"))
                    content_acc[term] = columns
                columns[0].append(stored.internal_id)
                columns[1].append(tf)
            for term in set(stored.field_tokens.get(predicate_field, ())):
                column = predicate_acc.get(term)
                if column is None:
                    column = array("q")
                    predicate_acc[term] = column
                column.append(stored.internal_id)
        content = {
            term: PostingList.from_arrays(
                term, ids, tfs, segment_size=segment_size, validate=False
            )
            for term, (ids, tfs) in content_acc.items()
        }
        predicates = {
            term: PostingList.from_arrays(
                term,
                ids,
                array("q", [1]) * len(ids),
                segment_size=segment_size,
                validate=False,
            )
            for term, ids in predicate_acc.items()
        }
        return cls(
            segment_id,
            documents,
            content,
            predicates,
            segment_size=segment_size,
            ephemeral=ephemeral,
        )

    @classmethod
    def merge(
        cls,
        segment_id: str,
        segments: Sequence["Segment"],
        tombstones: Set[int],
        segment_size: int = DEFAULT_SEGMENT_SIZE,
    ) -> "Segment":
        """Merge *adjacent* segments, physically dropping tombstoned docs.

        Adjacency (caller-guaranteed: the segments cover consecutive
        docid ranges in order) means merged posting columns are the
        concatenation of the inputs' columns minus tombstoned entries —
        an O(postings) array filter, no re-tokenisation, no sort.  The
        surviving documents keep their global docids; the gaps left by
        dropped docs are invisible to ranking because no posting refers
        to them.
        """
        if not segments:
            raise IndexError_("segment merge needs at least one input")
        for before, after in zip(segments, segments[1:]):
            if after.min_doc_id <= before.max_doc_id:
                raise IndexError_(
                    f"segment merge requires adjacent ascending inputs; "
                    f"{after.segment_id!r} overlaps {before.segment_id!r}"
                )
        documents = [
            doc
            for segment in segments
            for doc in segment.documents
            if doc.internal_id not in tombstones
        ]
        if not documents:
            raise IndexError_(
                f"segment merge of {[s.segment_id for s in segments]} "
                "would be empty (caller should drop instead)"
            )
        content = _merge_posting_maps(
            (segment.content for segment in segments), tombstones, segment_size
        )
        predicates = _merge_posting_maps(
            (segment.predicates for segment in segments), tombstones, segment_size
        )
        return cls(
            segment_id, documents, content, predicates, segment_size=segment_size
        )

    # -- reads -----------------------------------------------------------

    @property
    def num_docs(self) -> int:
        return len(self.documents)

    def live_documents(self, tombstones: Set[int]) -> List[StoredDocument]:
        """Documents surviving the given tombstone set, docid order."""
        return [
            doc for doc in self.documents if doc.internal_id not in tombstones
        ]

    def __repr__(self) -> str:
        return (
            f"Segment(id={self.segment_id!r}, docs={self.num_docs}, "
            f"docids=[{self.min_doc_id}..{self.max_doc_id}]"
            f"{', ephemeral' if self.ephemeral else ''})"
        )


def _merge_posting_maps(
    posting_maps: Iterable[Dict[str, PostingList]],
    tombstones: Set[int],
    segment_size: int,
) -> Dict[str, PostingList]:
    """Concatenate per-term columns across maps, filtering tombstones."""
    merged: Dict[str, Tuple[array, array]] = {}
    for posting_map in posting_maps:
        for term, plist in posting_map.items():
            columns = merged.get(term)
            if columns is None:
                columns = (array("q"), array("q"))
                merged[term] = columns
            ids, tfs = columns
            # Bulk columns: a lazy v4 list decodes without promoting,
            # so the old segment pins none of its lists.
            list_ids, list_tfs = plist.columns()
            if tombstones and not tombstones.isdisjoint(list_ids):
                for doc_id, tf in zip(list_ids, list_tfs):
                    if doc_id not in tombstones:
                        ids.append(doc_id)
                        tfs.append(tf)
            else:
                # No deletions touch this list: one C-level extend.
                ids.extend(list_ids)
                tfs.extend(list_tfs)
    return {
        term: PostingList.from_arrays(
            term, ids, tfs, segment_size=segment_size, validate=False
        )
        for term, (ids, tfs) in merged.items()
        if len(ids)
    }
