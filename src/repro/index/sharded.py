"""Horizontal partitioning of the document collection (ROADMAP: sharding).

A sharded index splits the collection into ``N`` disjoint sub-collections,
each carrying its own full :class:`~repro.index.inverted_index.InvertedIndex`.
The split is *exactness-preserving* for everything the paper's ranking
needs: every collection-specific statistic of Table 1 except ``utc`` is a
sum over documents (``|D_P|``, ``len(D_P)``, ``df(w, D_P)``, ``tc(w, D_P)``),
so per-shard partial aggregates merge into the global value by integer
addition — no approximation, no rounding.

Each shard records a ``global_ids`` column mapping its local docids to the
document's *arrival position* in the unsharded collection.  That position
is exactly the internal docid a single-shard index would have assigned,
which is what lets the sharded engine reproduce single-shard rankings
bit-identically, including docid tie-breaks.
"""

from __future__ import annotations

import zlib
from array import array
from typing import Iterable, List, Optional, Sequence

from ..errors import IndexError_
from .analysis import Analyzer
from .documents import Document
from .inverted_index import (
    DEFAULT_PREDICATE_FIELD,
    DEFAULT_SEARCHABLE_FIELDS,
    InvertedIndex,
)
from .postings import DEFAULT_SEGMENT_SIZE


class ShardPartitioner:
    """Assigns every document to exactly one of ``num_shards`` shards."""

    name = "base"

    def __init__(self, num_shards: int):
        if num_shards < 1:
            raise IndexError_(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = num_shards

    def assign(self, external_id: str, position: int, total: int) -> int:
        """Shard id for a document given its id and arrival position."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(num_shards={self.num_shards})"


class HashPartitioner(ShardPartitioner):
    """Stable content hash of the external id — balanced and order-free.

    Uses ``crc32`` rather than ``hash()`` so the assignment is identical
    across interpreter runs (``PYTHONHASHSEED`` never leaks into shard
    layout) and across machines, which persistence relies on.
    """

    name = "hash"

    def assign(self, external_id: str, position: int, total: int) -> int:
        return zlib.crc32(external_id.encode("utf-8")) % self.num_shards


class RangePartitioner(ShardPartitioner):
    """Contiguous arrival-order ranges — locality-preserving splits."""

    name = "range"

    def assign(self, external_id: str, position: int, total: int) -> int:
        if total <= 0:
            return 0
        return min(self.num_shards - 1, position * self.num_shards // total)


_PARTITIONERS = {cls.name: cls for cls in (HashPartitioner, RangePartitioner)}


def make_partitioner(name: str, num_shards: int) -> ShardPartitioner:
    """Instantiate a partitioner by its persisted name."""
    cls = _PARTITIONERS.get(name)
    if cls is None:
        raise IndexError_(
            f"unknown partitioner {name!r} (have {sorted(_PARTITIONERS)})"
        )
    return cls(num_shards)


class IndexShard:
    """One shard: a standalone committed index plus the local→global map."""

    __slots__ = ("shard_id", "index", "global_ids")

    def __init__(self, shard_id: int, index: InvertedIndex, global_ids: array):
        if len(global_ids) != index.num_docs:
            raise IndexError_(
                f"shard {shard_id}: {len(global_ids)} global ids for "
                f"{index.num_docs} documents"
            )
        self.shard_id = shard_id
        self.index = index
        self.global_ids = global_ids

    def __repr__(self) -> str:
        return f"IndexShard(id={self.shard_id}, docs={self.index.num_docs})"


class ShardedInvertedIndex:
    """``N`` disjoint sub-indexes presenting summed global statistics.

    Construction goes through :meth:`build` (from raw documents, one
    analysis pass) or :meth:`from_index` (redistributing an existing
    committed index without re-analysis).  Global reads are exact merges
    of per-shard values: sums for cardinality/length/df/tc, max for
    ``max_tf``.
    """

    def __init__(self, shards: Sequence[IndexShard], partitioner: ShardPartitioner):
        if not shards:
            raise IndexError_("a sharded index needs at least one shard")
        if len(shards) != partitioner.num_shards:
            raise IndexError_(
                f"{len(shards)} shards for a {partitioner.num_shards}-way partitioner"
            )
        self.shards: List[IndexShard] = list(shards)
        self.partitioner = partitioner
        first = self.shards[0].index
        self.searchable_fields = first.searchable_fields
        self.predicate_field = first.predicate_field
        self.segment_size = first.segment_size
        # One mutation clock for the whole partitioned collection: every
        # shard index is rebound to it, so an append on any shard ticks
        # the same clock every cache reads (no per-shard counters to sum).
        # Imported here, not at module level: repro.index initialises
        # before repro.core during package import.
        from ..core.backend import VersionClock

        self._clock = VersionClock()
        for shard in self.shards:
            shard.index._clock = self._clock

    def close(self) -> None:
        """Release every shard index's resources (idempotent).

        Shards loaded from binary block files hold an mmap each; plain
        in-memory shards close as a no-op.
        """
        for shard in self.shards:
            shard.index.close()

    def __enter__(self) -> "ShardedInvertedIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- construction ---------------------------------------------------

    @classmethod
    def build(
        cls,
        documents: Iterable[Document],
        num_shards: int,
        partitioner: str = "hash",
        analyzer: Optional[Analyzer] = None,
        searchable_fields: Sequence[str] = DEFAULT_SEARCHABLE_FIELDS,
        predicate_field: str = DEFAULT_PREDICATE_FIELD,
        segment_size: int = DEFAULT_SEGMENT_SIZE,
    ) -> "ShardedInvertedIndex":
        """Partition raw documents and build one committed index per shard.

        Documents are materialised once up front (the range partitioner
        needs the collection size); each document is analysed exactly once,
        inside the shard it lands in.
        """
        documents = list(documents)
        part = make_partitioner(partitioner, num_shards)
        indexes = [
            InvertedIndex(
                analyzer=analyzer,
                searchable_fields=searchable_fields,
                predicate_field=predicate_field,
                segment_size=segment_size,
            )
            for _ in range(num_shards)
        ]
        global_ids = [array("q") for _ in range(num_shards)]
        total = len(documents)
        for position, document in enumerate(documents):
            shard_id = part.assign(document.doc_id, position, total)
            indexes[shard_id].add(document)
            global_ids[shard_id].append(position)
        shards = [
            IndexShard(shard_id, index.commit(), ids)
            for shard_id, (index, ids) in enumerate(zip(indexes, global_ids))
        ]
        return cls(shards, part)

    @classmethod
    def from_index(
        cls,
        index: InvertedIndex,
        num_shards: int,
        partitioner: str = "hash",
    ) -> "ShardedInvertedIndex":
        """Redistribute a committed single index into ``num_shards`` shards.

        Stored documents carry their analysed token streams, so no
        analyser runs; the original internal docid (arrival position)
        becomes the shard's global id, preserving tie-break order.
        """
        if not index.committed:
            raise IndexError_("from_index requires a committed index")
        part = make_partitioner(partitioner, num_shards)
        indexes = [
            InvertedIndex(
                analyzer=index.analyzer,
                predicate_analyzer=index.predicate_analyzer,
                searchable_fields=index.searchable_fields,
                predicate_field=index.predicate_field,
                segment_size=index.segment_size,
            )
            for _ in range(num_shards)
        ]
        global_ids = [array("q") for _ in range(num_shards)]
        total = index.num_docs
        for stored in index.store:
            shard_id = part.assign(stored.external_id, stored.internal_id, total)
            indexes[shard_id].add_preanalyzed(
                stored.external_id, stored.field_tokens
            )
            global_ids[shard_id].append(stored.internal_id)
        shards = [
            IndexShard(shard_id, shard_index.commit(), ids)
            for shard_id, (shard_index, ids) in enumerate(zip(indexes, global_ids))
        ]
        return cls(shards, part)

    # -- global reads (exact merges) ------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def committed(self) -> bool:
        return all(shard.index.committed for shard in self.shards)

    @property
    def epoch(self) -> int:
        """The shared :class:`~repro.core.backend.VersionClock` value:
        any shard's append ticks the one clock all shards share."""
        return self._clock.version

    def __len__(self) -> int:
        return self.num_docs

    @property
    def num_docs(self) -> int:
        """Global ``|D|``: sum of shard cardinalities."""
        return sum(shard.index.num_docs for shard in self.shards)

    @property
    def total_length(self) -> int:
        """Global ``len(D)``: sum of shard token totals."""
        return sum(shard.index.total_length for shard in self.shards)

    def document_frequency(self, term: str) -> int:
        """Global ``df(w, D)``: shards are disjoint, so df sums exactly."""
        return sum(shard.index.document_frequency(term) for shard in self.shards)

    def predicate_frequency(self, term: str) -> int:
        """Global ``|L_m|``: sum of shard predicate-list lengths."""
        return sum(shard.index.predicate_frequency(term) for shard in self.shards)

    def term_count(self, term: str) -> int:
        """Global ``tc(w, D)``: summed tf over every shard's posting list."""
        return sum(
            sum(tf for _, tf in shard.index.postings(term))
            for shard in self.shards
        )

    def max_tf(self, term: str) -> int:
        """Global largest tf of ``term`` — the max of per-shard maxima.

        Feeds the shared per-term score upper bounds the sharded engine
        hands every shard's MaxScore scorer, so all shards (and the
        single-shard reference) prune against identical bounds.
        """
        return max(shard.index.postings(term).max_tf for shard in self.shards)

    def average_document_length(self) -> float:
        """Global ``avgdl = len(D) / |D|``."""
        docs = self.num_docs
        if not docs:
            return 0.0
        return self.total_length / docs

    def __repr__(self) -> str:
        sizes = [shard.index.num_docs for shard in self.shards]
        return (
            f"ShardedInvertedIndex(shards={self.num_shards}, "
            f"partitioner={self.partitioner.name!r}, docs={sizes})"
        )


def shard_documents(
    documents: Sequence[Document], partitioner: ShardPartitioner
) -> List[List[Document]]:
    """Split raw documents by shard (inspection/test helper)."""
    buckets: List[List[Document]] = [[] for _ in range(partitioner.num_shards)]
    total = len(documents)
    for position, document in enumerate(documents):
        buckets[partitioner.assign(document.doc_id, position, total)].append(
            document
        )
    return buckets
