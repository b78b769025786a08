"""The inverted index: the Lucene stand-in the whole system builds on.

Two posting spaces are kept, mirroring the paper's setup over PubMed:

* the **content** space indexes the searchable fields (title, abstract) —
  keyword queries ``Q_k`` run here;
* the **predicate** space indexes the predicate field (MeSH annotations) —
  context specifications ``P`` run here (Definition 1).

Both are `<docid, tf>` posting lists with skip pointers.  Collection-wide
statistics over the *whole* collection (``df(w, D)``, ``len(D)``, ``|D|``)
are maintained at index time, exactly as conventional engines do; only the
per-context versions need query-time work.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import IndexError_
from .analysis import Analyzer, KeywordAnalyzer
from .documents import Document, DocumentStore, StoredDocument
from .postings import DEFAULT_SEGMENT_SIZE, PostingList

DEFAULT_SEARCHABLE_FIELDS = ("title", "abstract")
DEFAULT_PREDICATE_FIELD = "mesh"


def analyze_document_fields(
    document: Document,
    analyzer: Analyzer,
    predicate_analyzer: Analyzer,
    searchable_fields: Sequence[str],
    predicate_field: str,
) -> Dict[str, List[str]]:
    """Analyse searchable/predicate fields; keep other fields raw.

    The one analysis routine shared by the flat index and the segment
    lifecycle's memtable, so a WAL replay or a segment rebuild produces
    token streams bit-identical to the original ingest.  Extra fields
    (e.g. a ``year`` attribute) are whitespace-split and stored
    unanalysed so attribute indexes can be rebuilt from the index.
    """
    field_tokens: Dict[str, List[str]] = {}
    for name in searchable_fields:
        field_tokens[name] = analyzer.analyze(document.text(name))
    field_tokens[predicate_field] = predicate_analyzer.analyze(
        document.text(predicate_field)
    )
    for name, text in document.fields.items():
        if name not in field_tokens:
            field_tokens[name] = text.split()
    return field_tokens


def content_term_frequencies(
    field_tokens: Dict[str, List[str]], searchable_fields: Sequence[str]
) -> Dict[str, int]:
    """``tf(w, d)`` over the searchable fields of one analysed document."""
    tf_counts: Dict[str, int] = {}
    for name in searchable_fields:
        for token in field_tokens.get(name, ()):
            tf_counts[token] = tf_counts.get(token, 0) + 1
    return tf_counts


class InvertedIndex:
    """In-memory inverted index over a document collection.

    Usage::

        index = InvertedIndex()
        for doc in docs:
            index.add(doc)
        index.commit()

    Reads (postings, statistics) are only valid after :meth:`commit`.
    """

    def __init__(
        self,
        analyzer: Optional[Analyzer] = None,
        predicate_analyzer: Optional[Analyzer] = None,
        searchable_fields: Sequence[str] = DEFAULT_SEARCHABLE_FIELDS,
        predicate_field: str = DEFAULT_PREDICATE_FIELD,
        segment_size: int = DEFAULT_SEGMENT_SIZE,
    ):
        self.analyzer = analyzer if analyzer is not None else Analyzer()
        self.predicate_analyzer = (
            predicate_analyzer if predicate_analyzer is not None else KeywordAnalyzer()
        )
        self.searchable_fields = tuple(searchable_fields)
        self.predicate_field = predicate_field
        self.segment_size = segment_size

        self.store = DocumentStore()
        self._content_acc: Dict[str, List[Tuple[int, int]]] = {}
        self._predicate_acc: Dict[str, List[Tuple[int, int]]] = {}
        self._content: Dict[str, PostingList] = {}
        self._predicates: Dict[str, PostingList] = {}
        self._total_length = 0
        self._committed = False
        # The single mutation clock (see repro.core.backend); a sharded
        # wrapper rebinds this so all shards tick one clock.  Imported
        # here, not at module level: repro.index initialises before
        # repro.core during package import.
        from ..core.backend import VersionClock

        self._clock = VersionClock()
        self._empty = PostingList.from_pairs("", (), segment_size=segment_size)
        # OS-level resources this index owns (the mmap reader behind a
        # block-format load); released by close().
        self._resources: List = []

    # -- construction ----------------------------------------------------

    def add(self, document: Document) -> StoredDocument:
        """Analyse and index one document."""
        if self._committed:
            raise IndexError_("index is committed; create a new index to add documents")
        field_tokens = self._analyze_fields(document)
        stored = self.store.add(document, field_tokens, self.searchable_fields)
        self._total_length += stored.length

        tf_counts = content_term_frequencies(field_tokens, self.searchable_fields)
        for term, tf in tf_counts.items():
            self._content_acc.setdefault(term, []).append((stored.internal_id, tf))

        # Predicate occurrences are set-valued: a MeSH term either annotates
        # a citation or it does not, so tf is clamped to 1.
        for term in set(field_tokens[self.predicate_field]):
            self._predicate_acc.setdefault(term, []).append((stored.internal_id, 1))
        return stored

    def _analyze_fields(self, document: Document) -> Dict[str, List[str]]:
        """Analyse one document with this index's configuration."""
        return analyze_document_fields(
            document,
            self.analyzer,
            self.predicate_analyzer,
            self.searchable_fields,
            self.predicate_field,
        )

    def add_preanalyzed(
        self, external_id: str, field_tokens: Dict[str, List[str]]
    ) -> StoredDocument:
        """Index one document whose fields are already token streams.

        Mirrors :meth:`add` with analysis skipped — the ingestion path for
        persisted indexes (tokens were analysed at save time) and for
        shard builders redistributing an already-analysed collection.
        """
        if self._committed:
            raise IndexError_("index is committed; create a new index to add documents")
        document = Document(external_id, fields={})
        stored = self.store.add(document, field_tokens, self.searchable_fields)
        self._total_length += stored.length

        tf_counts = content_term_frequencies(field_tokens, self.searchable_fields)
        for term, tf in tf_counts.items():
            self._content_acc.setdefault(term, []).append((stored.internal_id, tf))
        for term in set(field_tokens.get(self.predicate_field, ())):
            self._predicate_acc.setdefault(term, []).append((stored.internal_id, 1))
        return stored

    def add_all(self, documents: Iterable[Document]) -> None:
        """Index a stream of documents."""
        for document in documents:
            self.add(document)

    def commit(self) -> "InvertedIndex":
        """Freeze all posting lists; the index becomes readable.

        Idempotent; returns self for chaining.
        """
        if self._committed:
            return self
        self._content = {
            term: PostingList.from_pairs(term, pairs, segment_size=self.segment_size)
            for term, pairs in self._content_acc.items()
        }
        self._predicates = {
            term: PostingList.from_pairs(term, pairs, segment_size=self.segment_size)
            for term, pairs in self._predicate_acc.items()
        }
        self._content_acc.clear()
        self._predicate_acc.clear()
        self._committed = True
        return self

    def append_documents(
        self, documents: Iterable[Document]
    ) -> List[StoredDocument]:
        """Incrementally add documents to a *committed* index.

        New internal docids are larger than all existing ones, so every
        affected posting list extends at its tail — no existing entry is
        rewritten and the paper's docid-ordering invariant is preserved.
        Returns the stored forms of the new documents so callers (e.g.
        :func:`repro.views.maintenance.maintain_catalog`) can propagate
        the same delta to materialized views.
        """
        if not self._committed:
            raise IndexError_(
                "append_documents requires a committed index; "
                "use add()/commit() during initial construction"
            )
        new_stored: List[StoredDocument] = []
        content_delta: Dict[str, List[Tuple[int, int]]] = {}
        predicate_delta: Dict[str, List[Tuple[int, int]]] = {}
        for document in documents:
            field_tokens = self._analyze_fields(document)
            stored = self.store.add(document, field_tokens, self.searchable_fields)
            self._total_length += stored.length
            new_stored.append(stored)

            tf_counts = content_term_frequencies(
                field_tokens, self.searchable_fields
            )
            for term, tf in tf_counts.items():
                content_delta.setdefault(term, []).append(
                    (stored.internal_id, tf)
                )
            for term in set(field_tokens[self.predicate_field]):
                predicate_delta.setdefault(term, []).append(
                    (stored.internal_id, 1)
                )

        for term, pairs in content_delta.items():
            plist = self._content.get(term)
            if plist is None:
                self._content[term] = PostingList.from_pairs(
                    term, pairs, segment_size=self.segment_size
                )
            else:
                plist.extend(pairs)
        for term, pairs in predicate_delta.items():
            plist = self._predicates.get(term)
            if plist is None:
                self._predicates[term] = PostingList.from_pairs(
                    term, pairs, segment_size=self.segment_size
                )
            else:
                plist.extend(pairs)
        self._clock.advance()
        return new_stored

    # -- reads -------------------------------------------------------------

    @property
    def committed(self) -> bool:
        return self._committed

    @property
    def epoch(self) -> int:
        """The index's :class:`~repro.lifecycle.version.VersionClock` value.

        One committed mutation (post-commit document batch here; delete,
        flush, or compaction in the segment lifecycle) is one tick.
        Caches layered above the index (the query service's result
        cache) key or guard their entries with this
        value, so anything resolved against an older collection state
        becomes unreachable the moment the index changes.  Every
        freshness consumer reads this one clock — there are no other
        epoch counters in the system.
        """
        return self._clock.version

    def __len__(self) -> int:
        return len(self.store)

    @property
    def num_docs(self) -> int:
        """Collection cardinality ``|D|``."""
        return len(self.store)

    @property
    def total_length(self) -> int:
        """Collection length ``len(D)``: total searchable tokens."""
        return self._total_length

    @property
    def vocabulary(self) -> Sequence[str]:
        """All indexed content terms (``utc(D)`` is its length)."""
        self._require_committed()
        return tuple(self._content)

    @property
    def predicate_vocabulary(self) -> Sequence[str]:
        """All indexed predicate (context-keyword) terms."""
        self._require_committed()
        return tuple(self._predicates)

    def postings(self, term: str) -> PostingList:
        """Content posting list ``L_w`` (empty list for unknown terms)."""
        self._require_committed()
        return self._content.get(term, self._empty)

    def prefetch(
        self, terms: Iterable[str], predicates: Iterable[str] = ()
    ) -> Dict[str, PostingList]:
        """Resolve many posting lists in one pass (batch-executor helper).

        Returns a term → list mapping covering both spaces (content terms
        first; predicate terms override on collision, which cannot happen
        for analysed queries since the spaces use different analyzers).
        The lists are the index's shared in-memory columns — no copies —
        so a batch of queries holds each decoded column exactly once.
        """
        self._require_committed()
        fetched = {term: self.postings(term) for term in terms}
        for term in predicates:
            fetched[term] = self.predicate_postings(term)
        return fetched

    def predicate_postings(self, term: str) -> PostingList:
        """Predicate posting list ``L_m`` (empty list for unknown terms)."""
        self._require_committed()
        return self._predicates.get(term, self._empty)

    def content_items(self) -> Iterable[Tuple[str, PostingList]]:
        """All ``(term, posting list)`` pairs of the content space.

        The storage codec serialises the compiled columns directly from
        here; the view is read-only by convention.
        """
        self._require_committed()
        return self._content.items()

    def predicate_items(self) -> Iterable[Tuple[str, PostingList]]:
        """All ``(term, posting list)`` pairs of the predicate space."""
        self._require_committed()
        return self._predicates.items()

    def document_frequency(self, term: str) -> int:
        """``df(w, D)`` over the whole collection."""
        return len(self.postings(term))

    def predicate_frequency(self, term: str) -> int:
        """Number of documents annotated with predicate ``m`` (``|L_m|``)."""
        return len(self.predicate_postings(term))

    def document_lengths(self) -> List[int]:
        """Dense ``len(d)`` column indexed by internal docid."""
        return self.store.lengths()

    def average_document_length(self) -> float:
        """``avgdl = len(D) / |D|`` over the whole collection."""
        if not self.store:
            return 0.0
        return self._total_length / len(self.store)

    def _require_committed(self) -> None:
        if not self._committed:
            raise IndexError_("index must be committed before reads")

    # -- resource lifecycle ------------------------------------------------

    def attach_resource(self, resource) -> None:
        """Adopt an OS-level resource (an object with ``close()``).

        Block-format loads attach their mmap reader here so the index
        controls its lifetime: posting lists stay lazily decodable for
        as long as the index is open, and :meth:`close` releases the
        mapping deterministically.
        """
        self._resources.append(resource)

    def close(self) -> None:
        """Release attached resources (idempotent).

        After close, any posting block not yet decoded is unreadable, so
        only call it when the index is no longer queried.  Purely
        in-memory indexes hold no resources and close as a no-op.
        """
        resources, self._resources = self._resources, []
        for resource in resources:
            resource.close()

    def __enter__(self) -> "InvertedIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @classmethod
    def from_restored_store(
        cls,
        store: DocumentStore,
        content: Dict[str, PostingList],
        predicates: Dict[str, PostingList],
        analyzer: Optional[Analyzer] = None,
        predicate_analyzer: Optional[Analyzer] = None,
        searchable_fields: Sequence[str] = DEFAULT_SEARCHABLE_FIELDS,
        predicate_field: str = DEFAULT_PREDICATE_FIELD,
        segment_size: int = DEFAULT_SEGMENT_SIZE,
    ) -> "InvertedIndex":
        """Assemble a committed index around an already-built store.

        The mmap-backed cold-open path: there is no per-document restore
        loop and the posting mappings are adopted as-is (not copied), so
        lazy per-term mappings stay lazy and opening costs O(dictionary),
        not O(collection).  The store must already satisfy the
        dense-docid invariant.
        """
        index = cls(
            analyzer=analyzer,
            predicate_analyzer=predicate_analyzer,
            searchable_fields=searchable_fields,
            predicate_field=predicate_field,
            segment_size=segment_size,
        )
        index.store = store
        index._total_length = sum(store.lengths())
        index._content = content
        index._predicates = predicates
        index._committed = True
        return index


def build_index(
    documents: Iterable[Document],
    analyzer: Optional[Analyzer] = None,
    searchable_fields: Sequence[str] = DEFAULT_SEARCHABLE_FIELDS,
    predicate_field: str = DEFAULT_PREDICATE_FIELD,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
) -> InvertedIndex:
    """Convenience: build and commit an index over ``documents``."""
    index = InvertedIndex(
        analyzer=analyzer,
        searchable_fields=searchable_fields,
        predicate_field=predicate_field,
        segment_size=segment_size,
    )
    index.add_all(documents)
    return index.commit()
