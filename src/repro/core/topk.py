"""Disjunctive (OR-semantics) top-k retrieval with MaxScore pruning.

Section 3.2.2 observes that top-k processing "reorders inverted lists so
that only a small fraction of the lists are processed", but cannot help
context-sensitive ranking *before* collection statistics are known.
Once the statistics ARE known — instantly, from a materialized view —
pruned top-k becomes applicable again.  This module supplies that stage:
document-at-a-time MaxScore over one
:class:`~repro.index.postings.PostingCursor` per query term, using
per-term score upper bounds from the ranking model.  The context is
never materialised: candidates ascend, so membership in ``D_P`` is a
forward seek of one cursor per predicate list.

OR semantics also matches the paper's Section 1.1 example, where the
two citations each match only one of {pancreas, leukemia}: under the
conjunctive model of Section 2.1 neither would be returned, but with
disjunctive scoring their *relative order* is exactly the story the
introduction tells.

Only :class:`~repro.core.ranking.RankingFunction` implementations that
are ``decomposable`` (zero contribution for absent terms) support
pruning; language models smooth absent terms and are rejected.
"""

from __future__ import annotations

import heapq
import threading
from array import array
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import QueryError
from ..index.inverted_index import InvertedIndex
from ..index.postings import END_OF_LIST, CostCounter, PostingCursor, PostingList
from .statistics import CollectionStatistics, QueryStatistics


@dataclass
class TopKDiagnostics:
    """How much work pruning saved (printed by the top-k ablation bench).

    ``blocks_considered`` counts (list, block) activations by the
    block-max path — a block whose bound was loaded because a cursor
    entered it.  ``blocks_skipped`` counts block boundaries crossed by a
    block-max skip: each is a block whose remaining postings were
    bypassed without being scored.  Both stay zero when block-max is
    off.
    """

    candidates_seen: int = 0
    candidates_scored: int = 0
    candidates_pruned: int = 0
    heap_updates: int = 0
    blocks_considered: int = 0
    blocks_skipped: int = 0

    def merge(self, other: "TopKDiagnostics") -> None:
        """Fold another diagnostics object's totals into this one."""
        self.candidates_seen += other.candidates_seen
        self.candidates_scored += other.candidates_scored
        self.candidates_pruned += other.candidates_pruned
        self.heap_updates += other.heap_updates
        self.blocks_considered += other.blocks_considered
        self.blocks_skipped += other.blocks_skipped

    def to_dict(self) -> Dict[str, int]:
        return {
            "candidates_seen": self.candidates_seen,
            "candidates_scored": self.candidates_scored,
            "candidates_pruned": self.candidates_pruned,
            "heap_updates": self.heap_updates,
            "blocks_considered": self.blocks_considered,
            "blocks_skipped": self.blocks_skipped,
        }


@dataclass(frozen=True)
class ScoredDocument:
    doc_id: int
    score: float


class SharedTopKThreshold:
    """A thread-safe running global k-th best score across shard scorers.

    Parallel per-shard MaxScore runs publish every score they accept.
    Published scores are a subset of all candidate scores, so the k-th
    best published score can only be <= the final global k-th score;
    pruning strictly below it is therefore rank-safe, and a shard that
    starts late inherits the pruning power of everything the earlier
    shards already scored.
    """

    def __init__(self, k: int):
        if k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        self.k = k
        self._heap: List[float] = []
        self._lock = threading.Lock()
        self._value = float("-inf")

    @property
    def value(self) -> float:
        """Current global threshold (-inf until k scores are published)."""
        return self._value

    def publish(self, score: float) -> None:
        """Fold one accepted candidate score into the global heap."""
        with self._lock:
            if len(self._heap) < self.k:
                heapq.heappush(self._heap, score)
                if len(self._heap) == self.k:
                    self._value = self._heap[0]
            elif score > self._heap[0]:
                heapq.heappushpop(self._heap, score)
                self._value = self._heap[0]


class MaxScoreScorer:
    """Document-at-a-time MaxScore over one query's posting cursors.

    Terms are ordered by descending upper bound; once the running top-k
    threshold exceeds the total bound of the *non-essential* suffix,
    documents appearing only in those lists cannot reach the heap and
    their cursors are never used to generate candidates.  Only documents
    in every one of ``predicates`` (the context ``P``; none means the
    whole collection) are scored.
    """

    # How many candidates between refreshes of an external shared
    # threshold; staleness only costs pruning power, never correctness.
    _SHARED_REFRESH = 64

    def __init__(
        self,
        index: InvertedIndex,
        keywords: Sequence[str],
        collection_stats: CollectionStatistics,
        ranking,
        predicates: Sequence[str] = (),
        term_bounds: Optional[Mapping[str, float]] = None,
        block_max: bool = True,
    ):
        if not ranking.decomposable:
            raise QueryError(
                f"ranking model {ranking.name!r} does not support "
                "MaxScore pruning (non-zero score for absent terms)"
            )
        self.index = index
        self.ranking = ranking
        self.collection_stats = collection_stats
        self.predicates = list(predicates)
        self.query_stats = QueryStatistics.from_keywords(keywords)

        unique_terms = list(dict.fromkeys(keywords))
        self._lists: List[Tuple[str, PostingList, float]] = []
        for term in unique_terms:
            plist = index.postings(term)
            if not len(plist):
                continue
            if term_bounds is not None:
                # Externally supplied bounds (e.g. computed from global
                # collection max_tf by a sharded engine) must dominate the
                # local ones; sharing them keeps the bound ordering — and
                # hence per-document summation order — identical across
                # shards, which is what makes sharded scores bit-identical.
                bound = term_bounds.get(term, 0.0)
            else:
                bound = ranking.term_upper_bound(
                    term, plist.max_tf, self.query_stats, collection_stats
                )
            self._lists.append((term, plist, bound))
        # Descending bound: essential lists come first.
        self._lists.sort(key=lambda item: -item[2])
        # suffix_bounds[i] = total bound of lists i..end.
        self._suffix_bounds = [0.0] * (len(self._lists) + 1)
        for i in range(len(self._lists) - 1, -1, -1):
            self._suffix_bounds[i] = (
                self._suffix_bounds[i + 1] + self._lists[i][2]
            )
        # Per-list, per-block score upper bounds derived from the skip
        # table's block max-tf column.  Bounds are monotone in max_tf, so
        # a block bound never exceeds the list's global bound; it is
        # additionally capped by it so externally supplied (sharded)
        # bounds stay dominant.  Degenerate inputs (an unfrozen list, a
        # list without block metadata) disable the block path entirely —
        # the global-bound loop below is the fallback.
        self._block_bounds: List[array] = []
        self.block_max = False
        if block_max and self._lists:
            try:
                for term, plist, bound in self._lists:
                    cache: Dict[int, float] = {}
                    column = array("d")
                    for block_tf in plist.block_max_tfs:
                        cached = cache.get(block_tf)
                        if cached is None:
                            cached = ranking.term_upper_bound(
                                term, block_tf, self.query_stats, collection_stats
                            )
                            if cached > bound:
                                cached = bound
                            cache[block_tf] = cached
                        column.append(cached)
                    self._block_bounds.append(column)
                self.block_max = True
            except (RuntimeError, AttributeError):
                self._block_bounds = []
                self.block_max = False

    def top_k(
        self,
        k: int,
        counter: Optional[CostCounter] = None,
        diagnostics: Optional[TopKDiagnostics] = None,
        shared: Optional[SharedTopKThreshold] = None,
        initial_threshold: float = float("-inf"),
    ) -> List[ScoredDocument]:
        """Return the k highest-scoring documents (ties: lowest docid).

        ``shared`` / ``initial_threshold`` let a sharded engine tighten the
        pruning threshold with scores other shards have already accepted.
        An external threshold can prune documents out of the *local* top-k,
        but never out of the global one: every comparison against it is
        strict, and its value never exceeds the final global k-th score
        (it is the k-th best of a subset of all candidates).
        """
        if k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        if not self._lists:
            return []
        lengths = self.index.document_lengths()
        num_lists = len(self._lists)
        cursors = [PostingCursor(plist) for _, plist, _ in self._lists]
        # The context ``D_P`` as one forward cursor per predicate list:
        # candidates ascend, so no membership probe ever moves back.
        context = [
            PostingCursor(self.index.predicate_postings(m))
            for m in self.predicates
        ]
        # Min-heap of (score, -doc_id) so the worst of the top-k is at
        # heap[0] and docid ties resolve toward smaller ids.
        heap: List[Tuple[float, int]] = []
        # Monotone: the max of the local k-th score and every external
        # threshold observed so far.
        threshold = initial_threshold
        if shared is not None and shared.value > threshold:
            threshold = shared.value
        # Index of the first non-essential list: lists [first_ne:] have a
        # combined bound below the threshold.
        first_non_essential = self._essential_prefix(threshold)
        since_refresh = 0
        # Block-max state: the block whose bound was last loaded per list
        # (-1 = needs refresh) and that bound.  Tracking is lazy — the
        # candidate loop refreshes an entry only when its cursor crossed a
        # block boundary — and only runs once a finite threshold exists,
        # so the pre-heap-fill phase pays no block overhead.
        use_blocks = self.block_max
        block_bounds = self._block_bounds
        cur_block = [-1] * num_lists
        cur_bound = [0.0] * num_lists
        neg_inf = float("-inf")

        while True:
            if shared is not None:
                since_refresh += 1
                if since_refresh >= self._SHARED_REFRESH:
                    since_refresh = 0
                    external = shared.value
                    if external > threshold:
                        threshold = external
                        first_non_essential = self._essential_prefix(threshold)
            # Next candidate: smallest current docid among essential lists.
            blocks_active = use_blocks and threshold != neg_inf
            candidate = END_OF_LIST
            block_sum = 0.0
            for i in range(first_non_essential):
                cursor = cursors[i]
                doc_id = cursor.doc
                if doc_id == END_OF_LIST:
                    continue
                if doc_id < candidate:
                    candidate = doc_id
                if blocks_active:
                    block = cursor.block
                    if block != cur_block[i]:
                        cur_block[i] = block
                        cur_bound[i] = block_bounds[i][block]
                        if diagnostics is not None:
                            diagnostics.blocks_considered += 1
                    block_sum += cur_bound[i]
            if candidate == END_OF_LIST:
                break
            if (
                blocks_active
                and block_sum + self._suffix_bounds[first_non_essential]
                < threshold
            ):
                # No document in [candidate, min current block end] can
                # reach the threshold: every essential occurrence in that
                # range lies inside its list's current block (docids are
                # sorted), so its term score is bounded by the block
                # bound, and non-essential lists are bounded by their
                # global suffix bound.  The comparison is strict, so
                # exact ties (which could still win the docid tie-break)
                # are never skipped.  Jump every essential cursor past
                # the window; the minimum block end is >= candidate, so
                # the target strictly advances (an exhausted cursor's
                # block end is END_OF_LIST and never the minimum).
                target = 1 + min(
                    cursors[i].block_max_doc for i in range(first_non_essential)
                )
                for i in range(first_non_essential):
                    cursor = cursors[i]
                    if cursor.doc == END_OF_LIST:
                        continue
                    cursor.seek(target, counter)
                    if diagnostics is not None:
                        # Every block boundary crossed here is a block
                        # whose remaining postings were bypassed
                        # without scoring.
                        gap = cursor.block - cur_block[i]
                        if gap > 0:
                            diagnostics.blocks_skipped += gap
                    cur_block[i] = -1
                continue
            if diagnostics is not None:
                diagnostics.candidates_seen += 1

            for member in context:
                if member.seek(candidate) != candidate:
                    break
            else:
                score = self._score_candidate(
                    candidate, cursors, lengths, threshold, counter, diagnostics
                )
                entry = (score, -candidate) if score is not None else None
                if entry is not None and (len(heap) < k or entry > heap[0]):
                    if len(heap) < k:
                        heapq.heappush(heap, entry)
                    else:
                        heapq.heappushpop(heap, entry)
                    if diagnostics is not None:
                        diagnostics.heap_updates += 1
                    if shared is not None:
                        shared.publish(score)
                    if len(heap) == k and heap[0][0] > threshold:
                        threshold = heap[0][0]
                        first_non_essential = self._essential_prefix(threshold)

            # Advance every essential cursor sitting on the candidate.
            for i in range(first_non_essential):
                if cursors[i].doc == candidate:
                    cursors[i].advance(counter)

        ranked = sorted(heap, key=lambda entry: (-entry[0], -entry[1]))
        return [ScoredDocument(doc_id=-neg, score=s) for s, neg in ranked]

    # -- internals ---------------------------------------------------------

    def _essential_prefix(self, threshold: float) -> int:
        """Smallest prefix of lists whose suffix bound clears ``threshold``.

        Lists beyond the returned index cannot, even in combination, lift
        a document over the current threshold, so they never *generate*
        candidates (they still contribute to scoring).
        """
        first = len(self._lists)
        # Strict comparison: a suffix that can exactly *tie* the threshold
        # may still win on the docid tie-break, so it stays essential.
        while first > 1 and self._suffix_bounds[first - 1] < threshold:
            first -= 1
        return first

    def _score_candidate(
        self,
        doc_id: int,
        cursors: List[PostingCursor],
        lengths: Sequence[int],
        threshold: float,
        counter: Optional[CostCounter],
        diagnostics: Optional[TopKDiagnostics],
    ) -> Optional[float]:
        """Score with early termination against the remaining bound."""
        total = 0.0
        doc_length = lengths[doc_id]
        for i, (term, _, _) in enumerate(self._lists):
            remaining = self._suffix_bounds[i]
            # Strict: equal-scoring documents must still be scored so the
            # docid tie-break matches exhaustive evaluation exactly.
            if total + remaining < threshold:
                if diagnostics is not None:
                    diagnostics.candidates_pruned += 1
                return None
            cursor = cursors[i]
            if cursor.seek(doc_id, counter) == doc_id:
                total += self.ranking.term_score(
                    term, cursor.tf, doc_length, self.query_stats,
                    self.collection_stats,
                )
        if diagnostics is not None:
            diagnostics.candidates_scored += 1
        return total


def exhaustive_disjunctive(
    index: InvertedIndex,
    keywords: Sequence[str],
    collection_stats: CollectionStatistics,
    ranking,
    k: int,
    context_filter: Optional[object] = None,
) -> List[ScoredDocument]:
    """Reference implementation: score every matching document, no pruning.

    Used by tests and the top-k ablation bench as ground truth.
    """
    query_stats = QueryStatistics.from_keywords(keywords)
    lengths = index.document_lengths()
    unique_terms = list(dict.fromkeys(keywords))
    tfs: Dict[int, Dict[str, int]] = {}
    for term in unique_terms:
        for doc_id, tf in index.postings(term):
            if context_filter is not None and doc_id not in context_filter:
                continue
            tfs.setdefault(doc_id, {})[term] = tf
    scored = []
    for doc_id, term_tfs in tfs.items():
        total = sum(
            ranking.term_score(
                term, tf, lengths[doc_id], query_stats, collection_stats
            )
            for term, tf in term_tfs.items()
        )
        scored.append(ScoredDocument(doc_id=doc_id, score=total))
    scored.sort(key=lambda s: (-s.score, s.doc_id))
    return scored[:k]
