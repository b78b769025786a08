"""The one scoring loop every engine shares.

:class:`~repro.core.sharded_engine.ShardRuntime` (the per-partition
evaluator of both the flat and the sharded engine), the sharded merge
(:class:`~repro.core.sharded_engine.ShardMergePlan`) and the temporal
engine score through this module, so their rankings cannot drift apart:
score a candidate set under resolved collection statistics, then order
by ``(-score, id)``.

A candidate set is scored as columns, following the paper's split of
statistics by scope (Table 1).  ``S_q(Q)`` and ``S_c(D_P)`` are fixed for
the whole query, so :meth:`~repro.core.ranking.RankingFunction.prepare`
turns them into per-term constants once.  Only ``tf(w, d)`` and
``len(d)`` vary per document.  :func:`gather_features` reads them from
the index that holds the candidates: each query term's tf column by one
:class:`~repro.index.postings.PostingCursor` seeking forward through its
posting list, each candidate's length and external id from the store.
:func:`score_columns` then calls the prepared scorer once per candidate:
in place for a flat index (:func:`score_candidates`), at the merge for
the columns a shard gathered.

Exactness comes from the ranking models, not from this loop: a prepared
scorer performs the same float operations in the same order as
``RankingFunction.score`` (``math.log``, the same products, summed in
``term_counts`` order from the same start), so every score is ``==`` to
the reference.  The property tests pin this for all three models.

Determinism contract (tested by the bit-identity regressions): for a
given ranking model, candidate order never affects any document's score —
each score is a pure function of integer statistics and per-document
values — and the tie-break on ascending id makes the final ranking a
pure function of the (unordered) candidate set.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, List, Sequence, Tuple

from ..index.inverted_index import InvertedIndex
from ..index.postings import PostingCursor, PostingList
from .ranking import DocumentScorer, RankingFunction
from .statistics import CollectionStatistics, QueryStatistics

# One scored candidate: (doc_id, score, external_id), local to the index
# that scored it (shard-local ids for a shard, global ids for a flat index).
ScoredCandidate = Tuple[int, float, str]


def score_candidates(
    index: InvertedIndex,
    ranking: RankingFunction,
    keywords: Sequence[str],
    result_ids: Sequence[int],
    collection_stats: CollectionStatistics,
) -> List[ScoredCandidate]:
    """Score every candidate; returns ``(doc_id, score, external_id)``
    triples in input order (callers own the sort key — a shard runtime
    ranks on global ids, which for a whole index are the docids).
    ``result_ids`` must be ascending (see :func:`gather_features`)."""
    query_stats = QueryStatistics.from_keywords(keywords)
    score = ranking.prepare(query_stats, collection_stats)
    lengths, external_ids, columns = gather_features(
        index, query_stats.term_counts, result_ids
    )
    return list(
        zip(result_ids, score_columns(score, lengths, columns), external_ids)
    )


def gather_features(
    index: InvertedIndex, terms: Iterable[str], result_ids: Sequence[int]
) -> Tuple[List[int], List[str], List[List[int]]]:
    """The per-document scoring inputs of ``result_ids``: their lengths,
    their external ids, and one tf column per term of ``terms`` (a
    query's ``term_counts``, in order).

    ``result_ids`` must be ascending: each term's tf column is gathered
    by one forward walk over its posting list, which never moves back.
    Every caller passes a conjunction's output (or a filtered subsequence
    of one), which is ascending by construction.
    """
    columns = [_tf_column(index.postings(term), result_ids) for term in terms]
    docs = list(map(index.store.get, result_ids))
    return (
        [doc.length for doc in docs],
        [doc.external_id for doc in docs],
        columns,
    )


def score_columns(
    score: DocumentScorer,
    lengths: Sequence[int],
    columns: Sequence[Sequence[int]],
) -> List[float]:
    """The prepared ``score(length, tfs)`` of every candidate, in order:
    ``columns`` hold one tf column per term of the query's
    ``term_counts``."""
    return list(map(score, lengths, zip(*columns) if columns else repeat(())))


def _tf_column(plist: PostingList, doc_ids: Sequence[int]) -> List[int]:
    """``tf(w, d)`` for each of the ascending ``doc_ids`` (0 where the
    list has no entry), in one forward cursor walk over ``plist``: a
    lazily decoded list decodes whole on its first read, once."""
    cursor = PostingCursor(plist)
    seek = cursor.seek
    return [cursor.tf if seek(doc_id) == doc_id else 0 for doc_id in doc_ids]


def rank_candidates(
    scored: List[Tuple[float, int, str]],
    top_k: int = None,
) -> List[Tuple[float, int, str]]:
    """Order ``(score, id, external_id)`` triples best-first.

    Ties break on ascending id so rankings are fully deterministic; this
    is the one sort key every engine uses (flat, sharded merge, batch).
    """
    scored = sorted(scored, key=lambda hit: (-hit[0], hit[1]))
    if top_k is not None:
        scored = scored[:top_k]
    return scored
