"""The one scoring loop every engine shares.

:class:`~repro.core.sharded_engine.ShardRuntime` (the per-partition
evaluator of both the flat and the sharded engine) and the temporal
engine score through this module, so their rankings cannot drift apart:
score a candidate set under resolved collection statistics, then order
by ``(-score, id)``.

Determinism contract (tested by the bit-identity regressions): for a
given ranking model, candidate order never affects any document's score —
each score is a pure function of integer statistics and per-document
values — and the tie-break on ascending id makes the final ranking a
pure function of the (unordered) candidate set.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..index.inverted_index import InvertedIndex
from .ranking import RankingFunction
from .statistics import (
    CollectionStatistics,
    DocumentStatistics,
    QueryStatistics,
)

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
    ranks on global ids, which for a whole index are the docids)."""
    query_stats = QueryStatistics.from_keywords(keywords)
    unique_keywords = list(dict.fromkeys(keywords))
    plists = {w: index.postings(w) for w in unique_keywords}
    scored: List[ScoredCandidate] = []
    for doc_id in result_ids:
        doc = index.store.get(doc_id)
        tfs = {w: (plists[w].tf_for(doc_id) or 0) for w in unique_keywords}
        doc_stats = DocumentStatistics(
            length=doc.length,
            unique_terms=doc.unique_terms,
            term_frequencies=tfs,
        )
        score = ranking.score(query_stats, doc_stats, collection_stats)
        scored.append((doc_id, score, doc.external_id))
    return scored


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
