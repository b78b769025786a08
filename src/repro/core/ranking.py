"""Ranking functions (Section 2.2).

Every model implements :class:`RankingFunction`: a pure function of
``(S_q, S_d, S_c)``.  Context sensitivity is *not* a property of the
model — the same object scores conventionally when handed ``S_c(D)`` and
context-sensitively when handed ``S_c(D_P)`` (Formulas 1 vs 2).  That is
the paper's central modelling point and the reason the engine, not the
ranking function, decides which statistics to supply.

Models provided:

* :class:`PivotedNormalizationTFIDF` — Formula 3/4, the paper's evaluation
  model (Singhal's pivoted normalisation, ``s = 0.2``).
* :class:`BM25` — Okapi BM25, demonstrating that the framework covers
  probabilistic relevance models (Table 1 generality claim).
* :class:`DirichletLanguageModel` — query-likelihood with Dirichlet
  smoothing; consumes ``tc(w, ·)``, exercising the SUM-of-tf parameter
  columns and the paper's remark that small contexts make smoothing hard.

Two ways to score.  :meth:`RankingFunction.score` is the reference: one
call per document, every statistic looked up by term.  The engines score
a whole candidate set through :meth:`RankingFunction.prepare` instead.
``S_q`` and ``S_c`` are fixed for a query (Table 1), so ``prepare`` hoists
everything that depends on them alone — idf, ``tq``, ``avgdl``, the
background model ``p(w|C)`` — and returns a per-document scorer
``score(length, tfs)`` that only sees ``len(d)`` and the tf of each
query term in ``query_stats.term_counts`` order.  Its promise is exact
equality, not closeness: for every document,
``prepare(qs, cs)(d.length, tfs) == score(qs, d, cs)`` bit for bit,
because the scorer performs the same float operations in the same order
(``math.log``, the same association of products, the same summation from
the same start).  A hoisted value is one the reference computes
identically for every document.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Callable, List, Sequence

from .statistics import (
    CollectionStatistics,
    DocumentStatistics,
    QueryStatistics,
    StatisticSpec,
    cardinality_spec,
    df_spec,
    tc_spec,
    total_length_spec,
)


# A prepared per-document scorer: ``(len(d), tfs) -> score`` with ``tfs``
# in ``query_stats.term_counts`` order.
DocumentScorer = Callable[[int, Sequence[int]], float]


class RankingFunction(ABC):
    """A scoring function ``f(S_q(Q), S_d(d), S_c(·))`` (Formula 1/2)."""

    name: str = "abstract"

    @abstractmethod
    def score(
        self,
        query_stats: QueryStatistics,
        doc_stats: DocumentStatistics,
        collection_stats: CollectionStatistics,
    ) -> float:
        """Relevance score of one document; higher is more relevant."""

    @abstractmethod
    def prepare(
        self,
        query_stats: QueryStatistics,
        collection_stats: CollectionStatistics,
    ) -> DocumentScorer:
        """A per-document scorer with the per-query constants hoisted.

        ``prepare(qs, cs)(length, tfs)`` equals ``score(qs, d, cs)``
        exactly (``==``) for a document ``d`` of ``length`` tokens whose
        tf for each term of ``qs.term_counts``, in that order, is
        ``tfs``.  Call it once per query and the scorer once per
        candidate.
        """

    @abstractmethod
    def required_collection_specs(
        self, keywords: Sequence[str]
    ) -> List[StatisticSpec]:
        """The collection-specific statistics this model needs for ``keywords``.

        The engine resolves each spec from materialized views when usable
        (Theorem 4.1) and falls back to the straightforward plan otherwise.
        """

    # -- optional per-term decomposition (top-k pruning support) ----------

    @property
    def decomposable(self) -> bool:
        """Whether the score is a sum of per-term parts with zero-tf
        contributions of zero.  Required by the MaxScore top-k scorer:
        models with non-zero smoothing mass for absent terms (language
        models) are not decomposable in this sense."""
        return False

    def term_score(
        self,
        term: str,
        tf: int,
        doc_length: int,
        query_stats: QueryStatistics,
        collection_stats: CollectionStatistics,
    ) -> float:
        """One term's additive score contribution (decomposable models)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not decompose per term"
        )

    def term_upper_bound(
        self,
        term: str,
        max_tf: int,
        query_stats: QueryStatistics,
        collection_stats: CollectionStatistics,
    ) -> float:
        """Upper bound of :meth:`term_score` over all documents.

        MaxScore uses these to skip documents that cannot enter the
        top-k heap; bounds must dominate every achievable term score.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not decompose per term"
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class PivotedNormalizationTFIDF(RankingFunction):
    """Pivoted-normalisation TF-IDF (Formula 3; context form is Formula 4).

    ``score(Q, d) = Σ_w  (1 + ln(1 + ln tf)) / ((1-s) + s·len(d)/avgdl)
                         · tq(w, Q) · ln((|D| + 1) / df(w, D))``

    The slope ``s`` defaults to 0.2 as in the paper.
    """

    name = "pivoted-tfidf"

    def __init__(self, slope: float = 0.2):
        if not 0.0 <= slope <= 1.0:
            raise ValueError(f"slope must be in [0, 1], got {slope}")
        self.slope = slope

    def required_collection_specs(
        self, keywords: Sequence[str]
    ) -> List[StatisticSpec]:
        specs = [cardinality_spec(), total_length_spec()]
        specs.extend(df_spec(w) for w in dict.fromkeys(keywords))
        return specs

    def score(
        self,
        query_stats: QueryStatistics,
        doc_stats: DocumentStatistics,
        collection_stats: CollectionStatistics,
    ) -> float:
        return sum(
            self.term_score(
                term, doc_stats.tf(term), doc_stats.length, query_stats,
                collection_stats,
            )
            for term in query_stats.term_counts
        )

    def prepare(
        self,
        query_stats: QueryStatistics,
        collection_stats: CollectionStatistics,
    ) -> DocumentScorer:
        log = math.log
        cardinality = collection_stats.cardinality
        # Per term ``(tq, idf_part)``; idf_part is None where df == 0,
        # and such a term contributes 0.0, as in :meth:`term_score`.
        weights = []
        for term, tq in query_stats.term_counts.items():
            df = collection_stats.df_for(term)
            idf_part = log((cardinality + 1) / df) if df > 0 else None
            weights.append((tq, idf_part))
        base = 1.0 - self.slope
        slope = self.slope
        avgdl = _hoisted_avgdl(
            collection_stats, any(idf is not None for _, idf in weights)
        )

        def score(length: int, tfs: Sequence[int]) -> float:
            norm = base + slope * (length / avgdl)
            return sum([
                ((1.0 + log(1.0 + log(tf))) / norm) * tq * idf_part
                if tf > 0 and idf_part is not None
                else 0.0
                for (tq, idf_part), tf in zip(weights, tfs)
            ])

        return score

    @property
    def decomposable(self) -> bool:
        return True

    def term_score(
        self,
        term: str,
        tf: int,
        doc_length: int,
        query_stats: QueryStatistics,
        collection_stats: CollectionStatistics,
    ) -> float:
        if tf <= 0:
            return 0.0
        df = collection_stats.df_for(term)
        if df <= 0:
            # A matched document implies df >= 1 in the scored
            # collection; df == 0 signals stale statistics upstream.
            return 0.0
        avgdl = collection_stats.avgdl
        norm = (1.0 - self.slope) + self.slope * (doc_length / avgdl)
        tf_part = 1.0 + math.log(1.0 + math.log(tf))
        idf_part = math.log((collection_stats.cardinality + 1) / df)
        return (tf_part / norm) * query_stats.tq(term) * idf_part

    def term_upper_bound(
        self,
        term: str,
        max_tf: int,
        query_stats: QueryStatistics,
        collection_stats: CollectionStatistics,
    ) -> float:
        if max_tf <= 0:
            return 0.0
        df = collection_stats.df_for(term)
        if df <= 0:
            return 0.0
        # The pivot norm is minimised (score maximised) by the shortest
        # possible document: norm >= 1 - s.
        tf_part = 1.0 + math.log(1.0 + math.log(max_tf))
        idf_part = max(
            math.log((collection_stats.cardinality + 1) / df), 0.0
        )
        min_norm = max(1.0 - self.slope, 1e-6)  # slope == 1 edge case
        return (tf_part / min_norm) * query_stats.tq(term) * idf_part


class BM25(RankingFunction):
    """Okapi BM25 with the standard ``k1``/``b`` parameterisation.

    Uses the non-negative idf variant ``ln(1 + (N - df + 0.5)/(df + 0.5))``
    so that very frequent in-context terms never contribute negatively.
    """

    name = "bm25"

    def __init__(self, k1: float = 1.2, b: float = 0.75):
        if k1 < 0:
            raise ValueError(f"k1 must be non-negative, got {k1}")
        if not 0.0 <= b <= 1.0:
            raise ValueError(f"b must be in [0, 1], got {b}")
        self.k1 = k1
        self.b = b

    def required_collection_specs(
        self, keywords: Sequence[str]
    ) -> List[StatisticSpec]:
        specs = [cardinality_spec(), total_length_spec()]
        specs.extend(df_spec(w) for w in dict.fromkeys(keywords))
        return specs

    def score(
        self,
        query_stats: QueryStatistics,
        doc_stats: DocumentStatistics,
        collection_stats: CollectionStatistics,
    ) -> float:
        return sum(
            self.term_score(
                term, doc_stats.tf(term), doc_stats.length, query_stats,
                collection_stats,
            )
            for term in query_stats.term_counts
        )

    def prepare(
        self,
        query_stats: QueryStatistics,
        collection_stats: CollectionStatistics,
    ) -> DocumentScorer:
        n = collection_stats.cardinality
        # Per term ``tq · idf`` (the reference's leading product); None
        # where df == 0, and such a term contributes 0.0.
        weights = []
        for term, tq in query_stats.term_counts.items():
            df = collection_stats.df_for(term)
            weights.append(
                tq * math.log(1.0 + (n - df + 0.5) / (df + 0.5))
                if df > 0
                else None
            )
        k1 = self.k1
        b = self.b
        one_minus_b = 1.0 - b
        k1_plus_1 = k1 + 1.0
        avgdl = _hoisted_avgdl(
            collection_stats, any(w is not None for w in weights)
        )

        def score(length: int, tfs: Sequence[int]) -> float:
            length_norm = k1 * (one_minus_b + b * length / avgdl)
            return sum([
                tq_idf * (tf * k1_plus_1) / (tf + length_norm)
                if tf > 0 and tq_idf is not None
                else 0.0
                for tq_idf, tf in zip(weights, tfs)
            ])

        return score

    @property
    def decomposable(self) -> bool:
        return True

    def term_score(
        self,
        term: str,
        tf: int,
        doc_length: int,
        query_stats: QueryStatistics,
        collection_stats: CollectionStatistics,
    ) -> float:
        if tf <= 0:
            return 0.0
        df = collection_stats.df_for(term)
        if df <= 0:
            return 0.0
        n = collection_stats.cardinality
        avgdl = collection_stats.avgdl
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        denom = tf + self.k1 * (1.0 - self.b + self.b * doc_length / avgdl)
        return query_stats.tq(term) * idf * (tf * (self.k1 + 1.0)) / denom

    def term_upper_bound(
        self,
        term: str,
        max_tf: int,
        query_stats: QueryStatistics,
        collection_stats: CollectionStatistics,
    ) -> float:
        if max_tf <= 0:
            return 0.0
        df = collection_stats.df_for(term)
        if df <= 0:
            return 0.0
        n = collection_stats.cardinality
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        # tf·(k1+1)/(tf + k1·norm) increases in tf and is maximised at the
        # shortest document (norm -> 1-b); bound with norm >= 0 for safety.
        saturation = (max_tf * (self.k1 + 1.0)) / (
            max_tf + self.k1 * (1.0 - self.b)
        )
        return query_stats.tq(term) * idf * saturation


class DirichletLanguageModel(RankingFunction):
    """Query likelihood with Dirichlet-prior smoothing.

    ``log p(Q|d) = Σ_w tq(w) · [ln(tf + μ·p(w|C)) − ln(len(d) + μ)]``
    with ``p(w|C) = tc(w, C) / len(C)``.

    In context-sensitive mode the background model ``p(w|C)`` comes from
    the context — the paper's Section 6.3 remark that small contexts make
    smoothing unreliable falls straight out of this estimator.
    """

    name = "dirichlet-lm"

    # Floor for the background probability: an unseen-in-collection term
    # would otherwise zero the likelihood.
    _EPSILON = 1e-9

    def __init__(self, mu: float = 2000.0):
        if mu <= 0:
            raise ValueError(f"mu must be positive, got {mu}")
        self.mu = mu

    def required_collection_specs(
        self, keywords: Sequence[str]
    ) -> List[StatisticSpec]:
        specs = [cardinality_spec(), total_length_spec()]
        for w in dict.fromkeys(keywords):
            specs.append(tc_spec(w))
        return specs

    def score(
        self,
        query_stats: QueryStatistics,
        doc_stats: DocumentStatistics,
        collection_stats: CollectionStatistics,
    ) -> float:
        coll_len = max(collection_stats.total_length, 1)
        total = 0.0
        for term, tq in query_stats.term_counts.items():
            p_background = max(
                collection_stats.tc_for(term) / coll_len, self._EPSILON
            )
            tf = doc_stats.tf(term)
            total += tq * (
                math.log(tf + self.mu * p_background)
                - math.log(doc_stats.length + self.mu)
            )
        return total

    def prepare(
        self,
        query_stats: QueryStatistics,
        collection_stats: CollectionStatistics,
    ) -> DocumentScorer:
        log = math.log
        mu = self.mu
        epsilon = self._EPSILON
        coll_len = max(collection_stats.total_length, 1)
        # Per term ``(tq, μ·p(w|C))``.
        weights = [
            (tq, mu * max(collection_stats.tc_for(term) / coll_len, epsilon))
            for term, tq in query_stats.term_counts.items()
        ]

        def score(length: int, tfs: Sequence[int]) -> float:
            log_length = log(length + mu)
            total = 0.0
            for (tq, mu_background), tf in zip(weights, tfs):
                total += tq * (log(tf + mu_background) - log_length)
            return total

        return score


def _hoisted_avgdl(collection_stats: CollectionStatistics, read: bool) -> float:
    """``avgdl`` as a prepared scorer hoists it.

    The reference reads ``avgdl`` only for a term with df > 0.  When no
    query term has one (``read`` is False) the value is never used, so
    an empty collection must not raise there and 1.0 stands in.
    """
    return collection_stats.avgdl if read else 1.0


DEFAULT_RANKING_FUNCTION = PivotedNormalizationTFIDF()

ALL_RANKING_FUNCTIONS = {
    PivotedNormalizationTFIDF.name: PivotedNormalizationTFIDF,
    BM25.name: BM25,
    DirichletLanguageModel.name: DirichletLanguageModel,
}
