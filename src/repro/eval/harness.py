"""Experiment harness for the ranking-quality comparison (Section 6.1).

Runs every benchmark topic through both rankings — context-sensitive
(Formula 4) and conventional (Formula 3 with the context as a boolean
filter) — and collects the per-topic precision@K and reciprocal-rank
series of Figure 6 plus the mean summary the paper quotes (7.9 → 10.2
precision, 0.62 → 0.78 MRR at PubMed scale).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core.engine import ContextSearchEngine
from ..data.trec import QualityBenchmark, Topic
from .metrics import (
    average_precision,
    ndcg_at_k,
    precision_at_k,
    reciprocal_rank,
)


@dataclass(frozen=True)
class TopicOutcome:
    """Both systems' metrics on one topic."""

    topic_id: int
    question: str
    precision_context: int
    precision_conventional: int
    rr_context: float
    rr_conventional: float
    map_context: float
    map_conventional: float
    ndcg_context: float
    ndcg_conventional: float
    result_size: int


@dataclass
class QualityComparison:
    """The full Figure 6 dataset plus the Section 6.1 summary scalars."""

    k: int
    outcomes: List[TopicOutcome] = field(default_factory=list)

    # -- aggregate properties ------------------------------------------------

    @property
    def num_topics(self) -> int:
        return len(self.outcomes)

    @property
    def wins(self) -> int:
        """Topics where context-sensitive strictly beats conventional.

        A topic counts as a win when context-sensitive is strictly better
        on precision@K, or ties precision and is strictly better on
        reciprocal rank.
        """
        return sum(
            1
            for o in self.outcomes
            if (o.precision_context, o.rr_context)
            > (o.precision_conventional, o.rr_conventional)
        )

    @property
    def losses(self) -> int:
        return sum(
            1
            for o in self.outcomes
            if (o.precision_context, o.rr_context)
            < (o.precision_conventional, o.rr_conventional)
        )

    @property
    def ties(self) -> int:
        return self.num_topics - self.wins - self.losses

    def mean(self, attribute: str) -> float:
        if not self.outcomes:
            return 0.0
        return sum(getattr(o, attribute) for o in self.outcomes) / len(self.outcomes)

    def summary(self) -> Dict[str, float]:
        """The scalars Section 6.1 quotes, as a printable mapping."""
        return {
            "topics": self.num_topics,
            "context_wins": self.wins,
            "conventional_wins": self.losses,
            "ties": self.ties,
            "mean_precision_conventional": self.mean("precision_conventional"),
            "mean_precision_context": self.mean("precision_context"),
            "mrr_conventional": self.mean("rr_conventional"),
            "mrr_context": self.mean("rr_context"),
            "map_conventional": self.mean("map_conventional"),
            "map_context": self.mean("map_context"),
            "ndcg_conventional": self.mean("ndcg_conventional"),
            "ndcg_context": self.mean("ndcg_context"),
        }


def run_quality_comparison(
    engine: ContextSearchEngine,
    benchmark: QualityBenchmark,
    k: int = 20,
) -> QualityComparison:
    """Evaluate every topic under both rankings (the Figure 6 experiment)."""
    comparison = QualityComparison(k=k)
    for topic in benchmark.topics:
        context_ranked = engine.search(topic.query).external_ids()
        conventional_ranked = engine.search_conventional(topic.query).external_ids()
        comparison.outcomes.append(
            _score_topic(topic, context_ranked, conventional_ranked, k)
        )
    return comparison


def run_quality_comparison_batched(
    engine: ContextSearchEngine,
    benchmark: QualityBenchmark,
    k: int = 20,
    max_workers: Optional[int] = None,
) -> QualityComparison:
    """:func:`run_quality_comparison` through ``engine.search_many``.

    Both ranking arms run as batches (context-sensitive first, then the
    conventional baseline), sharing context materialisations and decoded
    posting columns across topics.  Because batch execution is
    answer-preserving, the metrics are identical to the sequential
    harness — only faster on workloads with repeated contexts.  A topic
    whose query fails under either arm is scored on empty rankings, same
    as a query returning nothing.
    """
    queries = [topic.query for topic in benchmark.topics]
    context_report = engine.search_many(queries, max_workers=max_workers)
    conventional_report = engine.search_many(
        queries, mode="conventional", max_workers=max_workers
    )

    comparison = QualityComparison(k=k)
    for topic, ctx, conv in zip(
        benchmark.topics, context_report.outcomes, conventional_report.outcomes
    ):
        context_ranked = ctx.results.external_ids() if ctx.ok else []
        conventional_ranked = conv.results.external_ids() if conv.ok else []
        comparison.outcomes.append(
            _score_topic(topic, context_ranked, conventional_ranked, k)
        )
    return comparison


def _score_topic(
    topic: Topic,
    context_ranked: Sequence[str],
    conventional_ranked: Sequence[str],
    k: int,
) -> TopicOutcome:
    relevant = topic.relevant
    return TopicOutcome(
        topic_id=topic.topic_id,
        question=topic.question,
        precision_context=precision_at_k(context_ranked, relevant, k),
        precision_conventional=precision_at_k(conventional_ranked, relevant, k),
        rr_context=reciprocal_rank(context_ranked, relevant),
        rr_conventional=reciprocal_rank(conventional_ranked, relevant),
        map_context=average_precision(context_ranked, relevant),
        map_conventional=average_precision(conventional_ranked, relevant),
        ndcg_context=ndcg_at_k(context_ranked, relevant, k),
        ndcg_conventional=ndcg_at_k(conventional_ranked, relevant, k),
        result_size=len(context_ranked),
    )
