"""Query model (Section 2.1).

A context-sensitive query ``Q_c = Q_k | P`` pairs a conventional keyword
query ``Q_k`` (conjunctive keywords over the content fields) with a
context specification ``P`` (conjunctive predicates over the predicate
field).  The unranked result is the set of documents in the context that
contain all the keywords.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from ..errors import QueryError


def _normalise(terms: Sequence[str], what: str) -> Tuple[str, ...]:
    cleaned = tuple(t.strip() for t in terms if t and t.strip())
    if not cleaned:
        raise QueryError(f"{what} must contain at least one term")
    return cleaned


@dataclass(frozen=True)
class KeywordQuery:
    """A conventional conjunctive keyword query ``Q_t = w_1 ∧ … ∧ w_n``."""

    keywords: Tuple[str, ...]

    def __init__(self, keywords: Sequence[str]):
        object.__setattr__(self, "keywords", _normalise(keywords, "keyword query"))

    def __len__(self) -> int:
        return len(self.keywords)

    def __str__(self) -> str:
        return " ".join(self.keywords)


@dataclass(frozen=True)
class ContextSpecification:
    """``P = p_1 ∧ p_2 … ∧ p_c``: a conjunction of context predicates.

    Predicates are single keywords from the predicate field (Definition 1);
    order is irrelevant to semantics, so they are stored sorted and
    deduplicated, which also makes subset tests against view keyword sets
    cheap.
    """

    predicates: Tuple[str, ...]

    def __init__(self, predicates: Sequence[str]):
        cleaned = _normalise(predicates, "context specification")
        object.__setattr__(self, "predicates", tuple(sorted(set(cleaned))))

    def __len__(self) -> int:
        return len(self.predicates)

    def __str__(self) -> str:
        return " ∧ ".join(self.predicates)

    def as_set(self) -> frozenset:
        """The predicate set (for subset tests against view keyword sets).

        Memoised: catalog matching tests one context against every view,
        so the set is built once per specification, not per test.
        """
        cached = getattr(self, "_predicate_set", None)
        if cached is None:
            cached = frozenset(self.predicates)
            object.__setattr__(self, "_predicate_set", cached)
        return cached

    def is_covered_by(self, keyword_set) -> bool:
        """Whether ``P ⊆ K`` — the usability condition of Theorem 4.1."""
        return self.as_set() <= frozenset(keyword_set)


@dataclass(frozen=True)
class ContextQuery:
    """``Q_c = Q_k | P``: the paper's context-sensitive query."""

    keyword_query: KeywordQuery
    context: ContextSpecification

    @property
    def keywords(self) -> Tuple[str, ...]:
        """The conventional keywords ``Q_k``."""
        return self.keyword_query.keywords

    @property
    def predicates(self) -> Tuple[str, ...]:
        """The context predicates ``P`` (sorted, deduplicated)."""
        return self.context.predicates

    def conventional_equivalent(self) -> KeywordQuery:
        """The conventional query ``Q_t = Q_k ∪ P``.

        Same unranked result as ``Q_c`` (predicates act as boolean
        filters), but ranked with whole-collection statistics — the
        baseline of Sections 6.1 and 6.3.
        """
        return KeywordQuery(self.keywords + self.predicates)

    def __str__(self) -> str:
        return f"{self.keyword_query} | {self.context}"


def parse_query(text: str) -> ContextQuery:
    """Parse the ``"w1 w2 | m1 m2"`` surface syntax into a :class:`ContextQuery`.

    Exactly one ``|`` separates keywords (left) from context predicates
    (right); both sides are whitespace-separated conjunctions.
    """
    if text.count("|") != 1:
        raise QueryError(
            f"expected exactly one '|' separating keywords from context: {text!r}"
        )
    keyword_part, predicate_part = text.split("|")
    return ContextQuery(
        KeywordQuery(keyword_part.split()),
        ContextSpecification(predicate_part.split()),
    )


def analyze_keyword(analyzer, keyword: str) -> str:
    """One query keyword through the index's content analyzer."""
    analyzed = analyzer.analyze_query_term(keyword)
    if analyzed is None:
        raise QueryError(f"keyword {keyword!r} was removed by analysis (stopword?)")
    return analyzed


def analyze_query(query: ContextQuery, analyzer, predicate_analyzer) -> ContextQuery:
    """Run a parsed query's terms through an index's analyzers.

    The flat engine, the sharded engine and the cluster's shard workers
    all analyse through this function, so a stopword keyword or an empty
    predicate fails with the same message on every shape.
    """
    keywords = [analyze_keyword(analyzer, w) for w in query.keywords]
    predicates = []
    for m in query.predicates:
        analyzed = predicate_analyzer.analyze_query_term(m)
        if analyzed is None:
            raise QueryError(f"empty context predicate: {m!r}")
        predicates.append(analyzed)
    return ContextQuery(KeywordQuery(keywords), ContextSpecification(predicates))
