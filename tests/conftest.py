"""Shared fixtures: a handmade mini-collection and a synthetic corpus.

The handmade collection keeps statistics small enough to verify by hand;
the synthetic corpus (session-scoped — generation costs a second or two)
exercises realistic scale and distributions.
"""

from __future__ import annotations

import pytest

from repro import (
    ContextSearchEngine,
    CorpusConfig,
    Document,
    InvertedIndex,
    build_index,
    generate_corpus,
)
from repro.selection import TransactionDatabase
from repro.views import ViewSizeEstimator, WideSparseTable

# The running example of Section 1.1: pancreas/leukemia in a digestive-
# system context, plus filler documents that shape the statistics.
HANDMADE_DOCS = [
    Document(
        "C1",
        {
            "title": "Complications following pancreas transplant",
            "abstract": "pancreas transplant outcomes and pancreas grafts",
            "mesh": "Diseases DigestiveSystem Neoplasms",
        },
    ),
    Document(
        "C2",
        {
            "title": "Organ failure with acute leukemia",
            "abstract": "leukemia treatment and organ failure outcomes",
            "mesh": "Diseases DigestiveSystem",
        },
    ),
    Document(
        "C3",
        {
            "title": "leukemia leukemia studies in cancer research",
            "abstract": "leukemia is common in cancer cohorts leukemia",
            "mesh": "Diseases Neoplasms",
        },
    ),
    Document(
        "C4",
        {
            "title": "gastric cancer and pancreas function",
            "abstract": "pancreas pancreatic enzyme levels",
            "mesh": "Diseases DigestiveSystem",
        },
    ),
    Document(
        "C5",
        {
            "title": "blood disorders overview",
            "abstract": "leukemia lymphoma and anemia incidence",
            "mesh": "Diseases Neoplasms Blood",
        },
    ),
    Document(
        "C6",
        {
            "title": "dietary fiber and digestion",
            "abstract": "fiber intake improves digestion outcomes",
            "mesh": "Diseases DigestiveSystem Nutrition",
        },
    ),
]


@pytest.fixture(scope="session")
def handmade_index() -> InvertedIndex:
    return build_index(HANDMADE_DOCS)


@pytest.fixture(scope="session")
def handmade_engine(handmade_index) -> ContextSearchEngine:
    return ContextSearchEngine(handmade_index)


@pytest.fixture(scope="session")
def corpus():
    """A small but realistic synthetic corpus (deterministic)."""
    return generate_corpus(CorpusConfig(num_docs=1500, seed=101))


@pytest.fixture(scope="session")
def corpus_index(corpus) -> InvertedIndex:
    return corpus.build_index()


@pytest.fixture(scope="session")
def corpus42():
    """A second corpus of the same size (seed 42), on which the v4
    density budget and the adaptive drift study are stated."""
    return generate_corpus(CorpusConfig(num_docs=1500, seed=42))


@pytest.fixture(scope="session")
def corpus42_index(corpus42) -> InvertedIndex:
    return corpus42.build_index()


@pytest.fixture(scope="session")
def corpus_engine(corpus_index) -> ContextSearchEngine:
    return ContextSearchEngine(corpus_index)


@pytest.fixture(scope="session")
def corpus_table(corpus_index) -> WideSparseTable:
    return WideSparseTable.from_index(corpus_index)


@pytest.fixture(scope="session")
def corpus_db(corpus_table) -> TransactionDatabase:
    return TransactionDatabase(corpus_table.predicate_sets())


@pytest.fixture(scope="session")
def corpus_estimator(corpus_table) -> ViewSizeEstimator:
    return ViewSizeEstimator(corpus_table, seed=7)
